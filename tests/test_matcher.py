import random

import numpy as np
import pytest

import degmatch.matcher as matcher
from degmatch import (
    Alphabet,
    EmptyPattern,
    FAKE,
    REAL,
    RandomInstanceSpec,
    find_occurrences,
    generate_instance,
    naive_match,
    parse_bracket,
    parse_iupac,
    parse_solid,
)
from degmatch.matcher import (
    filter_occurrences,
    kangaroo_search,
    precompute_membership,
    prepare,
    substitute,
)

# Stage 2 output for the golden pattern/text pair, rows j=1..3 over
# alignments i=0..10.
GOLDEN_TABLE = [
    [1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2],
    [2, 5, 2, 2, 5, 2, 2, 3, 2, 2, 5],
    [3, 6, 3, 3, 6, 3, 4, 5, 3, 3, 6],
]


def pipeline(pattern, text):
    """Stages 1 and 2 as find_occurrences runs them, with the
    intermediates returned for inspection."""
    sub_p, sub_t, index = prepare(pattern, text)
    table, approx = kangaroo_search(sub_p, sub_t.ranks, index)
    return sub_p, sub_t, table, approx


def window_budgets(pattern, text):
    """b_i = min(m, k_pattern + non-solid text symbols in window i), counted
    from the parsed symbols."""
    m, k_p = len(pattern), len(pattern.non_solid_positions)
    return [
        min(m, k_p + sum(1 for p in text.non_solid_positions if i < p <= i + m))
        for i in range(len(text) - m + 1)
    ]


def _runs_of_n(rng, n, m):
    """Random DNA with two N runs longer than m and a few ambiguity codes."""
    text = [rng.choice("ACGT") for _ in range(n)]
    for start in (rng.randrange(0, n // 2 - m - 3), rng.randrange(n // 2, n - m - 3)):
        text[start : start + m + 3] = "N" * (m + 3)
    for p in rng.sample(range(n), 3):
        text[p] = rng.choice("RYSWKM")
    return "".join(text)


# Adversarial degenerate-text families: (pattern, text, parser) per seed.
ADVERSARIAL = {
    "all-n-text": lambda rng: (
        "".join(rng.choice("ACGTRN") for _ in range(rng.randint(1, 6))),
        "N" * rng.randint(6, 30),
        parse_iupac,
    ),
    "n-runs-longer-than-m": lambda rng: (
        "".join(rng.choice("ACGTACGTRY") for _ in range(5)),
        _runs_of_n(rng, 80, 5),
        parse_iupac,
    ),
    "m-equals-n": lambda rng: (
        "".join(rng.choice("ACGTN") for _ in range(7)),
        "".join(rng.choice("ACGTRYN") for _ in range(7)),
        parse_iupac,
    ),
    "sigma-1": lambda rng: (
        "a" * rng.randint(1, 4),
        "a" * rng.randint(4, 12),
        lambda raw: parse_solid(raw, Alphabet("a")),
    ),
    "budget-clamped-at-m": lambda rng: (
        "N" * rng.randint(2, 4) + rng.choice("ACGT"),
        "ACGT" + "N" * rng.randint(6, 12) + "".join(rng.choice("ACGT") for _ in range(6)),
        parse_iupac,
    ),
}


class TestSubstitute:
    def test_golden_pattern(self, abcd, golden_pattern):
        sub = substitute(golden_pattern)
        assert sub.ranks.tolist() == [0, 4, 3, 0, 5]
        assert sub.placeholder_positions == (2, 5)
        assert [s.chars() for s in sub.original_sets] == ["bc", "bd"]

    def test_solid_pattern_unchanged(self, abcd):
        sub = substitute(parse_solid("abc", abcd))
        assert sub.ranks.tolist() == [0, 1, 2]
        assert sub.k == 0

    def test_single_non_solid(self, abcd):
        sub = substitute(parse_bracket("[ab]", abcd))
        assert sub.ranks.tolist() == [4]
        assert sub.placeholder_positions == (1,)

    def test_rank_offset(self, abcd):
        sub = substitute(parse_bracket("[ab]c[cd]", abcd), first_placeholder_rank=9)
        assert sub.ranks.tolist() == [9, 2, 10]

    def test_ranks_immutable(self, golden_pattern):
        sub = substitute(golden_pattern)
        with pytest.raises(ValueError):
            sub.ranks[0] = 3


class TestMembership:
    def test_golden_sets(self, abcd, golden_pattern):
        table = precompute_membership(substitute(golden_pattern))
        assert table.shape == (2, 4)
        assert table[0, abcd.rank("b")] and table[0, abcd.rank("c")]
        assert not table[0, abcd.rank("a")]
        assert table[1, abcd.rank("d")]
        assert not table[1, abcd.rank("c")]

    def test_solid_pattern_empty_table(self, abcd):
        table = precompute_membership(substitute(parse_solid("ab", abcd)))
        assert table.shape == (0, 4)


class TestKangarooSearch:
    def test_golden_table(self, golden_pattern, golden_text):
        _, _, table, approx = pipeline(golden_pattern, golden_text)
        assert table.entries.T.tolist() == GOLDEN_TABLE
        assert approx == (1, 4, 10)

    def test_golden_column_seven(self, golden_pattern, golden_text):
        _, _, table, _ = pipeline(golden_pattern, golden_text)
        assert table.column(7) == (2, 3, 5)

    def test_sentinel_in_approximate_columns(self, golden_pattern, golden_text):
        _, _, table, _ = pipeline(golden_pattern, golden_text)
        for i in (1, 4, 10):
            assert table.entry(i, 3) == 6 == table.sentinel

    def test_solid_exact_matching(self, abcd):
        pattern = parse_solid("aa", abcd)
        text = parse_solid("aaa", abcd)
        _, _, table, approx = pipeline(pattern, text)
        assert table.entries[:, 0].tolist() == [3, 3]
        assert approx == (0, 1)

    def test_query_count_exact_for_solid_text(self, golden_pattern, golden_text):
        _, _, table, _ = pipeline(golden_pattern, golden_text)
        assert table.query_count == 3 * 11

    def test_default_budget_counts_text_placeholders_in_window(self, abcd):
        # the window "a[bc]" mismatches at its text placeholder, so a budget
        # of k_pattern = 0 alone would miss the occurrence
        pattern, text = parse_solid("ab", abcd), parse_bracket("a[bc]", abcd)
        _, _, table, approx = pipeline(pattern, text)
        assert approx == (0,)
        assert table.budget == 1
        assert find_occurrences(pattern, text).exact_occurrences == (1,)

    @pytest.mark.parametrize("family", sorted(ADVERSARIAL))
    def test_adversarial_degenerate_text(self, family):
        rng = random.Random(family)
        for _ in range(25):
            raw_pattern, raw_text, parse = ADVERSARIAL[family](rng)
            pattern, text = parse(raw_pattern), parse(raw_text)
            _, _, table, approx = pipeline(pattern, text)
            expected = naive_match(pattern, text)
            assert set(p - 1 for p in expected) <= set(approx), (raw_pattern, raw_text)
            budgets = window_budgets(pattern, text)
            assert table.query_count <= sum(b + 1 for b in budgets)
            assert table.entries.shape[1] == max(budgets) + 1
            report = find_occurrences(pattern, text)
            assert list(report.exact_occurrences) == expected, (raw_pattern, raw_text)
            assert report.lce_queries == table.query_count

    def test_table_width_bounded_by_placeholders_per_window(self, monkeypatch):
        # n = 20,000 with 1,000 scattered N's: a k_total budget would make
        # the table 1,001 columns wide
        n, m, gaps = 20_000, 64, 1_000
        rng = np.random.default_rng(20_000)
        bases = np.array(list("ACGT"))[rng.integers(0, 4, n)]
        raw_pattern = "".join(bases[5_000 : 5_000 + m])
        bases[rng.choice(np.setdiff1d(np.arange(n), np.arange(5_000, 5_000 + m)),
                         gaps, replace=False)] = "N"
        pattern, text = parse_iupac(raw_pattern), parse_iupac("".join(bases))

        searches = []

        def recording_search(*args, **kwargs):
            searches.append(kangaroo_search(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(matcher, "kangaroo_search", recording_search)
        report = find_occurrences(pattern, text)
        [(table, approx)] = searches

        in_window = np.convolve(bases == "N", np.ones(m, dtype=np.int64), mode="valid")
        width = min(m, len(pattern.non_solid_positions) + int(in_window.max())) + 1
        assert len(text.non_solid_positions) == gaps
        assert table.entries.shape == (n - m + 1, table.budget + 1)
        assert table.budget + 1 <= width
        assert table.entries.nbytes <= (n - m + 1) * width * 4
        assert 5_000 in approx
        assert 5_001 in report.exact_occurrences


class TestFilter:
    def test_golden_verdicts(self, golden_pattern, golden_text):
        sub_p, sub_t, table, approx = pipeline(golden_pattern, golden_text)
        report = filter_occurrences(
            sub_p, sub_t.ranks, approx, precompute_membership(sub_p), diagnostics=True
        )
        assert report.exact_occurrences == (2, 5)
        assert report.verdicts == ((FAKE, FAKE), (FAKE, FAKE), (FAKE, REAL))

    def test_solid_pattern_everything_exact(self, abcd):
        pattern = parse_solid("aa", abcd)
        text = parse_solid("aaa", abcd)
        sub_p, sub_t, table, approx = pipeline(pattern, text)
        report = filter_occurrences(sub_p, sub_t.ranks, approx, precompute_membership(sub_p))
        assert report.exact_occurrences == (1, 2)

    def test_no_approximate_occurrences(self, abcd):
        pattern = parse_solid("ab", abcd)
        text = parse_solid("dddd", abcd)
        sub_p, sub_t, table, approx = pipeline(pattern, text)
        report = filter_occurrences(sub_p, sub_t.ranks, approx, precompute_membership(sub_p))
        assert report.exact_occurrences == () and report.approximate_occurrences == ()


class TestFindOccurrences:
    def test_golden_end_to_end(self, golden_pattern, golden_text):
        report = find_occurrences(golden_pattern, golden_text)
        assert report.exact_occurrences == (2, 5)
        assert report.verdicts is None

    def test_degenerate_text_singleton_pattern(self, abcd):
        pattern = parse_solid("a", abcd)
        text = parse_bracket("[ab]c", abcd)
        report = find_occurrences(pattern, text)
        assert report.exact_occurrences == (1,)

    def test_empty_pattern_rejected(self, abcd, golden_text):
        with pytest.raises(EmptyPattern):
            find_occurrences(parse_solid("", abcd), golden_text)

    def test_mismatched_alphabets_rejected(self, golden_text):
        other = Alphabet("xy")
        with pytest.raises(ValueError):
            find_occurrences(parse_solid("x", other), golden_text)

    def test_pattern_longer_than_text_is_empty_report(self, abcd):
        report = find_occurrences(parse_solid("aaaa", abcd), parse_solid("aa", abcd))
        assert report.exact_occurrences == ()
        assert report.lce_queries == 0

    def test_deterministic(self, golden_pattern, golden_text):
        a = find_occurrences(golden_pattern, golden_text, diagnostics=True)
        b = find_occurrences(golden_pattern, golden_text, diagnostics=True)
        assert a == b

    def test_text_placeholder_against_solid_pattern(self, abcd):
        # the text set intersects the pattern character in one case only
        assert find_occurrences(
            parse_solid("ab", abcd), parse_bracket("a[bc]", abcd)
        ).exact_occurrences == (1,)
        assert find_occurrences(
            parse_solid("ab", abcd), parse_bracket("a[cd]", abcd)
        ).exact_occurrences == ()

    def test_placeholder_against_placeholder(self, abcd):
        # both sides non-solid: verdict comes from intersecting both sets
        assert find_occurrences(
            parse_bracket("a[bc]", abcd), parse_bracket("a[cd]", abcd)
        ).exact_occurrences == (1,)
        assert find_occurrences(
            parse_bracket("[ab]", abcd), parse_bracket("[cd]", abcd)
        ).exact_occurrences == ()

    def test_solid_mismatch_can_enter_budget_but_never_matches(self, abcd):
        # with a degenerate text, a solid-vs-solid mismatch can fit inside
        # the window's budget; the filter must still reject it
        pattern = parse_bracket("a[bc]", abcd)
        text = parse_bracket("d[cd]", abcd)
        _, _, table, approx = pipeline(pattern, text)
        # solid mismatch at 1, placeholder against placeholder at 2: b_0 = 2
        assert approx == (0,) and table.column(0) == (1, 2, 3)
        report = find_occurrences(pattern, text)
        assert report.exact_occurrences == ()
        assert naive_match(pattern, text) == []

    def test_matches_oracle_on_mixed_instances(self):
        rng = random.Random(4242)
        for trial in range(200):
            sigma = rng.choice([2, 3, 4, 8])
            m = rng.randint(1, 8)
            n = rng.randint(m, 64)
            spec = RandomInstanceSpec(
                n=n, m=m, sigma=sigma,
                k_pattern=rng.randint(0, min(3, m)),
                k_text=rng.randint(0, min(3, n)),
                max_set_size=rng.randint(2, sigma) if sigma > 2 else 2,
                seed=trial,
            )
            pattern, text = generate_instance(spec)
            report = find_occurrences(pattern, text)
            assert list(report.exact_occurrences) == naive_match(pattern, text), spec


class TestStructuralInvariants:
    def _random_solid_instances(self, count=120):
        rng = random.Random(99)
        for trial in range(count):
            sigma = rng.choice([2, 4])
            m = rng.randint(1, 10)
            spec = RandomInstanceSpec(
                n=rng.randint(m, 80), m=m, sigma=sigma,
                k_pattern=rng.randint(0, min(4, m)), k_text=0,
                max_set_size=2, seed=trial,
            )
            yield generate_instance(spec)

    def test_approximate_mismatches_are_exactly_placeholder_positions(self):
        # with a solid text an approximate occurrence mismatches at every
        # placeholder position and nowhere else
        for pattern, text in self._random_solid_instances():
            sub_p, sub_t, table, approx = pipeline(pattern, text)
            expected = set(sub_p.placeholder_positions)
            for i in approx:
                entries = {e for e in table.column(i) if e != table.sentinel}
                assert entries == expected

    def test_rows_strictly_increase_until_sentinel(self):
        for pattern, text in self._random_solid_instances(60):
            _, _, table, _ = pipeline(pattern, text)
            for i in range(table.alignments):
                row = table.column(i)
                for a, b in zip(row, row[1:]):
                    assert a < b or a == b == table.sentinel

    def test_non_sentinel_entries_are_real_text_mismatches(self):
        for pattern, text in self._random_solid_instances(60):
            sub_p, sub_t, table, _ = pipeline(pattern, text)
            for i in range(table.alignments):
                for e in table.column(i):
                    if e != table.sentinel:
                        assert sub_t.ranks[i + e - 1] != sub_p.ranks[e - 1]

    def test_degenerate_text_entries_enumerate_all_window_mismatches(self):
        rng = random.Random(123)
        for trial in range(60):
            spec = RandomInstanceSpec(
                n=rng.randint(4, 40), m=rng.randint(1, 4), sigma=4,
                k_pattern=rng.randint(0, 1), k_text=rng.randint(1, 3),
                max_set_size=2, seed=trial,
            )
            pattern, text = generate_instance(spec)
            sub_p, sub_t, table, approx = pipeline(pattern, text)
            for i in approx:
                entries = {e for e in table.column(i) if e != table.sentinel}
                window_mismatches = {
                    e for e in range(1, len(pattern) + 1)
                    if sub_t.ranks[i + e - 1] != sub_p.ranks[e - 1]
                }
                assert entries == window_mismatches
