import random

import numpy as np
import pytest

import degmatch.lce as lce
import degmatch.matcher as matcher
from degmatch import (
    Alphabet,
    DegenerateSymbol,
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
    """The index and stage 2 as find_occurrences runs them, returned for
    inspection."""
    index = prepare(pattern, text)
    table, approx = kangaroo_search(pattern, text, index)
    return index, table, approx


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


# 70 symbols, so a set holding rank 69 is wider than a machine word.
WIDE = Alphabet(chr(0x100 + 2 * i) for i in range(70))


def _sigma_70(rng):
    """Solid symbols of ranks 0, 1 and 69, and two-member sets that all
    hold rank 69; the text is solid for about half the seeds."""
    def symbol(degenerate):
        if degenerate:
            return "[" + WIDE.char(rng.choice((0, 1))) + WIDE.char(69) + "]"
        return WIDE.char(rng.choice((0, 1, 69)))

    text_sets = rng.random() < 0.5
    return (
        "".join(symbol(rng.random() < 0.4) for _ in range(rng.randint(1, 5))),
        "".join(symbol(text_sets and rng.random() < 0.3) for _ in range(rng.randint(5, 30))),
        lambda raw: parse_bracket(raw, WIDE),
    )


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
    "sigma-70": _sigma_70,
}


class TestSubstitute:
    def test_golden_pattern(self, abcd, golden_pattern):
        assert golden_pattern.ranks.tolist() == [0, 4, 3, 0, 5]
        assert golden_pattern.non_solid_positions == (2, 5)
        sets = [DegenerateSymbol(abcd, mask).chars() for mask in golden_pattern.sets]
        assert sets == ["bc", "bd"]

    def test_solid_pattern_unchanged(self, abcd):
        s = parse_solid("abc", abcd)
        assert s.ranks.tolist() == [0, 1, 2]
        assert s.sets == ()

    def test_single_non_solid(self, abcd):
        s = parse_bracket("[ab]", abcd)
        assert s.ranks.tolist() == [4]
        assert s.non_solid_positions == (1,)

    def test_rank_offset(self, abcd):
        ranks = substitute(parse_bracket("[ab]c[cd]", abcd), code=9)
        assert ranks.tolist() == [9, 2, 9]

    def test_ranks_immutable(self, golden_pattern):
        with pytest.raises(ValueError):
            golden_pattern.ranks[0] = 3


def _members(rows):
    """Membership rows unpacked to one bool per alphabet rank."""
    return np.unpackbits(rows, axis=1, bitorder="little").astype(bool)


class TestMembership:
    def test_golden_sets(self, abcd, golden_pattern):
        rows = precompute_membership(golden_pattern)
        assert rows.shape == (4 + 2, 1)
        members = _members(rows)
        assert (members[:4, :4] == np.eye(4, dtype=bool)).all()  # the base symbols
        bc, bd = members[golden_pattern.ranks[[1, 4]]]
        assert bc[abcd.rank("b")] and bc[abcd.rank("c")]
        assert not bc[abcd.rank("a")]
        assert bd[abcd.rank("d")]
        assert not bd[abcd.rank("c")]

    def test_solid_pattern_empty_table(self, abcd):
        # no set rows after the four base rows
        rows = precompute_membership(parse_solid("ab", abcd))
        assert rows.shape == (4, 1)

    def test_wide_alphabet(self):
        s = parse_bracket(WIDE.char(69) + "[" + WIDE.char(1) + WIDE.char(69) + "]", WIDE)
        members = _members(precompute_membership(s))
        assert members.shape == (70 + 1, 72)
        assert members[s.ranks[0]].nonzero()[0].tolist() == [69]
        assert members[s.ranks[1]].nonzero()[0].tolist() == [1, 69]


class TestKangarooSearch:
    def test_golden_table(self, golden_pattern, golden_text):
        _, table, approx = pipeline(golden_pattern, golden_text)
        assert table.entries.T.tolist() == GOLDEN_TABLE
        assert approx == (1, 4, 10)

    def test_golden_column_seven(self, golden_pattern, golden_text):
        _, table, _ = pipeline(golden_pattern, golden_text)
        assert table.column(7) == (2, 3, 5)

    def test_sentinel_in_approximate_columns(self, golden_pattern, golden_text):
        _, table, _ = pipeline(golden_pattern, golden_text)
        for i in (1, 4, 10):
            assert table.entry(i, 3) == 6 == table.sentinel

    def test_solid_exact_matching(self, abcd):
        pattern = parse_solid("aa", abcd)
        text = parse_solid("aaa", abcd)
        _, table, approx = pipeline(pattern, text)
        assert table.entries[:, 0].tolist() == [3, 3]
        assert approx == (0, 1)

    def test_empty_range_gives_an_empty_table(self, golden_pattern, golden_text):
        index = prepare(golden_pattern, golden_text)
        table, approx = kangaroo_search(golden_pattern, golden_text, index, range(3, 3))
        assert table.entries.shape[0] == table.alignments == 0
        assert table.query_count == 0 and approx == ()

    def test_query_count_exact_for_solid_text(self, golden_pattern, golden_text):
        _, table, _ = pipeline(golden_pattern, golden_text)
        assert table.query_count == 3 * 11

    def test_default_budget_counts_text_placeholders_in_window(self, abcd):
        # the window "a[bc]" mismatches at its text placeholder, so a budget
        # of k_pattern = 0 alone would miss the occurrence
        pattern, text = parse_solid("ab", abcd), parse_bracket("a[bc]", abcd)
        _, table, approx = pipeline(pattern, text)
        assert approx == (0,)
        assert table.budget == 1
        assert find_occurrences(pattern, text).exact_occurrences == (1,)

    @pytest.mark.parametrize("family", sorted(ADVERSARIAL))
    def test_adversarial_degenerate_text(self, family):
        rng = random.Random(family)
        for _ in range(25):
            raw_pattern, raw_text, parse = ADVERSARIAL[family](rng)
            pattern, text = parse(raw_pattern), parse(raw_text)
            _, table, approx = pipeline(pattern, text)
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
        searches, report = _blocked_search(monkeypatch, raw_pattern, bases)
        assert report.lce_queries == sum(table.query_count for table, _ in searches)
        assert any(5_000 in approx for _, approx in searches)
        assert 5_001 in report.exact_occurrences

    def test_one_wide_gap_keeps_every_block_table_small(self, monkeypatch):
        # one gap of 1,024 N's with m = 1,024 made one whole-text table of
        # 18,977 x 1,025 cells (74 MiB)
        n, m, gap = 20_000, 1_024, 1_024
        rng = np.random.default_rng(20_000)
        bases = np.array(list("ACGT"))[rng.integers(0, 4, n)]
        raw_pattern = "".join(bases[5_000 : 5_000 + m])
        bases[10_000 : 10_000 + gap] = "N"
        searches, report = _blocked_search(monkeypatch, raw_pattern, bases)
        b_max = max(table.budget for table, _ in searches)
        assert b_max == m
        assert max(table.entries.nbytes for table, _ in searches) <= (1 << 20) + (b_max + 1) * 4
        assert any(5_000 in approx for _, approx in searches)
        assert 5_001 in report.exact_occurrences

    def test_solid_text_blocks_are_full_and_k_pattern_wide(self, monkeypatch):
        # every alignment of a solid text has the budget k_pattern and
        # meets all k_pattern placeholders, so it makes exactly k_p + 1 jumps
        n, m, k_p = 100_000, 64, 7
        rng = np.random.default_rng(100_000)
        bases = np.array(list("ACGT"))[rng.integers(0, 4, n)]
        pattern = bases[5_000 : 5_000 + m].copy()
        pattern[rng.choice(m, k_p, replace=False)] = "N"
        searches, report = _blocked_search(monkeypatch, "".join(pattern), bases)
        rows = matcher.BLOCK_CELLS // (k_p + 1)
        assert len(searches) > 2
        assert all(table.entries.shape[1] == k_p + 1 for table, _ in searches)
        assert [table.alignments for table, _ in searches[:-1]] == [rows] * (len(searches) - 1)
        queries = sum(table.query_count for table, _ in searches)
        assert queries == report.lce_queries == (k_p + 1) * (n - m + 1)
        assert 5_001 in report.exact_occurrences

    def test_solid_text_budgets_are_a_zero_stride_view(self, abcd):
        pattern, text = parse_bracket("a[bc]d", abcd), parse_solid("abdacdab", abcd)
        budgets = matcher.window_budgets(pattern, text)
        assert budgets.dtype == np.int32
        assert budgets.strides == (0,)  # one k_pattern for all alignments, no array
        assert not budgets.flags.writeable
        assert budgets.tolist() == [1] * 6


def _blocked_search(monkeypatch, raw_pattern, bases):
    """find_occurrences of ``raw_pattern`` in the DNA/N characters ``bases``,
    with every kangaroo_search call recorded; checks that the blocks cover
    every alignment once, each as wide as its own widest budget b_i + 1
    and within BLOCK_CELLS cells (or one row), and each as long as those
    cells allow."""
    searches = []

    def recording_search(*args, **kwargs):
        searches.append(kangaroo_search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(matcher, "kangaroo_search", recording_search)
    pattern, text = parse_iupac(raw_pattern), parse_iupac("".join(bases))
    report = find_occurrences(pattern, text)

    m, count = len(raw_pattern), len(bases) - len(raw_pattern) + 1
    in_window = np.convolve(bases == "N", np.ones(m, dtype=np.int64), mode="valid")
    budgets = np.minimum(m, len(pattern.non_solid_positions) + in_window)
    b_max = int(budgets.max())
    assert len(text.non_solid_positions) == int(np.count_nonzero(bases == "N"))
    covered = []
    for table, _ in searches:
        block = range(table.first, table.first + table.alignments)
        covered.extend(block)
        assert table.budget == int(budgets[block.start : block.stop].max())
        assert table.entries.shape == (len(block), table.budget + 1)
        assert table.entries.size <= max(matcher.BLOCK_CELLS, b_max + 1)
        if block.stop < count:
            # one more alignment would overflow the block's cells
            wider = int(budgets[block.start : block.stop + 1].max()) + 1
            assert (len(block) + 1) * wider > matcher.BLOCK_CELLS
    assert covered == list(range(count))
    return searches, report


def _block_cases():
    """Seeded (pattern, text) pairs: solid and degenerate random texts and
    every adversarial family."""
    rng = random.Random(2024)
    for trial in range(60):
        sigma = rng.choice([2, 4, 8])
        m = rng.randint(1, 8)
        spec = RandomInstanceSpec(
            n=rng.randint(m, 120), m=m, sigma=sigma,
            k_pattern=rng.randint(0, min(3, m)),
            k_text=rng.randint(1, 6) if trial % 2 else 0,
            max_set_size=2, seed=trial,
        )
        yield generate_instance(spec)
    for family in sorted(ADVERSARIAL):
        family_rng = random.Random(family)
        for _ in range(8):
            raw_pattern, raw_text, parse = ADVERSARIAL[family](family_rng)
            yield parse(raw_pattern), parse(raw_text)


@pytest.fixture
def suffix_sorts(monkeypatch):
    """The doubling rounds of every suffix sort an LCE index runs in the
    test."""
    calls = []
    sort = lce._suffix_array

    def recording_sort(*args):
        order, levels = sort(*args)
        calls.append(len(levels))
        return order, levels

    monkeypatch.setattr(lce, "_suffix_array", recording_sort)
    return calls


def _in_phase(run, text_ns):
    """A period-3 ``ACG`` pattern with an N after every ``run`` symbols, and
    a 3,000-symbol ``ACG`` text with ``text_ns`` Ns at seeded positions:
    an in-phase window matches every run of the pattern through to the
    next N."""
    raw_pattern = list("ACG" * (4 * run // 3 + 2))[: 4 * run + 3]
    for p in range(run, len(raw_pattern), run + 1):
        raw_pattern[p] = "N"
    raw_text = list("ACG" * 1_000)
    for p in random.Random(run).sample(range(len(raw_text)), text_ns):
        raw_text[p] = "N"
    return "".join(raw_pattern), "".join(raw_text)


def _assert_in_phase_report(pattern, text, report):
    assert len(report.exact_occurrences) >= 3_000 // 3 - len(pattern) // 3
    assert list(report.exact_occurrences) == naive_match(pattern, text)
    budgets = window_budgets(pattern, text)
    # alignment i jumps once per mismatch of its substituted window, up
    # to its budget, and once more; on a solid text that is b_i + 1
    seq = prepare(pattern, text).seq
    n, m = len(text), len(pattern)
    windows = np.lib.stride_tricks.sliding_window_view(seq[:n], m)
    distances = np.count_nonzero(windows != seq[n : n + m], axis=1)
    assert report.lce_queries == int(np.sum(np.minimum(budgets, distances) + 1))
    if not text.sets:
        assert report.lce_queries == sum(b + 1 for b in budgets)


def _naive_lce_many(seq, i, j):
    """LCE of every pair (i[x], j[x]) of ``seq``, one symbol at a time."""
    q = np.zeros(i.size, dtype=np.int64)
    going = np.ones(i.size, dtype=bool)
    while going.any():
        a, b = i + q, j + q
        going &= np.maximum(a, b) < seq.size
        going[going] = seq[a[going]] == seq[b[going]]
        q += going
    return q


def test_every_lce_query_meets_the_index_contract(monkeypatch):
    # LceIndex checks none of its preconditions; this test holds every
    # pair a search asks for to them, and every answer to the naive LCE
    calls = []
    lce_many = lce.LceIndex.lce_many

    def recording_lce_many(index, i, j):
        got = lce_many(index, i, j)
        calls.append((index.seq, np.array(i), np.array(j), got.copy()))
        return got

    monkeypatch.setattr(lce.LceIndex, "lce_many", recording_lce_many)
    cases = list(_block_cases())
    cases += [
        tuple(parse_iupac(raw) for raw in _in_phase(run, text_ns))
        for run in (9, 65) for text_ns in (0, 300)
    ]
    cases.append((parse_iupac("ACNTNA"), parse_iupac("ACGTTA")))  # m = n
    for pattern, text in cases:
        calls.clear()
        find_occurrences(pattern, text)
        n, m = len(text), len(pattern)
        seq = prepare(pattern, text).seq
        separator = len(pattern.alphabet) + 2
        assert calls
        for indexed, i, j, got in calls:
            assert np.array_equal(indexed, seq)
            assert seq[-1] == separator and np.count_nonzero(seq == separator) == 1
            # a text offset against a pattern offset, or, after the last
            # alignment's last symbol, offset n against the separator
            assert np.all((0 <= i) & (i <= n) & (n <= j) & (j <= n + m))
            assert np.all(j[i == n] == n + m)
            assert np.array_equal(got, _naive_lce_many(seq, i, j))
            assert np.all(got <= n + m - j)


class TestOnDemandIndex:
    """The LCE index sorts suffixes only when a search's extensions outrun
    its word budget; the report is the same either way."""

    def test_solid_random_text_is_searched_without_a_sort(self, suffix_sorts):
        n, m, k_p = 100_000, 64, 7
        rng = np.random.default_rng(64)
        bases = np.array(list("ACGT"))[rng.integers(0, 4, n)]
        raw_pattern = bases[5_000 : 5_000 + m].copy()
        raw_pattern[rng.choice(m, k_p, replace=False)] = "N"
        pattern, text = parse_iupac("".join(raw_pattern)), parse_iupac("".join(bases))
        report = find_occurrences(pattern, text)
        assert suffix_sorts == []
        assert 5_001 in report.exact_occurrences
        assert list(report.exact_occurrences) == naive_match(pattern, text)
        assert report.lce_queries == sum(b + 1 for b in window_budgets(pattern, text))

    def test_period_3_text_sorts_once_per_search(self, suffix_sorts):
        raw_pattern = list("ACG" * 80)  # m = 240, in phase with the text
        raw_pattern[100] = "N"
        pattern, text = parse_iupac("".join(raw_pattern)), parse_iupac("ACG" * 2_000)
        for searches in (1, 2):
            report = find_occurrences(pattern, text)
            # the longest solid run is 139, so the words seed 8-prefixes
            # and doubling runs h = 8, 16, ..., 256
            assert suffix_sorts == [6] * searches
            assert report.exact_occurrences == tuple(range(1, 6_000 - 240 + 2, 3))
            assert list(report.exact_occurrences) == naive_match(pattern, text)
            assert report.lce_queries == sum(b + 1 for b in window_budgets(pattern, text))

    @pytest.mark.parametrize("text_ns", [0, 300])
    @pytest.mark.parametrize("run", [8, 9, 16, 64, 65, 128])
    def test_longest_solid_run_is_answered_exactly(self, suffix_sorts, run, text_ns):
        # the index is capped at the longest solid run R, and doubling stops
        # at h = R when R is a power of two
        raw_pattern, raw_text = _in_phase(run, text_ns)
        pattern, text = parse_iupac(raw_pattern), parse_iupac(raw_text)
        report = find_occurrences(pattern, text)
        _assert_in_phase_report(pattern, text, report)
        # every code fits in one byte, 300 text Ns or not; with R = 8 the
        # first word of every pair reaches the cap, so no index is built.
        # A solid text spends the word budget on every longer run.
        assert len(suffix_sorts) <= (run > 8)
        if text_ns == 0:
            assert len(suffix_sorts) == (run > 8)

    @pytest.mark.parametrize("text_ns", [0, 300])
    @pytest.mark.parametrize("run", [8, 9, 16, 64, 65, 128])
    def test_wide_codes_build_the_capped_index(self, suffix_sorts, run, text_ns):
        # the windows above over an alphabet of 254 symbols: the separator
        # code is 256, so the index holds 2-byte codes, 4 per word, and
        # every run outruns the first word
        symbols = [chr(0x100 + r) for r in range(254)]
        a, c, g = symbols[0], symbols[100], symbols[253]
        spelling = {"A": a, "C": c, "G": g, "N": f"[{a}{c}{g}{symbols[1]}]"}
        pattern, text = (
            parse_bracket("".join(spelling[x] for x in raw), Alphabet(symbols))
            for raw in _in_phase(run, text_ns)
        )
        report = find_occurrences(pattern, text)
        _assert_in_phase_report(pattern, text, report)
        assert prepare(pattern, text)._shift == 4
        # the words seed 4-prefixes, and doubling runs up to the first h >= R
        rounds, h = 1, 4
        while h < run:
            rounds, h = rounds + 1, 2 * h
        assert suffix_sorts == [rounds]


class TestBlocks:
    @pytest.mark.parametrize("cells", [1, 5, 64])
    def test_block_size_does_not_change_the_report(self, monkeypatch, cells):
        cases = list(_block_cases())
        expected = [find_occurrences(p, t, diagnostics=True) for p, t in cases]
        monkeypatch.setattr(matcher, "BLOCK_CELLS", cells)
        blocks = []

        def recording_search(*args, **kwargs):
            table, approx = kangaroo_search(*args, **kwargs)
            blocks[-1].append(table.alignments)
            return table, approx

        monkeypatch.setattr(matcher, "kangaroo_search", recording_search)
        for (pattern, text), want in zip(cases, expected):
            blocks.append([])
            got = find_occurrences(pattern, text, diagnostics=True)
            assert got.exact_occurrences == want.exact_occurrences
            assert got.approximate_occurrences == want.approximate_occurrences
            assert got.verdicts == want.verdicts
            assert got.lce_queries == want.lce_queries
            assert list(got.exact_occurrences) == naive_match(pattern, text)
            assert sum(blocks[-1]) == len(text) - len(pattern) + 1
        # some searches end on a partial block
        assert cells == 1 or any(len(b) > 1 and b[-1] < b[0] for b in blocks)


class TestFilter:
    def test_golden_verdicts(self, golden_pattern, golden_text):
        _, table, approx = pipeline(golden_pattern, golden_text)
        report = filter_occurrences(golden_pattern, golden_text, table, approx, diagnostics=True)
        assert report.exact_occurrences == (2, 5)
        assert report.verdicts == ((FAKE, FAKE), (FAKE, FAKE), (FAKE, REAL))

    def test_solid_pattern_everything_exact(self, abcd):
        pattern = parse_solid("aa", abcd)
        text = parse_solid("aaa", abcd)
        _, table, approx = pipeline(pattern, text)
        report = filter_occurrences(pattern, text, table, approx)
        assert report.exact_occurrences == (1, 2)

    def test_no_approximate_occurrences(self, abcd):
        pattern = parse_solid("ab", abcd)
        text = parse_solid("dddd", abcd)
        _, table, approx = pipeline(pattern, text)
        report = filter_occurrences(pattern, text, table, approx)
        assert report.exact_occurrences == () and report.approximate_occurrences == ()

    @pytest.mark.parametrize("raw_text,verdicts", [
        ("[ab]bdacd", (FAKE, FAKE)),  # the text placeholder is recorded too
        ("abdacd", (FAKE,)),  # solid text: the pattern placeholder alone
    ])
    def test_match_report_example(self, abcd, raw_text, verdicts):
        pattern = parse_bracket("a[bc]d", abcd)
        report = find_occurrences(pattern, parse_bracket(raw_text, abcd), diagnostics=True)
        assert report.exact_occurrences[0] == 1
        assert report.approximate_occurrences[0] == 0
        assert report.verdicts[0] == verdicts

    def test_verdicts_intersect_pattern_and_text_sets(self):
        # one verdict per recorded mismatch e of approximate alignment i:
        # fake iff the pattern set at e and the text set at i + e intersect
        rng = random.Random(404)
        for trial in range(300):
            sigma = rng.choice([2, 3, 4, 8, 20])
            m = rng.randint(1, 10)
            n = rng.randint(m, 80)
            spec = RandomInstanceSpec(
                n=n, m=m, sigma=sigma,
                k_pattern=rng.randint(0, min(3, m)),
                k_text=rng.randint(1, min(4, n)) if trial % 2 else 0,
                max_set_size=rng.randint(2, sigma) if sigma > 2 else 2,
                seed=trial,
            )
            pattern, text = generate_instance(spec)
            _, table, approx = pipeline(pattern, text)
            report = filter_occurrences(pattern, text, table, approx, diagnostics=True)
            assert report.approximate_occurrences == approx
            for i, verdicts in zip(approx, report.verdicts):
                expected = tuple(
                    FAKE if pattern.symbol_at(e).mask & text.symbol_at(i + e).mask else REAL
                    for e in table.column(i) if e != table.sentinel
                )
                assert verdicts == expected, spec
                assert (i + 1 in report.exact_occurrences) == (REAL not in verdicts), spec


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
        _, table, approx = pipeline(pattern, text)
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
            _, table, approx = pipeline(pattern, text)
            expected = set(pattern.non_solid_positions)
            for i in approx:
                entries = {e for e in table.column(i) if e != table.sentinel}
                assert entries == expected

    def test_rows_strictly_increase_until_sentinel(self):
        for pattern, text in self._random_solid_instances(60):
            _, table, _ = pipeline(pattern, text)
            for i in range(table.alignments):
                row = table.column(i)
                for a, b in zip(row, row[1:]):
                    assert a < b or a == b == table.sentinel

    def test_non_sentinel_entries_are_real_text_mismatches(self):
        for pattern, text in self._random_solid_instances(60):
            index, table, _ = pipeline(pattern, text)
            n = len(text)
            for i in range(table.alignments):
                for e in table.column(i):
                    if e != table.sentinel:
                        assert index.seq[i + e - 1] != index.seq[n + e - 1]

    def test_degenerate_text_entries_enumerate_all_window_mismatches(self):
        rng = random.Random(123)
        for trial in range(60):
            spec = RandomInstanceSpec(
                n=rng.randint(4, 40), m=rng.randint(1, 4), sigma=4,
                k_pattern=rng.randint(0, 1), k_text=rng.randint(1, 3),
                max_set_size=2, seed=trial,
            )
            pattern, text = generate_instance(spec)
            # the index holds the text's placeholders moved past the
            # pattern's; the parsed ranks of the two can coincide
            index, table, approx = pipeline(pattern, text)
            assert index.seq.dtype == np.int32  # prepare's ranks, not a wider copy
            n = len(text)
            for i in approx:
                entries = {e for e in table.column(i) if e != table.sentinel}
                window_mismatches = {
                    e for e in range(1, len(pattern) + 1)
                    if index.seq[i + e - 1] != index.seq[n + e - 1]
                }
                assert entries == window_mismatches
