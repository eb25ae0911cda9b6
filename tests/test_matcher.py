import dataclasses
import random
import tracemalloc

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
    _placeholder_count,
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
    assert table.ids.tolist() == list(range(len(text) - len(pattern) + 1))
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


# Sets over abcd that nest or overlap: [ab] < [abc] < [bd] in mask order.
ABCD = Alphabet("abcd")
NESTED = ("a", "b", "c", "d", "[abc]", "[bd]")


def _repeated_bracket_sets(rng):
    """Pattern and text that repeat the nested sets and lead with them
    out of mask order; the pattern's set table (abc, bd) differs from
    the text's (ab, abc, bd), so one set gets a different rank in each."""
    return (
        "[bd]" + "".join(rng.choice(NESTED) for _ in range(rng.randint(0, 4))) + "[abc]",
        "[bd][ab]"
        + "".join(rng.choice(NESTED + ("[ab]",)) for _ in range(rng.randint(4, 28)))
        + "[abc]",
        lambda raw: parse_bracket(raw, ABCD),
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
    "repeated-bracket-sets": _repeated_bracket_sets,
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
        assert approx.tolist() == [1, 4, 10]

    def test_golden_column_seven(self, golden_pattern, golden_text):
        _, table, _ = pipeline(golden_pattern, golden_text)
        assert table.entries[7].tolist() == [2, 3, 5]

    def test_sentinel_in_approximate_columns(self, golden_pattern, golden_text):
        _, table, _ = pipeline(golden_pattern, golden_text)
        for i in (1, 4, 10):
            assert table.entries[i, 2] == 6 == table.sentinel

    def test_solid_exact_matching(self, abcd):
        pattern = parse_solid("aa", abcd)
        text = parse_solid("aaa", abcd)
        _, table, approx = pipeline(pattern, text)
        assert table.entries[:, 0].tolist() == [3, 3]
        assert approx.tolist() == [0, 1]

    def test_empty_range_gives_an_empty_table(self, golden_pattern, golden_text):
        index = prepare(golden_pattern, golden_text)
        table, approx = kangaroo_search(golden_pattern, golden_text, index, range(3, 3))
        assert table.entries.shape[0] == table.alignments == 0
        assert table.query_count == 0 and approx.tolist() == []

    def test_query_count_exact_for_solid_text(self, golden_pattern, golden_text):
        _, table, _ = pipeline(golden_pattern, golden_text)
        assert table.query_count == 3 * 11

    def test_default_budget_counts_text_placeholders_in_window(self, abcd):
        # the window "a[bc]" mismatches at its text placeholder, so a budget
        # of k_pattern = 0 alone would miss the occurrence
        pattern, text = parse_solid("ab", abcd), parse_bracket("a[bc]", abcd)
        _, table, approx = pipeline(pattern, text)
        assert approx.tolist() == [0]
        assert table.budget == 1
        assert find_occurrences(pattern, text).exact_occurrences.tolist() == [1]

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
    with every kangaroo_search call recorded; checks the blocks against
    the budgets with ``_check_blocks``."""
    searches = []

    def recording_search(*args, **kwargs):
        searches.append(kangaroo_search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(matcher, "kangaroo_search", recording_search)
    pattern, text = parse_iupac(raw_pattern), parse_iupac("".join(bases))
    report = find_occurrences(pattern, text)

    m, k_p = len(raw_pattern), len(pattern.non_solid_positions)
    in_window = np.convolve(bases == "N", np.ones(m, dtype=np.int64), mode="valid")
    budgets = np.minimum(m, k_p + in_window)
    assert len(text.non_solid_positions) == int(np.count_nonzero(bases == "N"))
    _check_blocks([table for table, _ in searches], budgets.tolist(), k_p, matcher.BLOCK_CELLS)
    return searches, report


def _check_blocks(tables, budgets, k_pattern, cells):
    """The blocks a search ran, in order, against its budgets: every
    alignment lies in one block, and each block's ids increase. A narrow
    block holds all the alignments of budget k_pattern in one segment of
    cells // (k_pattern + 1) alignments and is k_pattern + 1 wide. The
    wide blocks, in the order they ran, are the greedy partition of the
    other alignments by brute force: each is as wide as its own widest
    budget, within ``cells`` cells or one row, and one more alignment
    would overflow it. When a narrow block runs, the wide alignments of
    earlier segments that have not run fit in one block."""
    count = len(budgets)
    segment = max(1, cells // (k_pattern + 1))
    wide = [i for i in range(count) if budgets[i] > k_pattern]
    covered, wide_blocks, ran = [], [], set()
    for table in tables:
        ids = table.ids.tolist()
        assert ids and ids == sorted(set(ids))
        covered += ids
        widest = max(budgets[i] for i in ids)
        assert table.budget == widest
        assert table.entries.shape == (len(ids), widest + 1)
        if widest == k_pattern:
            first = ids[0] - ids[0] % segment
            stop = min(first + segment, count)
            assert ids == [i for i in range(first, stop) if budgets[i] == k_pattern]
            pending = [budgets[i] for i in wide if i < first and i not in ran]
            assert len(_greedy_blocks(pending, cells)) <= 1
        else:
            assert table.entries.size <= cells or len(ids) == 1
            wide_blocks.append(ids)
            ran.update(ids)
    assert sorted(covered) == list(range(count))
    greedy = _greedy_blocks([budgets[i] for i in wide], cells)
    assert wide_blocks == [[wide[x] for x in block] for block in greedy]


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
    test: each round updates the boundary LCPs once."""
    calls = []
    sort, update = lce._suffix_array, lce._lcp_array

    def recording_sort(*args):
        calls.append(0)
        return sort(*args)

    def recording_update(*args):
        calls[-1] += 1
        return update(*args)

    monkeypatch.setattr(lce, "_suffix_array", recording_sort)
    monkeypatch.setattr(lce, "_lcp_array", recording_update)
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


def _run_table_cases():
    """Named (raw pattern, raw text, builds the suffix index) triples for
    the index's table of pattern runs, the solid stretches between
    placeholders: periodic and all-``A`` texts whose long extensions
    outrun the word budget."""

    def acg(m, placeholders=()):
        raw = list(("ACG" * m)[:m])
        for p in placeholders:
            raw[p] = "N"
        return "".join(raw)

    scattered = list(acg(2_100))
    for p in random.Random(7).sample(range(len(scattered)), 40):
        scattered[p] = "N"
    return {
        "leading-placeholder": (acg(61, [0]), acg(2_100), True),
        "trailing-placeholder": (acg(61, [60]), acg(2_100), True),
        # the empty run between the two Ns has no table entry
        "adjacent-placeholders": (acg(45, [21, 22]), acg(2_100), True),
        # one run of m, which ends at the separator
        "no-placeholder": (acg(45), acg(2_100), True),
        "all-A-no-placeholder": ("A" * 40, "A" * 2_000, True),
        # no run and cap 0: every pair is answered by one word
        "all-placeholders": ("NNNN", acg(2_100), False),
        # the first run is cap = 16 long, and at h = 16 the text's all-A
        # suffixes share the group of its 16-prefix
        "run-of-cap": ("A" * 16 + "N" + "A" * 10, "A" * 2_000, True),
        # after a text N, a jump restarts in the middle of a run
        "scattered-text-N": (acg(96, [30, 61, 92]), "".join(scattered), True),
    }


RUN_TABLE_CASES = _run_table_cases()


def test_every_lce_query_meets_the_index_contract(monkeypatch):
    # LceIndex checks none of its preconditions; this test holds every
    # pair a search asks for to them, and every answer to the naive LCE
    calls = []
    lce_many = lce.LceIndex.lce_many

    def recording_lce_many(index, i, j):
        got = lce_many(index, i, j)
        calls.append((index, np.array(i), np.array(j), got.copy()))
        return got

    monkeypatch.setattr(lce.LceIndex, "lce_many", recording_lce_many)
    cases = [(pattern, text, None) for pattern, text in _block_cases()]
    cases += [
        (*(parse_iupac(raw) for raw in _in_phase(run, text_ns)), None)
        for run in (9, 65) for text_ns in (0, 300)
    ]
    cases.append((parse_iupac("ACNTNA"), parse_iupac("ACGTTA"), None))  # m = n
    cases += [
        (parse_iupac(raw_pattern), parse_iupac(raw_text), builds)
        for raw_pattern, raw_text, builds in RUN_TABLE_CASES.values()
    ]
    for pattern, text, builds in cases:
        calls.clear()
        report = find_occurrences(pattern, text)
        n, m = len(text), len(pattern)
        seq = prepare(pattern, text).seq
        separator = len(pattern.alphabet) + 2
        assert calls
        if builds is not None:
            assert (calls[-1][0].suffix_order.size > 0) == builds
            assert report.exact_occurrences.tolist() == naive_match(pattern, text)
        for index, i, j, got in calls:
            indexed = index.seq
            assert np.array_equal(indexed, seq)
            assert seq[-1] == separator and np.count_nonzero(seq == separator) == 1
            # a text offset against a pattern offset, or, after the last
            # alignment's last symbol, offset n against the separator
            assert np.all((0 <= i) & (i <= n) & (n <= j) & (j <= n + m))
            assert np.all(j[i == n] == n + m)
            assert np.array_equal(got, _naive_lce_many(seq, i, j))
            assert np.all(got <= n + m - j)


def test_whole_run_jumps_skip_the_range_minimum(monkeypatch):
    # on a solid period-3 text every pair that reaches the suffix index
    # starts a pattern run and matches the text to the run's end, so the
    # run's suffix interval answers it; a change that sends such pairs
    # back to the range-minimum query fails here instead of only getting
    # slower
    pattern, text = (parse_iupac(raw) for raw in _in_phase(75, 0))
    assert len(pattern) == 303 and _placeholder_count(pattern) == 3
    index = prepare(pattern, text)
    index._build()  # the build's boundary LCPs may take range minima
    indexed = []
    index_lce = lce.LceIndex._index_lce

    def recording_index_lce(self, i, j):
        indexed.append(i.size)
        return index_lce(self, i, j)

    def refuse(*args):
        raise AssertionError("a whole-run jump reached the range-minimum query")

    monkeypatch.setattr(lce.LceIndex, "_index_lce", recording_index_lce)
    monkeypatch.setattr(lce, "_block_range_min", refuse)
    report = matcher.search(pattern, text, index)
    assert sum(indexed) > 0
    assert report.exact_occurrences.tolist() == naive_match(pattern, text)


def _fibonacci_word(length):
    """The Fibonacci word over ``AC``, cut to ``length``."""
    a, b = "A", "AC"
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


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
            # the longest solid run is 139, so the words seed 8-prefixes;
            # their 19 names pack 12 to a key, naming 96-prefixes, and 195
            # names pack 2, naming 192-prefixes
            assert suffix_sorts == [3] * searches
            assert report.exact_occurrences.tolist() == list(range(1, 6_000 - 240 + 2, 3))
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
        # the words seed 4-prefixes; a round with G names packs
        # r = max(2, min(63 // b, ceil(R / h))) names of b = bit_length(G - 1)
        # bits into a key, until h >= R or the names are all distinct
        seq = prepare(pattern, text).seq.tolist()

        def prefixes(h):
            return len({tuple(seq[p : p + h]) for p in range(len(seq))})

        rounds, h, groups = 1, 4, prefixes(4)
        while h < run and groups < len(seq):
            bits = max(1, (groups - 1).bit_length())
            h *= max(2, min(63 // bits, -(-run // h)))
            rounds, groups = rounds + 1, prefixes(h)
        assert suffix_sorts == [rounds]


    @pytest.mark.parametrize("raw_text,m,pattern_ns", [
        ("A" * 5_000, 200, (37, 90, 151)),
        (_fibonacci_word(5_000), 400, (100, 200, 300)),
    ], ids=["unary", "fibonacci"])
    def test_repetitive_text_builds_the_index_once(
        self, suffix_sorts, raw_text, m, pattern_ns
    ):
        # the pattern is the text's prefix with a few Ns: long in-phase
        # extensions spend the word budget, and the capped index built
        # then groups most suffixes under shared names
        raw_pattern = list(raw_text[:m])
        for p in pattern_ns:
            raw_pattern[p] = "N"
        pattern, text = parse_iupac("".join(raw_pattern)), parse_iupac(raw_text)
        report = find_occurrences(pattern, text)
        assert len(suffix_sorts) == 1
        assert list(report.exact_occurrences) == naive_match(pattern, text)
        assert report.lce_queries == (len(pattern_ns) + 1) * (len(text) - m + 1)


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
            assert np.array_equal(got.exact_occurrences, want.exact_occurrences)
            assert np.array_equal(got.approximate_occurrences, want.approximate_occurrences)
            assert got.verdicts == want.verdicts
            assert got.lce_queries == want.lce_queries
            assert list(got.exact_occurrences) == naive_match(pattern, text)
            assert sum(blocks[-1]) == len(text) - len(pattern) + 1
        # some searches end on a partial block
        assert cells == 1 or any(len(b) > 1 and b[-1] < b[0] for b in blocks)


def _greedy_blocks(budgets, cells):
    """The blocks of a search by brute force: from each block's first
    alignment, the most rows whose widest budget b keeps rows x (b + 1)
    within ``cells``, and at least one."""
    blocks, lo = [], 0
    while lo < len(budgets):
        rows, widest = 1, budgets[lo]
        while lo + rows < len(budgets):
            widest = max(widest, budgets[lo + rows])
            if (rows + 1) * (widest + 1) > cells:
                break
            rows += 1
        blocks.append(range(lo, lo + rows))
        lo += rows
    return blocks


def _block_sizing_cases():
    """(pattern, text, cells) for the block partition check: a solid
    text, one wide N gap, scattered placeholders, an all-N text, a gap
    whose budgets are wider than the cells, and placeholders so sparse
    that a wide block gathers its rows from several segments."""
    rng = random.Random(21)
    solid = [rng.choice("ACGT") for _ in range(3_000)]
    gap = solid[:1_000] + ["N"] * 200 + solid[1_200:]
    scattered = [rng.choice("ACGT" * 12 + "RYN") for _ in range(3_000)]
    sparse = [rng.choice("ACGT" * 100 + "R") for _ in range(3_000)]
    return {
        "solid": ("ACNTRGAACGTNACGT", "".join(solid), 64),
        "wide-gap": ("ACNTRGAACGTNACGTACGT", "".join(gap), 64),
        "scattered": ("ACNTRGAACGTNACGTACGT", "".join(scattered), 64),
        "all-n": ("ACNTRGAACGTNACGTACGT", "N" * 500, 64),
        "budget-over-cells": ("ACGTNCGTACGTACGTACGT", "".join(gap[900:1_400]), 8),
        "pool-across-segments": ("ACGTNCGTACGTACGT", "".join(sparse), 256),
    }


@pytest.mark.parametrize("case", list(_block_sizing_cases()))
def test_blocks_are_the_greedy_partition(monkeypatch, case):
    raw_pattern, raw_text, cells = _block_sizing_cases()[case]
    pattern, text = parse_iupac(raw_pattern), parse_iupac(raw_text)
    budgets = window_budgets(pattern, text)
    assert (matcher.window_budgets(pattern, text).strides == (0,)) == (case == "solid")
    assert (max(budgets) + 1 > cells) == (case == "budget-over-cells")
    monkeypatch.setattr(matcher, "BLOCK_CELLS", cells)
    walked, tables = [], []

    def recording_search(pattern, text, index, alignments, budgets):
        walked.append(alignments)
        table, approx = kangaroo_search(pattern, text, index, alignments, budgets)
        tables.append(table)
        return table, approx

    monkeypatch.setattr(matcher, "kangaroo_search", recording_search)
    matcher.search(pattern, text, prepare(pattern, text))
    _check_blocks(tables, budgets, len(pattern.non_solid_positions), cells)
    if case == "solid":
        # every alignment is narrow, so the blocks are consecutive ranges
        assert walked == _greedy_blocks(budgets, cells)
    if case == "pool-across-segments":
        segment = cells // (len(pattern.non_solid_positions) + 1)
        assert any(len(set((table.ids // segment).tolist())) > 1 for table in tables)


def test_blocks_without_approximate_alignments_skip_stage_3(monkeypatch):
    # one planted occurrence in a solid text searched in blocks of 16
    # alignments: all blocks but one hold no approximate alignment, and
    # each block still makes one stage-3 call
    rng = random.Random(3)
    bases = [rng.choice("ACGT") for _ in range(4_000)]
    m, k_p = 16, 3
    raw_pattern = bases[1_000 : 1_000 + m]
    raw_pattern[2] = raw_pattern[11] = "N"
    raw_pattern[7] = "R" if raw_pattern[7] in "AG" else "Y"
    pattern, text = parse_iupac("".join(raw_pattern)), parse_iupac("".join(bases))
    index = prepare(pattern, text)
    table, approx = kangaroo_search(pattern, text, index)
    monkeypatch.setattr(matcher, "BLOCK_CELLS", 64)
    sizes = []

    def recording_filter(pattern, text, table, approx, *args):
        sizes.append(approx.size)
        return filter_occurrences(pattern, text, table, approx, *args)

    monkeypatch.setattr(matcher, "filter_occurrences", recording_filter)
    for diagnostics in (False, True):
        want = filter_occurrences(pattern, text, table, approx, diagnostics)
        assert matcher.search(pattern, text, index, diagnostics) == want
    assert want.exact_occurrences.tolist() == naive_match(pattern, text)
    assert 1_001 in want.exact_occurrences
    assert want.lce_queries == (k_p + 1) * (len(text) - m + 1)
    blocks = -(-(len(text) - m + 1) // (64 // (k_p + 1)))
    assert len(sizes) == 2 * blocks
    assert sizes.count(0) == 2 * (blocks - approx.size)

    absent = parse_iupac("AAAAAAAAAAAANAAA")
    assert naive_match(absent, text) == []
    for diagnostics in (False, True):
        report = matcher.search(absent, text, prepare(absent, text), diagnostics)
        for positions in (report.exact_occurrences, report.approximate_occurrences):
            assert positions.dtype == np.int64 and positions.size == 0
            assert not positions.flags.writeable
        assert report.verdicts == (() if diagnostics else None)
        assert report.lce_queries == 2 * (len(text) - m + 1)


def _naive_tables():
    """Seeded (pattern, text) pairs for the whole-table check: a solid
    text, on which every round writes its row whole, a degenerate text
    with mixed budgets, whose rounds write after retirements, a periodic
    text and m = n; a solid pattern on a degenerate text, where k_pattern
    = 0 and alignments retire from round 0; a pattern of placeholders
    alone (m = k_pattern); and an all-N text, where every budget clamps
    at m."""
    rng = random.Random(13)
    solid = [rng.choice("ACGT") for _ in range(300)]
    solid[40:47] = solid[200:207] = "ACGTAGA"
    degenerate = [rng.choice("ACGTACGTACGTRYN") for _ in range(300)]
    degenerate[100:112] = "N" * 12
    return {
        "solid": ("ACNTRGA", "".join(solid)),
        "degenerate": ("AYGNT", "".join(degenerate)),
        "periodic": ("ACGNCGA", "ACG" * 60),
        "m-equals-n": ("ACNTNA", "ACGTTA"),
        "solid-pattern": ("ACG", "".join(degenerate)),
        "placeholders-only": ("NRYN", "".join(degenerate)),
        "all-n-text": ("ACNTRGA", "N" * 40),
    }


@pytest.mark.parametrize("cells", [8, 1 << 18])
@pytest.mark.parametrize("case", list(_naive_tables()))
def test_every_table_equals_a_naive_kangaroo(monkeypatch, case, cells):
    # column i holds the first b_i + 1 mismatches of window i against the
    # coded pattern, then the sentinel once fewer remain, padded with it.
    # Each block's search calls lce_many once per round, with the
    # alignments still live: the benchmark's traced run reads its query
    # count, rounds and survivors from these calls.
    raw_pattern, raw_text = _naive_tables()[case]
    pattern, text = parse_iupac(raw_pattern), parse_iupac(raw_text)
    seq = prepare(pattern, text).seq
    m, n = len(pattern), len(text)
    k_pattern = len(pattern.non_solid_positions)
    budgets = window_budgets(pattern, text)
    monkeypatch.setattr(matcher, "BLOCK_CELLS", cells)
    tables, calls = [], []
    lce_many = lce.LceIndex.lce_many

    def recording_lce_many(index, i, j):
        calls[-1].append(len(i))
        return lce_many(index, i, j)

    def recording_search(*args, **kwargs):
        calls.append([])
        tables.append(kangaroo_search(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(lce.LceIndex, "lce_many", recording_lce_many)
    monkeypatch.setattr(matcher, "kangaroo_search", recording_search)
    find_occurrences(pattern, text)
    covered = sorted(i for table, _ in tables for i in table.ids.tolist())
    assert covered == list(range(n - m + 1))
    for (table, approx), sizes in zip(tables, calls):
        columns, queries, approximate = [], [], []
        for i in table.ids.tolist():
            b = budgets[i]
            mismatches = [e for e in range(1, m + 1) if seq[i + e - 1] != seq[n + e - 1]]
            column = mismatches[: b + 1] + [m + 1] * (table.budget + 1)
            columns.append(column[: table.budget + 1])
            queries.append(min(len(mismatches), b) + 1)
            if len(mismatches) <= b:
                approximate.append(i)
        assert table.entries.tolist() == columns
        assert approx.tolist() == approximate
        assert table.query_count == sum(queries)
        # no alignment retires before round k_pattern: its rows
        # 0..k_pattern - 1 hold a mismatch, never the sentinel
        assert np.all(table.entries[:, :k_pattern] <= m)
        # round j queries the alignments that make more than j jumps
        live = [sum(q > j for q in queries) for j in range(max(queries, default=0))]
        assert sizes == live
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == table.query_count


def _interleaved_cases():
    """(pattern, text) pairs whose narrow and wide windows interleave:
    scattered R/Y codes around an N run, with the pattern planted both
    in solid windows and over text codes; an all-N text; and a solid
    pattern, k_pattern = 0, where a narrow window holds no text code."""
    rng = random.Random(23)
    raw_pattern = "ACGTNACGRTACGTAC"
    text = [rng.choice("ACGT" * 6 + "RY") for _ in range(2_000)]
    text[700:760] = "N" * 60
    for start in range(40, 2_000 - 16, 150):
        text[start : start + 16] = raw_pattern.replace("N", "C").replace("R", "G")
        if start % 300 == 190:
            text[start + 2] = "N"
    solid_pattern = "".join(text[340:348])
    return {
        "scattered-codes": (raw_pattern, "".join(text)),
        "all-n-text": ("ACNTRGAA", "N" * 300),
        "k-pattern-0": (solid_pattern, "".join(text)),
    }


def _naive_verdicts(pattern, text, budgets):
    """Alignment -> verdicts of every approximate alignment, from a naive
    kangaroo over the coded window: its mismatches, when at most b_i,
    each fake iff the two sets there intersect."""
    seq = prepare(pattern, text).seq
    m, n = len(pattern), len(text)
    verdicts = {}
    for i, b in enumerate(budgets):
        mismatches = [e for e in range(1, m + 1) if seq[i + e - 1] != seq[n + e - 1]]
        if len(mismatches) <= b:
            verdicts[i] = tuple(
                FAKE if pattern.symbol_at(e).mask & text.symbol_at(i + e).mask else REAL
                for e in mismatches
            )
    return verdicts


@pytest.mark.parametrize("cells", [1, 5, 64, 1 << 18])
@pytest.mark.parametrize("case", list(_interleaved_cases()))
def test_wide_blocks_keep_the_report_in_position_order(monkeypatch, case, cells):
    raw_pattern, raw_text = _interleaved_cases()[case]
    pattern, text = parse_iupac(raw_pattern), parse_iupac(raw_text)
    budgets = window_budgets(pattern, text)
    k_pattern = len(pattern.non_solid_positions)
    assert k_pattern == (0 if case == "k-pattern-0" else 2)
    if case != "all-n-text":
        assert min(budgets) == k_pattern < max(budgets)
    one_table, _ = kangaroo_search(pattern, text, prepare(pattern, text))
    naive = _naive_verdicts(pattern, text, budgets)
    monkeypatch.setattr(matcher, "BLOCK_CELLS", cells)
    report = find_occurrences(pattern, text, diagnostics=True)
    exact = report.exact_occurrences.tolist()
    approx = report.approximate_occurrences.tolist()
    assert exact == naive_match(pattern, text)
    # exact occurrences in narrow and in wide windows
    assert {budgets[i - 1] > k_pattern for i in exact} == (
        {True} if case == "all-n-text" else {False, True}
    )
    assert all(a < b for a, b in zip(exact, exact[1:]))
    assert approx == sorted(naive)
    assert report.verdicts == tuple(naive[i] for i in approx)
    assert report.lce_queries == one_table.query_count


class TestFilter:
    def test_golden_verdicts(self, golden_pattern, golden_text):
        _, table, approx = pipeline(golden_pattern, golden_text)
        report = filter_occurrences(golden_pattern, golden_text, table, approx, diagnostics=True)
        assert report.exact_occurrences.tolist() == [2, 5]
        assert report.verdicts == ((FAKE, FAKE), (FAKE, FAKE), (FAKE, REAL))

    def test_solid_pattern_everything_exact(self, abcd):
        pattern = parse_solid("aa", abcd)
        text = parse_solid("aaa", abcd)
        _, table, approx = pipeline(pattern, text)
        report = filter_occurrences(pattern, text, table, approx)
        assert report.exact_occurrences.tolist() == [1, 2]

    def test_no_approximate_occurrences(self, abcd):
        pattern = parse_solid("ab", abcd)
        text = parse_solid("dddd", abcd)
        _, table, approx = pipeline(pattern, text)
        report = filter_occurrences(pattern, text, table, approx)
        assert report.exact_occurrences.tolist() == [] and report.approximate_occurrences.tolist() == []

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
            assert np.array_equal(report.approximate_occurrences, approx)
            for i, verdicts in zip(approx, report.verdicts):
                expected = tuple(
                    FAKE if pattern.symbol_at(e).mask & text.symbol_at(i + e).mask else REAL
                    for e in table.entries[i].tolist() if e != table.sentinel
                )
                assert verdicts == expected, spec
                assert (i + 1 in report.exact_occurrences) == (REAL not in verdicts), spec


class TestFindOccurrences:
    def test_golden_end_to_end(self, golden_pattern, golden_text):
        report = find_occurrences(golden_pattern, golden_text)
        assert report.exact_occurrences.tolist() == [2, 5]
        assert report.verdicts is None

    def test_degenerate_text_singleton_pattern(self, abcd):
        pattern = parse_solid("a", abcd)
        text = parse_bracket("[ab]c", abcd)
        report = find_occurrences(pattern, text)
        assert report.exact_occurrences.tolist() == [1]

    def test_empty_pattern_rejected(self, abcd, golden_text):
        with pytest.raises(EmptyPattern):
            find_occurrences(parse_solid("", abcd), golden_text)

    def test_mismatched_alphabets_rejected(self, golden_text):
        other = Alphabet("xy")
        with pytest.raises(ValueError):
            find_occurrences(parse_solid("x", other), golden_text)

    def test_pattern_longer_than_text_is_empty_report(self, abcd):
        report = find_occurrences(parse_solid("aaaa", abcd), parse_solid("aa", abcd))
        assert report.exact_occurrences.tolist() == []
        assert report.lce_queries == 0

    def test_deterministic(self, golden_pattern, golden_text):
        a = find_occurrences(golden_pattern, golden_text, diagnostics=True)
        b = find_occurrences(golden_pattern, golden_text, diagnostics=True)
        assert a == b

    def test_report_is_a_read_only_value(self, golden_pattern, golden_text):
        a = find_occurrences(golden_pattern, golden_text, diagnostics=True)
        b = find_occurrences(golden_pattern, golden_text, diagnostics=True)
        assert a == b and hash(a) == hash(b)
        assert a.exact_occurrences.dtype == a.approximate_occurrences.dtype == np.int64
        assert a != dataclasses.replace(a, exact_occurrences=np.array([2, 6]))
        assert a != dataclasses.replace(a, approximate_occurrences=np.array([1, 4, 11]))
        for positions in (a.exact_occurrences, a.approximate_occurrences):
            with pytest.raises(ValueError):
                positions[0] = 0

    def test_report_holds_16_bytes_per_occurrence(self):
        # every alignment of an all-A text is an exact occurrence; what
        # the report holds is what deleting it frees
        n, m = 1 << 16, 64
        text, pattern = parse_iupac("A" * n), parse_iupac("A" * m)
        tracemalloc.start()
        try:
            report = find_occurrences(pattern, text)
            occurrences = len(report.exact_occurrences)
            with_report, _ = tracemalloc.get_traced_memory()
            del report
            held = with_report - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert occurrences == n - m + 1
        assert held <= 16 * occurrences + 4096

    def test_text_placeholder_against_solid_pattern(self, abcd):
        # the text set intersects the pattern character in one case only
        assert find_occurrences(
            parse_solid("ab", abcd), parse_bracket("a[bc]", abcd)
        ).exact_occurrences.tolist() == [1]
        assert find_occurrences(
            parse_solid("ab", abcd), parse_bracket("a[cd]", abcd)
        ).exact_occurrences.tolist() == []

    def test_placeholder_against_placeholder(self, abcd):
        # both sides non-solid: verdict comes from intersecting both sets
        assert find_occurrences(
            parse_bracket("a[bc]", abcd), parse_bracket("a[cd]", abcd)
        ).exact_occurrences.tolist() == [1]
        assert find_occurrences(
            parse_bracket("[ab]", abcd), parse_bracket("[cd]", abcd)
        ).exact_occurrences.tolist() == []

    def test_solid_mismatch_can_enter_budget_but_never_matches(self, abcd):
        # with a degenerate text, a solid-vs-solid mismatch can fit inside
        # the window's budget; the filter must still reject it
        pattern = parse_bracket("a[bc]", abcd)
        text = parse_bracket("d[cd]", abcd)
        _, table, approx = pipeline(pattern, text)
        # solid mismatch at 1, placeholder against placeholder at 2: b_0 = 2
        assert approx.tolist() == [0] and table.entries[0].tolist() == [1, 2, 3]
        report = find_occurrences(pattern, text)
        assert report.exact_occurrences.tolist() == []
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

    def test_mostly_n_text_search_peaks_under_64_bytes_per_symbol(self):
        # a 90%-N text holds one distinct set, so stage 3 keeps sigma + 1
        # membership rows for it, not one per text placeholder
        rng = np.random.default_rng(16)
        n = 1 << 17
        bases = np.where(rng.random(n) < 0.9, "N", rng.choice(list("ACGT"), n))
        text = parse_iupac("".join(bases))
        raw_pattern = rng.choice(list("ACGT"), 64)
        raw_pattern[[10, 40]] = "N", "R"
        pattern = parse_iupac("".join(raw_pattern))
        tracemalloc.start()
        try:
            report = find_occurrences(pattern, text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.approximate_occurrences.size
        assert peak < 64 * n


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
                entries = {e for e in table.entries[i].tolist() if e != table.sentinel}
                assert entries == expected

    def test_rows_strictly_increase_until_sentinel(self):
        for pattern, text in self._random_solid_instances(60):
            _, table, _ = pipeline(pattern, text)
            for row in table.entries.tolist():
                for a, b in zip(row, row[1:]):
                    assert a < b or a == b == table.sentinel

    def test_non_sentinel_entries_are_real_text_mismatches(self):
        for pattern, text in self._random_solid_instances(60):
            index, table, _ = pipeline(pattern, text)
            n = len(text)
            for i, row in zip(table.ids.tolist(), table.entries.tolist()):
                for e in row:
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
                entries = {e for e in table.entries[i].tolist() if e != table.sentinel}
                window_mismatches = {
                    e for e in range(1, len(pattern) + 1)
                    if index.seq[i + e - 1] != index.seq[n + e - 1]
                }
                assert entries == window_mismatches
