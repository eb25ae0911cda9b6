import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degmatch.lce as lce
from degmatch.lce import LceIndex, _suffix_array


def naive_lce(seq, i, j):
    n = len(seq)
    q = 0
    while i + q < n and j + q < n and seq[i + q] == seq[j + q]:
        q += 1
    return q


def random_sequence(rng, length, sigma):
    # separator gets the highest rank and is unique at the end
    return [rng.randrange(sigma) for _ in range(length - 1)] + [sigma]


def all_pairs(length):
    """Every pair (i, j) of distinct offsets of a sequence, as two flat
    arrays."""
    ii, jj = np.meshgrid(np.arange(length), np.arange(length), indexing="ij")
    distinct = ii != jj
    return ii[distinct], jj[distinct]


def exact_index(seq):
    """An index capped at the length of ``seq``, so every answer is exact."""
    return LceIndex(seq, cap=len(seq))


def encode(text):
    # for letter fixtures: a..z to ranks, '#' to the highest rank
    alphabet = sorted(set(text) - {"#"})
    ranks = {c: r for r, c in enumerate(alphabet)}
    ranks["#"] = len(alphabet)
    return [ranks[c] for c in text]


EXAMPLE_SEQ = encode("dacdabdadcabdac" + "a!da?#".replace("!", "e").replace("?", "f"))
# 'e' and 'f' stand in for the two placeholder ranks; they sort above a..d
# like the real substituted ranks do.


class TestBuild:
    def test_all_distinct_suffixes(self):
        idx = exact_index(encode("ab#"))
        assert idx.lce_many([0], [1]).tolist() == [0]

    def test_repeated_prefix(self):
        idx = exact_index(encode("aa#"))
        assert idx.lce_many([0], [1]).tolist() == [1]

    def test_example_sequence_builds(self):
        idx = exact_index(EXAMPLE_SEQ)
        assert idx.seq.size == 21
        order, _, _ = _suffix_array(idx._words, idx._shift, cap=len(EXAMPLE_SEQ))
        assert sorted(order.tolist()) == list(range(21))


def naive_index(seq):
    """Suffix order, rank and adjacent-suffix LCP by sorting the suffixes."""
    order = sorted(range(len(seq)), key=lambda p: seq[p:])
    rank = [0] * len(seq)
    for r, p in enumerate(order):
        rank[p] = r
    lcp = [0] + [naive_lce(seq, a, b) for a, b in zip(order, order[1:])]
    return order, rank, lcp


# doubling stops at the first round whose names are all distinct, so the
# number of rounds changes around powers of two on sigma = 1
NAIVE_SORT_CASES = {
    "length-1": [0],
    "period-2": [0, 1] * 9 + [2],
    "period-3": [0, 1, 2] * 7 + [0, 3],
    "all-distinct": [4, 1, 7, 0, 3, 6, 2, 5],
    **{
        f"sigma-{sigma}-length-{length}": random_sequence(random.Random(length), length, sigma)
        for sigma in (1, 2)
        for j in (3, 4, 5, 6)
        for length in (2**j - 1, 2**j, 2**j + 1)
    },
}


@pytest.mark.parametrize("seq", NAIVE_SORT_CASES.values(), ids=NAIVE_SORT_CASES.keys())
def test_arrays_match_naive_suffix_sort(seq):
    order, naive_rank, lcp = naive_index(seq)
    # ranks offset by 0, 256 and 65,536 take codes of 1, 2 and 4 bytes,
    # and keep the suffix order
    for offset, shift in ((0, 3), (256, 4), (65_536, 5)):
        idx = exact_index([offset + r for r in seq])
        assert idx._shift == shift
        # capped at the length, the last round's names are all distinct, so
        # every suffix is a group of its own and every adjacent pair a boundary
        suffix_order, rank, got = _suffix_array(idx._words, idx._shift, cap=len(seq))
        assert suffix_order.tolist() == order
        assert rank.tolist() == naive_rank
        assert got.tolist() == lcp


class TestQueries:
    def test_basic_extension(self):
        idx = exact_index(encode("abab#"))
        assert idx.lce_many([0], [2]).tolist() == [2]

    def test_example_placeholder_boundary(self):
        # text suffix "adc..." against pattern suffix "a<placeholder>..."
        idx = exact_index(EXAMPLE_SEQ)
        assert idx.lce_many([7], [15]).tolist() == [1]

    def test_no_pairs(self):
        got = exact_index(EXAMPLE_SEQ).lce_many([], [])
        assert got.size == 0 and got.dtype.kind == "i"

    @pytest.mark.parametrize("offset", [0, 256, 65_536])
    def test_pairs_within_one_word_spend_nothing(self, offset):
        # no pair shares a whole word of codes, 8, 4 or 2 of them, so the
        # first word answers every pair: no word budget spent, no index
        seq = [offset + r for r in random_sequence(random.Random(7), 300, 4)]
        idx = exact_index(seq)
        ii, jj = all_pairs(len(seq))
        expected = lce_matrix(seq)[ii, jj]
        short = expected < 64 >> idx._shift
        assert np.count_nonzero(short) > len(seq)
        got = idx.lce_many(ii[short], jj[short])
        assert np.array_equal(got, expected[short])
        assert idx._word_budget == idx.seq.size and idx.suffix_order.size == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("length,sigma,seed", [
        (2, 1, 1), (3, 2, 2), (8, 2, 3), (16, 3, 4), (33, 2, 5),
        (64, 4, 6), (128, 2, 7), (300, 1, 8), (257, 1, 9),
    ])
    def test_all_pairs_small(self, length, sigma, seed):
        seq = random_sequence(random.Random(seed), length, sigma)
        idx = exact_index(seq)
        ii, jj = all_pairs(length)
        got = idx.lce_many(ii, jj).tolist()
        for i, j, q in zip(ii.tolist(), jj.tolist(), got):
            assert q == naive_lce(seq, i, j), (i, j)

    def test_all_pairs_512(self):
        seq = random_sequence(random.Random(99), 512, 2)
        idx = exact_index(seq)
        got = idx.lce_many(*all_pairs(512))
        expected = np.asarray(
            [naive_lce(seq, i, j) for i in range(512) for j in range(512) if i != j]
        )
        assert np.array_equal(got, expected)

    @given(st.integers(2, 400), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sampled_pairs(self, length, sigma, seed):
        rng = random.Random(seed)
        seq = random_sequence(rng, length, sigma)
        idx = exact_index(seq)
        pairs = [tuple(rng.sample(range(length), 2)) for _ in range(32)]
        ii, jj = np.asarray(pairs).T
        got = idx.lce_many(ii, jj).tolist()
        assert got == [naive_lce(seq, i, j) for i, j in pairs]

    @given(st.integers(2, 200), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_separator_stop(self, length, sigma, seed):
        rng = random.Random(seed)
        seq = random_sequence(rng, length, sigma)
        idx = exact_index(seq)
        pairs = [tuple(rng.sample(range(length), 2)) for _ in range(32)]
        ii, jj = np.asarray(pairs).T
        got = idx.lce_many(ii, jj).tolist()
        assert got == idx.lce_many(jj, ii).tolist()
        for (i, j), q in zip(pairs, got):
            if i + q < length and j + q < length:
                assert seq[i + q] != seq[j + q]


SIGMAS = (1, 4, 70, 254, 255, 256, 300, 65_535, 65_536)


@st.composite
def periodic_sequences(draw):
    """A repeated unit with up to three changed symbols, then the separator
    sigma. Repeats give extensions that cross word boundaries; sigma of
    256 or more takes 2-byte codes, and 65,536 takes 4-byte codes."""
    sigma = draw(st.sampled_from(SIGMAS))
    favoured = sorted({0, sigma // 2, sigma - 1, max(0, sigma - 45)})
    symbol = st.sampled_from(favoured) | st.integers(0, sigma - 1)
    unit = draw(st.lists(symbol, min_size=1, max_size=12))
    length = draw(st.integers(2, 150))  # one symbol has no two offsets
    seq = (unit * length)[: length - 1]
    for _ in range(draw(st.integers(0, 3))):
        if seq:
            seq[draw(st.integers(0, len(seq) - 1))] = draw(symbol)
    return seq + [sigma]


def assert_capped(expected, got, cap):
    """Exact below ``cap``, and from ``cap`` up to the LCE otherwise."""
    expected, got = np.asarray(expected), np.asarray(got)
    below = expected < cap
    assert np.array_equal(got[below], expected[below])
    assert np.all((cap <= got[~below]) & (got[~below] <= expected[~below]))


@pytest.fixture
def suffix_sorts(monkeypatch):
    """The arguments of every suffix sort an index runs in the test."""
    calls = []
    monkeypatch.setattr(lce, "_suffix_array", lambda *a: calls.append(a) or _suffix_array(*a))
    return calls


class TestWordPath:
    @given(periodic_sequences(), st.sampled_from([None, 1, 2, 3, 8, 64]), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_lce(self, seq, cap, seed):
        rng = random.Random(seed)
        length = len(seq)
        cap = length if cap is None else cap  # None: capped at the length, so exact
        pairs = [tuple(rng.sample(range(length), 2)) for _ in range(40)]
        pairs += [(length - 1, rng.randrange(length)), (rng.randrange(length), length - 2)]
        pairs = [(i, j) for i, j in pairs if i != j]
        idx = LceIndex(seq, cap)
        # two calls: the second may find the index built by the first
        for part in (pairs[::2], pairs[1::2]):
            ii, jj = np.asarray(part).T
            expected = [naive_lce(seq, i, j) for i, j in part]
            assert_capped(expected, idx.lce_many(ii, jj), cap)

    def test_short_extensions_build_no_index(self, suffix_sorts):
        seq = random_sequence(random.Random(4), 2_000, 4)
        idx = exact_index(seq)
        ii = np.arange(1_999)
        got = idx.lce_many(ii, ii + 1).tolist()
        assert got == [naive_lce(seq, i, i + 1) for i in range(1_999)]
        assert suffix_sorts == [] and idx.suffix_order.size == 0

    @pytest.mark.parametrize("cap", [None, 64])
    def test_spent_word_budget_builds_the_index_once(self, suffix_sorts, cap):
        seq = [0, 1, 2] * 200 + [3]
        cap = len(seq) if cap is None else cap  # None: capped at the length, so exact
        idx = LceIndex(seq, cap)
        ii = np.arange(597)
        expected = [naive_lce(seq, i, i + 3) for i in ii.tolist()]
        for _ in range(2):
            assert_capped(expected, idx.lce_many(ii, ii + 3), cap)
        assert len(suffix_sorts) == 1 and idx.suffix_order.size == len(seq)

    @pytest.mark.parametrize("seq,i,j,expected", [
        # 300 and 255 are distinct codes
        ([7, 300, 8, 9, 7, 255, 8, 9, 400], 0, 4, 1),
        # a wide rank on one side only is a plain mismatch
        ([7, 300, 8, 7, 5, 8, 400], 0, 3, 1),
        # equal wide ranks extend on
        ([1, 300, 2, 3, 1, 300, 2, 4, 500], 0, 4, 3),
        # 10 equal codes span words of 4
        ([1] + [256] * 9 + [2, 1] + [256] * 9 + [3, 500], 0, 11, 10),
        # the separator 256 alone takes 2-byte codes
        ([255, 255, 256], 0, 1, 1),
        # 300 and 44 share their low byte
        ([7, 300, 8, 7, 44, 8, 400], 0, 3, 1),
    ])
    @pytest.mark.parametrize("cap", [None, 2])
    def test_equal_escape_bytes_compare_ranks(self, seq, i, j, expected, cap):
        # the largest rank here is above 255, so these run on 2-byte codes
        cap = len(seq) if cap is None else cap  # None: capped at the length, so exact
        idx = LceIndex(seq, cap)
        assert idx._shift == 4
        got = idx.lce_many([i, j], [j, i]).tolist()
        if expected < cap:
            assert got == [expected, expected]
        else:
            assert min(got) >= cap


def test_leading_bytes_every_lowest_set_bit():
    # the code of w bytes holding the lowest set bit, whatever lies above
    # it, for w = 1, 2 and 4; 8 / w for 0
    rng = np.random.default_rng(5)
    above = rng.integers(0, 2**63, size=32, dtype=np.uint64) * np.uint64(2) | np.uint64(1)
    words = np.array([0, 2**64 - 1, 2**63, 2**56 - 1], dtype=np.uint64)
    for shift, per_word in ((3, 8), (4, 4), (5, 2)):
        for t in range(64):
            x = above << np.uint64(t)
            assert lce._leading_codes(x, shift).tolist() == [t >> shift] * x.size
        assert lce._leading_codes(words, shift).tolist() == [per_word, 0, per_word - 1, 0]


def test_top_bit_every_highest_set_bit():
    # from 54 bits on, a float rounds all ones below the top bit up to the
    # next power of two; the field a boundary's keys first differ in
    # depends on the exact top bit
    rng = np.random.default_rng(63)
    for t in range(63):
        low = rng.integers(0, 2**63, size=16, dtype=np.int64) & ((1 << t) - 1)
        x = np.concatenate([low | (1 << t), [1 << t, (2 << t) - 1]]).astype(np.int64)
        assert lce._top_bit(x).tolist() == [t] * x.size


def test_top_bit_int32_without_the_correction():
    # int32 input, as the range widths of index queries, skips the
    # rounding correction: every such value converts to a float exactly
    x = np.array([v for t in range(31) for v in (1 << t, (2 << t) - 1)], dtype=np.int32)
    assert lce._top_bit(x).tolist() == [t for t in range(31) for _ in range(2)]


def test_range_min_every_span():
    # every (lo, hi) with lo <= hi at every length up to 300, so every
    # power-of-two width and every width just below one is read
    rng = np.random.default_rng(300)
    for length in range(1, 301):
        values = rng.integers(-(2**31), 2**31, size=length, dtype=np.int32)
        table = lce._sparse_table(values, length.bit_length())
        spans = np.zeros((length, length), dtype=np.int32)
        for a in range(length):
            spans[a, a:] = np.minimum.accumulate(values[a:])
        lo, hi = np.triu_indices(length)
        assert np.array_equal(lce._range_min(table, lo, hi), spans[lo, hi])
        # hi < lo reads some value of the table in bounds
        if length > 1:
            lo, hi = np.tril_indices(length, -1)
            assert np.isin(lce._range_min(table, lo, hi), values).all()


def fibonacci_sequence(length):
    """The Fibonacci word over {0, 1}, cut to ``length`` - 1, then the
    separator 2."""
    a, b = [0], [0, 1]
    while len(b) < length - 1:
        a, b = b, b + a
    return b[: length - 1] + [2]


def changed_period_3(length, seed):
    """Period-3 ranks with three changed symbols, then the separator 3."""
    rng = random.Random(seed)
    seq = [0, 1, 2] * (length // 3 + 1)
    for p in rng.sample(range(length - 1), 3):
        seq[p] = rng.randrange(3)
    return seq[: length - 1] + [3]


# repetitive sequences share most capped prefixes, so their capped index
# has far fewer name groups than suffixes
REPETITIVE = {
    "unary": [0] * 99 + [1],
    "period-2": [0, 1] * 60 + [2],
    "period-3-changed": changed_period_3(150, 14),
    "fibonacci": fibonacci_sequence(144),
}
CAPPED_CASES = {
    **{
        f"{length}-{sigma}-{seed}": random_sequence(random.Random(seed), length, sigma)
        for length, sigma, seed in [(33, 1, 11), (130, 2, 12), (257, 4, 13)]
    },
    **REPETITIVE,
}


def lce_matrix(seq):
    """lce[i, j] = naive LCE of the suffixes at i and j, for every pair."""
    seq = np.asarray(seq)
    table = np.zeros((seq.size + 1, seq.size + 1), dtype=np.int64)
    for i in range(seq.size - 1, -1, -1):
        table[i, :-1] = np.where(seq[i] == seq, table[i + 1, 1:] + 1, 0)
    return table[:-1, :-1]


@pytest.mark.parametrize("cap", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("seq", CAPPED_CASES.values(), ids=CAPPED_CASES.keys())
def test_capped_index_all_pairs(seq, cap):
    # straight from the capped suffix index on every pair of distinct
    # offsets: through lce_many, words would answer most of them
    length = len(seq)
    idx = LceIndex(seq, cap)
    ii, jj = all_pairs(length)
    expected = lce_matrix(seq)[ii, jj]
    assert_capped(expected, idx._index_lce(ii, jj), cap)
    assert idx.suffix_order.size == length
    # one boundary LCP per group of equal last-round names
    assert idx.lcp.size == np.unique(idx.rank).size
    if seq in REPETITIVE.values() and cap >= 8:
        assert idx.lcp.size < length
        assert np.any(idx.rank[ii] == idx.rank[jj])
    # and through lce_many, with the index built
    assert_capped(expected, idx.lce_many(ii, jj), cap)


@pytest.mark.parametrize("cap", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("seq", CAPPED_CASES.values(), ids=CAPPED_CASES.keys())
def test_lcp_array_at_group_boundaries(seq, cap):
    # on a capped order, entry g is the LCE of the last suffix of group
    # g - 1 and the first suffix of group g
    idx = LceIndex(seq, cap)
    order, rank, lcp = _suffix_array(idx._words, idx._shift, cap)
    sorted_names = rank[order].tolist()
    groups = max(sorted_names) + 1
    assert sorted_names == sorted(sorted_names)  # each group is one run
    firsts = [sorted_names.index(g) for g in range(groups)]
    expected = [0] + [
        naive_lce(seq, order[first - 1], order[first]) for first in firsts[1:]
    ]
    assert lcp.tolist() == expected


def naive_groups(seq, h):
    """Group id of every suffix of ``seq`` by its h-prefix: the rank of
    that prefix among the distinct ones."""
    prefixes = [tuple(seq[p : p + h]) for p in range(len(seq))]
    ids = {prefix: g for g, prefix in enumerate(sorted(set(prefixes)))}
    return [ids[prefix] for prefix in prefixes]


def last_round_prefix(seq, cap, width):
    """The prefix length h that the last round of a build capped at
    ``cap`` names: round 0 names the ``width``-prefixes, and a round with
    G names packs r = max(2, min(63 // b, ceil(cap / h))) of them, of
    b = max(1, bit_length(G - 1)) bits each, into a key and names the
    rh-prefixes. Rounds stop once the names are all distinct or h >= cap."""
    h = width
    groups = max(naive_groups(seq, h)) + 1
    while h < cap and groups < len(seq):
        bits = max(1, (groups - 1).bit_length())
        h *= max(2, min(63 // bits, -(-cap // h)))
        groups = max(naive_groups(seq, h)) + 1
    return h


@given(periodic_sequences(), st.integers(1, 300), st.sampled_from([1, 2, 3, 1 << 14]))
@settings(max_examples=200, deadline=None)
def test_capped_build_matches_naive_sort(seq, cap, chunk):
    # the last round names the prefixes of the length h that the r-ary
    # rule reaches, worked out here from the naive group counts; a build
    # that stops early, its names all distinct, groups the suffixes as
    # those prefixes do too. Small chunks split the boundary LCP passes.
    idx = LceIndex(seq, cap)
    h = last_round_prefix(seq, cap, 64 >> idx._shift)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lce, "_CHUNK", chunk)
        order, rank, lcp = _suffix_array(idx._words, idx._shift, cap)
    assert rank.tolist() == naive_groups(seq, h)
    sorted_names = rank[order].tolist()
    assert sorted_names == sorted(sorted_names)
    firsts = [0] + [x + 1 for x in range(len(seq) - 1) if sorted_names[x] != sorted_names[x + 1]]
    expected = [0] + [naive_lce(seq, order[first - 1], order[first]) for first in firsts[1:]]
    assert lcp.tolist() == expected


@pytest.fixture
def key_layouts(monkeypatch):
    """(fields, bits) of every round's keys in the test."""
    layouts = []
    update = lce._lcp_array

    def recording_update(lcp, keys, changed, sorted_names, order, h, fields, bits, *rest):
        layouts.append((fields, bits))
        return update(lcp, keys, changed, sorted_names, order, h, fields, bits, *rest)

    monkeypatch.setattr(lce, "_lcp_array", recording_update)
    return layouts


KEY_LAYOUT_CASES = {
    # with 1-byte codes, 9 or 10 names after round 0 take 4 bits and pack
    # 15 to a key, then 121 or 122 names take 7 bits and pack 9: 63 bits
    "sigma-1": [0] * 1_999 + [1],
    "period-2": [0, 1] * 1_000 + [2],
    "period-3-changed": changed_period_3(1_500, 19),
}


@pytest.mark.parametrize("chunk", [1, 1 << 14])
@pytest.mark.parametrize("offset,shift", [(0, 3), (256, 4), (65_536, 5)])
@pytest.mark.parametrize("name", KEY_LAYOUT_CASES)
def test_wide_keys_answer_every_pair(key_layouts, name, offset, shift, chunk):
    # capped at the length, repetitive text keeps few names a round, so
    # its keys pack many fields, up to all 63 bits; every pair of offsets
    # gets its exact LCE from the index, with 1-, 2- and 4-byte codes and
    # with one boundary a pass
    seq = [offset + r for r in KEY_LAYOUT_CASES[name]]
    idx = exact_index(seq)
    assert idx._shift == shift
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lce, "_CHUNK", chunk)
        idx._build()
    widths = [fields * bits for fields, bits in key_layouts[1:]]
    assert max(fields for fields, _ in key_layouts) >= 12
    assert max(widths) >= 60
    if name != "period-3-changed" and shift < 5:
        assert 63 in widths
    ii, jj = all_pairs(len(seq))
    assert np.array_equal(idx._index_lce(ii, jj), lce_matrix(seq)[ii, jj])


def test_random_text_packs_three_names_a_key(key_layouts):
    # about 2^15 distinct 8-prefixes take 16 bits each, so the first
    # doubling round packs 3 and names 24-prefixes, all distinct here.
    # Adjacent suffixes in the order have their naive LCP and then a
    # smaller symbol, so the order is the suffix array; sampled pairs
    # get their naive LCE
    length = 1 << 16
    seq = np.append(np.random.default_rng(16).integers(0, 4, length - 1), 4)
    idx = exact_index(seq)
    ii = np.random.default_rng(17).integers(0, length, (2, 20_000))
    ii = ii[:, ii[0] != ii[1]]
    got = idx._index_lce(ii[0], ii[1])
    assert key_layouts == [(2, 32), (3, 16)]
    order, lcp = idx.suffix_order.astype(np.int64), idx.lcp
    assert lcp.size == length
    for pairs, answer in (((order[:-1], order[1:]), lcp[1:]), (tuple(ii), got)):
        expected = np.zeros(pairs[0].size, dtype=np.int64)
        going = np.ones(pairs[0].size, dtype=bool)
        while going.any():
            a, b = pairs[0] + expected, pairs[1] + expected
            going &= np.maximum(a, b) < length
            going[going] = seq[a[going]] == seq[b[going]]
            expected += going
        assert np.array_equal(answer, expected)
    assert np.all(seq[order[:-1] + lcp[1:]] < seq[order[1:] + lcp[1:]])


def test_period_3_text_builds_in_few_rounds(key_layouts):
    # with 3 changed symbols, 27 names after round 0 pack 12 to a key and
    # 291 pack 7: 4 rounds name 8-, 96-, 672- and 1,344-prefixes, where
    # steps of 2 took 8 rounds
    length = 1 << 17
    seq = changed_period_3(length, 3)
    idx = LceIndex(seq, 1_000)
    idx._build()
    assert len(key_layouts) <= 4
    # the LCE of i and i + 3 runs to the first p >= i with
    # seq[p] != seq[p + 3]
    arr = np.asarray(seq)
    breaks = np.flatnonzero(arr[:-3] != arr[3:])
    ii = np.arange(0, length - 3, 997)
    expected = breaks[np.searchsorted(breaks, ii)] - ii
    assert_capped(expected, idx._index_lce(ii, ii + 3), 1_000)


def _layout(text, pattern, sigma):
    """Text + pattern + separator, coded as ``matcher.prepare`` codes them:
    a text placeholder is sigma, a pattern placeholder sigma + 1 and the
    separator sigma + 2. Returns that sequence, the text length, and the
    offset and length of every pattern run, each solid stretch that a
    placeholder or the separator ends."""
    starts, lengths, start = [], [], 0
    for f, code in enumerate(pattern + [sigma + 1]):
        if code == sigma + 1:
            if f > start:
                starts.append(len(text) + start)
                lengths.append(f - start)
            start = f + 1
    return text + pattern + [sigma + 2], len(text), starts, lengths


def _run_layouts():
    rng = random.Random(24)
    random_text = [rng.choice([0, 1, 2, 3, 3, 4]) for _ in range(150)]
    random_pattern = [rng.choice([0, 1, 2, 3, 5]) for _ in range(30)]
    period_3 = [p % 3 for p in range(200)]
    for p in (50, 51, 120):
        period_3[p] = 3
    pattern_3 = [p % 3 for p in range(40)]
    for p in (0, 12, 13):  # a leading placeholder and an empty run
        pattern_3[p] = 4
    return {
        "random": _layout(random_text, random_pattern, 4),
        "period-3": _layout(period_3, pattern_3, 3),
        # every text suffix shares the runs, down to group 0
        "all-A": _layout([0] * 150, [0] * 10 + [2] + [0] * 19, 1),
        # two runs of cap, and a trailing placeholder
        "period-2": _layout([p % 2 for p in range(120)], ([0, 1] * 6 + [3]) * 2, 2),
    }


RUN_LAYOUTS = _run_layouts()


@pytest.mark.parametrize("exact", [False, True], ids=["cap-of-longest-run", "cap-of-length"])
@pytest.mark.parametrize("name", sorted(RUN_LAYOUTS))
def test_run_intervals_hold_the_groups_that_share_the_run(name, exact):
    seq, n, starts, lengths = RUN_LAYOUTS[name]
    cap = len(seq) if exact else max(lengths)
    idx = LceIndex(seq, cap, runs=(starts, lengths))
    idx._build()
    lo, hi = lce._run_intervals(idx.lcp, idx.rank[starts], np.array(lengths))
    shared = lce_matrix(seq)
    for s, length, a, b in zip(starts, lengths, lo.tolist(), hi.tolist()):
        # the groups of the suffixes that share the whole run with its start
        assert set(idx.rank[shared[:, s] >= length].tolist()) == set(range(a, b + 1))
    if name == "all-A":
        assert lo.min() == 0
    # what a kangaroo jump asks at a run start, from every alignment a,
    # is exact: from the run's interval or from the range minimum
    m = len(seq) - 1 - n
    ii = np.add.outer(np.arange(n - m + 1), np.array(starts) - n).ravel()
    jj = np.broadcast_to(np.array(starts), (n - m + 1, len(starts))).ravel()
    assert np.array_equal(idx._index_lce(ii, jj), shared[ii, jj])


def test_run_intervals_reach_both_ends():
    # the widest range of groups around each group whose boundary LCPs
    # are all at least the length, against every range that qualifies
    rng = random.Random(5)
    ends = set()
    for _ in range(300):
        size = rng.randint(1, 12)
        lcp = [0] + [rng.randint(0, 4) for _ in range(size - 1)]
        groups = [rng.randrange(size) for _ in range(3)]
        lengths = [rng.randint(1, 4) for _ in range(3)]
        lo, hi = lce._run_intervals(
            np.array(lcp, dtype=np.int32), np.array(groups), np.array(lengths)
        )
        for g, length, a, b in zip(groups, lengths, lo.tolist(), hi.tolist()):
            def shares(x, y):
                return min(lcp[x + 1 : y + 1], default=length) >= length
            assert a == min(x for x in range(g + 1) if shares(x, g))
            assert b == max(y for y in range(g, size) if shares(g, y))
            ends.update(["first"] * (a == 0) + ["last"] * (b == size - 1))
    assert ends == {"first", "last"}


def build_peak(seq, cap):
    """``tracemalloc`` peak of one suffix index build, in bytes per symbol."""
    idx = LceIndex(seq, cap)
    tracemalloc.start()
    try:
        idx._build()
        return tracemalloc.get_traced_memory()[1] / len(seq)
    finally:
        tracemalloc.stop()


def test_build_peak_is_flat_in_the_rounds(key_layouts):
    # period-2 text keeps few names a round, so cap 8,192 runs 5 rounds
    # against 2 at cap 64; a build that kept every round's int32 names
    # would peak 12 bytes per symbol higher
    length = (1 << 16) + 1
    seq = np.append(np.tile([0, 1], length // 2), 2)
    few = build_peak(seq, 64)
    assert len(key_layouts) == 2
    many = build_peak(seq, 8_192)
    assert len(key_layouts) == 2 + 5
    assert abs(many - few) < 2, (few, many)


def test_build_peak_on_random_text():
    # every capped prefix of random DNA is distinct, so the boundary LCPs
    # and their range-minimum tables hold one entry per symbol; this input
    # peaked at 60 bytes per symbol in a build that kept its rounds, with
    # an int64 boundary array, and at 52 while the range-minimum tables
    # took temporary copies of the prefix and suffix minima
    length = (1 << 16) + 1
    seq = np.append(np.random.default_rng(64).integers(0, 4, length - 1), 4)
    assert build_peak(seq, 64) <= 46.6


def test_build_peak_drops_the_sorts_lcp_array():
    # on random text the range-minimum tables set the peak; the sort's
    # boundary LCP array, 4 bytes per symbol, is dropped once the short
    # table's first row holds its copy, and the build peaked at 45.9
    # bytes per symbol while it was kept until the end
    length = (1 << 19) + 1
    seq = np.append(np.random.default_rng(64).integers(0, 4, length - 1), 4)
    assert build_peak(seq, 64) <= 42
