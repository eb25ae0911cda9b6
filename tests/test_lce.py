import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degmatch.lce as lce
from degmatch.lce import LceIndex, _lcp_array, _suffix_array


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
        assert idx.length == 21
        order, _ = _suffix_array(idx._words, idx._shift, cap=len(EXAMPLE_SEQ))
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
        suffix_order, levels = _suffix_array(idx._words, idx._shift, cap=len(seq))
        rank = levels[-1]  # capped at the length, the last round's names are all distinct
        assert suffix_order.tolist() == order
        assert rank.tolist() == naive_rank
        assert _lcp_array(suffix_order, levels, idx._words, idx._shift).tolist() == lcp


class TestQueries:
    def test_basic_extension(self):
        idx = exact_index(encode("abab#"))
        assert idx.lce_many([0], [2]).tolist() == [2]

    def test_example_placeholder_boundary(self):
        # text suffix "adc..." against pattern suffix "a<placeholder>..."
        idx = exact_index(EXAMPLE_SEQ)
        assert idx.lce_many([7], [15]).tolist() == [1]


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


def assert_capped(seq, pairs, got, cap):
    """Exact below ``cap`` and at least ``cap`` otherwise."""
    for (i, j), q in zip(pairs, got):
        expected = naive_lce(seq, i, j)
        if expected < cap:
            assert q == expected, (i, j, cap)
        else:
            assert q >= cap, (i, j, cap)


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
            assert_capped(seq, part, idx.lce_many(ii, jj).tolist(), cap)

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
        for _ in range(2):
            got = idx.lce_many(ii, ii + 3).tolist()
            assert_capped(seq, zip(ii.tolist(), (ii + 3).tolist()), got, cap)
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


@pytest.mark.parametrize("cap", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("length,sigma,seed", [(33, 1, 11), (130, 2, 12), (257, 4, 13)])
def test_capped_index_all_pairs(length, sigma, seed, cap):
    # straight from the capped suffix index on every pair of distinct
    # offsets: through lce_many, words would answer most of them
    seq = random_sequence(random.Random(seed), length, sigma)
    idx = LceIndex(seq, cap)
    ii, jj = all_pairs(length)
    got = idx._index_lce(ii, jj)
    assert idx.suffix_order.size == length
    assert_capped(seq, zip(ii.tolist(), jj.tolist()), got.tolist(), cap)
    # and through lce_many, with the index built
    got = idx.lce_many(ii, jj)
    assert_capped(seq, zip(ii.tolist(), jj.tolist()), got.tolist(), cap)
