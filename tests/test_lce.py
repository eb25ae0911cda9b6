import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degmatch import OutOfRange
from degmatch.lce import LceIndex, MissingSeparator, SeparatorNotUnique


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
    """Every offset pair (i, j) of a sequence, as two flat arrays."""
    ii, jj = np.meshgrid(np.arange(length), np.arange(length), indexing="ij")
    return ii.ravel(), jj.ravel()


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
        idx = LceIndex(encode("ab#"))
        assert idx.lce_many([0], [1]).tolist() == [0]

    def test_repeated_prefix(self):
        idx = LceIndex(encode("aa#"))
        assert idx.lce_many([0], [1]).tolist() == [1]

    def test_example_sequence_builds(self):
        idx = LceIndex(EXAMPLE_SEQ)
        assert idx.length == 21
        assert sorted(idx.suffix_order.tolist()) == list(range(21))

    def test_empty_sequence(self):
        with pytest.raises(MissingSeparator):
            LceIndex([])

    def test_separator_must_be_unique(self):
        with pytest.raises(SeparatorNotUnique):
            LceIndex([2, 0, 2])

    def test_single_symbol(self):
        idx = LceIndex([0])
        assert idx.lce_many([0], [0]).tolist() == [1]


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
    idx = LceIndex(seq)
    order, rank, lcp = naive_index(seq)
    assert idx.suffix_order.tolist() == order
    assert idx.rank.tolist() == rank
    assert idx.lcp.tolist() == lcp


class TestQueries:
    def test_basic_extension(self):
        idx = LceIndex(encode("abab#"))
        assert idx.lce_many([0], [2]).tolist() == [2]

    def test_identical_offsets(self):
        idx = LceIndex(encode("abab#"))
        offsets = np.arange(5)
        assert idx.lce_many(offsets, offsets).tolist() == [5, 4, 3, 2, 1]

    def test_example_placeholder_boundary(self):
        # text suffix "adc..." against pattern suffix "a<placeholder>..."
        idx = LceIndex(EXAMPLE_SEQ)
        assert idx.lce_many([7], [15]).tolist() == [1]

    def test_out_of_range(self):
        idx = LceIndex(encode("ab#"))
        with pytest.raises(OutOfRange):
            idx.lce_many([0], [3])
        with pytest.raises(OutOfRange):
            idx.lce_many([-1], [0])
        with pytest.raises(OutOfRange):
            idx.lce_many(np.asarray([0, 5]), np.asarray([0, 0]))


class TestOracleEquivalence:
    @pytest.mark.parametrize("length,sigma,seed", [
        (2, 1, 1), (3, 2, 2), (8, 2, 3), (16, 3, 4), (33, 2, 5),
        (64, 4, 6), (128, 2, 7), (300, 1, 8), (257, 1, 9),
    ])
    def test_all_pairs_small(self, length, sigma, seed):
        seq = random_sequence(random.Random(seed), length, sigma)
        idx = LceIndex(seq)
        ii, jj = all_pairs(length)
        got = idx.lce_many(ii, jj).tolist()
        for i, j, q in zip(ii.tolist(), jj.tolist(), got):
            assert q == naive_lce(seq, i, j), (i, j)

    def test_all_pairs_512(self):
        seq = random_sequence(random.Random(99), 512, 2)
        idx = LceIndex(seq)
        got = idx.lce_many(*all_pairs(512))
        expected = np.asarray(
            [naive_lce(seq, i, j) for i in range(512) for j in range(512)]
        )
        assert np.array_equal(got, expected)

    @given(st.integers(2, 400), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sampled_pairs(self, length, sigma, seed):
        rng = random.Random(seed)
        seq = random_sequence(rng, length, sigma)
        idx = LceIndex(seq)
        pairs = [(rng.randrange(length), rng.randrange(length)) for _ in range(32)]
        ii, jj = np.asarray(pairs).T
        got = idx.lce_many(ii, jj).tolist()
        assert got == [naive_lce(seq, i, j) for i, j in pairs]

    @given(st.integers(2, 200), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_separator_stop(self, length, sigma, seed):
        rng = random.Random(seed)
        seq = random_sequence(rng, length, sigma)
        idx = LceIndex(seq)
        pairs = [(rng.randrange(length), rng.randrange(length)) for _ in range(32)]
        ii, jj = np.asarray(pairs).T
        got = idx.lce_many(ii, jj).tolist()
        assert got == idx.lce_many(jj, ii).tolist()
        for (i, j), q in zip(pairs, got):
            if i != j and i + q < length and j + q < length:
                assert seq[i + q] != seq[j + q]
