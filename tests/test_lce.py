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
        assert idx.lce(0, 1) == 0

    def test_repeated_prefix(self):
        idx = LceIndex(encode("aa#"))
        assert idx.lce(0, 1) == 1

    def test_example_sequence_builds(self):
        idx = LceIndex(EXAMPLE_SEQ)
        assert idx.length == 21
        assert sorted(idx.suffix_order.tolist()) == list(range(21))

    def test_empty_sequence(self):
        with pytest.raises(MissingSeparator):
            LceIndex([])

    def test_declared_separator_must_be_final(self):
        with pytest.raises(MissingSeparator):
            LceIndex([0, 1, 2], separator=5)

    def test_separator_must_be_unique(self):
        with pytest.raises(SeparatorNotUnique):
            LceIndex([2, 0, 2])

    def test_single_symbol(self):
        idx = LceIndex([0])
        assert idx.lce(0, 0) == 1


class TestQueries:
    def test_basic_extension(self):
        idx = LceIndex(encode("abab#"))
        assert idx.lce(0, 2) == 2

    def test_identical_offsets(self):
        idx = LceIndex(encode("abab#"))
        for i in range(5):
            assert idx.lce(i, i) == 5 - i

    def test_example_placeholder_boundary(self):
        # text suffix "adc..." against pattern suffix "a<placeholder>..."
        idx = LceIndex(EXAMPLE_SEQ)
        assert idx.lce(7, 15) == 1

    def test_out_of_range(self):
        idx = LceIndex(encode("ab#"))
        with pytest.raises(OutOfRange):
            idx.lce(0, 3)
        with pytest.raises(OutOfRange):
            idx.lce(-1, 0)
        with pytest.raises(OutOfRange):
            idx.lce_many(np.asarray([0, 5]), np.asarray([0, 0]))


class TestOracleEquivalence:
    @pytest.mark.parametrize("length,sigma,seed", [
        (2, 1, 1), (3, 2, 2), (8, 2, 3), (16, 3, 4), (33, 2, 5),
        (64, 4, 6), (128, 2, 7),
    ])
    def test_all_pairs_small(self, length, sigma, seed):
        seq = random_sequence(random.Random(seed), length, sigma)
        idx = LceIndex(seq)
        for i in range(length):
            for j in range(length):
                assert idx.lce(i, j) == naive_lce(seq, i, j), (i, j)

    def test_all_pairs_512(self):
        seq = random_sequence(random.Random(99), 512, 2)
        idx = LceIndex(seq)
        ii, jj = np.meshgrid(np.arange(512), np.arange(512), indexing="ij")
        got = idx.lce_many(ii.ravel(), jj.ravel())
        expected = np.asarray(
            [naive_lce(seq, i, j) for i in range(512) for j in range(512)]
        )
        assert np.array_equal(got, expected)
        # the scalar path agrees with the vectorized one
        rng = random.Random(7)
        for _ in range(500):
            i, j = rng.randrange(512), rng.randrange(512)
            assert idx.lce(i, j) == int(got[i * 512 + j])

    @given(st.integers(2, 400), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sampled_pairs(self, length, sigma, seed):
        rng = random.Random(seed)
        seq = random_sequence(rng, length, sigma)
        idx = LceIndex(seq)
        for _ in range(32):
            i, j = rng.randrange(length), rng.randrange(length)
            assert idx.lce(i, j) == naive_lce(seq, i, j)

    @given(st.integers(2, 200), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_separator_stop(self, length, sigma, seed):
        rng = random.Random(seed)
        seq = random_sequence(rng, length, sigma)
        idx = LceIndex(seq)
        for _ in range(32):
            i, j = rng.randrange(length), rng.randrange(length)
            q = idx.lce(i, j)
            assert q == idx.lce(j, i)
            if i != j and i + q < length and j + q < length:
                assert seq[i + q] != seq[j + q]
