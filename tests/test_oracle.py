from dataclasses import replace

import numpy as np
import pytest

from degmatch import (
    DegenerateString,
    DegenerateSymbol,
    EmptyPattern,
    naive_match,
    parse_bracket,
    parse_solid,
)
from degmatch.oracle import RandomInstanceSpec, generate_instance


def _refuse(*_args, **_kwargs):
    raise AssertionError("built a symbol per position")


class TestNaiveMatch:
    def test_golden_example(self, golden_pattern, golden_text):
        assert naive_match(golden_pattern, golden_text) == [2, 5]

    def test_self_match(self, golden_pattern):
        assert naive_match(golden_pattern, golden_pattern) == [1]

    def test_no_intersection(self, abcd):
        assert naive_match(parse_bracket("[ab]", abcd), parse_solid("ccc", abcd)) == []

    def test_empty_pattern(self, abcd, golden_text):
        with pytest.raises(EmptyPattern):
            naive_match(parse_solid("", abcd), golden_text)

    def test_pattern_longer_than_text(self, abcd):
        assert naive_match(parse_solid("aaa", abcd), parse_solid("a", abcd)) == []


class TestInstanceSpec:
    def test_valid(self):
        RandomInstanceSpec(n=10, m=4, sigma=4, k_pattern=2, k_text=1, max_set_size=3, seed=0)

    @pytest.mark.parametrize("bad", [
        dict(m=11),            # m > n
        dict(m=0),             # empty pattern
        dict(k_pattern=5),     # k_pattern > m
        dict(k_text=11),       # k_text > n
        dict(max_set_size=1),  # below 2
        dict(max_set_size=5),  # above sigma
    ])
    def test_invariants_enforced(self, bad):
        base = dict(n=10, m=4, sigma=4, k_pattern=2, k_text=1, max_set_size=3, seed=0)
        base.update(bad)
        with pytest.raises(ValueError):
            RandomInstanceSpec(**base)


class TestGenerateInstance:
    SPEC = RandomInstanceSpec(n=40, m=8, sigma=4, k_pattern=3, k_text=2, max_set_size=3, seed=7)

    def test_deterministic(self):
        assert generate_instance(self.SPEC) == generate_instance(self.SPEC)

    def test_builds_no_symbol_per_position(self, monkeypatch):
        specs = [replace(self.SPEC, seed=seed, sigma=sigma, max_set_size=min(sigma, 5))
                 for seed in range(20) for sigma in (2, 4, 62)]
        with monkeypatch.context() as patched:
            patched.setattr(DegenerateSymbol, "__init__", _refuse)
            instances = [generate_instance(spec) for spec in specs]
        for s in (s for pair in instances for s in pair):
            rebuilt = DegenerateString(s.alphabet, s.symbols)
            assert s == rebuilt and hash(s) == hash(rebuilt)
            assert s.ranks.dtype == np.int32 and not s.ranks.flags.writeable

    def test_shapes_and_counts(self):
        pattern, text = generate_instance(self.SPEC)
        assert len(pattern) == 8 and len(text) == 40
        assert len(pattern.non_solid_positions) == 3
        assert len(text.non_solid_positions) == 2

    def test_all_solid_when_k_zero(self):
        spec = RandomInstanceSpec(n=20, m=5, sigma=4, k_pattern=0, k_text=0, max_set_size=2, seed=1)
        pattern, text = generate_instance(spec)
        assert pattern.is_solid and text.is_solid

    def test_set_sizes_within_cap(self):
        for seed in range(30):
            spec = RandomInstanceSpec(
                n=30, m=10, sigma=8, k_pattern=4, k_text=4, max_set_size=3, seed=seed
            )
            pattern, text = generate_instance(spec)
            for s in list(pattern) + list(text):
                assert 1 <= len(s) <= 3
                if len(s) > 1:
                    assert len(s) >= 2

    def test_planting_produces_hits(self):
        # planting fires with probability 1/2; random hits are vanishingly
        # rare at sigma=20 and m=16, so about half these instances match
        hits = 0
        for seed in range(200):
            spec = RandomInstanceSpec(
                n=200, m=16, sigma=20, k_pattern=2, k_text=2, max_set_size=2, seed=seed
            )
            pattern, text = generate_instance(spec)
            if naive_match(pattern, text):
                hits += 1
        assert 60 <= hits <= 140
