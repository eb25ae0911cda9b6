"""Brute-force reference matcher and seeded random instance generation.

The reference matcher shares nothing with stages 2 and 3: it scans every
alignment and intersects symbol sets directly, so the two sides can be
checked against each other on randomized instances. Generated strings are
built by ``core._pack``, as parsed strings are.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import Alphabet, DegenerateString, EmptyPattern, _pack

#: Printed alongside the seed when an equivalence check fails.
GENERATOR_NAME = "random.Random (Mersenne Twister)"

_SYMBOL_POOL = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
)


def naive_match(pattern: DegenerateString, text: DegenerateString) -> list[int]:
    """All 1-based positions where the pattern occurs, by direct scanning.

    O(n*m) alignments x offsets; each symbol comparison is one mask AND.
    """
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one symbol")
    if pattern.alphabet != text.alphabet:
        raise ValueError("pattern and text are over different alphabets")
    pmask = [s.mask for s in pattern.symbols]
    tmask = [s.mask for s in text.symbols]
    m = len(pmask)
    out = []
    for i in range(len(tmask) - m + 1):
        if all(pmask[o] & tmask[i + o] for o in range(m)):
            out.append(i + 1)
    return out


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Shape of one random (pattern, text) instance."""

    n: int
    m: int
    sigma: int
    k_pattern: int
    k_text: int
    max_set_size: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not 0 <= self.k_pattern <= self.m:
            raise ValueError(f"need 0 <= k_pattern <= m, got {self.k_pattern}")
        if not 0 <= self.k_text <= self.n:
            raise ValueError(f"need 0 <= k_text <= n, got {self.k_text}")
        if not 2 <= self.max_set_size <= self.sigma:
            raise ValueError(
                f"need 2 <= max_set_size <= sigma, got {self.max_set_size} with sigma={self.sigma}"
            )
        if self.sigma > len(_SYMBOL_POOL):
            raise ValueError(f"sigma > {len(_SYMBOL_POOL)} not supported by the generator")


def _random_set_mask(rng: random.Random, sigma: int, max_set_size: int, force_member: int | None = None) -> int:
    """Uniform over all subsets with 2 <= size <= max_set_size (optionally
    conditioned on containing ``force_member``)."""
    sizes = range(2, max_set_size + 1)
    if force_member is None:
        weights = [math.comb(sigma, s) for s in sizes]
        size = rng.choices(list(sizes), weights=weights)[0]
        members = rng.sample(range(sigma), size)
    else:
        weights = [math.comb(sigma - 1, s - 1) for s in sizes]
        size = rng.choices(list(sizes), weights=weights)[0]
        others = [r for r in range(sigma) if r != force_member]
        members = [force_member] + rng.sample(others, size - 1)
    mask = 0
    for r in members:
        mask |= 1 << r
    return mask


def generate_instance(spec: RandomInstanceSpec) -> tuple[DegenerateString, DegenerateString]:
    """Deterministic (pattern, text) pair for ``spec``.

    Non-solid positions are drawn without replacement and filled with
    random sets of size 2..max_set_size; with probability 1/2 a true
    occurrence of the pattern is planted at a random alignment so that
    positive cases are exercised. Each string goes from its list of masks
    straight to ``core._pack``, with no symbol object per position.
    """
    rng = random.Random(spec.seed)
    alphabet = Alphabet(_SYMBOL_POOL[: spec.sigma])
    sigma = spec.sigma

    def build(length: int, k: int) -> list[int]:
        masks = [1 << rng.randrange(sigma) for _ in range(length)]
        for pos in rng.sample(range(length), k):
            masks[pos] = _random_set_mask(rng, sigma, spec.max_set_size)
        return masks

    pattern_masks = build(spec.m, spec.k_pattern)
    text_masks = build(spec.n, spec.k_text)
    text_degenerate = {i for i, mk in enumerate(text_masks) if mk.bit_count() > 1}

    if rng.random() < 0.5:
        start = rng.randint(0, spec.n - spec.m)
        for o, pm in enumerate(pattern_masks):
            members = [r for r in range(sigma) if pm >> r & 1]
            c = rng.choice(members)
            if start + o in text_degenerate:
                text_masks[start + o] = _random_set_mask(
                    rng, sigma, spec.max_set_size, force_member=c
                )
            else:
                text_masks[start + o] = 1 << c

    return tuple(_pack(alphabet, mks, np.arange(len(mks))) for mks in (pattern_masks, text_masks))

