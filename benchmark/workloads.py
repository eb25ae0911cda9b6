"""Seeded inputs of the three workloads.

Every input is a function of the workload name and the seed alone. Sizes
are fixed per workload, so two seeds differ in content but not in the
amount of work; the reasons for each size are in README.md.
"""

from dataclasses import dataclass

import numpy as np

from mask_oracle import CODE_OF_MASK

_CHARS = np.zeros(16, dtype="S1")
for _mask, _code in CODE_OF_MASK.items():
    _CHARS[_mask] = _code.encode()

# Nonempty subsets of the three bases other than one base, by base mask.
_EXTRAS = {b: [s for s in range(1, 16) if s & b == 0] for b in (1, 2, 4, 8)}


@dataclass(frozen=True)
class Workload:
    """One generated instance.

    ``records`` are (id, sequence) pairs, written to the CLI as FASTA.
    ``planted`` maps a record id to 1-based positions that must be
    reported; ``phase_set``, when set, is the whole occurrence set derived
    by hand.
    """

    name: str
    pattern: str
    records: tuple[tuple[str, str], ...]
    text_syntax: str  # the CLI's --text-syntax
    planted: dict
    phase_set: dict | None


def _text(masks: np.ndarray) -> str:
    return _CHARS[masks].tobytes().decode("ascii")


def _random_bases(rng, n: int) -> np.ndarray:
    return (1 << rng.integers(0, 4, n)).astype(np.uint8)


def _widen(rng, base_masks: np.ndarray) -> np.ndarray:
    """A degenerate code that still contains each given base."""
    return np.array(
        [b | _EXTRAS[int(b)][rng.integers(len(_EXTRAS[int(b)]))] for b in base_masks],
        dtype=np.uint8,
    )


def _degenerate_pattern(rng, bases: np.ndarray, k: int) -> np.ndarray:
    pattern = bases.copy()
    where = rng.choice(bases.size, k, replace=False)
    pattern[where] = _widen(rng, bases[where])
    return pattern


def _instance(rng, pattern: np.ndarray) -> np.ndarray:
    """A solid string the pattern matches: one member base per position."""
    out = pattern.copy()
    for o in np.flatnonzero(pattern & (pattern - 1)):
        members = [b for b in (1, 2, 4, 8) if pattern[o] & b]
        out[o] = members[rng.integers(len(members))]
    return out


def _slot_starts(rng, n: int, width: int, count: int) -> np.ndarray:
    """``count`` non-overlapping windows of ``width``, one per equal slot."""
    slot = n // count
    return np.arange(count) * slot + rng.integers(0, slot - width + 1, count)


def dna_random(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    n, m, k_p, planted = 1 << 19, 64, 8, 4
    text = _random_bases(rng, n)
    pattern = _degenerate_pattern(rng, _random_bases(rng, m), k_p)
    starts = _slot_starts(rng, n, m, planted)
    for s in starts:
        text[s : s + m] = _instance(rng, pattern)
    return Workload(
        name="dna-random",
        pattern=_text(pattern),
        records=(("r1", _text(text)),),
        text_syntax="solid",
        planted={"r1": tuple(int(s) + 1 for s in starts)},
        phase_set=None,
    )


def iupac_gaps(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    n, m, k_p, planted = 1 << 17, 64, 4, 16
    gaps, gap_len, scattered = 4, 32, 128
    text = _random_bases(rng, n)
    pattern = _degenerate_pattern(rng, _random_bases(rng, m), k_p)
    starts = _slot_starts(rng, n, m, planted)
    for s in starts:
        text[s : s + m] = _instance(rng, pattern)
    # Gaps and ambiguity codes only widen a symbol, so every planted
    # occurrence survives them.
    for g in _slot_starts(rng, n, gap_len, gaps):
        text[g : g + gap_len] = 0b1111
    solid = np.flatnonzero(text & (text - 1) == 0)
    where = rng.choice(solid, scattered, replace=False)
    text[where] = _widen(rng, text[where])
    return Workload(
        name="iupac-gaps",
        pattern=_text(pattern),
        records=(("r1", _text(text)),),
        text_syntax="iupac",
        planted={"r1": tuple(int(s) + 1 for s in starts)},
        phase_set=None,
    )


def tandem_repeat(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    records, length, m, k_p = 4, 1 << 17, 4096, 8
    unit = (1 << rng.permutation(4)[:3]).astype(np.uint8)  # three distinct bases
    pattern = _degenerate_pattern(rng, unit[np.arange(m) % 3], k_p)
    out, phase_set = [], {}
    for r in range(records):
        rid = f"r{r + 1}"
        phase = int(rng.integers(3))
        out.append((rid, _text(unit[(phase + np.arange(length)) % 3])))
        # With three distinct bases every off-phase window mismatches a
        # solid pattern position, and every in-phase window matches.
        first = (-phase) % 3
        phase_set[rid] = tuple(range(first + 1, length - m + 2, 3))
    return Workload(
        name="tandem-repeat-cli",
        pattern=_text(pattern),
        records=tuple(out),
        text_syntax="iupac",
        planted={},
        phase_set=phase_set,
    )


WORKLOADS = {
    "dna-random": dna_random,
    "iupac-gaps": iupac_gaps,
    "tandem-repeat-cli": tandem_repeat,
}
