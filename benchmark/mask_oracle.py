"""Vectorized reference matcher for IUPAC strings.

It shares no code with ``degmatch``: every symbol is a 4-bit mask over
A, C, G, T taken from this module's own table, and an alignment is an
occurrence when each of the m shifted text slices intersects the pattern
mask at that offset. That is O(nm) work in m numpy operations.
"""

import numpy as np

IUPAC_MASKS = {
    "A": 0b0001, "C": 0b0010, "G": 0b0100, "T": 0b1000,
    "M": 0b0011, "R": 0b0101, "W": 0b1001, "S": 0b0110, "Y": 0b1010, "K": 0b1100,
    "V": 0b0111, "H": 0b1011, "D": 0b1101, "B": 0b1110,
    "N": 0b1111,
}

_LOOKUP = np.zeros(256, dtype=np.uint8)
for _code, _mask in IUPAC_MASKS.items():
    _LOOKUP[ord(_code)] = _mask
    _LOOKUP[ord(_code.lower())] = _mask

CODE_OF_MASK = {mask: code for code, mask in IUPAC_MASKS.items()}


def masks(seq: str) -> np.ndarray:
    """Per-position 4-bit masks of an IUPAC string (case-insensitive)."""
    out = _LOOKUP[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    if out.size and not out.all():
        bad = int(np.flatnonzero(out == 0)[0])
        raise ValueError(f"not an IUPAC code: {seq[bad]!r} at position {bad + 1}")
    return out


def degenerate_count(seq: str) -> int:
    """Number of positions whose code stands for more than one base."""
    m = masks(seq)
    return int(np.count_nonzero(m & (m - 1)))


def occurrences(pattern: str, text: str) -> np.ndarray:
    """1-based start positions of every occurrence of ``pattern`` in ``text``."""
    p = masks(pattern)
    t = masks(text)
    m, n = p.size, t.size
    if m == 0:
        raise ValueError("pattern is empty")
    if m > n:
        return np.empty(0, dtype=np.int64)
    count = n - m + 1
    ok = np.ones(count, dtype=bool)
    hits = {}  # pattern mask -> does each text position intersect it
    for offset, code in enumerate(p.tolist()):
        hit = hits.get(code)
        if hit is None:
            hit = hits[code] = (t & code) != 0
        ok &= hit[offset : offset + count]
    return np.flatnonzero(ok) + 1
