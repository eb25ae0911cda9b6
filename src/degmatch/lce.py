"""Constant-time longest-common-extension queries over a rank sequence.

One prefix-doubling pass (O(L log L), a stable numpy sort per round)
builds the whole index. Round d names every suffix's 2^d-prefix, the
Karp-Miller-Rosenberg names of Manber and Myers: equal names mean equal
prefixes. The last round orders the suffixes, and its names, all
distinct, are their ranks. The adjacent-suffix LCP array comes from the
same rounds by binary lifting, one vectorized pass per round. A
block-decomposed sparse table answers range-minimum queries over it:
per-block prefix/suffix minima plus a sparse table over block minima
keep the hot query structures small enough to stay cache-resident at
large L, with a short-span table covering ranges inside one block.
``lce_many`` then answers each pair of offsets (i, j) with the string
depth of the suffix-tree LCA of the two suffixes, in O(1) per pair.
"""

import numpy as np

from .core import OutOfRange


class MissingSeparator(ValueError):
    pass


class SeparatorNotUnique(ValueError):
    pass


def _suffix_array(seq: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix order by prefix doubling, and every round's int32 names.

    ``levels[d][p]`` names the 2^d-prefix of the suffix at ``p``. Each
    round sorts on (name, name 2^d further on), with the keys taken in the
    previous round's order, so the stable sort only has to order the runs
    of equal names. Doubling stops once every name is distinct.
    """
    length = len(seq)
    order = np.argsort(seq, kind="stable")
    sorted_keys = seq[order]
    levels = []
    changed = np.empty(length, dtype=np.int32)
    changed[0] = 0
    h = 1
    while True:
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=changed[1:])
        sorted_names = np.cumsum(changed, dtype=np.int32)
        names = np.empty(length, dtype=np.int32)
        names[order] = sorted_names
        levels.append(names)
        if sorted_names[-1] == length - 1:
            return order.astype(np.int32), levels
        key = names.astype(np.int64) * (length + 1)
        key[: length - h] += names[h:] + 1
        key = key[order]
        step = np.argsort(key, kind="stable")
        order = order[step]
        sorted_keys = key[step]
        h *= 2


def _lcp_array(order: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """lcp[r] = LCP of the suffixes ranked r-1 and r, by binary lifting.

    From the highest round down, a pair whose 2^d-prefixes at its current
    extension share a name extends by 2^d. The last round's names are all
    distinct, so lifting starts one round below it. A common prefix never
    reaches the unique separator, so no offset runs past the end.
    """
    lcp = np.zeros(order.size, dtype=np.int32)
    ext = lcp[1:]
    left, right = order[:-1], order[1:]
    for d in range(len(levels) - 2, -1, -1):
        names = levels[d]
        ext += (names[left + ext] == names[right + ext]) * np.int32(1 << d)
    return lcp


def _sparse_table(values: np.ndarray, levels: int) -> np.ndarray:
    """table[d, i] = min(values[i : i + 2^d]), clipped at the end."""
    table = np.empty((levels, values.size), dtype=np.int32)
    table[0] = values
    for d in range(1, levels):
        half = 1 << (d - 1)
        table[d] = table[d - 1]
        np.minimum(table[d, :-half], table[d - 1, half:], out=table[d, :-half])
    return table


def _range_min(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(values[lo..hi]) per pair, inclusive, from two overlapping
    power-of-two spans of ``_sparse_table(values, ...)``."""
    d = (np.frexp(hi - lo + 1)[1] - 1).astype(np.int64)
    return np.minimum(table[d, lo], table[d, hi - (np.int64(1) << d) + 1])


_BLOCK_BITS = 5
_BLOCK = 1 << _BLOCK_BITS


class LceIndex:
    """Immutable index answering longest-common-extension queries in O(1).

    ``seq`` is a sequence of non-negative integer ranks whose final element
    is a separator occurring nowhere else; that uniqueness guarantees no
    suffix is a prefix of another, so every extension stops at a genuine
    symbol difference. The index keeps the ranks as int32, without a copy
    when ``seq`` is already a contiguous int32 array.
    """

    __slots__ = (
        "seq", "length", "suffix_order", "rank", "lcp",
        "_short", "_prefix_min", "_suffix_min", "_block_table",
    )

    def __init__(self, seq):
        arr = np.ascontiguousarray(seq, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0:
            raise MissingSeparator("sequence is empty; it must end with the separator")
        sep = int(arr[-1])
        if int(np.count_nonzero(arr == sep)) != 1:
            raise SeparatorNotUnique(f"separator rank {sep} occurs more than once")

        self.seq = arr
        self.length = int(arr.size)
        self.suffix_order, levels = _suffix_array(arr)
        self.rank = levels[-1]
        self.lcp = _lcp_array(self.suffix_order, levels)
        self._build_rmq(self.lcp)
        for a in (
            self.seq, self.suffix_order, self.rank, self.lcp,
            self._short, self._prefix_min, self._suffix_min, self._block_table,
        ):
            a.flags.writeable = False

    def _build_rmq(self, lcp: np.ndarray) -> None:
        """Block-decomposed range minimum over the LCP array.

        Ranges within one block width come from a short sparse table;
        longer ranges combine a block-suffix minimum, whole-block minima
        from a sparse table over blocks, and a block-prefix minimum.
        """
        length = lcp.size
        self._short = _sparse_table(lcp, min(_BLOCK_BITS + 1, max(1, length.bit_length())))

        blocks = (length + _BLOCK - 1) >> _BLOCK_BITS
        padded = np.full(blocks << _BLOCK_BITS, np.iinfo(np.int32).max, dtype=np.int32)
        padded[:length] = lcp
        grid = padded.reshape(blocks, _BLOCK)
        self._prefix_min = np.minimum.accumulate(grid, axis=1).reshape(-1)[:length]
        self._suffix_min = (
            np.minimum.accumulate(grid[:, ::-1], axis=1)[:, ::-1].reshape(-1)[:length]
        )
        self._block_table = _sparse_table(grid.min(axis=1), max(1, int(blocks).bit_length()))

    def lce_many(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Longest common prefix of the suffixes at offsets ``i[x]`` and
        ``j[x]`` (0-based) for every x, O(1) each; raises ``OutOfRange``
        when an offset is outside the sequence."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if i.size and not (
            0 <= int(i.min()) and int(i.max()) < self.length
            and 0 <= int(j.min()) and int(j.max()) < self.length
        ):
            raise OutOfRange("offset outside the indexed sequence")
        ra = self.rank[i]
        rb = self.rank[j]
        lo = np.minimum(ra, rb).astype(np.int64) + 1
        hi = np.maximum(ra, rb).astype(np.int64)
        # equal offsets make lo > hi; clamp for the gathers, the result is
        # overwritten at the end
        lo = np.minimum(lo, self.length - 1)
        hi = np.maximum(hi, lo)
        span = hi - lo + 1
        out = np.empty(lo.shape, dtype=np.int64)

        short = np.flatnonzero(span <= _BLOCK)
        if short.size:
            out[short] = _range_min(self._short, lo[short], hi[short])

        long = np.flatnonzero(span > _BLOCK)
        if long.size:
            llo = lo[long]
            lhi = hi[long]
            edge = np.minimum(self._suffix_min[llo], self._prefix_min[lhi]).astype(np.int64)
            bl = (llo >> _BLOCK_BITS) + 1
            bh = (lhi >> _BLOCK_BITS) - 1
            inner = np.flatnonzero(bl <= bh)
            if inner.size:
                inner_min = _range_min(self._block_table, bl[inner], bh[inner])
                edge[inner] = np.minimum(edge[inner], inner_min)
            out[long] = edge

        same = i == j
        if same.any():
            out = np.where(same, self.length - i, out)
        return out
