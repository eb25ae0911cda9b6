"""Constant-time longest-common-extension queries over a rank sequence.

The index is a suffix array (prefix doubling over numpy lexsorts,
O(L log L)), the adjacent-suffix LCP array (Kasai, O(L)), and a
block-decomposed sparse table for range-minimum queries: per-block
prefix/suffix minima plus a sparse table over block minima keep the hot
query structures small enough to stay cache-resident at large L, with a
short-span table covering ranges inside one block. ``lce(i, j)`` then
equals the string depth of the suffix-tree LCA of the two suffixes,
answered in O(1).
"""

import numpy as np

from .core import OutOfRange


class MissingSeparator(ValueError):
    pass


class SeparatorNotUnique(ValueError):
    pass


def _suffix_array(seq: np.ndarray) -> np.ndarray:
    """Suffix order by prefix doubling; stable lexsort per round."""
    length = len(seq)
    order = np.argsort(seq, kind="stable").astype(np.int64)
    ranks = np.empty(length, dtype=np.int64)
    sorted_keys = seq[order]
    changed = np.empty(length, dtype=np.int64)
    changed[0] = 0
    changed[1:] = sorted_keys[1:] != sorted_keys[:-1]
    ranks[order] = np.cumsum(changed)

    h = 1
    while h < length and ranks[order[-1]] != length - 1:
        second = np.full(length, -1, dtype=np.int64)
        second[: length - h] = ranks[h:]
        order = np.lexsort((second, ranks))
        first_s = ranks[order]
        second_s = second[order]
        changed[0] = 0
        changed[1:] = (first_s[1:] != first_s[:-1]) | (second_s[1:] != second_s[:-1])
        ranks[order] = np.cumsum(changed)
        h *= 2
    return order.astype(np.int32)


def _lcp_array(seq: list, sa: list, rank: list) -> list:
    """Kasai's algorithm; lcp[r] = LCP of suffixes ranked r-1 and r."""
    length = len(seq)
    lcp = [0] * length
    h = 0
    for i in range(length):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = sa[r - 1]
        while i + h < length and j + h < length and seq[i + h] == seq[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


_BLOCK_BITS = 5
_BLOCK = 1 << _BLOCK_BITS


class LceIndex:
    """Immutable index answering longest-common-extension queries in O(1).

    ``seq`` is a sequence of non-negative integer ranks whose final element
    is a separator occurring nowhere else; that uniqueness guarantees no
    suffix is a prefix of another, so every extension stops at a genuine
    symbol difference.
    """

    __slots__ = (
        "seq", "length", "suffix_order", "rank", "lcp",
        "_short", "_prefix_min", "_suffix_min", "_block_table",
    )

    def __init__(self, seq, separator: int | None = None):
        arr = np.ascontiguousarray(seq, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise MissingSeparator("sequence is empty; it must end with the separator")
        sep = int(arr[-1]) if separator is None else int(separator)
        if int(arr[-1]) != sep:
            raise MissingSeparator(f"sequence does not end with separator rank {sep}")
        if int(np.count_nonzero(arr == sep)) != 1:
            raise SeparatorNotUnique(f"separator rank {sep} occurs more than once")

        self.seq = arr
        self.length = int(arr.size)
        self.suffix_order = _suffix_array(arr)
        rank = np.empty(self.length, dtype=np.int32)
        rank[self.suffix_order] = np.arange(self.length, dtype=np.int32)
        self.rank = rank
        lcp_list = _lcp_array(arr.tolist(), self.suffix_order.tolist(), rank.tolist())
        self.lcp = np.asarray(lcp_list, dtype=np.int32)
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
        short_levels = min(_BLOCK_BITS + 1, max(1, length.bit_length()))
        short = np.empty((short_levels, length), dtype=np.int32)
        short[0] = lcp
        for d in range(1, short_levels):
            half = 1 << (d - 1)
            valid = length - (1 << d) + 1
            if valid > 0:
                np.minimum(short[d - 1, :valid], short[d - 1, half : half + valid], out=short[d, :valid])
                short[d, valid:] = short[d - 1, valid:]
            else:
                short[d] = short[d - 1]
        self._short = short

        blocks = (length + _BLOCK - 1) >> _BLOCK_BITS
        padded = np.full(blocks << _BLOCK_BITS, np.iinfo(np.int32).max, dtype=np.int32)
        padded[:length] = lcp
        grid = padded.reshape(blocks, _BLOCK)
        self._prefix_min = np.minimum.accumulate(grid, axis=1).reshape(-1)[:length]
        self._suffix_min = (
            np.minimum.accumulate(grid[:, ::-1], axis=1)[:, ::-1].reshape(-1)[:length]
        )

        block_min = grid.min(axis=1)
        levels = max(1, int(blocks).bit_length())
        table = np.empty((levels, blocks), dtype=np.int32)
        table[0] = block_min
        for d in range(1, levels):
            half = 1 << (d - 1)
            valid = blocks - (1 << d) + 1
            if valid > 0:
                np.minimum(table[d - 1, :valid], table[d - 1, half : half + valid], out=table[d, :valid])
                table[d, valid:] = table[d - 1, valid:]
            else:
                table[d] = table[d - 1]
        self._block_table = table

    def _check(self, off: int) -> None:
        if not 0 <= off < self.length:
            raise OutOfRange(f"offset {off} outside 0..{self.length - 1}")

    def lce(self, i: int, j: int) -> int:
        """Length of the longest common prefix of the suffixes at offsets
        ``i`` and ``j`` (0-based). O(1)."""
        self._check(i)
        self._check(j)
        return int(self.lce_many(np.asarray([i]), np.asarray([j]))[0])

    def lce_many(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized ``lce`` over parallel offset arrays."""
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
            slo = lo[short]
            shi = hi[short]
            d = (np.frexp(span[short])[1] - 1).astype(np.int64)
            out[short] = np.minimum(
                self._short[d, slo],
                self._short[d, shi - (np.int64(1) << d) + 1],
            )

        long = np.flatnonzero(span > _BLOCK)
        if long.size:
            llo = lo[long]
            lhi = hi[long]
            edge = np.minimum(self._suffix_min[llo], self._prefix_min[lhi]).astype(np.int64)
            bl = (llo >> _BLOCK_BITS) + 1
            bh = (lhi >> _BLOCK_BITS) - 1
            inner = np.flatnonzero(bl <= bh)
            if inner.size:
                il = bl[inner]
                ih = bh[inner]
                d = (np.frexp(ih - il + 1)[1] - 1).astype(np.int64)
                inner_min = np.minimum(
                    self._block_table[d, il],
                    self._block_table[d, ih - (np.int64(1) << d) + 1],
                )
                edge[inner] = np.minimum(edge[inner], inner_min)
            out[long] = edge

        same = i == j
        if same.any():
            out = np.where(same, self.length - i, out)
        return out

    def dump(self) -> str:
        """Suffix order and LCP arrays as tab-separated lines (rank, start, lcp)."""
        return "\n".join(
            f"{r}\t{int(self.suffix_order[r])}\t{int(self.lcp[r])}"
            for r in range(self.length)
        )
