"""Longest-common-extension queries over a rank sequence.

``lce_many`` answers most pairs of offsets by direct comparison, the
"DirectComp" hybrid of Ilie, Navarro and Tinta (2010): every rank gets a
one-byte code, min(rank, 255), and one gather of a 64-bit word compares
8 symbols of a pair at once. Every rank of 255 or more shares the escape
code 0xFF, so a comparison that runs into an equal escape byte is not
settled by words. A pair whose 8 codes all match goes on word by word
while a budget of L words per index lasts (L is the sequence length), so
a few long extensions need no index. Over the life of an index the words
read are at most the number of pairs plus L.

The pairs that words leave open go to a constant-time index, built the
first time a pair needs it. One prefix-doubling pass (a stable numpy
sort per round) names every suffix's 2^d-prefix, the
Karp-Miller-Rosenberg names of Manber and Myers: equal names mean equal
prefixes. When every rank is below the escape code, the codes are the
ranks, so the first round sorts the words themselves, read big-endian,
and names 8-prefixes at once; otherwise it sorts the ranks and names
single symbols. Doubling stops once the names are all distinct, or once
the prefixes reach ``cap``. The last round orders the suffixes, and the
adjacent-suffix LCP array comes from the same rounds by binary lifting,
one vectorized pass per round, finished by one word comparison when the
words seeded the rounds. A block-decomposed sparse table answers
range-minimum queries over it: per-block prefix/suffix minima plus a
sparse table over block minima keep the hot query structures small
enough to stay cache-resident at large L, with a short-span table
covering ranges inside one block. A batch of pairs takes the block
answer in one pass, and the few ranges inside one block width take the
short table's instead. The LCE of two suffixes is then the minimum LCP
between their ranks, O(1) per pair.

Without a cap every answer is exact. With one, an answer is exact below
the cap and at least the cap otherwise, and never above the LCE: in an
order sorted by cap-prefixes, the capped LCE of two suffixes is the
smallest capped LCP between them.
"""
import numpy as np

from .core import OutOfRange


class MissingSeparator(ValueError):
    pass


class SeparatorNotUnique(ValueError):
    pass


def _suffix_array(
    seq: np.ndarray, cap: int | None = None, words: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix order by prefix doubling, and every round's int32 names.

    The first round sorts the ranks and names single symbols. Given
    ``words``, the little-endian words of one-byte codes that equal the
    ranks (``LceIndex`` without escapes), it sorts the byte-swapped words
    instead: read big-endian, a word orders its 8 codes lexicographically,
    so the first round names 8-prefixes and three rounds are skipped.
    ``levels[d][p]`` names the 2^(d + s)-prefix of the suffix at ``p``, with
    s = 3 given words and 0 otherwise. Each later round sorts on (name,
    name h further on), with the keys built in the previous round's order,
    so the stable sort only has to order the runs of equal names. Doubling
    stops once every name is distinct or once the named prefixes are at
    least ``cap`` long; the order then sorts the suffixes by those
    prefixes, with ties in no particular order.
    """
    length = len(seq)
    h, keys = (1, seq) if words is None else (8, words.byteswap())
    order = np.argsort(keys, kind="stable").astype(np.int32)
    sorted_keys = keys[order]
    del keys
    sorted_names = np.zeros(length, dtype=np.int32)
    levels = []
    while True:
        np.cumsum(sorted_keys[1:] != sorted_keys[:-1], out=sorted_names[1:])
        del sorted_keys
        names = np.empty(length, dtype=np.int32)
        names[order] = sorted_names
        levels.append(names)
        if sorted_names[-1] == length - 1 or (cap is not None and h >= cap):
            return order, levels
        # a suffix whose h-prefix holds the unique separator already has a
        # name of its own, so clipping its second key changes no order
        sorted_keys = sorted_names.astype(np.int64)
        sorted_keys *= length
        sorted_keys += names.take(order + h, mode="clip")
        step = np.argsort(sorted_keys, kind="stable")
        order = order[step]
        sorted_keys = sorted_keys[step]
        h *= 2


def _lcp_array(
    order: np.ndarray, levels: list[np.ndarray], words: np.ndarray | None = None
) -> np.ndarray:
    """lcp[r] = LCP of the suffixes ranked r-1 and r, by binary lifting.

    ``levels`` and ``words`` are those of ``_suffix_array``. From the
    highest round down, a pair whose prefixes at its current extension
    share a name extends by the round's prefix length. With words the
    lowest round names 8-prefixes, so the lift stops less than 8 short,
    and one comparison of the words there adds the last 0-7 symbols.
    Rounds up to 2^D give a result exact below 2^(D+1) and no larger than
    the LCP otherwise. Each round is dropped from ``levels`` once it is
    used. A common prefix never reaches the unique separator, so no
    offset runs past the end.
    """
    lcp = np.zeros(order.size, dtype=np.int32)
    ext = lcp[1:]
    left, right = order[:-1], order[1:]
    shift = 0 if words is None else 3
    while levels:
        d = shift + len(levels) - 1
        names = levels.pop()
        ext += (names[left + ext] == names[right + ext]) * np.int32(1 << d)
    if words is not None:
        ext += _leading_bytes(words[left + ext] ^ words[right + ext])
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
    power-of-two spans of ``_sparse_table(values, ...)``. A pair with
    hi < lo reads some value of the table in bounds, for a caller that
    masks it out."""
    width = hi - lo + 1
    np.maximum(width, 1, out=width)
    row = np.frexp(width)[1] - 1
    # offsets into the flat table: a take per span runs faster than
    # indexing rows and columns
    first = row * table.shape[1]
    last = first + hi
    first += lo
    last -= np.left_shift(1, row, dtype=row.dtype)
    last += 1
    flat = table.reshape(-1)
    return np.minimum(flat.take(first, mode="clip"), flat.take(last, mode="clip"))


def _leading_bytes(x: np.ndarray) -> np.ndarray:
    """Number of zero low-order bytes of each uint64, 8 for zero: the
    bytes a little-endian word holds before its first nonzero one."""
    low = np.negative(x)  # x & -x keeps the lowest set bit, 2^t
    low &= x
    # a power of two converts to float exactly, so frexp gives t + 1
    # (64 for 2^63 read as int64), and 0 when x is 0
    count = np.frexp(low.view(np.int64))[1]
    count -= 1
    count &= 127  # x == 0: -1 becomes 127, which the minimum makes 8
    count >>= 3
    return np.minimum(count, 8, out=count)


_BLOCK_BITS = 5
_BLOCK = 1 << _BLOCK_BITS
_ESCAPE = 0xFF
_ONES = np.uint64(0x0101010101010101)
_HIGHS = np.uint64(0x8080808080808080)


class LceIndex:
    """Longest-common-extension index over a rank sequence.

    ``seq`` is a sequence of non-negative integer ranks whose final element
    is a separator occurring nowhere else; that uniqueness guarantees no
    suffix is a prefix of another, so every extension stops at a genuine
    symbol difference. The index keeps the ranks as int32, without a copy
    when ``seq`` is already a contiguous int32 array, and the 64-bit word
    of codes that starts at every offset (8 bytes per symbol).

    The suffix order, rank, LCP array and range-minimum tables are empty
    arrays until a pair first needs them; only that build and the word
    budget change after construction. Without escapes the build seeds
    prefix doubling with the words, so it starts at 8-prefixes. With
    ``cap``, doubling stops once prefixes are ``cap`` long, and an answer
    is exact when it is below ``cap`` and at least ``cap`` otherwise; it
    never exceeds the LCE.
    """

    __slots__ = (
        "seq", "length", "cap", "suffix_order", "rank", "lcp",
        "_short", "_prefix_min", "_suffix_min", "_block_table",
        "_words", "_escapes", "_word_budget",
    )

    def __init__(self, seq, cap: int | None = None):
        arr = np.ascontiguousarray(seq, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0:
            raise MissingSeparator("sequence is empty; it must end with the separator")
        sep = int(arr[-1])
        if int(np.count_nonzero(arr == sep)) != 1:
            raise SeparatorNotUnique(f"separator rank {sep} occurs more than once")

        self.seq = arr
        self.length = int(arr.size)
        self.cap = cap
        # 8 zero bytes of padding let the word at every offset be read
        codes = np.zeros(arr.size + 8, dtype=np.uint8)
        np.minimum(arr, _ESCAPE, out=codes[: arr.size], casting="unsafe")
        self._escapes = bool(codes.max() == _ESCAPE)
        # an aligned copy of the overlapping words: gathers from the
        # unaligned view itself run several times slower
        self._words = np.ndarray((arr.size,), "<u8", buffer=codes, strides=(1,)).copy()
        self._words.flags.writeable = False
        self._word_budget = self.length
        self.suffix_order = self.rank = self.lcp = np.empty(0, dtype=np.int32)
        self._short = self._block_table = np.empty((0, 0), dtype=np.int32)
        self._prefix_min = self._suffix_min = self.lcp
        self.seq.flags.writeable = False

    def _build(self) -> None:
        """Suffix order, rank, LCP array and range-minimum tables."""
        words = None if self._escapes else self._words
        order, levels = _suffix_array(self.seq, self.cap, words)
        self._build_rmq(_lcp_array(order, levels, words))
        rank = np.empty_like(order)
        rank[order] = np.arange(self.length, dtype=np.int32)
        self.suffix_order, self.rank, self.lcp = order, rank, self._short[0]
        for a in (
            self.suffix_order, self.rank, self.lcp,
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

    def _index_lce(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """LCE of each pair of distinct offsets from the range minimum of
        the LCP array between their ranks; builds the index first if needed.

        Every pair takes the block answer in one pass: the suffix minimum
        of the first block, the prefix minimum of the last, and, where
        whole blocks lie between, their minimum. Pairs whose range fits
        in one block width then take the short table's answer instead.
        """
        if self.suffix_order.size == 0:
            self._build()
        ra = self.rank[i]
        rb = self.rank[j]
        lo = np.minimum(ra, rb)
        lo += 1
        hi = np.maximum(ra, rb, out=ra)
        out = np.minimum(self._suffix_min[lo], self._prefix_min[hi])
        first = (lo >> _BLOCK_BITS) + 1
        last = (hi >> _BLOCK_BITS) - 1
        inner = first <= last
        np.minimum(out, _range_min(self._block_table, first, last), out=out, where=inner)
        short = np.flatnonzero(hi - lo < _BLOCK)
        out[short] = _range_min(self._short, lo[short], hi[short])
        return out

    def _compare(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Codes the words at offsets ``i`` and ``j`` share before their
        first difference, 0 to 8, or 9 when an escape byte lies among them:
        that byte is equal on both sides, the ranks behind it may not be."""
        a = self._words[i]
        equal = _leading_bytes(a ^ self._words[j])
        if self._escapes:
            equal[_leading_bytes((~a - _ONES) & a & _HIGHS) < equal] = 9
        return equal

    def lce_many(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Longest common prefix of the suffixes at offsets ``i[x]`` and
        ``j[x]`` (0-based) for every x, O(1) amortized each; raises
        ``OutOfRange`` when an offset is outside the sequence.

        Each pair first compares one word of 8 codes. A pair that matched
        all 8 without an escape goes on word by word while the word budget
        lasts and the index is not built yet; whatever is still open, and
        every pair stopped by an equal escape byte, goes to the index.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if i.size and not (
            0 <= int(i.min()) and int(i.max()) < self.length
            and 0 <= int(j.min()) and int(j.max()) < self.length
        ):
            raise OutOfRange("offset outside the indexed sequence")
        out = self._compare(i, j).astype(np.int64)
        pending = np.flatnonzero(out >= 8)
        i, j = i[pending], j[pending]
        same = i == j
        if same.any():
            out[pending[same]] = self.length - i[same]
            differ = ~same
            pending, i, j = pending[differ], i[differ], j[differ]
        if pending.size and self.suffix_order.size == 0:
            rest = self._extend_by_words(out, pending, i, j)
            pending, i, j = pending[rest], i[rest], j[rest]
        if pending.size:
            out[pending] = self._index_lce(i, j)
        return out

    def _extend_by_words(
        self, out: np.ndarray, pending: np.ndarray, i: np.ndarray, j: np.ndarray
    ) -> np.ndarray:
        """Extends the pairs of distinct offsets ``i``, ``j`` at positions
        ``pending`` of ``out`` word by word while they are below the cap
        and the word budget lasts, in ``out``. Returns the indices into
        ``pending`` of the pairs left for the index: those stopped by an
        equal escape byte, and those still open when the budget ran out."""
        cap = self.length if self.cap is None else self.cap
        ext = out[pending]
        to_index = [np.flatnonzero(ext > 8)]
        extending = np.flatnonzero(ext == 8)
        while extending.size:
            extending = extending[ext[extending] < cap]
            if extending.size > self._word_budget:
                break
            self._word_budget -= extending.size
            at = ext[extending]
            equal = self._compare(i[extending] + at, j[extending] + at)
            ext[extending] += equal
            to_index.append(extending[equal > 8])
            extending = extending[equal == 8]
        out[pending] = ext
        return np.concatenate([*to_index, extending])
