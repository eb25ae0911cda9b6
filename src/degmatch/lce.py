"""Longest-common-extension queries over a rank sequence.

``lce_many`` answers most pairs of offsets by direct comparison, the
"DirectComp" hybrid of Ilie, Navarro and Tinta (2010): every rank is
stored as a code of 1, 2 or 4 bytes, the narrowest width that holds the
largest rank, so codes always equal ranks, and one gather of a 64-bit
word compares the 8, 4 or 2 codes of a pair that it holds at once. A
pair whose codes all match goes on word by word while a budget of L
words per index lasts (L is the sequence length), so a few long
extensions need no index. Over the life of an index the words read are
at most the number of pairs plus L.

The pairs that words leave open go to a constant-time index, built the
first time a pair needs it. One prefix-doubling pass (a stable numpy
sort per round) names every suffix's h-prefix, the
Karp-Miller-Rosenberg names of Manber and Myers: equal names mean equal
prefixes. The first round sorts the words themselves, read in code
order, and names prefixes one word long; each later round doubles h.
Doubling stops once the names are all distinct, or once the prefixes
reach ``cap``. The last round orders the suffixes, and the
adjacent-suffix LCP array comes from the same rounds by binary lifting,
one vectorized pass per round, finished by one word comparison. A
block-decomposed sparse table answers range-minimum queries over it:
per-block prefix/suffix minima plus a sparse table over block minima
keep the hot query structures small enough to stay cache-resident at
large L, with a short-span table covering ranges inside one block. A
batch of pairs takes the block answer in one pass, and the few ranges
inside one block width take the short table's instead. The LCE of two
suffixes is then the minimum LCP between their ranks, O(1) per pair.
"""
import numpy as np


def _suffix_array(
    words: np.ndarray, shift: int, cap: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix order by prefix doubling, and every round's int32 names.

    ``words`` and ``shift`` are those of ``LceIndex``: the word at every
    offset, holding the next w = 64 >> ``shift`` codes, which equal the
    ranks. Each code is stored big-endian, so a byte-swapped word reads
    its codes in order, most significant first, and sorting the swapped
    words orders their w-prefixes lexicographically. ``levels[d][p]``
    names the (w * 2^d)-prefix of the suffix at ``p``. Each later round
    sorts on (name, name h further on), with the keys built in the
    previous round's order, so the stable sort only has to order the runs
    of equal names. Doubling stops once every name is distinct or once the
    named prefixes are at least ``cap`` long; the order then sorts the
    suffixes by those prefixes, with ties in no particular order. A cap of
    the length stops nothing early: such prefixes hold the separator.
    """
    length = words.size
    h = 64 >> shift
    keys = words.byteswap()
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
        if sorted_names[-1] == length - 1 or h >= cap:
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
    order: np.ndarray, levels: list[np.ndarray], words: np.ndarray, shift: int
) -> np.ndarray:
    """lcp[r] = LCP of the suffixes ranked r-1 and r, by binary lifting.

    ``levels``, ``words`` and ``shift`` are those of ``_suffix_array``.
    From the highest round down, a pair whose prefixes at its current
    extension share a name extends by the round's prefix length, w * 2^d
    for w = 64 >> ``shift`` codes per word. The lowest round names
    w-prefixes, so the lift stops less than w short, and one comparison of
    the words there adds the leading equal codes. Rounds up to w * 2^D give
    a result exact below w * 2^(D+1) and no larger than the LCP otherwise.
    Each round is dropped from ``levels`` once it is used. A common prefix
    never reaches the unique separator, so no offset runs past the end.
    """
    lcp = np.zeros(order.size, dtype=np.int32)
    ext = lcp[1:]
    left, right = order[:-1], order[1:]
    while levels:
        step = np.int32((64 >> shift) << (len(levels) - 1))
        names = levels.pop()
        ext += (names[left + ext] == names[right + ext]) * step
    ext += _leading_codes(words[left + ext] ^ words[right + ext], shift)
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


def _leading_codes(x: np.ndarray, shift: int) -> np.ndarray:
    """Number of zero low-order codes of 2^``shift`` bits in each uint64,
    64 >> ``shift`` for zero: the codes a little-endian word of XORed codes
    holds before its first nonzero one."""
    low = np.negative(x)  # x & -x keeps the lowest set bit, 2^t
    low &= x
    # a power of two converts to float exactly, so frexp gives t + 1
    # (64 for 2^63 read as int64), and 0 when x is 0
    count = np.frexp(low.view(np.int64))[1]
    count -= 1
    count &= 127  # x == 0: -1 becomes 127, which the minimum makes 64 >> shift
    count >>= shift
    return np.minimum(count, 64 >> shift, out=count)


_BLOCK_BITS = 5
_BLOCK = 1 << _BLOCK_BITS


class LceIndex:
    """Longest-common-extension index over a rank sequence.

    It checks none of its three preconditions:

    - ``seq``, non-negative integer ranks, ends with its only separator, so
      every extension stops at a symbol difference;
    - ``cap`` is given. An answer is exact below ``cap``, at least ``cap``
      otherwise and never above the LCE: in an order sorted by
      cap-prefixes, the capped LCE of two suffixes is the smallest capped
      LCP between them. A cap of the length makes every answer exact;
    - every queried pair is two distinct offsets inside ``seq``.

    ``matcher.prepare`` indexes text + pattern + one separator sigma + 2,
    which no other symbol takes, capped at the pattern's longest solid run
    R. The kangaroo loop asks for offset i + f <= n, for alignment
    i <= n - m and 0 <= f <= m, against pattern offset n + f <= n + m:
    two distinct offsets, whose LCE ends within R, at a pattern
    placeholder or at the separator, so every answer is exact.

    The index keeps the ranks as int32, without a copy when ``seq`` is
    already a contiguous int32 array, and the 64-bit word of codes that
    starts at every offset (8 bytes per symbol). The suffix order, rank,
    LCP array and range-minimum tables are empty arrays until a pair first
    needs them; only that build and the word budget change after
    construction.
    """

    __slots__ = (
        "seq", "length", "cap", "suffix_order", "rank", "lcp",
        "_short", "_prefix_min", "_suffix_min", "_block_table",
        "_words", "_shift", "_word_budget",
    )

    def __init__(self, seq, cap: int):
        self.seq = arr = np.ascontiguousarray(seq, dtype=np.int32)
        self.length = int(arr.size)
        self.cap = cap
        top = int(arr.max())
        width, self._shift = (1, 3) if top < 1 << 8 else (2, 4) if top < 1 << 16 else (4, 5)
        # big-endian codes, then one word of zero codes as padding, so the
        # word at every offset can be read
        codes = np.zeros(arr.size + (64 >> self._shift), dtype=f">u{width}")
        codes[: arr.size] = arr
        # an aligned copy of the overlapping words: gathers from the
        # unaligned view itself run several times slower
        self._words = np.ndarray((arr.size,), "<u8", buffer=codes, strides=(width,)).copy()
        self._words.flags.writeable = False
        self._word_budget = self.length
        self.suffix_order = self.rank = self.lcp = np.empty(0, dtype=np.int32)
        self._short = self._block_table = np.empty((0, 0), dtype=np.int32)
        self._prefix_min = self._suffix_min = self.lcp
        self.seq.flags.writeable = False

    def _build(self) -> None:
        """Suffix order, rank, LCP array and range-minimum tables."""
        order, levels = _suffix_array(self._words, self._shift, self.cap)
        self._build_rmq(_lcp_array(order, levels, self._words, self._shift))
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
        first difference, from 0 up to all of a word's 64 >> shift."""
        return _leading_codes(self._words[i] ^ self._words[j], self._shift)

    def lce_many(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Longest common prefix of the suffixes at offsets ``i[x]`` and
        ``j[x]`` (0-based), two distinct offsets, for every x, capped at
        ``cap``; O(1) amortized each.

        Each pair first compares one word of codes. A pair that matched
        all of them goes on word by word while the word budget lasts and
        the index is not built yet; whatever is still open goes to the
        index.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        out = self._compare(i, j).astype(np.int64)
        pending = np.flatnonzero(out == 64 >> self._shift)
        i, j = i[pending], j[pending]
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
        ``pending`` of ``out``, whose first words matched in full, word by
        word while they are below ``self.cap`` and the word budget lasts,
        in ``out``. Returns the indices into ``pending`` of the pairs still
        open when the budget ran out, which are left for the index."""
        ext = out[pending]
        extending = np.arange(pending.size)
        while extending.size:
            extending = extending[ext[extending] < self.cap]
            if extending.size > self._word_budget:
                break
            self._word_budget -= extending.size
            at = ext[extending]
            equal = self._compare(i[extending] + at, j[extending] + at)
            ext[extending] += equal
            extending = extending[equal == 64 >> self._shift]
        out[pending] = ext
        return extending
