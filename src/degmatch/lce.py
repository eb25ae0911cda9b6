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
order, and names prefixes one word long. Each later round packs as many
names, h apart, into one int64 key as their bit width allows, r of
them, and multiplies h by r, so few names make few rounds. Rounds stop
once the names are all distinct, or once the prefixes reach ``cap``.
The last round orders the suffixes, and its names split that order
into groups of suffixes with one shared h-prefix; on repetitive text
there are far fewer groups than suffixes. A suffix's group id is its
last-round name. The LCP of each pair of adjacent groups is carried
from round to round, as in Manber and Myers: a boundary that a round
adds inside an old group, at suffixes s and t whose keys first differ
in the name d * h further on, gets d * h plus the LCP of s + d * h and
t + d * h, from one word comparison or, past one word, from a range
minimum over the previous round's boundary LCPs. The build keeps no
earlier round, so it needs O(L) memory whatever the number of rounds.
A block-decomposed
sparse table answers range-minimum queries over these boundary LCPs:
per-block prefix/suffix minima plus a sparse table over block minima
keep the hot query structures small enough to stay cache-resident at
large L, with a short-span table covering ranges inside one block. A
batch of pairs takes the block answer in one pass, and the few ranges
inside one block width take the short table's instead. Two suffixes in
one group share at least ``cap`` symbols; the LCE of two suffixes in
different groups is the minimum boundary LCP between their groups.
Either way a pair costs O(1).

A caller may also name runs: start offsets s with lengths l such that
no queried pair (i, s) matches the symbol after the run, as the solid
runs of a pattern between its placeholders. The build then finds each
run's LCP interval, the LCP-interval property of Abouelhoda, Kurtz and
Ohlebusch (2004): the widest range of groups around the group of s whose
boundary LCPs are all at least l, one pass over the boundary LCPs per
run. A pair (i, s) with the group of i in that range shares the whole
run, so its LCE is l, found with one rank gather and one binary search
over the runs' interval bounds, two per run, without a range minimum.
That answers every whole-run kangaroo jump; the other pairs take the
range minimum as above.
"""
import numpy as np


#: Group boundaries that ``_lcp_array`` handles in one pass, so that its
#: temporaries stay bounded however many boundaries a round has.
_CHUNK = 1 << 12


def _suffix_array(
    words: np.ndarray, shift: int, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Suffix order by r-ary prefix doubling, each suffix's group id, and
    the LCP at each group boundary of the order.

    ``words`` and ``shift`` are those of ``LceIndex``: the word at every
    offset, holding the next w = 64 >> ``shift`` codes, which equal the
    ranks. Each code is stored big-endian, so a byte-swapped word reads
    its codes in order, most significant first, and sorting the swapped
    words orders their w-prefixes lexicographically: round 0 names the
    w-prefixes. A later round with G names of the h-prefixes packs r of
    them into each int64 key, b = max(1, bit_length(G - 1)) bits each:
    the suffix's own name, then the names h, 2h, ..., (r - 1)h further on,
    with r = max(2, min(63 // b, ceil(cap / h))). Sorting the keys names
    the rh-prefixes, and h becomes rh. The keys are gathered into the
    previous round's order, so the stable sort only has to order the runs
    of equal names. Rounds stop once every name is distinct or once the
    named prefixes are at least ``cap`` long; the order then sorts the
    suffixes by those prefixes, with ties in no particular order. A cap of
    the length stops nothing early: such prefixes hold the separator.

    Few names make wide keys: on a tandem-repeat record of 2^17 symbols
    capped at about a thousand, 35 names of 8-prefixes pack 10 to a key
    and about 320 names of 80-prefixes pack 7, so 4 rounds name 8-, 80-,
    560- and capped prefixes where steps of 2 took 9. Random DNA of 2^19
    symbols capped at 64 takes 2 rounds where steps of 2 took 3.

    The last round's names split the order into groups, runs of equal
    names; ``rank[p]`` is the name of the suffix at ``p``, so group g holds
    the suffixes named g. ``lcp[g]`` is the LCP of the last suffix of group
    g - 1 and the first of group g, and ``lcp[0]`` = 0. Each round updates
    those boundary LCPs in ``_lcp_array``; only the current round's names
    and boundary LCPs are kept. The first round splits one group, every
    suffix's empty prefix, by the names of the w-prefixes.
    """
    length = words.size
    keys = words.byteswap()
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[order]
    changed = keys[1:] != keys[:-1]
    sorted_names = np.zeros(length, dtype=np.int32)
    np.cumsum(changed, out=sorted_names[1:])
    # round 0 splits one group, every suffix's empty prefix, on the names of
    # the w-prefixes: keys of two 32-bit fields, the first 0
    keys = keys.view(np.int64)
    np.copyto(keys, sorted_names)
    lcp = np.zeros(1, dtype=np.int32)
    h, fields, bits = 0, 2, 32
    # the rounds write into the same buffers: fresh arrays every round
    # tripled the build's page faults on a tandem-repeat record and made a
    # search up to a tenth slower
    spare = None  # the keys' second buffer, from the first doubling round on
    while True:
        lcp = _lcp_array(lcp, keys, changed, sorted_names, order, h, fields, bits, words, shift)
        h = h * fields or 64 >> shift
        names = np.empty(length, dtype=np.int32)
        names[order] = sorted_names
        if lcp.size == length or h >= cap:
            return order, names, lcp
        bits = max(1, (lcp.size - 1).bit_length())
        fields = max(2, min(63 // bits, -(-cap // h)))
        # the keys in position order, one field at a time; a field past the
        # end stays 0, which changes no order: the field before it holds
        # the unique separator, so no other suffix shares it
        np.copyto(keys, names)
        for field in range(1, fields):
            keys <<= bits
            ahead = names[field * h :]
            np.bitwise_or(keys[: ahead.size], ahead, out=keys[: ahead.size])
        del names, ahead
        if spare is None:
            spare = np.empty_like(keys)
        # every index is in bounds; with ``out``, the default mode "raise"
        # would gather through a temporary copy of the whole output, which
        # tripled the page faults of a tandem-repeat search
        np.take(keys, order, out=spare, mode="clip")
        keys, spare = spare, keys
        step = np.argsort(keys, kind="stable")
        np.take(keys, step, out=spare, mode="clip")
        keys, spare = spare, keys
        np.take(order, step, out=sorted_names, mode="clip")
        order, sorted_names = sorted_names, order
        del step
        np.not_equal(keys[1:], keys[:-1], out=changed)
        sorted_names[0] = 0
        np.cumsum(changed, out=sorted_names[1:])


def _lcp_array(
    lcp: np.ndarray,
    keys: np.ndarray,
    changed: np.ndarray,
    sorted_names: np.ndarray,
    order: np.ndarray,
    h: int,
    fields: int,
    bits: int,
    words: np.ndarray,
    shift: int,
) -> np.ndarray:
    """The LCP at each group boundary of one doubling round, from those of
    the round before: the LCP-during-sorting step of Manber and Myers,
    for keys of any number of fields.

    The round before grouped the suffixes by their h-prefixes, with
    ``lcp`` the LCP at each of its group boundaries, every one below h.
    ``order`` is now sorted on ``keys``: ``keys[x]`` holds ``fields``
    fields of ``bits`` bits, most significant first, and field f is the
    round-h name of the suffix f * h past the one at ``order[x]``, so each
    old group, named by field 0, keeps its run of positions in the order.
    ``changed[x]`` marks a new boundary between x and x + 1, and
    ``sorted_names`` numbers the new groups along the order.

    - A boundary between two old groups keeps its old entry: every suffix
      of one shares the same prefix with every suffix of the other.
    - A boundary inside an old group, at suffixes s and t whose keys first
      differ in field d, gets d * h + LCP(s + d * h, t + d * h). One
      comparison of the words there gives that LCP below
      w = 64 >> ``shift``. Where the words match in full, it is the minimum
      of ``lcp`` over the old boundaries between the two field-d names;
      the block range-minimum tables over ``lcp``, built the first time
      one is needed, answer those.

    Round 0 passes h = 0, ``lcp`` = [0] and two 32-bit fields, 0 and the
    name of the w-prefix: it splits one group, and its words never match
    in full. Each pass takes the boundaries before ``_CHUNK`` new groups,
    so that the temporaries stay O(``_CHUNK``).
    """
    width = 64 >> shift
    top = (fields - 1) * bits
    mask = (1 << bits) - 1
    groups = int(sorted_names[-1]) + 1
    out = np.empty(groups, dtype=np.int32)
    out[0] = 0
    tables = None
    # the first position of every _CHUNK-th group, then the length
    starts = np.arange(1, groups + _CHUNK, _CHUNK, dtype=sorted_names.dtype)
    firsts = np.searchsorted(sorted_names, starts).tolist()
    for group, lo, hi in zip(range(1, groups, _CHUNK), firsts, firsts[1:]):
        x = np.flatnonzero(changed[lo - 1 : hi - 1])
        x += lo - 1
        left, right = keys[x], keys[x + 1]
        old = right >> top
        entry = lcp.take(old)
        split = np.flatnonzero(left >> top == old)
        # the temporaries of a pass set the build's peak at small L
        del old
        if split.size:
            x, left, right = x[split], left[split], right[split]
            # the lowest bit of field d: the first differing field holds
            # the highest set bit of left ^ right
            low = _top_bit(left ^ right)
            low -= low % bits
            skip = top - low
            skip //= bits
            skip *= h
            i = order[x] + skip
            j = order[x + 1] + skip
            del x
            q = _compare(words, shift, i, j)
            del i, j
            full = np.flatnonzero(q == width)
            if full.size:
                low = low[full]
                lo_name = left[full] >> low
                lo_name &= mask
                lo_name += 1
                hi_name = right[full] >> low
                hi_name &= mask
                del left, right, low
                if tables is None:
                    tables = _rmq_tables(_short_table(lcp))
                q[full] = _block_range_min(tables, lo_name, hi_name, 0)
            q += skip
            entry[split] = q
        out[group : group + entry.size] = entry
    return out


def _top_bit(x: np.ndarray) -> np.ndarray:
    """floor(log2(x)) of each positive integer: the exponent field of x as a
    float, less one where rounding to 53 bits carried x up to the next
    power of two. Only values from 2^53 up can carry, so for int32 input,
    such as the range widths of every index query, the correction, a
    shift by a different count per element, is skipped."""
    bit = x.astype(np.float64).view(np.int64)
    bit >>= 52
    bit -= 1023
    if x.dtype.itemsize > 4:
        bit -= (x >> bit) == 0
    return bit


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
    row = _top_bit(width)
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
    64 >> ``shift`` for zero, as int64: the codes a little-endian word of
    XORed codes holds before its first nonzero one.

    x & -x keeps the lowest set bit, 2^t, and one less sets the t bits
    below it, so its popcount is t; for x = 0 the subtraction wraps to all
    64 bits set. The popcounts are written over that word buffer as int64.
    """
    count = np.negative(x)
    count &= x
    count -= 1
    count = np.bitwise_count(count, out=count.view(np.int64))
    count >>= shift
    return count


def _compare(words: np.ndarray, shift: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Codes the words at offsets ``i`` and ``j`` of ``words`` share
    before their first difference, from 0 up to all of a word's
    64 >> ``shift``."""
    x = words.take(i)
    x ^= words.take(j)
    return _leading_codes(x, shift)


_BLOCK_BITS = 5
_BLOCK = 1 << _BLOCK_BITS


def _short_table(values: np.ndarray) -> np.ndarray:
    """Sparse table over ``values`` for ranges within one block width; its
    first row is a copy of ``values``."""
    return _sparse_table(values, min(_BLOCK_BITS + 1, max(1, values.size.bit_length())))


def _rmq_tables(short: np.ndarray) -> tuple[np.ndarray, ...]:
    """Block-decomposed range-minimum tables over the values in the first
    row of ``short``, their ``_short_table``: that table for ranges within
    one block width, and per-block prefix and suffix minima with a sparse
    table over the block minima for longer ranges. O(size) int32
    entries."""
    values = short[0]
    length = values.size
    blocks = (length + _BLOCK - 1) >> _BLOCK_BITS
    prefix_min = np.full(blocks << _BLOCK_BITS, np.iinfo(np.int32).max, dtype=np.int32)
    prefix_min[:length] = values
    grid = prefix_min.reshape(blocks, _BLOCK)
    # both minima accumulate into their own buffers, the suffix minima
    # through a reversed view, so neither takes a temporary copy
    suffix_min = np.empty_like(prefix_min)
    np.minimum.accumulate(grid[:, ::-1], axis=1, out=suffix_min.reshape(blocks, _BLOCK)[:, ::-1])
    np.minimum.accumulate(grid, axis=1, out=grid)
    # a block's last prefix minimum is its minimum
    block_table = _sparse_table(grid[:, -1], max(1, int(blocks).bit_length()))
    return short, prefix_min[:length], suffix_min[:length], block_table


def _block_range_min(
    tables: tuple[np.ndarray, ...], lo: np.ndarray, hi: np.ndarray, empty: int
) -> np.ndarray:
    """min(values[lo..hi]) per pair, inclusive, from ``_rmq_tables(values)``,
    and ``empty`` for a pair with hi = lo - 1.

    Every pair takes the block answer in one pass: the suffix minimum of
    the first block, the prefix minimum of the last, and, where whole
    blocks lie between, their minimum. Pairs whose range fits in one block
    width, the empty ones among them, then take the short table's answer
    or ``empty`` instead.
    """
    short_table, prefix_min, suffix_min, block_table = tables
    # an empty range may start one past the end: clipped here, it is
    # answered below
    out = np.minimum(suffix_min.take(lo, mode="clip"), prefix_min[hi])
    first = (lo >> _BLOCK_BITS) + 1
    last = (hi >> _BLOCK_BITS) - 1
    inner = first <= last
    np.minimum(out, _range_min(block_table, first, last), out=out, where=inner)
    short = np.flatnonzero(hi - lo < _BLOCK)
    if short.size:
        lo, hi = lo[short], hi[short]
        out[short] = np.where(lo <= hi, _range_min(short_table, lo, hi), empty)
    return out


def _run_intervals(
    lcp: np.ndarray, groups: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The widest range of groups [lo, hi] around each group ``groups[r]``
    whose boundary LCPs ``lcp[lo + 1 .. hi]`` are all at least
    ``lengths[r]`` >= 1: the groups whose suffixes share that many
    symbols with the ones in group ``groups[r]``, its LCP interval in the
    sense of Abouelhoda, Kurtz and Ohlebusch. ``lcp[0]`` = 0 ends every
    range below. Each entry compares the D boundary LCPs once, the ones
    below the group read backwards, into one reused bool array, and takes
    the first short boundary each way."""
    lo = np.empty(groups.size, dtype=np.int32)
    hi = np.empty_like(lo)
    if groups.size == 0:
        return lo, hi
    short = np.empty(lcp.size, dtype=bool)
    last = lcp.size - 1
    for r, (group, length) in enumerate(zip(groups.tolist(), lengths.tolist())):
        below = short[: group + 1]
        np.less(lcp[group::-1], length, out=below)
        lo[r] = group - int(below.argmax())
        # a short boundary past the last group ends the range there
        above = short[: last - group + 1]
        np.less(lcp[group + 1 :], length, out=above[:-1])
        above[-1] = True
        hi[r] = group + int(above.argmax())
    return lo, hi


class LceIndex:
    """Longest-common-extension index over a rank sequence.

    It checks none of its four preconditions:

    - ``seq``, non-negative integer ranks, ends with its only separator, so
      every extension stops at a symbol difference;
    - ``cap`` is given. An answer is exact below ``cap``, at least ``cap``
      otherwise and never above the LCE: in an order sorted by
      cap-prefixes, the capped LCE of two suffixes is the smallest capped
      LCP between them. A cap of the length makes every answer exact;
    - every queried pair is two distinct offsets inside ``seq``;
    - ``runs``, when given, is a pair of increasing start offsets s and
      lengths l, from 1 up to ``cap``, of runs that each end before a
      symbol t = seq[s + l] that no pair asks about: every queried pair
      (i, s) has seq[i + l] != t, so its LCE is at most l. A pair (i, s)
      whose LCE reaches l then gets exactly l, as above.

    ``matcher.prepare`` indexes text + pattern + one separator sigma + 2,
    which no other symbol takes, capped at the pattern's longest solid run
    R. The kangaroo loop asks for offset i + f <= n, for alignment
    i <= n - m and 0 <= f <= m, against pattern offset n + f <= n + m:
    two distinct offsets, whose LCE ends within R, at a pattern
    placeholder or at the separator, so every answer is exact. Its runs
    are the pattern's non-empty solid runs, each ended by a pattern
    placeholder, coded sigma + 1, or, the last one, by the separator; the
    text offsets i + f + l <= n that the loop compares with them hold
    neither code, and offset n is the pattern's first symbol, which is
    not the separator.

    The index keeps the ranks as int32, without a copy when ``seq`` is
    already a contiguous int32 array, and the 64-bit word of codes that
    starts at every offset (8 bytes per symbol). The suffix index stays
    empty until a pair first needs it: ``suffix_order``, the suffixes in
    the order of their capped prefixes; ``rank``, each suffix's group id,
    its last-round name; ``lcp``, the LCP at each of the D group
    boundaries; the range-minimum tables over ``lcp``; and each run's
    LCP interval, the range of groups whose suffixes share the whole run
    with its start, kept as two int64 bounds per run. Only that build and
    the word budget change after construction. The order and the group
    ids are O(L); the boundary LCPs and the range-minimum tables are
    O(D); the runs take O(k) for their k entries, and their intervals
    cost one pass over the D boundary LCPs each, with one bool array of
    D bytes, made before the range-minimum tables. D = L when the capped
    prefixes are all distinct, as on random text or at a cap of the
    length. The build holds only the current doubling round's names and
    boundary LCPs, so its memory is O(L) whatever the number of rounds:
    at L = 2^19 + 1 its ``tracemalloc`` peak is about 33 bytes per symbol
    on period-2 text, where the sort sets it, and 42 on random text,
    where D = L and the range-minimum tables set it, with or without
    runs.
    """

    __slots__ = (
        "seq", "cap", "suffix_order", "rank", "lcp",
        "_short", "_prefix_min", "_suffix_min", "_block_table",
        "_words", "_shift", "_word_budget",
        "_run_start", "_run_answer", "_run_bounds",
    )

    def __init__(self, seq, cap: int, runs=((), ())):
        self.seq = arr = np.ascontiguousarray(seq, dtype=np.int32)
        self.cap = cap
        starts, lengths = runs
        self._run_start = np.array(starts, dtype=np.int64)
        # the answer by the count of run bounds at or below a pair's key:
        # run r's length after 2r + 1 of them, 0 (no run) otherwise
        self._run_answer = np.zeros(2 * self._run_start.size + 1, dtype=np.int32)
        self._run_answer[1::2] = lengths
        self._run_bounds = np.empty(0, dtype=np.int64)
        self._run_start.flags.writeable = self._run_answer.flags.writeable = False
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
        self._word_budget = arr.size
        self.suffix_order = self.rank = self.lcp = np.empty(0, dtype=np.int32)
        self._short = self._block_table = np.empty((0, 0), dtype=np.int32)
        self._prefix_min = self._suffix_min = self.lcp
        self.seq.flags.writeable = False

    def _build(self) -> None:
        """Suffix order, group ids, boundary LCP array and range-minimum
        tables."""
        order, rank, self.lcp = _suffix_array(self._words, self._shift, self.cap)
        # before the range-minimum tables, so that the intervals' bool
        # array is not allocated beside them, where random text peaks
        lo, hi = _run_intervals(self.lcp, rank.take(self._run_start), self._run_answer[1::2])
        self._run_bounds = np.empty(2 * lo.size, dtype=np.int64)
        self._run_bounds[0::2] = self._run_start << 32 | lo
        self._run_bounds[1::2] = self._run_start << 32 | hi + 1
        self._build_rmq()
        self.suffix_order, self.rank = order, rank
        for a in (
            self.suffix_order, self.rank, self.lcp,
            self._short, self._prefix_min, self._suffix_min, self._block_table,
            self._run_bounds,
        ):
            a.flags.writeable = False

    def _build_rmq(self) -> None:
        """Range-minimum tables over the boundary LCP array ``lcp``, which
        becomes the first row of their short table. The sort's array is
        dropped as soon as that row holds its copy, before the block
        tables are built, which lowers the build's peak on random text by
        the array's 4 bytes per symbol."""
        short = _short_table(self.lcp)
        self.lcp = short[0]
        self._short, self._prefix_min, self._suffix_min, self._block_table = _rmq_tables(short)

    def _index_lce(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """LCE of each pair of distinct offsets from their group ids; builds
        the index first if needed.

        A pair (i, j) whose j starts a run, and whose i lies in a group of
        the run's interval [lo, hi], shares the whole run, so by the runs'
        precondition its LCE is the run's length. Its key
        j * 2^32 + rank[i] then lies from the run's lower bound
        j * 2^32 + lo up to below its upper bound j * 2^32 + hi + 1, and
        one binary search over all the runs' bounds, sorted since the
        starts increase, finds them: an odd count of bounds at or below
        the key names the run.
        That answers the whole-run jumps of a kangaroo search with one
        rank gather and no range minimum. Every other pair takes the
        group ids: a pair in one group shares its last-round prefix, at
        least ``cap`` long, and gets ``cap``; a pair in two groups gets the
        range minimum of the boundary LCP array over the boundaries
        between them. Those pairs reuse the rank gather of the run test.
        """
        if self.suffix_order.size == 0:
            self._build()
        ra = self.rank[i]
        out = None
        if self._run_bounds.size:
            key = np.left_shift(j, 32, dtype=np.int64)
            key |= ra
            out = self._run_answer.take(self._run_bounds.searchsorted(key, side="right"))
            rest = np.flatnonzero(out == 0)
            if rest.size == 0:
                return out
            if rest.size < ra.size:
                ra, j = ra[rest], j[rest]
        rb = self.rank[j]
        lo = np.minimum(ra, rb)
        lo += 1
        hi = np.maximum(ra, rb, out=ra)
        tables = self._short, self._prefix_min, self._suffix_min, self._block_table
        answer = _block_range_min(tables, lo, hi, self.cap)
        if out is None or rest.size == out.size:
            return answer
        out[rest] = answer
        return out

    def lce_many(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Longest common prefix of the suffixes at offsets ``i[x]`` and
        ``j[x]`` (0-based), two distinct offsets, for every x, capped at
        ``cap``; O(1) amortized each.

        Each pair first compares one word of codes, which answers the whole
        batch when no pair matched all of them. A pair that did goes on
        word by word while the word budget lasts and the index is not
        built yet; whatever is still open goes to the index.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        out = _compare(self._words, self._shift, i, j)
        if out.max(initial=0) < 64 >> self._shift:
            return out  # the empty batch too
        pending = np.flatnonzero(out == 64 >> self._shift)
        i, j = i[pending], j[pending]
        if self.suffix_order.size == 0:
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
            equal = _compare(self._words, self._shift, i[extending] + at, j[extending] + at)
            ext[extending] += equal
            extending = extending[equal == 64 >> self._shift]
        out[pending] = ext
        return extending
