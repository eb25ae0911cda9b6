"""Three-stage degenerate pattern search.

Stage 1 happens at parse time: a ``DegenerateString`` stores every
non-solid symbol as a placeholder rank outside the base alphabet, one
rank per distinct set, and it keeps those sets beside them. Stage 2
finds, for every alignment, the first k+1 mismatch positions with one
constant-time LCE jump each. Stage 3 gives every recorded mismatch of an
approximate alignment one verdict, in pattern order: fake when the
pattern set and the text set there intersect, real otherwise. An
alignment is an exact occurrence iff all of its verdicts are fake.

Stage 2 only asks for the LCE of a text offset and a pattern offset,
the kangaroo jumps of Landau and Vishkin. Over the positions those read,
a text placeholder and a pattern placeholder never match each other or
any solid symbol, so ``prepare`` indexes three codes past the base
alphabet of sigma symbols: sigma for every text placeholder, sigma + 1
for every pattern placeholder and sigma + 2 for the separator, which
ends every extension by the pattern end. The pattern's codes then
mismatch the text at exactly its placeholders. An occurrence can only
mismatch where the pattern or its own text window holds a placeholder,
so alignment i gets the budget b_i = min(m, k_pattern + t_i), where t_i
counts the text placeholders inside window i. On a solid text every b_i
is k_pattern, and the recorded mismatches of an approximate alignment
are exactly the pattern placeholders. Stage 2 runs in rounds, one batch
of LCE queries each, over the alignments still live; each keeps its
running text and pattern offsets. Since b_i >= k_pattern and each of
the first k_pattern jumps stops at or before a pattern placeholder, no
alignment retires before round k_pattern, and on a solid text none
retires at all. A jump that starts at the first symbol of a pattern run,
a solid stretch between placeholders, and stops at or before the run's
end is a whole-run jump when it reaches that end; on repetitive text
nearly every jump that the index answers is one. ``prepare`` hands the
index each run's start and length, and the index answers such a jump
from the run's suffix interval, with one rank gather, instead of a range
minimum. A jump that restarts inside a run, after a text placeholder,
takes the range minimum.

Three entry points run the stages: ``prepare`` builds the LCE index over
both strings' codes, ``search`` runs stages 2 and 3 with that index, and
``find_occurrences`` checks its inputs and chains the two. The index
compares a word of 8 codes per pair first (4 or 2 when sigma + 2 needs
a wider code); its suffix order, LCP array and RMQ are built in the
middle of a search, the first time a query needs them, and only to the
depth of the pattern's longest solid run, which bounds every extension
from the text into the pattern.

Memory: the index is O(n + m): the ranks and one 64-bit word per symbol,
plus the suffix structures when a search builds them, which a search
on random text usually does not. Those are the suffix order and each
suffix's group id, O(n + m), and the boundary LCPs and range-minimum
tables, O(D) for the D groups of suffixes that share their capped
prefix, far fewer than n + m on repetitive text; while it builds them
the index holds only the current prefix-doubling round's names, keys
and boundary LCPs, however many names a round packs into a key, so the
build is O(n + m) too. ``search`` runs stages 2 and 3 on one block of
alignments at a time, so its mismatch table holds at most
``BLOCK_CELLS`` = 2^18 int32 cells (1 MiB), or one row when a single
alignment's budget is wider than that; the block's round temporaries
are O(block rows). A narrow block holds the alignments of budget
k_pattern in one segment of BLOCK_CELLS // (k_pattern + 1) consecutive
alignments; the wider ones wait in a pool of int64 ids, never more than
one wide block's rows beside one segment's, until they fill a wide
block. On a solid text every block is narrow and holds a whole segment.
The per-window budgets (one int32 per alignment, a zero-stride view
that allocates nothing on a solid text) and the membership rows, one
per base symbol and per distinct set of each string, are built once per
search. The report holds its positions as two int64 arrays, 8 bytes per
approximate alignment and 8 per exact occurrence: 16 bytes per
occurrence when every alignment matches; when some block was wide,
merging the narrow and the wide blocks' positions back into position
order takes one more int64 array per approximate alignment.
"""

from dataclasses import dataclass

import numpy as np

from .core import DegenerateString, EmptyPattern
from .lce import LceIndex

FAKE = "fake"
REAL = "real"

#: Most int32 cells in the mismatch table of one block of alignments.
#: Blocks this small keep a block's table and round temporaries in cache
#: and let the allocator reuse them from block to block. On a 2-vCPU
#: Xeon, blocks of 2^16 and of 2^20 cells both searched the benchmark's
#: dna-random and tandem-repeat inputs more slowly than 2^18.
BLOCK_CELLS = 1 << 18


def substitute(s: DegenerateString, code: int) -> np.ndarray:
    """The ranks of ``s`` with every placeholder replaced by ``code``;
    solid symbols keep their base rank."""
    return np.where(s.ranks < len(s.alphabet), s.ranks, code)


def precompute_membership(s: DegenerateString) -> np.ndarray:
    """Bit-packed membership rows of ``s``, indexed by its ranks: row r < sigma
    holds base symbol r alone and row sigma + d the d-th distinct set,
    ``s.sets[d]``, so two sets intersect iff the byte-wise AND of their
    rows is non-zero."""
    width = (len(s.alphabet) + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in s._rank_masks())
    return np.frombuffer(packed, dtype=np.uint8).reshape(-1, width)


@dataclass(frozen=True, eq=False)
class MismatchTable:
    """First ``b_i + 1`` mismatch positions per alignment i of one block.

    ``ids`` lists the block's alignments as an increasing int64 array,
    and ``entries[r, j-1]`` is the 1-based pattern position of the j-th
    mismatch between the text window at alignment ``ids[r]`` and the
    substituted pattern, or the sentinel m+1 once the window has matched
    through the end of the pattern. ``budget`` is the block's largest
    per-alignment budget, so the table is ``budget + 1`` columns wide.
    Columns past an alignment's own budget b_i were never searched and
    hold the sentinel; alignment i is approximate iff its column b_i
    holds the sentinel. Every pattern placeholder mismatches the text, so
    the first k_pattern columns of every row hold mismatches, never the
    sentinel.

    Beside the O(n + m) index, a search holds one such table at a time,
    and ``search`` sizes its blocks so that each table has at most
    ``BLOCK_CELLS`` = 2^18 int32 cells (1 MiB), or one row when a single
    budget is wider. A narrow block holds alignments of budget k_pattern
    alone and is k_pattern + 1 columns wide; a wide block holds some of
    the others, and its ids skip the narrow alignments between them.
    ``kangaroo_search`` over the full range, as the tests call it, gives
    one table for all n - m + 1 alignments, with ids 0 .. n - m.
    """

    entries: np.ndarray  # shape (alignments in the block, budget + 1)
    m: int
    budget: int
    query_count: int
    ids: np.ndarray  # the alignment of each row, increasing int64

    def __post_init__(self):
        self.entries.flags.writeable = False
        self.ids.flags.writeable = False

    @property
    def sentinel(self) -> int:
        return self.m + 1

    @property
    def alignments(self) -> int:
        return self.entries.shape[0]


def _placeholder_count(s: DegenerateString) -> int:
    """The placeholders of ``s``: k_pattern for a pattern."""
    return int(np.count_nonzero(s.ranks >= len(s.alphabet)))


def window_budgets(pattern: DegenerateString, text: DegenerateString) -> np.ndarray:
    """The kangaroo budget b_i = min(m, k_pattern + t_i) of every
    alignment i, where t_i counts the text placeholders inside window i,
    as an int32 array over the n - m + 1 alignments. On a solid text
    every b_i is k_pattern, and the array is a read-only zero-stride view
    of that one value."""
    m, n = len(pattern), len(text)
    k_pattern = _placeholder_count(pattern)
    if not text.sets:
        return np.broadcast_to(np.int32(k_pattern), (n - m + 1,))
    placeholders = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(text.ranks >= len(text.alphabet), out=placeholders[1:])
    in_window = placeholders[m:] - placeholders[: n - m + 1]
    return np.minimum(in_window, m - k_pattern) + k_pattern


def kangaroo_search(
    pattern: DegenerateString,
    text: DegenerateString,
    index: LceIndex,
    alignments: range | np.ndarray | None = None,
    budgets: np.ndarray | None = None,
) -> tuple[MismatchTable, np.ndarray]:
    """Scan a block of alignments, all of them by default, jumping past
    each mismatch with one LCE query.

    ``alignments`` is a range or an increasing int64 array of alignment
    ids. ``index`` comes from ``prepare``: it is built over text +
    pattern + separator, with the text's placeholders coded apart from
    the pattern's, and the pattern is no longer than the text. A jump from
    offset f of alignment i needs no clip at the pattern end: the
    separator at n + m ends its LCE within m - f, as i + m <= n.
    Alignment i makes at most b_i + 1 jumps and is an approximate
    occurrence when one of them reaches the sentinel m+1, i.e. the window
    matched the whole pattern with at most b_i mismatches; columns it
    never reached keep the sentinel, so that is when its column b_i
    holds it. ``budgets`` is the array ``window_budgets(pattern, text)``
    over all alignments, computed here when not given.

    Round j makes one ``index.lce_many`` call for the alignments still
    live and writes row j of the table. Each live alignment keeps its
    text offset i + f and pattern offset n + f, f its last mismatch, and
    both advance by q + 1 after a query answers q. The table is filled
    in pattern-offset space, n + sentinel and n + f, and shifted back by
    n once at the end, so n + m + 1 must stay below 2^31. An alignment
    retires once it reaches the sentinel or has made b_i + 1 jumps, but
    none can before round k_pattern: every pattern placeholder mismatches
    every text symbol, so mismatch j <= k_pattern lies at or before the
    j-th placeholder, and every b_i >= k_pattern. So the retirement test
    runs only after rounds k_pattern .. k - 1, for the block's widest
    budget k. A narrow block, k = k_pattern, never runs it: every round
    writes its row whole, so the table is allocated unfilled, and the
    approximate alignments are read from row k; otherwise they are read
    from cell (b_i, i) of each column. On a solid text every block is
    narrow.
    At most sum of (b_i + 1) queries over the block, and at most
    (k_total + 1)(n - m + 1) in total, each O(1) amortized. Returns the
    block's table and its approximate alignments, 0-based, as an
    increasing int64 array.
    """
    m, n = len(pattern), len(text)
    sentinel = m + 1
    if alignments is None:
        alignments = range(n - m + 1)
    if budgets is None:
        budgets = window_budgets(pattern, text)
    if isinstance(alignments, range):
        ids = np.arange(alignments.start, alignments.stop, dtype=np.int64)
        budgets = budgets[alignments.start : alignments.stop]
    else:
        ids = np.asarray(alignments, dtype=np.int64)
        budgets = budgets[ids]
    count = ids.size
    k = int(budgets.max(initial=0))  # an empty block gives a 0-row table
    k_pattern = _placeholder_count(pattern)

    # While no alignment of the block has retired a round writes its row
    # whole, as one slice, which costs a tenth of a scatter; after that it
    # scatters through ``live``, the rows still live. Their offsets and
    # budgets are kept packed, and repacked only in a round that retires
    # some.
    narrow = k == k_pattern
    if narrow:
        entries = np.empty((k + 1, count), dtype=np.int32)
    else:
        entries = np.full((k + 1, count), n + sentinel, dtype=np.int32)
    live = None
    text_at = ids.copy()
    pattern_at = np.full(count, n, dtype=np.int64)
    live_budgets = budgets
    queries = 0
    for j in range(k + 1):
        if text_at.size == 0:
            break
        q = index.lce_many(text_at, pattern_at)
        queries += int(text_at.size)
        q += 1
        text_at += q
        pattern_at += q
        if live is None:
            entries[j] = pattern_at
        else:
            entries[j, live] = pattern_at
        if k_pattern <= j < k:
            keep = pattern_at != n + sentinel
            keep &= live_budgets > j
            if not keep.all():
                live = np.flatnonzero(keep) if live is None else live[keep]
                text_at, pattern_at, live_budgets = (
                    text_at[keep], pattern_at[keep], live_budgets[keep]
                )
    entries -= n

    if narrow:
        last = entries[k]
    else:
        last = entries.take(budgets * count + np.arange(count))  # cell (b_i, i)
    approx = ids[np.flatnonzero(last == sentinel)]
    table = MismatchTable(entries=entries.T, m=m, budget=k, query_count=queries, ids=ids)
    return table, approx


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Occurrence report: exact positions (1-based), the approximate
    alignments they were filtered from (0-based), per-alignment verdicts
    when diagnostics were requested, and the LCE query count.

    ``exact_occurrences`` and ``approximate_occurrences`` are increasing,
    read-only int64 arrays, 8 bytes per position; ``tolist()`` gives
    Python ints. Two reports are equal when both arrays hold the same
    positions and the verdicts and query counts are equal, and equal
    reports hash alike.

    ``verdicts[j]`` belongs to ``approximate_occurrences[j]`` and holds
    one verdict per recorded mismatch, in pattern order. On a solid text
    these mismatches are exactly the pattern placeholders; on a
    degenerate text they also cover text placeholders and solid
    mismatches within the alignment's budget. So ``a[bc]d`` at position
    1 of ``[ab]bdacd`` gives ``(fake, fake)``, and of the solid
    ``abdacd`` gives ``(fake,)``.
    """

    exact_occurrences: np.ndarray
    approximate_occurrences: np.ndarray
    verdicts: tuple[tuple[str, ...], ...] | None
    lce_queries: int

    def __post_init__(self):
        self.exact_occurrences.flags.writeable = False
        self.approximate_occurrences.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatchReport)
            and np.array_equal(self.exact_occurrences, other.exact_occurrences)
            and np.array_equal(self.approximate_occurrences, other.approximate_occurrences)
            and self.verdicts == other.verdicts
            and self.lce_queries == other.lce_queries
        )

    def __hash__(self) -> int:
        return hash((
            self.exact_occurrences.tobytes(), self.approximate_occurrences.tobytes(),
            self.verdicts, self.lce_queries,
        ))


def filter_occurrences(
    pattern: DegenerateString,
    text: DegenerateString,
    table: MismatchTable,
    approx: np.ndarray,
    diagnostics: bool = False,
    membership: tuple[np.ndarray, np.ndarray] | None = None,
) -> MatchReport:
    """Stage 3 on one table: an approximate occurrence at alignment i is
    exact iff at every recorded mismatch e the pattern set and the text
    set at i+e intersect (every mismatch is fake).

    ``approx`` is the table's int64 array of approximate alignments, as
    ``kangaroo_search`` returns it; the report holds it as it is, and
    each alignment's row is found in the table's ``ids``. A table
    without approximate alignments, as most blocks of a solid search
    are, returns at once: its report holds that empty array as both
    position fields, with no verdicts. Each
    string's sets are looked up in its own membership rows by its
    own ranks. Rows are bit-packed, so an intersection test is one
    byte-wise AND for any alphabet size. ``membership`` is the pair of
    ``precompute_membership`` rows of the pattern and the text, built
    here when not given.
    """
    rows = np.asarray(approx, dtype=np.int64)
    if rows.size == 0:
        return MatchReport(rows, rows, () if diagnostics else None, table.query_count)
    if membership is None:
        membership = precompute_membership(pattern), precompute_membership(text)
    pattern_rows, text_rows = membership
    # column b_i of an approximate row is the sentinel, so the last column
    # never holds a mismatch; on the column-major table this gather beats
    # ``take`` of whole rows
    ids = table.ids
    if ids[-1] - ids[0] == ids.size - 1:  # consecutive alignments
        at = rows - ids[0]
    else:
        at = ids.searchsorted(rows)
    mismatches = table.entries[at, : table.budget]
    recorded = mismatches != table.sentinel
    offsets = np.where(recorded, mismatches, 1) - 1  # 0-based pattern offsets
    # take along axis 0 gathers the rows faster than 2-D fancy indexing
    shared = pattern_rows.take(pattern.ranks.take(offsets), axis=0)
    shared &= text_rows.take(text.ranks.take(rows[:, None] + offsets), axis=0)
    real = recorded & ~shared.any(axis=2)
    # a row with a real cell is no occurrence; ``real`` is budget cells wide
    exact = np.delete(rows, np.flatnonzero(real) // table.budget) + 1
    verdicts = None
    if diagnostics:
        verdicts = tuple(
            tuple(REAL if x else FAKE for x in row[mask])
            for row, mask in zip(real, recorded)
        )
    return MatchReport(exact, rows, verdicts, table.query_count)


# The benchmark's traced run wraps stage 3 under this name as well.
_filter_general = filter_occurrences


def prepare(pattern: DegenerateString, text: DegenerateString) -> LceIndex:
    """The LCE index over text + pattern + separator, capped at the
    pattern's longest solid run R, with the pattern's runs.

    Every text placeholder gets the code sigma, every pattern placeholder
    sigma + 1 and the separator sigma + 2, so a placeholder mismatches
    every symbol of the other string and the separator is unique. The
    text never holds the pattern code, so every LCE from the text into
    the pattern stops within R, at the next pattern placeholder or at the
    separator. The capped index answers exactly below R, at least R
    otherwise and never above the LCE, so it answers all of them exactly.

    The runs are the pattern's non-empty solid stretches, each ended by a
    placeholder or, the last one, by the separator: their offsets
    n + s_r in the index and their lengths l_r <= R, O(k_pattern) of
    each, from the placeholder offsets. By the same argument the LCE of
    a text offset and a run start is at most l_r, which is the index's
    precondition for answering a whole-run jump from the run's suffix
    interval.
    """
    sigma = len(pattern.alphabet)
    # seq is allocated before the substituted strings, so their
    # temporaries are freed after it, where the index's word array can
    # reuse the space
    seq = np.empty(len(text) + len(pattern) + 1, dtype=np.int32)
    np.concatenate([
        substitute(text, sigma),
        substitute(pattern, sigma + 1),
        np.asarray([sigma + 2], dtype=np.int32),
    ], out=seq)
    # each run ends at a placeholder or, the last one, at the separator
    ends = np.flatnonzero(pattern.ranks >= sigma)
    ends = np.append(ends, len(pattern))
    lengths = np.diff(ends, prepend=-1)
    lengths -= 1
    solid = np.flatnonzero(lengths)
    starts = ends[solid] - lengths[solid]
    starts += len(text)
    return LceIndex(seq, cap=int(lengths.max()), runs=(starts, lengths[solid]))


def _block_rows(budgets: np.ndarray, pool: np.ndarray) -> int:
    """Alignments in the next wide block, from the front of ``pool``, the
    increasing ids of the wide alignments not yet searched: the most
    whose widest budget b keeps the block's table, rows x (b + 1) cells,
    within ``BLOCK_CELLS``, and at least one. ``budgets`` is the
    ``window_budgets`` array. No block is wider than its first row, so
    the rows that fit at that row's budget bound the look-ahead."""
    ahead = budgets[pool[: max(1, BLOCK_CELLS // (int(budgets[pool[0]]) + 1))]]
    widths = np.maximum.accumulate(ahead) + 1
    return max(1, int(np.count_nonzero(widths * np.arange(1, ahead.size + 1) <= BLOCK_CELLS)))


def _merge_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The order that sorts the concatenation of ``a`` and ``b``, two
    increasing int64 arrays with no value in common: a[i] goes to slot i
    plus the count of b's values below it, and b[j] likewise. Unlike
    numpy's sorts these binary searches page in no kernel code of their
    own: a process's first int64 sort and argsort each add 256 KiB of
    resident code (numpy 2.4, x86-64)."""
    order = np.empty(a.size + b.size, dtype=np.int64)
    order[b.searchsorted(a) + np.arange(a.size)] = np.arange(a.size)
    order[a.searchsorted(b) + np.arange(b.size)] = np.arange(a.size, order.size)
    return order


def search(
    pattern: DegenerateString,
    text: DegenerateString,
    index: LceIndex,
    diagnostics: bool = False,
) -> MatchReport:
    """Stages 2 and 3 with the index from ``prepare``, for a pattern no
    longer than the text: kangaroo jumps, then the verdict check, one
    block of alignments at a time.

    The alignments are walked in segments of BLOCK_CELLS // (k_pattern +
    1). A segment's narrow alignments, those of budget k_pattern, run as
    one narrow block, k_pattern + 1 columns wide; its wide alignments, of
    larger budget, join a pool. Whenever the pool holds a full block, and
    at the end, its front is cut off as a wide block: as many alignments
    as keep the table within ``BLOCK_CELLS`` cells at the width of their
    own widest budget, so a few dense windows widen only the blocks that
    hold them, and the pool never holds more than one block's rows
    beside one segment's. On a solid text every alignment is narrow,
    and the blocks are the consecutive segments.

    The blocks' position arrays are joined with one ``np.concatenate``
    per field at the end. The narrow blocks' positions increase, and so
    do the wide blocks'; when some block was wide, ``_merge_order``
    merges the two runs once, for the exact positions, and for the
    approximate positions with their verdicts.
    """
    budgets = window_budgets(pattern, text)
    membership = precompute_membership(pattern), precompute_membership(text)
    count = len(text) - len(pattern) + 1
    k_pattern = _placeholder_count(pattern)
    narrow, wide = [], []  # the reports of the narrow and of the wide blocks

    def run(alignments, reports):
        table, approx = kangaroo_search(pattern, text, index, alignments, budgets)
        reports.append(filter_occurrences(
            pattern, text, table, approx, diagnostics, membership
        ))

    def run_pool(pool, full_only):
        while pool.size:
            rows = _block_rows(budgets, pool)
            if full_only and rows == pool.size:
                break
            run(pool[:rows], wide)
            pool = pool[rows:]
        return pool

    segment = max(1, BLOCK_CELLS // (k_pattern + 1))
    pool = np.empty(0, dtype=np.int64)
    for lo in range(0, count, segment):
        stop = min(lo + segment, count)
        is_wide = budgets[lo:stop] > k_pattern if text.sets else None
        if is_wide is None or not is_wide.any():
            run(range(lo, stop), narrow)
            continue
        # rebound before the drain, so the previous pool's array is freed
        pool = np.concatenate([pool, np.flatnonzero(is_wide) + lo])
        pool = run_pool(pool, True)
        if not is_wide.all():
            run(np.flatnonzero(~is_wide) + lo, narrow)
    run_pool(pool, False)

    reports = narrow + wide
    exact = np.concatenate([r.exact_occurrences for r in reports])
    approx = np.concatenate([r.approximate_occurrences for r in reports])
    verdicts = tuple(v for r in reports for v in r.verdicts) if diagnostics else None
    if wide:
        # each kind's positions increase on their own: merge the two runs
        split = sum(r.exact_occurrences.size for r in narrow)
        exact = exact[_merge_order(exact[:split], exact[split:])]
        split = sum(r.approximate_occurrences.size for r in narrow)
        order = _merge_order(approx[:split], approx[split:])
        approx = approx[order]
        if diagnostics:
            verdicts = tuple(verdicts[j] for j in order.tolist())
    return MatchReport(exact, approx, verdicts, sum(r.lce_queries for r in reports))


def find_occurrences(
    pattern: DegenerateString,
    text: DegenerateString,
    diagnostics: bool = False,
) -> MatchReport:
    """Find all 1-based positions where ``pattern`` occurs in ``text``.

    Runs the full substitute / LCE-jump / filter pipeline; a pattern
    longer than the text yields an empty report, with empty arrays.
    After index construction the search makes at most sum_i (b_i + 1)
    LCE queries, exactly that many on a solid text, where
    b_i = min(m, k_pattern + text placeholders in window i): O(k_pattern * n)
    on a solid text and at most O(k_total * n) on a degenerate one. The
    index compares words of codes and builds its suffix structures,
    still O(n + m), only when long extensions need them, and only to the
    depth of the pattern's longest solid run.
    Memory is the O(n + m) index plus one block's mismatch table of at
    most ``BLOCK_CELLS`` = 2^18 int32 cells (one row when a single
    budget is wider) and that block's O(rows) round temporaries, the
    ids of the wide alignments waiting for a block, at most one block's
    rows and one segment's, and the report's int64 arrays of 8 bytes per
    exact occurrence and per approximate alignment; ``search`` joins
    them from its blocks' arrays, so the peak holds both once, and on a
    degenerate text with wide windows the merge order that puts them
    back in position order, 8 bytes more per approximate alignment.
    """
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one symbol")
    if pattern.alphabet != text.alphabet:
        raise ValueError("pattern and text are over different alphabets")
    if len(pattern) > len(text):
        none = np.empty(0, dtype=np.int64)
        return MatchReport(none, none, () if diagnostics else None, 0)
    return search(pattern, text, prepare(pattern, text), diagnostics=diagnostics)
