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
retires at all.

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
build is O(n + m) too. ``search`` runs stages 2 and 3 on one
block of consecutive alignments at a time, so its mismatch table holds
at most ``BLOCK_CELLS`` = 2^18 int32 cells (1 MiB), or one row when a
single alignment's budget is wider than that; the block's round
temporaries are O(block rows). The per-window budgets (one int32 per
alignment, a zero-stride view that allocates nothing on a solid text)
and the membership rows, one per base symbol and per distinct set of
each string, are built once per search. The report holds its positions
as two int64 arrays, 8 bytes per approximate alignment and 8 per exact
occurrence: 16 bytes per occurrence when every alignment matches.
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

    The block covers alignments ``first .. first + alignments - 1``, and
    ``entries[i - first, j-1]`` is the 1-based pattern position of the
    j-th mismatch between the text window at alignment i and the
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
    budget is wider. ``kangaroo_search`` over the full range, as the
    tests call it, gives one table for all n - m + 1 alignments.
    """

    entries: np.ndarray  # shape (alignments in the block, budget + 1)
    m: int
    budget: int
    query_count: int
    first: int

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def sentinel(self) -> int:
        return self.m + 1

    @property
    def alignments(self) -> int:
        return self.entries.shape[0]


def window_budgets(pattern: DegenerateString, text: DegenerateString) -> np.ndarray:
    """The kangaroo budget b_i = min(m, k_pattern + t_i) of every
    alignment i, where t_i counts the text placeholders inside window i,
    as an int32 array over the n - m + 1 alignments. On a solid text
    every b_i is k_pattern, and the array is a read-only zero-stride view
    of that one value."""
    m, n = len(pattern), len(text)
    k_pattern = int(np.count_nonzero(pattern.ranks >= len(pattern.alphabet)))
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
    alignments: range | None = None,
    budgets: np.ndarray | None = None,
) -> tuple[MismatchTable, np.ndarray]:
    """Scan a range of alignments, all of them by default, jumping past
    each mismatch with one LCE query.

    ``index`` comes from ``prepare``: it is built over text + pattern +
    separator, with the text's placeholders coded apart from the
    pattern's, and the pattern is no longer than the text. A jump from
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
    budget k; on a solid text every b_i is k_pattern and it never runs.
    In such a uniform range, k = k_pattern, every round writes its row
    whole, so the table is allocated unfilled, and the approximate
    alignments are read from row k; otherwise they are read from cell
    (b_i, i) of each column.
    At most sum of (b_i + 1) queries over the range, and at most
    (k_total + 1)(n - m + 1) in total, each O(1) amortized. Returns the
    range's table and its approximate alignments, 0-based, as an
    increasing int64 array.
    """
    m, n = len(pattern), len(text)
    sentinel = m + 1
    if alignments is None:
        alignments = range(n - m + 1)
    if budgets is None:
        budgets = window_budgets(pattern, text)
    lo, count = alignments.start, len(alignments)
    budgets = budgets[lo : lo + count]
    k = int(budgets.max(initial=0))  # an empty range gives a 0-row table
    k_pattern = int(np.count_nonzero(pattern.ranks >= len(pattern.alphabet)))

    # While no alignment of the block has retired a round writes its row
    # whole, as one slice, which costs a tenth of a scatter; after that it
    # scatters through ``active``. The live alignments' rows, offsets and
    # budgets are kept packed, and repacked only in a round that retires
    # some. A uniform block, k = k_pattern, retires none, so every row is
    # written whole and its table needs no fill.
    uniform = k == k_pattern
    if uniform:
        entries = np.empty((k + 1, count), dtype=np.int32)
    else:
        entries = np.full((k + 1, count), n + sentinel, dtype=np.int32)
    active = np.arange(count, dtype=np.int64)
    text_at = active + lo
    pattern_at = np.full(count, n, dtype=np.int64)
    live_budgets = budgets
    queries = 0
    for j in range(k + 1):
        if active.size == 0:
            break
        q = index.lce_many(text_at, pattern_at)
        queries += int(active.size)
        q += 1
        text_at += q
        pattern_at += q
        if active.size == count:
            entries[j] = pattern_at
        else:
            entries[j, active] = pattern_at
        if k_pattern <= j < k:
            keep = pattern_at != n + sentinel
            keep &= live_budgets > j
            if not keep.all():
                active, text_at, pattern_at, live_budgets = (
                    active[keep], text_at[keep], pattern_at[keep], live_budgets[keep]
                )
    entries -= n

    if uniform:
        last = entries[k]
    else:
        last = entries.take(budgets * count + np.arange(count))  # cell (b_i, i)
    approx = np.flatnonzero(last == sentinel) + lo
    table = MismatchTable(entries=entries.T, m=m, budget=k, query_count=queries, first=lo)
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
    ``kangaroo_search`` returns it; the report holds it as it is. A table
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
    mismatches = table.entries[rows - table.first, : table.budget]
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
    pattern's longest solid run R.

    Every text placeholder gets the code sigma, every pattern placeholder
    sigma + 1 and the separator sigma + 2, so a placeholder mismatches
    every symbol of the other string and the separator is unique. The
    text never holds the pattern code, so every LCE from the text into
    the pattern stops within R, at the next pattern placeholder or at the
    separator. The capped index answers exactly below R, at least R
    otherwise and never above the LCE, so it answers all of them exactly.
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
    placeholders = np.flatnonzero(pattern.ranks >= sigma)
    longest_run = int(np.diff(placeholders, prepend=-1, append=len(pattern)).max()) - 1
    return LceIndex(seq, cap=longest_run)


def _block_rows(budgets: np.ndarray, lo: int) -> int:
    """Alignments in the block that starts at alignment ``lo``: the most
    whose widest budget b keeps the block's table, rows x (b + 1) cells,
    within ``BLOCK_CELLS``, and at least one. ``budgets`` is the
    ``window_budgets`` array, a zero-stride view on a solid text. The
    rows that fit at the first budget are a bound; when they also fit at
    the widest budget among them, as on a solid text, they are the
    answer, with no running maximum."""
    ahead = budgets[lo : lo + max(1, BLOCK_CELLS // (int(budgets[lo]) + 1))]
    if (int(ahead.max()) + 1) * ahead.size <= BLOCK_CELLS:
        return ahead.size
    widths = np.maximum.accumulate(ahead) + 1
    return max(1, int(np.count_nonzero(widths * np.arange(1, ahead.size + 1) <= BLOCK_CELLS)))


def search(
    pattern: DegenerateString,
    text: DegenerateString,
    index: LceIndex,
    diagnostics: bool = False,
) -> MatchReport:
    """Stages 2 and 3 with the index from ``prepare``, for a pattern no
    longer than the text: kangaroo jumps, then the verdict check, one
    block of consecutive alignments at a time.

    A block holds as many alignments as keep its table within
    ``BLOCK_CELLS`` cells at the width of its own widest budget, so a
    few dense windows shrink only the blocks around them. On a solid
    text every block but the last has BLOCK_CELLS // (k_pattern + 1)
    alignments. The blocks' position arrays are joined with one
    ``np.concatenate`` per field at the end.
    """
    budgets = window_budgets(pattern, text)
    membership = precompute_membership(pattern), precompute_membership(text)
    count = len(text) - len(pattern) + 1
    exact, approx, verdicts, queries = [], [], [], 0
    lo = 0
    while lo < count:
        block = range(lo, min(lo + _block_rows(budgets, lo), count))
        table, block_approx = kangaroo_search(pattern, text, index, block, budgets)
        report = filter_occurrences(
            pattern, text, table, block_approx, diagnostics, membership
        )
        exact.append(report.exact_occurrences)
        approx.append(report.approximate_occurrences)
        if diagnostics:
            verdicts += report.verdicts
        queries += report.lce_queries
        lo = block.stop
    return MatchReport(
        np.concatenate(exact), np.concatenate(approx),
        tuple(verdicts) if diagnostics else None, queries,
    )


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
    budget is wider) and that block's O(rows) round temporaries, and the
    report's int64 arrays of 8 bytes per exact occurrence and per
    approximate alignment; ``search`` joins them from its blocks' arrays,
    so the peak holds both once.
    """
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one symbol")
    if pattern.alphabet != text.alphabet:
        raise ValueError("pattern and text are over different alphabets")
    if len(pattern) > len(text):
        none = np.empty(0, dtype=np.int64)
        return MatchReport(none, none, () if diagnostics else None, 0)
    return search(pattern, text, prepare(pattern, text), diagnostics=diagnostics)
