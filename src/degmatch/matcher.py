"""Three-stage degenerate pattern search.

Stage 1 happens at parse time: a ``DegenerateString`` stores every
non-solid symbol as a fresh placeholder rank outside the base alphabet,
so its ranks form a solid string that mismatches the text at exactly
those positions, and it keeps the k sets beside them. Stage 2 finds, for
every alignment, the first k+1 mismatch positions with one constant-time
LCE jump each. Stage 3 gives every recorded mismatch of an approximate
alignment one verdict, in pattern order: fake when the pattern set and
the text set there intersect, real otherwise. An alignment is an exact
occurrence iff all of its verdicts are fake.

A degenerate text is handled the same way: its non-solid symbols have
their own placeholder ranks, which ``prepare`` moves past the pattern's
before it indexes both strings. An occurrence can only mismatch where
the pattern or its own text window holds a placeholder, so alignment i
gets the budget b_i = min(m, k_pattern + t_i), where t_i counts the text
placeholders inside window i. On a solid text every b_i is k_pattern,
and the recorded mismatches of an approximate alignment are exactly the
pattern placeholders.

Three entry points run the stages: ``prepare`` builds the LCE index over
both strings' ranks, ``search`` runs stages 2 and 3 with that index, and
``find_occurrences`` checks its inputs and chains the two.
"""

from dataclasses import dataclass

import numpy as np

from .core import DegenerateString, EmptyPattern
from .lce import LceIndex

FAKE = "fake"
REAL = "real"


def substitute(s: DegenerateString, first_placeholder_rank: int) -> np.ndarray:
    """The ranks of ``s`` with its placeholders moved to start at
    ``first_placeholder_rank``; solid symbols keep their base rank."""
    sigma = len(s.alphabet)
    return np.where(s.ranks < sigma, s.ranks, s.ranks + (first_placeholder_rank - sigma))


def precompute_membership(s: DegenerateString) -> np.ndarray:
    """Bit-packed membership rows of ``s``, indexed by its ranks: row r < sigma
    holds base symbol r alone and row sigma + j the j-th non-solid set, so
    two sets intersect iff the byte-wise AND of their rows is non-zero."""
    width = (len(s.alphabet) + 7) // 8
    masks = [1 << r for r in range(len(s.alphabet))] + list(s.sets)
    packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width)


@dataclass(frozen=True, eq=False)
class MismatchTable:
    """First ``b_i + 1`` mismatch positions per alignment i.

    ``entries[i, j-1]`` is the 1-based pattern position of the j-th
    mismatch between the text window at alignment i and the substituted
    pattern, or the sentinel m+1 once the window has matched through the
    end of the pattern. ``budget`` is the largest per-alignment budget,
    so the table is ``budget + 1`` columns wide. Columns past an
    alignment's own budget b_i were never searched and hold the sentinel;
    alignment i is approximate iff ``entries[i, b_i]`` is the sentinel.
    """

    entries: np.ndarray  # shape (n - m + 1, budget + 1)
    m: int
    budget: int
    query_count: int

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def sentinel(self) -> int:
        return self.m + 1

    @property
    def alignments(self) -> int:
        return self.entries.shape[0]

    def entry(self, i: int, j: int) -> int:
        """Position of the j-th mismatch (j is 1-based) at alignment i."""
        return int(self.entries[i, j - 1])

    def column(self, i: int) -> tuple[int, ...]:
        """All budget+1 mismatch entries for alignment i."""
        return tuple(int(x) for x in self.entries[i])


def kangaroo_search(
    pattern: DegenerateString, text: DegenerateString, index: LceIndex
) -> tuple[MismatchTable, tuple[int, ...]]:
    """Scan all alignments, jumping past each mismatch with one LCE query.

    ``index`` comes from ``prepare``: it is built over text + pattern +
    separator, with the text's placeholder ranks distinct from the
    pattern's, and the pattern is no longer than the text. Alignment i
    makes at most b_i + 1 jumps and is an approximate occurrence when one
    of them reaches the sentinel m+1, i.e. the window matched the whole
    pattern with at most b_i mismatches. b_i = min(m, k_pattern + t_i),
    where t_i counts the text placeholders inside window i. Sum of
    (b_i + 1) queries in total, at most (k_total + 1)(n - m + 1), each O(1).
    """
    m = len(pattern)
    n = len(text)
    k = k_pattern = len(pattern.sets)
    sentinel = m + 1
    count = n - m + 1
    budgets = None  # None: every alignment has the scalar budget k
    if text.sets:
        placeholders = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(text.ranks >= len(text.alphabet), out=placeholders[1:])
        in_window = placeholders[m:] - placeholders[:count]
        budgets = np.minimum(in_window, m - k_pattern) + k_pattern
        k = int(budgets.max())

    entries = np.full((count, k + 1), sentinel, dtype=np.int32)
    f = np.zeros(count, dtype=np.int64)
    active = np.arange(count, dtype=np.int64)
    queries = 0
    for j in range(k + 1):
        if active.size == 0:
            break
        fa = f[active]
        q = index.lce_many(active + fa, n + fa)
        queries += int(active.size)
        np.minimum(q, m - fa, out=q)  # never extend past the pattern end
        mm = fa + q + 1
        entries[active, j] = mm
        f[active] = mm
        if budgets is None:
            active = active[mm != sentinel]
        else:
            active = active[(mm != sentinel) & (budgets[active] > j)]

    approx = np.flatnonzero(f == sentinel)  # the last jump reached the end
    table = MismatchTable(entries=entries, m=m, budget=k, query_count=queries)
    return table, tuple(approx.tolist())


@dataclass(frozen=True)
class MatchReport:
    """Occurrence report: exact positions (1-based), the approximate
    alignments they were filtered from (0-based), per-alignment verdicts
    when diagnostics were requested, and the LCE query count.

    ``verdicts[j]`` belongs to ``approximate_occurrences[j]`` and holds
    one verdict per recorded mismatch, in pattern order. On a solid text
    these mismatches are exactly the pattern placeholders; on a
    degenerate text they also cover text placeholders and solid
    mismatches within the alignment's budget. So ``a[bc]d`` at position
    1 of ``[ab]bdacd`` gives ``(fake, fake)``, and of the solid
    ``abdacd`` gives ``(fake,)``.
    """

    exact_occurrences: tuple[int, ...]
    approximate_occurrences: tuple[int, ...]
    verdicts: tuple[tuple[str, ...], ...] | None
    lce_queries: int


def filter_occurrences(
    pattern: DegenerateString,
    text: DegenerateString,
    table: MismatchTable,
    approx: tuple[int, ...],
    diagnostics: bool = False,
) -> MatchReport:
    """Stage 3: an approximate occurrence at alignment i is exact iff at
    every recorded mismatch e the pattern set and the text set at i+e
    intersect (every mismatch is fake).

    Each string's sets are looked up in its own membership rows by its
    own ranks. Rows are bit-packed, so an intersection test is one
    byte-wise AND for any alphabet size.
    """
    rows = np.asarray(approx, dtype=np.int64)
    # column b_i of an approximate row is the sentinel, so the last column
    # never holds a mismatch
    mismatches = table.entries[rows, : table.budget]
    recorded = mismatches != table.sentinel
    offsets = np.where(recorded, mismatches, 1) - 1  # 0-based pattern offsets
    shared = (
        precompute_membership(pattern)[pattern.ranks[offsets]]
        & precompute_membership(text)[text.ranks[rows[:, None] + offsets]]
    )
    fake = shared.any(axis=2) | ~recorded
    exact = rows[fake.all(axis=1)] + 1
    verdicts = None
    if diagnostics:
        verdicts = tuple(
            tuple(FAKE if x else REAL for x in row[mask])
            for row, mask in zip(fake, recorded)
        )
    return MatchReport(tuple(exact.tolist()), tuple(approx), verdicts, table.query_count)


# The benchmark's traced run wraps stage 3 under this name as well.
_filter_general = filter_occurrences


def prepare(pattern: DegenerateString, text: DegenerateString) -> LceIndex:
    """The LCE index over text + pattern + separator.

    The pattern keeps its placeholder ranks sigma .. sigma + k_p - 1, the
    text's move up to the next k_t ranks, and the separator is
    sigma + k_total, so every placeholder mismatches every other symbol
    and the separator is unique.
    """
    sigma, k_p = len(pattern.alphabet), len(pattern.sets)
    separator = sigma + k_p + len(text.sets)
    seq = np.concatenate(
        [substitute(text, sigma + k_p), pattern.ranks, np.asarray([separator], dtype=np.int32)]
    )
    return LceIndex(seq)


def search(
    pattern: DegenerateString,
    text: DegenerateString,
    index: LceIndex,
    diagnostics: bool = False,
) -> MatchReport:
    """Stages 2 and 3 with the index from ``prepare``, for a pattern no
    longer than the text: kangaroo jumps, then the verdict check."""
    table, approx = kangaroo_search(pattern, text, index)
    return filter_occurrences(pattern, text, table, approx, diagnostics=diagnostics)


def find_occurrences(
    pattern: DegenerateString,
    text: DegenerateString,
    diagnostics: bool = False,
) -> MatchReport:
    """Find all 1-based positions where ``pattern`` occurs in ``text``.

    Runs the full substitute / LCE-jump / filter pipeline; a pattern
    longer than the text yields an empty report. After index construction
    the search makes sum_i (b_i + 1) LCE queries, where
    b_i = min(m, k_pattern + text placeholders in window i): O(k_pattern * n)
    on a solid text and at most O(k_total * n) on a degenerate one.
    """
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one symbol")
    if pattern.alphabet != text.alphabet:
        raise ValueError("pattern and text are over different alphabets")
    if len(pattern) > len(text):
        return MatchReport((), (), () if diagnostics else None, 0)
    return search(pattern, text, prepare(pattern, text), diagnostics=diagnostics)
