"""Three-stage degenerate pattern search.

Stage 1 replaces every non-solid symbol with a fresh placeholder rank
outside the base alphabet, turning the pattern into a solid string that
mismatches the text at exactly those positions. Stage 2 finds, for every
alignment, the first k+1 mismatch positions with one constant-time LCE
jump each. Stage 3 re-checks every placeholder mismatch against the
original symbol sets and keeps the alignments where all of them are fake.

A degenerate text is handled the same way: its non-solid symbols get
their own placeholder ranks, and mismatch verdicts intersect both
original sets. An occurrence can only mismatch where the pattern or its
own text window holds a placeholder, so alignment i gets the budget
b_i = min(m, k_pattern + t_i), where t_i counts the text placeholders
inside window i. On a solid text every b_i is k_pattern.

Three entry points run the stages: ``prepare`` does stage 1 and builds
the LCE index, ``search`` runs stages 2 and 3 on what ``prepare``
returns, and ``find_occurrences`` checks its inputs and chains the two.
"""

from dataclasses import dataclass

import numpy as np

from .core import Alphabet, DegenerateString, DegenerateSymbol, EmptyPattern
from .lce import LceIndex

FAKE = "fake"
REAL = "real"


@dataclass(frozen=True, eq=False)
class SubstitutedString:
    """Solid encoding of a degenerate string.

    ``ranks[p-1]`` is the base-alphabet rank at solid positions and a
    unique placeholder rank (>= len(alphabet)) at non-solid ones.
    """

    alphabet: Alphabet
    ranks: np.ndarray
    placeholder_positions: tuple[int, ...]  # 1-based
    original_sets: tuple[DegenerateSymbol, ...]

    def __post_init__(self):
        self.ranks.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def k(self) -> int:
        return len(self.placeholder_positions)

    def mask_at(self, pos: int) -> int:
        """Set mask at 1-based ``pos``: the original set at a placeholder,
        the singleton of the base rank elsewhere. Placeholder ranks are
        consecutive, so the rank itself indexes ``original_sets``."""
        rank = int(self.ranks[pos - 1])
        if rank < len(self.alphabet):
            return 1 << rank
        first = int(self.ranks[self.placeholder_positions[0] - 1])
        return self.original_sets[rank - first].mask


def substitute(s: DegenerateString, first_placeholder_rank: int | None = None) -> SubstitutedString:
    """Replace the i-th non-solid symbol (left to right) with placeholder
    rank ``first_placeholder_rank + i - 1``; solid symbols keep their base
    rank. Default placeholder ranks start right after the alphabet."""
    sigma = len(s.alphabet)
    base = sigma if first_placeholder_rank is None else first_placeholder_rank
    ranks = np.empty(len(s), dtype=np.int32)
    sets = []
    for idx, sym in enumerate(s.symbols):
        if sym.is_solid:
            ranks[idx] = sym.solid_rank()
        else:
            ranks[idx] = base + len(sets)
            sets.append(sym)
    return SubstitutedString(
        alphabet=s.alphabet,
        ranks=ranks,
        placeholder_positions=s.non_solid_positions,
        original_sets=tuple(sets),
    )


def precompute_membership(sub: SubstitutedString) -> np.ndarray:
    """k x sigma boolean table: row i answers "does base character a belong
    to the i-th non-solid set" in O(1). Construction is O(k*sigma)."""
    sigma = len(sub.alphabet)
    table = np.zeros((sub.k, sigma), dtype=bool)
    for i, sym in enumerate(sub.original_sets):
        for r in range(sigma):
            table[i, r] = bool(sym.mask >> r & 1)
    table.flags.writeable = False
    return table


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
    sub: SubstitutedString,
    text_ranks: np.ndarray,
    index: LceIndex,
) -> tuple[MismatchTable, tuple[int, ...]]:
    """Scan all alignments, jumping past each mismatch with one LCE query.

    ``sub``, ``text_ranks`` and ``index`` come from ``prepare``: the index
    is built over text + substituted pattern + separator, with text
    placeholder ranks >= len(alphabet) and distinct from the pattern's,
    and the pattern is no longer than the text. Alignment i makes at most
    b_i + 1 jumps and is an approximate occurrence when one of them
    reaches the sentinel m+1, i.e. the window matched the whole pattern
    with at most b_i mismatches. b_i = min(m, sub.k + t_i), where t_i
    counts the text placeholders inside window i. Sum of (b_i + 1)
    queries in total, at most (k_total + 1)(n - m + 1), each O(1).
    """
    m = len(sub)
    n = len(text_ranks)
    k = sub.k
    sentinel = m + 1
    count = n - m + 1
    sigma = len(sub.alphabet)
    budgets = None  # None: every alignment has the scalar budget k
    if text_ranks.max() >= sigma:
        placeholders = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(text_ranks >= sigma, out=placeholders[1:])
        in_window = placeholders[m:] - placeholders[:count]
        budgets = np.minimum(in_window, m - sub.k) + sub.k
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

    if budgets is None:
        last = entries[:, k]
    else:
        last = np.take_along_axis(entries, budgets[:, None], axis=1)[:, 0]
    approx = np.flatnonzero(last == sentinel)
    table = MismatchTable(entries=entries, m=m, budget=k, query_count=queries)
    return table, tuple(int(i) for i in approx)


@dataclass(frozen=True)
class MatchReport:
    """Occurrence report: exact positions (1-based), the approximate
    alignments they were filtered from (0-based), per-alignment verdicts
    when diagnostics were requested, and the LCE query count.

    ``verdicts[j]`` belongs to ``approximate_occurrences[j]``. On a solid
    text it holds one verdict per pattern placeholder, in pattern order.
    On a degenerate text it holds one verdict per recorded mismatch, in
    pattern order: text placeholders, and solid mismatches within the
    alignment's budget. So ``a[bc]d`` at position 1 of ``[ab]bdacd``
    gives ``(fake, fake)``, and of the solid ``abdacd`` gives ``(fake,)``.
    """

    exact_occurrences: tuple[int, ...]
    approximate_occurrences: tuple[int, ...]
    verdicts: tuple[tuple[str, ...], ...] | None
    lce_queries: int


def filter_occurrences(
    sub: SubstitutedString,
    text_ranks: np.ndarray,
    approx: tuple[int, ...],
    membership: np.ndarray,
    diagnostics: bool = False,
    lce_queries: int = 0,
) -> MatchReport:
    """Stage 3 for a solid text: an approximate occurrence at alignment i
    is exact iff at every placeholder position e the text character
    t[i+e] belongs to the original set (every mismatch is fake)."""
    k = sub.k
    approx_arr = np.asarray(approx, dtype=np.int64)
    if approx_arr.size == 0:
        return MatchReport((), tuple(approx), () if diagnostics else None, lce_queries)
    if k == 0:
        exact = tuple(int(i) + 1 for i in approx_arr)
        verdicts = tuple(() for _ in approx_arr) if diagnostics else None
        return MatchReport(exact, tuple(approx), verdicts, lce_queries)

    positions = np.asarray(sub.placeholder_positions, dtype=np.int64)
    chars = text_ranks[approx_arr[:, None] + positions[None, :] - 1]
    fake = membership[np.arange(k)[None, :], chars]
    all_fake = fake.all(axis=1)
    exact = tuple(int(i) + 1 for i in approx_arr[all_fake])
    verdicts = None
    if diagnostics:
        verdicts = tuple(tuple(FAKE if x else REAL for x in row) for row in fake)
    return MatchReport(exact, tuple(approx), verdicts, lce_queries)


def _filter_general(
    sub_pattern: SubstitutedString,
    sub_text: SubstitutedString,
    table: MismatchTable,
    approx: tuple[int, ...],
    diagnostics: bool = False,
    lce_queries: int = 0,
) -> MatchReport:
    """Stage 3 for a degenerate text: every recorded mismatch (placeholder
    or solid-vs-solid within budget) is verdict-checked by intersecting
    the original symbol sets on both sides, looked up only at the
    recorded positions."""
    sentinel = table.sentinel

    exact = []
    verdicts = [] if diagnostics else None
    for i in approx:
        row = table.entries[i]
        occurrence_verdicts = []
        all_fake = True
        for e in row:
            e = int(e)
            if e == sentinel:
                break
            fake = sub_pattern.mask_at(e) & sub_text.mask_at(i + e) != 0
            if diagnostics:
                occurrence_verdicts.append(FAKE if fake else REAL)
            if not fake:
                all_fake = False
                if not diagnostics:
                    break
        if all_fake:
            exact.append(i + 1)
        if diagnostics:
            verdicts.append(tuple(occurrence_verdicts))
    return MatchReport(
        tuple(exact),
        tuple(approx),
        tuple(verdicts) if diagnostics else None,
        lce_queries,
    )


def prepare(
    pattern: DegenerateString, text: DegenerateString
) -> tuple[SubstitutedString, SubstitutedString, LceIndex]:
    """Stage 1 and the LCE index: the substituted pattern, the substituted
    text and an index over text + pattern + separator.

    Pattern placeholders take ranks sigma .. sigma + k_p - 1, text
    placeholders the next k_t ranks, and the separator sigma + k_total,
    so every placeholder mismatches every other symbol and the separator
    is unique.
    """
    sigma = len(pattern.alphabet)
    sub_p = substitute(pattern)
    sub_t = substitute(text, first_placeholder_rank=sigma + sub_p.k)
    separator = sigma + sub_p.k + sub_t.k
    seq = np.concatenate(
        [sub_t.ranks, sub_p.ranks, np.asarray([separator], dtype=np.int32)]
    )
    return sub_p, sub_t, LceIndex(seq, separator=separator)


def search(
    sub_p: SubstitutedString,
    sub_t: SubstitutedString,
    index: LceIndex,
    diagnostics: bool = False,
) -> MatchReport:
    """Stages 2 and 3 on the output of ``prepare``, for a pattern no
    longer than the text: kangaroo jumps, then the solid-text filter or,
    when the text has placeholders, the general one."""
    table, approx = kangaroo_search(sub_p, sub_t.ranks, index)
    if sub_t.k == 0:
        membership = precompute_membership(sub_p)
        return filter_occurrences(
            sub_p, sub_t.ranks, approx, membership,
            diagnostics=diagnostics, lce_queries=table.query_count,
        )
    return _filter_general(
        sub_p, sub_t, table, approx,
        diagnostics=diagnostics, lce_queries=table.query_count,
    )


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
    return search(*prepare(pattern, text), diagnostics=diagnostics)
