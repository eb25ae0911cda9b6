"""Scaling measurements for the search pipeline.

Each grid cell times the two halves of ``find_occurrences`` on one
fixed-seed instance: ``build_ms`` is ``matcher.prepare``, which makes
only the LCE index's code words over both strings' ranks, and
``search_ms`` is stages 2-3 exactly as ``find_occurrences`` runs them
(``matcher.search``), including any suffix index a query builds on
demand. Every cell checks the machine-independent guarantee that search
issued at most (k+1)(n-m+1) LCE queries, and raises ``AssertionError``
when it does not, also under ``python -O``.
"""

import statistics
import time
from dataclasses import dataclass, field, fields

from .matcher import prepare, search
from .oracle import RandomInstanceSpec, generate_instance

BASE_SEED = 20260801


@dataclass(frozen=True)
class GridSpec:
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    sigma: int = 4
    reps: int = 5
    m: int = 64

    def __post_init__(self):
        if self.reps < 5:
            raise ValueError("reps must be at least 5")
        if not self.n_values or not self.k_values:
            raise ValueError("n and k value lists must be non-empty")


@dataclass(frozen=True)
class BenchCell:
    n: int
    m: int
    k: int
    sigma: int
    reps: int
    build_ms: float
    search_ms: float
    lce_queries: int
    query_bound: int
    occurrences: int


@dataclass(frozen=True)
class ScalingReport:
    cells: tuple[BenchCell, ...] = field(default_factory=tuple)

    def to_tsv(self) -> str:
        names = [f.name for f in fields(BenchCell)]
        lines = ["\t".join(names)]
        for c in self.cells:
            values = (getattr(c, name) for name in names)
            lines.append("\t".join(str(v) if isinstance(v, int) else f"{v:.3f}" for v in values))
        return "\n".join(lines)

    def cell(self, n: int, k: int) -> BenchCell:
        for c in self.cells:
            if c.n == n and c.k == k:
                return c
        raise KeyError(f"no cell for n={n}, k={k}")


def parse_grid(text: str) -> GridSpec:
    """Parse ``n=<list>,k=<list>,sigma=<int>,reps=<int>[,m=<int>]``.

    Lists are comma-separated; a token without '=' extends the previous
    key's list, so ``n=1024,2048,k=1,2`` reads as n=[1024,2048], k=[1,2].
    """
    values: dict[str, list[int]] = {}
    current = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            if key not in ("n", "k", "sigma", "reps", "m"):
                raise ValueError(f"unknown bench key {key!r}")
            current = key
            values.setdefault(key, [])
        else:
            raw = token
        if current is None:
            raise ValueError(f"bench value {token!r} appears before any key")
        try:
            values[current].append(int(raw))
        except ValueError:
            raise ValueError(f"bench value {raw!r} is not an integer") from None

    if "n" not in values or "k" not in values:
        raise ValueError("bench spec needs at least n=<list> and k=<list>")
    for scalar in ("sigma", "reps", "m"):
        if scalar in values and len(values[scalar]) != 1:
            raise ValueError(f"bench key {scalar!r} takes a single value")
    return GridSpec(
        n_values=tuple(values["n"]),
        k_values=tuple(values["k"]),
        sigma=values.get("sigma", [4])[0],
        reps=values.get("reps", [5])[0],
        m=values.get("m", [64])[0],
    )


def _time_cell(n: int, k: int, grid: GridSpec) -> BenchCell:
    spec = RandomInstanceSpec(
        n=n, m=grid.m, sigma=grid.sigma, k_pattern=k, k_text=0,
        max_set_size=2, seed=BASE_SEED + 8191 * n + k,
    )
    pattern, text = generate_instance(spec)
    bound = (k + 1) * (n - grid.m + 1)

    build_times = []
    search_times = []
    queries = occurrences = 0
    for _ in range(grid.reps):
        t0 = time.perf_counter()
        index = prepare(pattern, text)
        t1 = time.perf_counter()
        report = search(pattern, text, index)
        t2 = time.perf_counter()
        build_times.append(t1 - t0)
        search_times.append(t2 - t1)
        queries = report.lce_queries
        occurrences = len(report.exact_occurrences)
        if queries > bound:
            raise AssertionError(
                f"LCE query count {queries} exceeds (k+1)(n-m+1) = {bound} at n={n}, k={k}"
            )

    return BenchCell(
        n=n, m=grid.m, k=k, sigma=grid.sigma, reps=grid.reps,
        build_ms=statistics.median(build_times) * 1e3,
        search_ms=statistics.median(search_times) * 1e3,
        lce_queries=queries, query_bound=bound, occurrences=occurrences,
    )


def run_scaling(grid: GridSpec) -> ScalingReport:
    """Time every (n, k) cell of the grid; median over ``grid.reps``
    repetitions of the same fixed-seed instance."""
    cells = []
    for n in grid.n_values:
        for k in grid.k_values:
            cells.append(_time_cell(n, k, grid))
    return ScalingReport(cells=tuple(cells))
