"""Acceptance gate: one test per criterion; run ``pytest -v`` for a
pass/fail line each.

Criteria 4 and 5 share one randomized sweep of 10,000 instances; criterion
6 runs the scaling benchmark at desk scale, so this module takes a few
minutes end to end.
"""

import random
import time
from types import SimpleNamespace

import pytest

from degmatch import (
    Alphabet,
    DegenerateSymbol,
    FAKE,
    REAL,
    find_occurrences,
    format_bracket,
    naive_match,
    parse_bracket,
    parse_solid,
    symbols_match,
)
from degmatch.bench import GridSpec, run_scaling
from degmatch.cli import main as cli_main
from degmatch.matcher import kangaroo_search, prepare
from degmatch.oracle import GENERATOR_NAME, RandomInstanceSpec, generate_instance

GOLDEN_PATTERN = "a[bc]da[bd]"
GOLDEN_TEXT = "dacdabdadcabdac"

GOLDEN_TABLE = [
    [1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2],
    [2, 5, 2, 2, 5, 2, 2, 3, 2, 2, 5],
    [3, 6, 3, 3, 6, 3, 4, 5, 3, 3, 6],
]

N_SWEEP = tuple(2**e for e in range(15, 21))
K_SWEEP = (1, 2, 4, 8, 16)


def golden_inputs():
    alphabet = Alphabet("abcd")
    return parse_bracket(GOLDEN_PATTERN, alphabet), parse_solid(GOLDEN_TEXT, alphabet)


def golden_stage2():
    pattern, text = golden_inputs()
    return kangaroo_search(pattern, text, prepare(pattern, text))


def _criterion4_specs(count=10_000):
    rng = random.Random(0x5EED)
    sigmas = (2, 4, 20)
    specs = [
        # pinned corners of the stated ranges
        RandomInstanceSpec(n=1, m=1, sigma=2, k_pattern=0, k_text=0, max_set_size=2, seed=1),
        RandomInstanceSpec(n=1, m=1, sigma=2, k_pattern=1, k_text=0, max_set_size=2, seed=2),
        RandomInstanceSpec(n=1, m=1, sigma=2, k_pattern=1, k_text=1, max_set_size=2, seed=3),
        RandomInstanceSpec(n=8, m=8, sigma=4, k_pattern=8, k_text=0, max_set_size=4, seed=4),
        RandomInstanceSpec(n=64, m=8, sigma=4, k_pattern=8, k_text=4, max_set_size=4, seed=5),
        RandomInstanceSpec(n=2000, m=64, sigma=2, k_pattern=8, k_text=4, max_set_size=2, seed=6),
        RandomInstanceSpec(n=2000, m=64, sigma=4, k_pattern=8, k_text=4, max_set_size=4, seed=7),
        RandomInstanceSpec(n=2000, m=64, sigma=20, k_pattern=8, k_text=4, max_set_size=20, seed=8),
        RandomInstanceSpec(n=2000, m=1, sigma=4, k_pattern=1, k_text=4, max_set_size=4, seed=9),
        RandomInstanceSpec(n=500, m=64, sigma=4, k_pattern=0, k_text=0, max_set_size=2, seed=10),
    ]
    while len(specs) < count:
        sigma = sigmas[len(specs) % 3]
        m = rng.randint(1, 64)
        n = max(m, int(2000 ** rng.random()))  # log-uniform in 1..2000
        specs.append(
            RandomInstanceSpec(
                n=n,
                m=m,
                sigma=sigma,
                k_pattern=rng.randint(0, min(8, m)),
                k_text=0 if rng.random() < 0.5 else rng.randint(1, min(4, n)),
                max_set_size=rng.randint(2, min(sigma, 8)),
                seed=len(specs),
            )
        )
    return specs


def _disagrees(spec):
    pattern, text = generate_instance(spec)
    got = list(find_occurrences(pattern, text).exact_occurrences)
    expected = naive_match(pattern, text)
    return None if got == expected else (pattern, text, got, expected)


@pytest.fixture(scope="module")
def equivalence_sweep():
    specs = _criterion4_specs()
    failures = []
    bound_violations = []
    start = time.perf_counter()
    for spec in specs:
        pattern, text = generate_instance(spec)
        report = find_occurrences(pattern, text)
        expected = naive_match(pattern, text)
        if list(report.exact_occurrences) != expected:
            failures.append(spec)
        k = spec.k_pattern + spec.k_text
        if report.lce_queries > (k + 1) * (spec.n - spec.m + 1):
            bound_violations.append((spec, report.lce_queries))
        elif spec.k_text == 0 and report.lce_queries != (k + 1) * (spec.n - spec.m + 1):
            # solid text: the count is not merely bounded, it is exact
            bound_violations.append((spec, report.lce_queries))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        total=len(specs),
        failures=failures,
        bound_violations=bound_violations,
        elapsed=elapsed,
    )


def test_criterion_1_golden_end_to_end():
    best = min(
        _timed_golden_run() for _ in range(3)
    )
    pattern, text = golden_inputs()
    assert find_occurrences(pattern, text).exact_occurrences.tolist() == [2, 5]
    assert best < 0.010, f"end-to-end golden run took {best * 1e3:.2f} ms"
    print(f"criterion 1: PASS - occurrences (2, 5) in {best * 1e3:.2f} ms")


def _timed_golden_run():
    start = time.perf_counter()
    pattern, text = golden_inputs()
    report = find_occurrences(pattern, text)
    elapsed = time.perf_counter() - start
    assert report.exact_occurrences.tolist() == [2, 5]
    return elapsed


def test_criterion_2_mismatch_table_reproduction():
    table, _ = golden_stage2()
    assert table.entries.shape == (11, 3)
    assert table.ids.tolist() == list(range(11))  # row i is alignment i
    assert table.entries.T.tolist() == GOLDEN_TABLE
    assert table.entries[7].tolist() == [2, 3, 5]
    for i in (1, 4, 10):
        assert table.entries[i, 2] == 6
    print("criterion 2: PASS - full 3x11 mismatch table reproduced")


def test_criterion_3_stage_outputs():
    table, approx = golden_stage2()
    assert approx.tolist() == [1, 4, 10]
    pattern, text = golden_inputs()
    report = find_occurrences(pattern, text, diagnostics=True)
    assert report.approximate_occurrences.tolist() == [1, 4, 10]
    assert report.verdicts == ((FAKE, FAKE), (FAKE, FAKE), (FAKE, REAL))
    print("criterion 3: PASS - approximate occurrences and verdicts match")


def test_criterion_4_oracle_equivalence(equivalence_sweep):
    sweep = equivalence_sweep
    assert sweep.total >= 10_000
    if sweep.failures:
        spec = sweep.failures[0]
        pattern, text, got, expected = _disagrees(spec)
        pytest.fail(
            f"{len(sweep.failures)} of {sweep.total} instances disagree with the oracle; "
            f"first (seed={spec.seed}, generator={GENERATOR_NAME}): "
            f"pattern={format_bracket(pattern)!r} text={format_bracket(text)!r} "
            f"got={got} expected={expected} spec={spec}"
        )
    assert sweep.elapsed < 300, f"sweep took {sweep.elapsed:.1f} s (budget 300 s)"
    print(
        f"criterion 4: PASS - {sweep.total} instances agree with the oracle "
        f"in {sweep.elapsed:.1f} s"
    )


def test_criterion_5_query_count_bound(equivalence_sweep):
    sweep = equivalence_sweep
    assert not sweep.bound_violations, (
        f"LCE query bound violated on {len(sweep.bound_violations)} instances; "
        f"first: {sweep.bound_violations[0]}"
    )
    print(f"criterion 5: PASS - query count within (k+1)(n-m+1) on {sweep.total} instances")


@pytest.fixture(scope="module")
def scaling_reports():
    sweep_n = run_scaling(GridSpec(n_values=N_SWEEP, k_values=(8,), sigma=4, reps=5))
    sweep_k = run_scaling(GridSpec(n_values=(2**18,), k_values=K_SWEEP, sigma=4, reps=5))
    return sweep_n, sweep_k


def test_criterion_6_empirical_scaling(scaling_reports):
    sweep_n, sweep_k = scaling_reports
    n_times = [sweep_n.cell(n, 8).search_ms for n in N_SWEEP]
    k_times = [sweep_k.cell(2**18, k).search_ms for k in K_SWEEP]
    n_ratios = [b / a for a, b in zip(n_times, n_times[1:])]
    k_ratios = [b / a for a, b in zip(k_times, k_times[1:])]
    detail = (
        f"search+filter ms over n={list(N_SWEEP)} at k=8: "
        f"{[round(t, 2) for t in n_times]} (ratios {[round(r, 2) for r in n_ratios]}); "
        f"over k={list(K_SWEEP)} at n=2^18: "
        f"{[round(t, 2) for t in k_times]} (ratios {[round(r, 2) for r in k_ratios]})"
    )
    assert all(r <= 2.5 for r in n_ratios), detail
    assert all(r <= 2.5 for r in k_ratios), detail
    print(f"criterion 6: PASS - {detail}")


def test_criterion_7_invariant_suite(capsys, tmp_path):
    # symbol matching: symmetric and reflexive over every pair on sigma=4
    alphabet = Alphabet("abcd")
    all_symbols = [DegenerateSymbol(alphabet, mask) for mask in range(1, 16)]
    for a in all_symbols:
        assert symbols_match(a, a)
        for b in all_symbols:
            assert symbols_match(a, b) == symbols_match(b, a)

    # concrete non-transitivity witness
    a = DegenerateSymbol.solid(alphabet, "a")
    ab = DegenerateSymbol.of(alphabet, "ab")
    b = DegenerateSymbol.solid(alphabet, "b")
    assert symbols_match(a, ab) and symbols_match(ab, b) and not symbols_match(a, b)

    # with a solid text, every approximate occurrence mismatches exactly at
    # the placeholder positions
    rng = random.Random(71)
    for trial in range(200):
        m = rng.randint(1, 12)
        spec = RandomInstanceSpec(
            n=rng.randint(m, 120), m=m, sigma=rng.choice([2, 4]),
            k_pattern=rng.randint(0, min(4, m)), k_text=0, max_set_size=2,
            seed=trial,
        )
        pattern, text = generate_instance(spec)
        table, approx = kangaroo_search(pattern, text, prepare(pattern, text))
        assert table.ids.tolist() == list(range(len(text) - len(pattern) + 1))
        placeholder_set = set(pattern.non_solid_positions)
        for i in approx:
            entries = {e for e in table.entries[i].tolist() if e != table.sentinel}
            assert entries == placeholder_set

    # parser round-trip on randomized canonical strings
    for trial in range(200):
        sigma = rng.randint(1, 8)
        alpha = Alphabet("abcdefgh"[:sigma])
        from degmatch import DegenerateString

        s = DegenerateString(
            alpha,
            [
                DegenerateSymbol(alpha, rng.randint(1, (1 << sigma) - 1))
                for _ in range(rng.randint(0, 24))
            ],
        )
        assert parse_bracket(format_bracket(s), alpha) == s

    # exit-code contract: found / not found / input error
    assert cli_main(["-p", GOLDEN_PATTERN, "--text", GOLDEN_TEXT]) == 0
    assert cli_main(["-p", "zz", "--text", GOLDEN_TEXT]) == 1
    assert cli_main(["-p", "a[bc", "--text", GOLDEN_TEXT]) == 2
    capsys.readouterr()
    print("criterion 7: PASS - matching relation, mismatch-position, round-trip, exit-code invariants hold")
