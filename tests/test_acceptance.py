"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-resolution
parameter sweep of criterion 5 is opt-in via TRAFFICFLOW_FULL_SWEEP=1.

Criterion 1 pins the overflow triangle's census in all three regimes.
Above input rate 1 it expects the one all-overloaded solution
[4a/3 + 1, 2a/3 + 1, a]: summing the overflow equation over the nodes
forces node 3 to overflow, a stable node 1 or node 2 contradicts its
own capacity, and the all-overloaded system is linear with that single
root (the reckoning is written out next to the check).
"""

import os
import time

import numpy as np
import pytest
from helpers import (
    check_trace,
    corpus,
    first_solve_producing,
    traces_identical,
    zero_overflow,
)

from trafficflow import (
    CellGridSpec,
    ConditionStatus,
    OracleKind,
    characterize_classes,
    check_overflow_condition,
    enumerate_solutions,
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    make_network,
    solve_goodman_massey,
    solve_overflow,
    spectral_radius,
    tarski_fixed_point,
)

EQ12 = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def shared_corpus():
    nets = corpus(200)
    solved = []
    for net in nets:
        gm_solution, gm_trace = solve_goodman_massey(net)
        ov_solution, ov_trace = solve_overflow(net)
        solved.append((net, gm_solution, gm_trace, ov_solution, ov_trace))
    return solved


def test_criterion_1_overflow_triangle_solution_census():
    start = time.monotonic()
    failures = []

    for a1 in (0.25, 0.5, 0.9):
        verdict = enumerate_solutions(gen_example4(a1))
        expected = np.array([4 * a1 / 3, 2 * a1 / 3, 0.0])
        if verdict.kind is not OracleKind.UNIQUE or not np.allclose(
            verdict.solutions[0], expected, atol=1e-9
        ):
            failures.append(f"alpha1={a1}: expected Unique{expected}, got {verdict.kind.value}")

    verdict = enumerate_solutions(gen_example4(1.0))
    if verdict.kind is not OracleKind.CONTINUUM or not np.allclose(
        verdict.base, [4 / 3, 2 / 3, 0.0], atol=1e-8
    ):
        failures.append(f"alpha1=1: expected Continuum with base [4/3,2/3,0], got {verdict.kind.value}")

    # Above the critical rate the one solution has every node overloaded.
    # With y = min(x, mu) and z = max(x - mu, 0), summing the equation over
    # the nodes (mu = [4/3, 2/3, 1], P row sums [1/2, 1/2, 1], Q row sums
    # [1, 1, 0]) gives y1/2 + y2/2 + z3 = a; since y1/2 + y2/2 <= 1 < a,
    # node 3 overflows.
    # A stable node 1 would force node 2 to overflow and then x1 = 4a/3 + 1
    # > 4/3; a stable node 2 likewise gives x2 = 2a/3 + 1 > 2/3.  With all
    # three nodes overloaded the system is linear with the root below.
    for a1 in (1.1, 2.0, 10.0):
        verdict = enumerate_solutions(gen_example4(a1))
        expected = np.array([4 * a1 / 3 + 1, 2 * a1 / 3 + 1, a1])
        if verdict.kind is not OracleKind.UNIQUE or not np.allclose(
            verdict.solutions[0], expected, atol=1e-9
        ):
            found = [np.round(s, 6).tolist() for s in verdict.solutions]
            failures.append(
                f"alpha1={a1}: expected Unique{expected}, census found {verdict.kind.value} {found}"
            )

    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    ok = _report(1, "overflow-triangle solution census", not failures,
                 "; ".join(failures))
    assert ok, failures


def test_criterion_2_worst_case_iteration_counts():
    start = time.monotonic()
    failures = []
    for n in range(1, 31):
        solution, trace = solve_overflow(
            gen_example2(n), best_effort=True, delegate_zero_overflow=False
        )
        expected = 1 + n * (n + 1) // 2
        if trace.inner_iterations_total != expected:
            failures.append(f"n={n}: {trace.inner_iterations_total} != {expected}")
        if not solution.residual < 1e-9:
            failures.append(f"n={n}: residual {solution.residual:.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    ok = _report(2, "worst-case chain iteration counts", not failures,
                 "; ".join(failures) or f"{elapsed:.1f}s")
    assert ok, failures


def test_criterion_3_two_class_condition_split():
    net = gen_example3()
    failures = []
    dec = characterize_classes(net)
    if dec.filled_or_drained:
        failures.append("filled-or-drained unexpectedly holds")
    if not dec.non_isolated:
        failures.append("non-isolated unexpectedly fails")
    solution, _ = solve_goodman_massey(net)
    if not solution.residual < 1e-9:
        failures.append(f"residual {solution.residual:.2e}")
    if solution.unstable != frozenset({0, 1}):
        failures.append(f"unstable set {sorted(solution.unstable)} != [0, 1]")
    oracle = tarski_fixed_point(net)
    if np.max(np.abs(solution.rates - oracle.rates)) > 1e-7:
        failures.append("solver disagrees with monotone fixed-point oracle")
    ok = _report(3, "two-class network condition split", not failures,
                 "; ".join(failures))
    assert ok, failures


def test_criterion_4_spectral_radius_and_witness():
    failures = []
    radius = spectral_radius(EQ12)
    if abs(radius - 1.0) > 1e-9:
        failures.append(f"radius {radius!r} not within 1e-9 of 1")
    report_net = gen_example4(1.0)
    solution, _ = solve_goodman_massey(report_net)
    verdict = check_overflow_condition(report_net, solution.unstable)
    if verdict.status is not ConditionStatus.FAILS or verdict.witness != frozenset({2}):
        failures.append(f"verdict {verdict}")
    ok = _report(4, "doubly stochastic mix and witness", not failures,
                 "; ".join(failures))
    assert ok, failures


def test_criterion_5_heatmap_small_grid():
    start = time.monotonic()
    failures = []
    ticks = [k * 0.1 for k in range(10)] + [1.0]
    m = 3
    n = 4 * m * m
    fractions = {}
    for d in ticks:
        for e in ticks:
            net = gen_example1(CellGridSpec(m=m, delta=d, epsilon=e))
            solution, _ = solve_overflow(net)
            fractions[(d, e)] = len(solution.unstable) / n
    elapsed = time.monotonic() - start

    values = list(fractions.values())
    if not all(0.0 <= f <= 1.0 for f in values):
        failures.append("fraction out of [0, 1]")
    slack = 1.0 / n + 1e-12
    for i, d in enumerate(ticks):
        for j, e in enumerate(ticks):
            if i + 1 < len(ticks) and fractions[(ticks[i + 1], e)] < fractions[(d, e)] - slack:
                failures.append(f"fraction drops along delta at ({d:.1f},{e:.1f})")
            if j + 1 < len(ticks) and fractions[(d, ticks[j + 1])] < fractions[(d, e)] - slack:
                failures.append(f"fraction drops along epsilon at ({d:.1f},{e:.1f})")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    ok = _report(5, "cell-grid sweep, desk scale", not failures,
                 "; ".join(failures) or f"121 solves in {elapsed:.1f}s")
    assert ok, failures


@pytest.mark.skipif(
    not os.environ.get("TRAFFICFLOW_FULL_SWEEP"),
    reason="full-resolution sweep takes tens of minutes; set TRAFFICFLOW_FULL_SWEEP=1",
)
def test_criterion_5_heatmap_full_resolution(tmp_path):
    from trafficflow.cli import main

    start = time.monotonic()
    jobs = str(os.cpu_count() or 1)
    for m in (3, 5):
        code = main(
            ["heatmap", "--m", str(m), "--step", "0.01", "--jobs", jobs,
             "--out", str(tmp_path / f"full{m}")]
        )
        assert code == 0
    elapsed = time.monotonic() - start
    ok = _report(5, "cell-grid sweep, full resolution", elapsed < 3600.0,
                 f"{elapsed:.0f}s")
    assert ok


def test_criterion_6_oracle_equivalence(shared_corpus):
    start = time.monotonic()
    failures = []
    for net, gm_solution, _, ov_solution, _ in shared_corpus:
        verdict = enumerate_solutions(net)
        if verdict.kind is not OracleKind.UNIQUE:
            failures.append(f"census verdict {verdict.kind.value} on n={net.n}")
            continue
        if np.max(np.abs(verdict.solutions[0] - ov_solution.rates)) > 1e-7:
            failures.append(f"solver/census disagreement on n={net.n}")
    for net, gm_solution, _, _, _ in shared_corpus:
        projected = zero_overflow(net)
        gm_proj, _ = solve_goodman_massey(projected)
        oracle = tarski_fixed_point(projected)
        if np.max(np.abs(gm_proj.rates - oracle.rates)) > 1e-7:
            failures.append(f"fixed-point disagreement on n={net.n}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    ok = _report(6, "oracle equivalence on 200 random networks", not failures,
                 "; ".join(failures[:5]) or f"{elapsed:.1f}s")
    assert ok, failures[:5]


def test_criterion_7_theorem_backed_invariants(shared_corpus):
    failures = []
    for net, gm_solution, gm_trace, ov_solution, ov_trace in shared_corpus:
        n = net.n
        if np.any(ov_solution.rates < gm_solution.rates - 1e-9):
            failures.append(f"overflow rates drop below clipped rates (n={n})")
        # The clipped solver finds its answer within n solves; the loop
        # spends at most one extra solve confirming the fixed point.
        if first_solve_producing(gm_trace, gm_solution.rates) > n:
            failures.append(f"clipped solution found after {n} solves")
        if gm_trace.outer_iterations > n + 1:
            failures.append(f"clipped solver exceeded {n + 1} solves")
        if ov_trace.outer_iterations > n + 1:
            failures.append(f"overflow outer iterations exceed n+1 (n={n})")
        if ov_trace.inner_iterations_total > 1 + n * (n + 1) // 2:
            failures.append(f"overflow inner iterations exceed bound (n={n})")
        try:
            check_trace(net, ov_trace)
        except AssertionError as exc:
            failures.append(f"trace monotonicity (n={n}): {exc}")

    rng = np.random.default_rng(2024)
    checked = 0
    for net, *_ in shared_corpus[:10]:
        projected = zero_overflow(net)
        base, _ = solve_goodman_massey(projected)
        for _ in range(5):
            bump = rng.random(net.n) * (rng.random(net.n) < 0.5)
            bumped, _ = solve_goodman_massey(
                make_network(projected.alpha + bump, projected.mu, projected.p)
            )
            checked += 1
            if np.any(bumped.rates < base.rates - 1e-9):
                failures.append("rates decreased under an input increase")
    assert checked == 50
    ok = _report(7, "theorem-backed trace invariants", not failures,
                 "; ".join(failures[:5]))
    assert ok, failures[:5]


def test_criterion_8_zero_overflow_reduction():
    failures = []
    for k in range(100):
        net = zero_overflow(corpus(1, seed_base=5000 + k)[0])
        gm_solution, gm_trace = solve_goodman_massey(net)
        ov_solution, ov_trace = solve_overflow(net)
        if not np.array_equal(gm_solution.rates, ov_solution.rates):
            failures.append(f"rates differ (seed {5000 + k})")
        if not traces_identical(gm_trace, ov_trace):
            failures.append(f"traces differ (seed {5000 + k})")
    ok = _report(8, "zero-overflow reduction", not failures,
                 "; ".join(failures[:5]))
    assert ok, failures[:5]
