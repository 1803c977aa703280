from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import (
    check_gm_trace,
    check_trace,
    corpus,
    count_calls,
    first_solve_producing,
    hard_networks,
    zero_overflow,
)

from hypothesis import given, settings

import trafficflow.solvers
import trafficflow.structure
from trafficflow import (
    CellGridSpec,
    ConditionNotVerifiedError,
    Equation,
    IsolatedClassError,
    NonConvergenceError,
    OracleKind,
    OracleSizeError,
    SingularInnerSystemError,
    SolveStatus,
    SpectralRadiusAtLeastOneError,
    TrafficFlowError,
    enumerate_solutions,
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_random,
    make_network,
    residual,
    solve_goodman_massey,
    solve_jackson,
    solve_left,
    solve_overflow,
    tarski_fixed_point,
)
from trafficflow import linalg
from trafficflow.linalg import RADIUS_MARGIN, solve_reduced
from trafficflow.network import ROW_SUM_TOL, classify_nodes
from trafficflow.solvers import _network_band, _pattern_system, _routing


def test_jackson_without_routing_returns_inputs():
    net = make_network([0.5, 1.5], [1, 1], np.zeros((2, 2)))
    solution = solve_jackson(net)
    assert np.array_equal(solution.rates, [0.5, 1.5])
    assert solution.stable == {0}
    assert solution.unstable == {1}


def test_jackson_open_triangle():
    solution = solve_jackson(gen_example4(0.5))
    assert np.allclose(solution.rates, [2 / 3, 1 / 3, 0.0], atol=1e-12)
    assert solution.residual < 1e-12


def test_jackson_rejects_radius_one_routing():
    # Rows of s/4 sum to exactly s = 1 - RADIUS_MARGIN, the radius of that
    # rank-one matrix: a tie is not below the margin.
    s = 1.0 - RADIUS_MARGIN
    tie = make_network(np.ones(4), np.ones(4), np.full((4, 4), s / 4))
    with pytest.raises(SpectralRadiusAtLeastOneError):
        solve_jackson(gen_example3())
    with pytest.raises(SpectralRadiusAtLeastOneError, match=r", not below 1 - 1e-09$"):
        solve_jackson(tie)


def test_goodman_massey_example3_matches_fixed_point_oracle():
    net = gen_example3()
    solution, trace = solve_goodman_massey(net)
    oracle = tarski_fixed_point(net)
    assert np.max(np.abs(solution.rates - oracle.rates)) < 1e-7
    assert solution.unstable == {0, 1}
    assert solution.residual < 1e-9
    assert trace.outer_iterations <= net.n


def test_goodman_massey_subcritical_triangle():
    solution, _ = solve_goodman_massey(gen_example4(0.5))
    assert np.allclose(solution.rates, [2 / 3, 1 / 3, 0.0], atol=1e-12)
    assert solution.unstable == frozenset()


def test_goodman_massey_zero_input():
    net = make_network([0, 0, 0], [1, 1, 1], np.full((3, 3), 0.2))
    solution, _ = solve_goodman_massey(net)
    assert np.array_equal(solution.rates, np.zeros(3))


def test_goodman_massey_rejects_isolated_class():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = make_network([0, 0], [1, 1], p)
    with pytest.raises(IsolatedClassError) as err:
        solve_goodman_massey(net)
    assert err.value.isolated_classes == (frozenset({0, 1}),)


def test_goodman_massey_traces_on_corpus():
    for net in corpus(40):
        solution, trace = solve_goodman_massey(net)
        assert solution.residual < 1e-9
        assert np.min(solution.rates) >= -1e-12
        check_gm_trace(trace, net.n)
        assert first_solve_producing(trace, solution.rates) <= net.n


def test_fixed_point_without_routing_converges_immediately():
    net = make_network([0.25, 0.75], [1, 1], np.zeros((2, 2)))
    assert np.array_equal(tarski_fixed_point(net).rates, [0.25, 0.75])


def test_fixed_point_rejects_overflow_matrix():
    with pytest.raises(ValueError):
        tarski_fixed_point(gen_example4(1.0))


def test_fixed_point_matches_goodman_massey_on_corpus():
    for net in map(zero_overflow, corpus(40, seed_base=300)):
        solution, _ = solve_goodman_massey(net)
        oracle = tarski_fixed_point(net)
        assert np.max(np.abs(solution.rates - oracle.rates)) < 1e-7


def test_overflow_best_effort_recovers_subcritical_triangle():
    solution, trace = solve_overflow(gen_example4(0.5), best_effort=True)
    assert np.allclose(solution.rates, [2 / 3, 1 / 3, 0.0], atol=1e-12)
    assert all(step.unstable == frozenset() for step in trace.history)


def test_overflow_requires_verified_condition_by_default():
    with pytest.raises(ConditionNotVerifiedError) as err:
        solve_overflow(gen_example4(0.5))
    assert err.value.verdict.witness == frozenset({2})


def test_overflow_worst_case_chain_attains_iteration_bound():
    net = gen_example2(3)
    solution, trace = solve_overflow(net, best_effort=True, delegate_zero_overflow=False)
    assert trace.inner_iterations_total == 7
    assert solution.residual < 1e-9
    assert solution.unstable == {0, 1, 2}


def test_overflow_delegates_to_goodman_massey_when_no_overflow_matrix():
    for net in map(zero_overflow, corpus(25, seed_base=500)):
        gm_solution, gm_trace = solve_goodman_massey(net)
        ov_solution, ov_trace = solve_overflow(net)
        assert np.array_equal(gm_solution.rates, ov_solution.rates)
        assert gm_trace == ov_trace
        assert ov_solution.equation is Equation.OVERFLOW


def test_overflow_traces_and_lower_bound_on_corpus():
    for net in corpus(40, seed_base=700):
        gm_solution, _ = solve_goodman_massey(net)
        solution, trace = solve_overflow(net)
        assert solution.residual < 1e-9
        assert np.all(solution.rates >= gm_solution.rates - 1e-9)
        check_trace(net, trace)
        # The checked and best-effort paths share the first outer pass.
        _, best_effort_trace = solve_overflow(net, best_effort=True)
        assert trace == best_effort_trace


def test_results_compare_by_value():
    # Results hold arrays, so == and hash must not reach the arrays'
    # elementwise comparison.
    net = gen_example2(4)
    first = solve_overflow(net, best_effort=True)
    second = solve_overflow(net, best_effort=True)
    assert first == second
    assert len({first, second}) == 1
    (solution, trace), step = first, first[1].history[-1]
    assert step != replace(step, rates=step.rates + 1.0)
    assert trace != replace(trace, history=trace.history[:-1])
    assert solution != replace(solution, residual=1.0)
    for alpha1 in (0.5, 1.0):
        verdict = enumerate_solutions(gen_example4(alpha1))
        assert verdict == enumerate_solutions(gen_example4(alpha1))
        assert hash(verdict) == hash(enumerate_solutions(gen_example4(alpha1)))
    assert verdict != replace(verdict, base=verdict.base + 1.0)


def test_results_are_read_only():
    solution, trace = solve_overflow(gen_example2(4), best_effort=True)
    continuum = enumerate_solutions(gen_example4(1.0))
    unique = enumerate_solutions(gen_example4(0.5))
    for arr in (solution.rates, trace.history[0].rates, continuum.base, unique.solutions[0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_checked_overflow_on_long_chains_estimates_no_radius(monkeypatch):
    # Radii are estimated only when reported: a condition that holds and
    # a Jackson solve that succeeds need none.
    radii = count_calls(monkeypatch, trafficflow.structure, "spectral_radius")
    for n in range(12, 25):
        solution, trace = solve_overflow(gen_example2(n))
        assert trace.inner_iterations_total == 1 + n * (n + 1) // 2
        assert solution.unstable == frozenset(range(n))
    assert len(radii) == 0
    jackson_radii = count_calls(monkeypatch, trafficflow.solvers, "spectral_radius")
    solve_jackson(gen_example4(0.5))
    assert len(jackson_radii) == 0


def test_checked_overflow_repeats_no_solve(monkeypatch):
    # The condition is checked against the first outer pass, so a checked
    # solve makes one linear solve per trace step and looks for isolated
    # classes once.  It characterizes the classes only when some row of P
    # does not leak (the chain and the four-node example here).
    nets = corpus(6, seed_base=700) + [
        zero_overflow(gen_random(7, seed=3)),
        gen_example1(CellGridSpec(m=2, delta=0.5, epsilon=0.5)),
        gen_example1(CellGridSpec(m=3, delta=1.0, epsilon=0.2)),
        gen_example2(5),
        gen_example3(),
    ]
    # Both solver entries count, so a stray solve through either fails.
    solves = count_calls(monkeypatch, trafficflow.solvers, "_reduced_solution")
    dense_solves = count_calls(monkeypatch, trafficflow.solvers, "solve_left")
    isolation_checks = count_calls(monkeypatch, trafficflow.solvers, "isolated_classes")
    characterizations = count_calls(
        monkeypatch, trafficflow.structure, "characterize_classes"
    )
    leaking = 0
    for net in nets:
        solves.clear()
        dense_solves.clear()
        isolation_checks.clear()
        characterizations.clear()
        _, trace = solve_overflow(net)
        assert len(solves) + len(dense_solves) == trace.inner_iterations_total
        assert len(isolation_checks) == 1
        leaks = bool((net.p.sum(axis=1) < 1.0 - ROW_SUM_TOL).all())
        assert len(characterizations) == (0 if leaks else 1)
        leaking += leaks
    assert 0 < leaking < len(nets)


def _fed_two_cycles(pairs):
    """``pairs`` disjoint unit overflow two-cycles with no routing and
    every node fed above capacity: every node is overloaded after the
    first pass, and the second pass's first system is singular, dense
    for one pair and banded for 20 (40 rows)."""
    n = 2 * pairs
    q = np.kron(np.eye(pairs), [[0.0, 1.0], [1.0, 0.0]])
    return make_network(np.full(n, 3.0), np.ones(n), np.zeros((n, n)), q)


@pytest.mark.parametrize("fallback", [False, True])
def test_singular_step_solves_once_then_classifies(monkeypatch, fallback):
    # Every inner step makes one kernel call, the singular one included,
    # and _solve_singular then classifies that system with no second
    # kernel solve: dense, banded and under the fallback kernel.
    if fallback:
        monkeypatch.setattr(linalg, "_kernel", linalg._eliminate)
    steps = count_calls(monkeypatch, trafficflow.solvers, "_reduced_solution")
    kernels = [count_calls(monkeypatch, linalg, k) for k in ("_lapack_solve", "_solve_stack")]
    banded = count_calls(monkeypatch, linalg, "_reduced_banded")
    classified = count_calls(monkeypatch, trafficflow.solvers, "_solve_singular")
    for pairs in (1, 20):
        for calls in [steps, classified, *kernels]:
            calls.clear()
        with pytest.raises(SingularInnerSystemError, match="singular-inconsistent"):
            solve_overflow(_fed_two_cycles(pairs), best_effort=True)
        assert len(classified) == 1
        assert sum(map(len, kernels)) == len(steps) >= 2
    assert bool(banded) is (not fallback and linalg._LAPACK is not None)


@settings(max_examples=200)
@given(hard_networks())
def test_verified_condition_leaves_no_inner_system_singular(net):
    # Every inner system is dominated by a certified mix, so once the
    # condition is verified none may be singular: SingularInnerSystemError
    # (or any other error) fails the test.
    try:
        solve_overflow(net)
    except (ConditionNotVerifiedError, IsolatedClassError):
        pass


def test_checked_overflow_settles_next_to_the_margin():
    # Found by a longer hard_networks run.  The condition holds, and the
    # census's unique solution has node 2 at 7.75e-10 below capacity.
    # Were node 2 to join the overloaded set within the 1e-9 margin, the
    # outer loop would cycle between {1} and {1, 2}.
    p = np.zeros((3, 3))
    p[0, 2] = 0.99224806
    q = np.zeros((3, 3))
    q[0, 1] = 0.00775194
    q[1, 0] = q[2, 0] = 1.0
    net = make_network([0.0, 0.1, 0.1], [0.2, 0.0999999, 0.1000001], p, q)
    solution, _ = solve_overflow(net)
    verdict = enumerate_solutions(net)
    assert verdict.kind is OracleKind.UNIQUE
    np.testing.assert_allclose(solution.rates, verdict.solutions[0], rtol=1e-9, atol=0)


def _dense_stable_set_loop(net, overflow, budget, routing):
    """Reference for ``_stable_set_loop``: each pass solves the full
    pattern system with the dense kernel, ignoring ``routing``."""
    overflow_mask = overflow[None]
    overloaded = frozenset(np.flatnonzero(overflow).tolist())
    stable = frozenset()
    solves = []
    for _ in range(budget):
        stable_mask = np.zeros((1, net.n), dtype=bool)
        stable_mask[0, list(stable)] = True
        systems, rhs = _pattern_system(net, stable_mask, overflow_mask)
        result = solve_left(systems[0], rhs[0])
        if result.status is not SolveStatus.UNIQUE:
            raise SingularInnerSystemError(
                f"inner system is {result.status.value} for stable rows "
                f"{sorted(stable)} and overflow rows {sorted(overloaded)}"
            )
        below, _ = classify_nodes(result.x, net.mu)
        new_stable = below - overloaded
        solves.append((result.x, new_stable))
        if new_stable == stable:
            return solves
        stable = new_stable
    return None


def _solve_record(net, **kwargs):
    """``solve_overflow``'s (solution, trace), or the error it raised."""
    try:
        return solve_overflow(net, **kwargs)
    except TrafficFlowError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_solve(got, want):
    """The same error, or the same sets and counts with every rate vector
    within 1e-12 relative."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    (solution, trace), (want_solution, want_trace) = got, want
    assert (trace.outer_iterations, trace.inner_iterations_total) == (
        want_trace.outer_iterations,
        want_trace.inner_iterations_total,
    )
    assert [(s.outer, s.inner, s.stable, s.unstable) for s in trace.history] == [
        (s.outer, s.inner, s.stable, s.unstable) for s in want_trace.history
    ]
    assert solution.stable == want_solution.stable
    assert solution.unstable == want_solution.unstable
    pairs = [(s.rates, w.rates) for s, w in zip(trace.history, want_trace.history)]
    for x, y in pairs + [(solution.rates, want_solution.rates)]:
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def _cell_grids(sides):
    return [
        gen_example1(CellGridSpec(m=m, delta=d, epsilon=e))
        for m in sides
        for d, e in ((0.5, 0.5), (1.0, 0.2), (0.3, 0.9))
    ]


def test_reduced_stable_set_loop_matches_dense_reference(monkeypatch):
    # Reduced (and, from 33 rows on, banded) inner solves against the full
    # dense pattern systems: the same sets and counts, rates within 1e-12.
    cases = [(net, {}) for net in corpus(40) + _cell_grids((2, 3, 5))]
    cases += [(gen_example2(n), {"best_effort": True}) for n in range(1, 41)]
    banded = count_calls(monkeypatch, linalg, "_reduced_banded")
    got = [_solve_record(net, **kwargs) for net, kwargs in cases]
    # The band-native path ran (the m = 5 grids and the longer chains).
    assert banded or linalg._LAPACK is None
    monkeypatch.setattr(trafficflow.solvers, "_stable_set_loop", _dense_stable_set_loop)
    for (net, kwargs), result in zip(cases, got):
        _assert_same_solve(result, _solve_record(net, **kwargs))


def test_pattern_system_gathers_the_broadcast_rows_bit_for_bit():
    # Random disjoint stable and overflow masks, with rows in neither
    # (identity rows), on random networks, some with self-loops: the
    # gathered systems equal I - (P on stable rows + Q on overflow rows)
    # to the bit.
    rng = np.random.default_rng(19)
    nets = corpus(20, sizes=range(1, 13)) + [gen_example4(1.0)]
    for net in corpus(10, seed_base=50, sizes=range(2, 8)):
        loops = np.diag(rng.random(net.n) * (rng.random(net.n) < 0.5))
        nets.append(make_network(net.alpha, net.mu, net.p * 0.5 + loops / 2, net.q))
    for net in nets:
        role = rng.integers(0, 3, size=(16, net.n))
        stable, overflow = role == 0, role == 1
        systems, _ = _pattern_system(net, stable, overflow)
        coeff = np.where(stable[:, :, None], net.p, 0.0) + np.where(
            overflow[:, :, None], net.q, 0.0
        )
        assert systems.tobytes() == (np.eye(net.n) - coeff).tobytes()


def test_self_loop_grid_takes_the_equilibrated_band_path(monkeypatch):
    # Cell grids of more than 32 nodes with self-loops in P or Q: their
    # reduced systems have non-unit diagonals, so the banded steps compute
    # column scales from the gathered band.  Same sets and counts as the
    # dense reference, rates within 1e-12.
    rng = np.random.default_rng(61)
    nets = []
    for grid in _cell_grids((3, 5)):
        loops = np.diag(rng.random(grid.n) * (rng.random(grid.n) < 0.5))
        nets.append(make_network(grid.alpha, grid.mu, grid.p * 0.5 + loops / 2, grid.q))
        nets.append(make_network(grid.alpha, grid.mu, grid.p, grid.q * 0.5 + loops / 2))
    assert all(
        net.n > linalg.BAND_MIN_ROWS and not _routing(net).workspace.unit_scales for net in nets
    )
    banded = count_calls(monkeypatch, linalg, "_reduced_banded")
    got = [_solve_record(net) for net in nets]
    assert banded or linalg._LAPACK is None
    assert sum(not isinstance(record, str) for record in got) >= len(nets) // 2
    monkeypatch.setattr(trafficflow.solvers, "_stable_set_loop", _dense_stable_set_loop)
    for net, result in zip(nets, got):
        _assert_same_solve(result, _solve_record(net))


def _two_cycle(routes, rows, kl, ku):
    """``routes`` with two of its rows, j and k within the band, replaced
    by the rows ``e_j - e_k`` and ``e_k - e_j`` of a unit two-cycle: a
    singular ``I - C_RR`` with a unit diagonal and entries in [-1, 0]."""
    i = int(np.flatnonzero(np.diff(rows) <= min(kl, ku))[0])
    j, k = rows[i], rows[i + 1]
    routes = routes.copy()
    routes[[i, i + 1]] = 0.0
    routes[[i, i + 1], [j, k]] = 1.0
    routes[[i, i + 1], [k, j]] = -1.0
    return routes


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
@pytest.mark.parametrize("loops", [False, True])
def test_reused_workspace_matches_a_fresh_one(monkeypatch, loops):
    # A checked m = 5 cell-grid solve hands every step the same workspace;
    # its steps go dense, banded and dense again as r grows and shrinks.
    # With self-loops in P every step is equilibrated.  After them the same
    # workspace solves a singular banded system and a regular dense one.
    # Every step hands LAPACK the bytes that a fresh workspace would (the
    # band storage below its fill-in rows, which LAPACK sets itself) and
    # gets the same status and x bytes, and where it is dense those of
    # solve_left on the materialized system.  No rate vector the solve
    # returns, and no step solution, shares memory with the workspace or
    # with another, and the returned ones are read-only.
    handed = []
    kernel = linalg._lapack_solve

    def recorded(ws, r, x, diagonal):
        rhs, matrix, _ = ws.views(r)
        read = matrix[:, ws.band[0] :] if r > ws.dense_rows else matrix
        handed.append(read.tobytes() + rhs.tobytes())
        return kernel(ws, r, x, diagonal)

    monkeypatch.setattr(linalg, "_lapack_solve", recorded)

    def step(routes, rows, b, workspace):
        """solve_reduced's result and the bytes it handed LAPACK."""
        k = len(handed)
        return solve_reduced(routes, rows, b, workspace), handed[k:]

    calls = []

    def recording(routes, rows, b, workspace):
        result, inputs = step(routes, rows, b, workspace)
        calls.append((routes, rows, b, workspace, workspace.floats, result, inputs))
        return result.x if result.status is SolveStatus.UNIQUE else None

    monkeypatch.setattr(trafficflow.solvers, "_reduced_solution", recording)
    net = gen_example1(CellGridSpec(m=5, delta=0.5, epsilon=0.5))
    if loops:
        rng = np.random.default_rng(61)
        diagonal = np.diag(rng.random(net.n) * (rng.random(net.n) < 0.5))
        net = make_network(net.alpha, net.mu, net.p * 0.5 + diagonal / 2, net.q)
    solution, trace = solve_overflow(net)
    ws = calls[0][3]
    assert all(call[3] is ws for call in calls) and ws.unit_scales is not loops
    banded = "".join("b" if len(call[1]) > ws.dense_rows else "d" for call in calls)
    sizes = np.array([len(call[1]) for call in calls])
    assert "dbd" in banded and (np.diff(sizes) > 0).any() and (np.diff(sizes) < 0).any()
    # The singular system follows a larger one, whose band columns are
    # left after its own band.  Equilibrated, it is scaled down, so that
    # those columns, were they read, would change its scales.
    routes, rows, b = calls[banded.index("b")][:3]
    assert len(calls[-1][1]) > len(rows)
    singular = _two_cycle(routes, rows, *ws.band) * (1e-3 if loops else 1.0)
    for routes, rows, b in ((singular, rows, b), calls[banded.index("db") + 2][:3]):
        calls.append((routes, rows, b, ws, ws.floats, *step(routes, rows, b, ws)))
    assert calls[-2][5].status is not SolveStatus.UNIQUE
    assert len(calls[-2][1]) > ws.dense_rows >= len(calls[-1][1])
    for routes, rows, b, _, _, got, inputs in calls:
        want, fresh_inputs = step(routes, rows, b, linalg.Workspace(net.n, ws.band, ws.unit_scales))
        assert inputs == fresh_inputs
        wants = [want]
        if len(rows) <= ws.dense_rows:
            wants.append(solve_left(routes[:-1][:, rows], b[rows]))
        for want in wants:
            assert got.status is want.status
            assert (got.x is None) == (want.x is None)
            if want.x is not None:
                assert got.x.tobytes() == want.x.tobytes()
    buffers = {id(call[4]): call[4] for call in calls}.values()
    returned = [s.rates for s in trace.history] + [solution.rates]
    vectors = returned + [call[5].x for call in calls if call[5].x is not None]
    for k, v in enumerate(vectors):
        assert not any(np.shares_memory(v, buf) for buf in buffers)
        assert not any(np.shares_memory(v, other) for other in vectors[k + 1 :])
    assert not any(v.flags.writeable for v in returned)


@settings(max_examples=100)
@given(hard_networks())
def test_network_band_bounds_every_reduced_system(net):
    # Every reduced system I - C_RR the stable-set loop hands solve_reduced
    # is nonzero off its diagonal only within the band its workspace
    # states, the network's, and its routes end in the zero row that
    # out-of-band slots read.  These networks are small, so the band is
    # stated from 1 node on.
    systems = []

    def recording(routes, rows, b, workspace):
        assert not routes[-1].any()
        systems.append((routes[:-1][:, rows], workspace.band))
        return linalg._reduced_solution(routes, rows, b, workspace)

    with mock.patch.object(trafficflow.solvers, "BAND_MIN_ROWS", 0):
        with mock.patch.object(trafficflow.solvers, "_reduced_solution", recording):
            try:
                solve_overflow(net, best_effort=True, delegate_zero_overflow=False)
            except IsolatedClassError:
                return
            except TrafficFlowError:
                pass
        kl, ku = _network_band(net)
    assert systems
    for c, band in systems:
        assert band == (kl, ku)
        i, j = np.nonzero(c - np.diag(np.diag(c)))
        assert np.all(j - i <= kl) and np.all(i - j <= ku)


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
def test_checked_overflow_agrees_under_fallback_kernel(monkeypatch):
    # The fallback kernel ignores the band and factors every reduced
    # system dense: the same sets and counts, rates within 1e-12.  It
    # must really run: once for each inner step with rows to solve, the
    # stable set the step starts from and the pass's overloaded set (a
    # trace step's ``unstable`` when Q is not zero), and once for each
    # Neumann solve of the condition check.
    nets = _cell_grids((2, 3, 5)) + [gen_example2(n) for n in (4, 12, 20, 34)]
    fast = [_solve_record(net) for net in nets]
    eliminations = count_calls(monkeypatch, linalg, "_eliminate")
    neumann_solves = count_calls(monkeypatch, linalg, "solve_left")
    monkeypatch.setattr(linalg, "_kernel", linalg._eliminate)
    for net, want in zip(nets, fast):
        assert np.any(net.q)
        eliminations.clear()
        neumann_solves.clear()
        got = _solve_record(net)
        _assert_same_solve(got, want)
        if isinstance(got, str):  # the n = 34 chain's condition fails
            continue
        solved_rows, stable = 0, frozenset()
        for step in got[1].history:
            if step.inner == 1:
                stable = frozenset()
            solved_rows += bool(stable | step.unstable)
            stable = step.stable
        assert solved_rows > 0
        assert len(eliminations) == solved_rows + len(neumann_solves)


@pytest.mark.xfail(
    raises=NonConvergenceError,
    strict=True,
    reason="RESIDUAL_TOL is absolute, below the spacing of rates near 1e7",
)
def test_checked_overflow_certifies_a_large_cell_grid():
    # The m = 19 cell grid (n = 1444) has rates up to 1.0e7, where doubles
    # are 1.9e-9 apart: a max-norm residual below RESIDUAL_TOL = 1e-9 then
    # needs every large rate's residual to round to exactly 0.  The banded
    # solve leaves one at one spacing, 1.86e-9, and the check raises; the
    # dense solve happens to pass here, and fails at m = 22 and 28, where
    # the banded one passes.
    net = gen_example1(CellGridSpec(m=19, delta=0.5, epsilon=0.5))
    solution, _ = solve_overflow(net)
    assert solution.residual < 1e-9


def test_overflow_permutation_equivariant():
    rng = np.random.default_rng(51)
    for seed in range(15):
        net = gen_random(6, seed=seed)
        solution, _ = solve_overflow(net)
        perm = rng.permutation(6)
        pnet = make_network(
            net.alpha[perm],
            net.mu[perm],
            net.p[np.ix_(perm, perm)],
            net.q[np.ix_(perm, perm)],
        )
        psolution, _ = solve_overflow(pnet)
        assert np.max(np.abs(psolution.rates - solution.rates[perm])) < 1e-9


def test_goodman_massey_monotone_in_inputs():
    rng = np.random.default_rng(53)
    for net in map(zero_overflow, corpus(10, seed_base=900)):
        base, _ = solve_goodman_massey(net)
        for _ in range(5):
            bump = rng.random(net.n) * (rng.random(net.n) < 0.5)
            bumped = make_network(net.alpha + bump, net.mu, net.p)
            shifted, _ = solve_goodman_massey(bumped)
            assert np.all(shifted.rates >= base.rates - 1e-9)


def test_oracle_subcritical_triangle_unique():
    verdict = enumerate_solutions(gen_example4(0.5))
    assert verdict.kind is OracleKind.UNIQUE
    assert verdict.patterns_checked == 8
    assert np.allclose(verdict.solutions[0], [2 / 3, 1 / 3, 0.0], atol=1e-9)


def test_oracle_boundary_triangle_continuum():
    verdict = enumerate_solutions(gen_example4(1.0))
    assert verdict.kind is OracleKind.CONTINUUM
    assert verdict.pattern == frozenset({2})
    assert np.allclose(verdict.base, [4 / 3, 2 / 3, 0.0], atol=1e-8)
    assert verdict.direction_note


def test_oracle_detects_multidimensional_continuum():
    # Two disjoint overflow cycles at exact capacity: the all-overloaded
    # pattern is singular with a two-parameter solution family.
    q = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    net = make_network(np.ones(4), np.ones(4), np.zeros((4, 4)), q)
    verdict = enumerate_solutions(net)
    assert verdict.kind is OracleKind.CONTINUUM
    assert residual(net, verdict.base, Equation.OVERFLOW) < 1e-8


def test_oracle_returned_solutions_satisfy_the_equation():
    nets = [gen_example4(a) for a in (0.25, 0.9, 1.1, 2.0)] + corpus(
        20, seed_base=1100, sizes=range(3, 7)
    )
    for net in nets:
        verdict = enumerate_solutions(net)
        for rates in verdict.solutions:
            assert residual(net, rates, Equation.OVERFLOW) < 1e-8
        if verdict.kind is OracleKind.CONTINUUM:
            assert residual(net, verdict.base, Equation.OVERFLOW) < 1e-8


def test_oracle_agrees_with_solver_on_corpus():
    for net in corpus(30, seed_base=1300):
        solution, _ = solve_overflow(net)
        verdict = enumerate_solutions(net)
        assert verdict.kind is OracleKind.UNIQUE
        assert np.max(np.abs(verdict.solutions[0] - solution.rates)) < 1e-7


def test_oracle_fed_overflow_two_cycle_has_no_solution():
    # Node 1's excess overflows to node 2 and back: no rate vector balances.
    net = make_network([3, 0], [1, 1], np.zeros((2, 2)), [[0, 1], [1, 0]])
    verdict = enumerate_solutions(net)
    assert verdict.kind is OracleKind.NO_SOLUTION
    assert verdict.patterns_checked == 4
    assert verdict.solutions == ()


def test_oracle_size_guard():
    net = make_network(np.ones(25), np.ones(25), np.zeros((25, 25)))
    with pytest.raises(OracleSizeError):
        enumerate_solutions(net)
