import numpy as np
import pytest
from helpers import (
    check_gm_trace,
    check_trace,
    corpus,
    count_calls,
    first_solve_producing,
    traces_identical,
    zero_overflow,
)

import trafficflow.solvers
import trafficflow.structure
from trafficflow import (
    CellGridSpec,
    ConditionNotVerifiedError,
    Equation,
    IsolatedClassError,
    OracleKind,
    OracleSizeError,
    SpectralRadiusAtLeastOneError,
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
    solve_overflow,
    tarski_fixed_point,
)


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
    with pytest.raises(SpectralRadiusAtLeastOneError):
        solve_jackson(gen_example3())


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
        assert traces_identical(gm_trace, ov_trace)
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
        assert traces_identical(trace, best_effort_trace)


def test_checked_overflow_repeats_no_solve(monkeypatch):
    # The condition is checked against the first outer pass, so a checked
    # solve makes one linear solve per trace step and characterizes the
    # classes once.
    nets = corpus(6, seed_base=700) + [
        zero_overflow(gen_random(7, seed=3)),
        gen_example1(CellGridSpec(m=2, delta=0.5, epsilon=0.5)),
        gen_example1(CellGridSpec(m=3, delta=1.0, epsilon=0.2)),
    ]
    solves = count_calls(monkeypatch, trafficflow.solvers, "solve_left")
    characterizations = count_calls(
        monkeypatch, trafficflow.structure, "characterize_classes"
    )
    for net in nets:
        solves.clear()
        characterizations.clear()
        _, trace = solve_overflow(net)
        assert len(solves) == trace.inner_iterations_total
        assert len(characterizations) == 1


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


def test_oracle_size_guard():
    net = make_network(np.ones(25), np.ones(25), np.zeros((25, 25)))
    with pytest.raises(OracleSizeError):
        enumerate_solutions(net)
