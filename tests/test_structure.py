import numpy as np
import pytest
from helpers import count_calls

import trafficflow.structure
from trafficflow import (
    CellGridSpec,
    ConditionStatus,
    characterize_classes,
    check_filled_or_drained,
    check_non_isolated,
    check_overflow_condition,
    communicating_classes,
    condition_report,
    gen_example1,
    gen_example3,
    gen_example4,
    gen_random,
    make_network,
    solve_goodman_massey,
    spectral_radius,
)

EQ12 = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def test_classes_of_example3():
    classes = communicating_classes(gen_example3().p)
    assert set(classes) == {frozenset({0, 1}), frozenset({2, 3})}


def test_classes_of_zero_matrix_are_singletons():
    classes = communicating_classes(np.zeros((3, 3)))
    assert set(classes) == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_classes_of_irreducible_matrix():
    assert communicating_classes(EQ12) == [frozenset({0, 1, 2})]


def _closure_classes(m):
    """Oracle: communicating classes via boolean transitive closure."""
    n = m.shape[0]
    reach = (m > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    groups = {}
    for i in range(n):
        key = frozenset(
            j for j in range(n) if reach[i, j] and reach[j, i]
        )
        groups[key] = True
    return set(groups)


def test_classes_match_transitive_closure_oracle():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        assert set(communicating_classes(m)) == _closure_classes(m)


def test_classes_topologically_ordered():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        classes = communicating_classes(m)
        position = {}
        for k, cls in enumerate(classes):
            for i in cls:
                position[i] = k
        for i in range(n):
            for j in range(n):
                if m[i, j] > 0 and position[i] != position[j]:
                    assert position[i] < position[j]


def test_characterize_example3():
    net = gen_example3()
    dec = characterize_classes(net)
    by_class = {cls: k for k, cls in enumerate(dec.classes)}
    first = by_class[frozenset({0, 1})]
    second = by_class[frozenset({2, 3})]
    assert dec.fillable[first] and not dec.ext_drainable[first]
    assert not dec.fillable[second]
    assert not dec.ext_drainable[second]
    assert dec.int_drainable[second]
    assert not dec.isolated[second]


def test_all_fillable_when_alpha_positive_everywhere():
    net = make_network([1, 1, 1], [1, 1, 1], np.zeros((3, 3)))
    dec = characterize_classes(net)
    assert all(dec.fillable)


def test_unfed_stochastic_cycle_is_isolated():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = make_network([0, 0], [1, 1], p)
    dec = characterize_classes(net)
    assert dec.isolated == (True,)
    assert not check_non_isolated(net)


def test_levels_are_access_depths():
    rng = np.random.default_rng(41)
    for seed in range(50):
        net = gen_random(int(rng.integers(2, 9)), seed=seed)
        dec = characterize_classes(net)
        for k, level in enumerate(dec.levels):
            if level == 0:
                continue
            accessed = any(
                dec.levels[j] <= level - 1
                and any(net.p[i, t] > 0 for i in dec.classes[j] for t in dec.classes[k])
                for j in range(len(dec.classes))
                if j != k
            )
            assert accessed


def test_condition_split_examples():
    e3 = gen_example3()
    assert check_non_isolated(e3) and not check_filled_or_drained(e3)
    assert check_non_isolated(gen_example4(1.0))


def test_filled_or_drained_implies_non_isolated():
    for seed in range(60):
        net = gen_random(3 + seed % 6, seed=seed)
        if check_filled_or_drained(net):
            assert check_non_isolated(net)


def test_non_isolated_invariant_under_relabeling():
    rng = np.random.default_rng(43)
    for seed in range(30):
        net = gen_random(6, seed=seed)
        perm = rng.permutation(6)
        pnet = make_network(
            net.alpha[perm],
            net.mu[perm],
            net.p[np.ix_(perm, perm)],
            net.q[np.ix_(perm, perm)],
        )
        assert check_non_isolated(net) == check_non_isolated(pnet)


def test_overflow_condition_witness_on_all_free_nodes():
    net = gen_example4(1.0)
    verdict = check_overflow_condition(net, frozenset())
    assert verdict.status is ConditionStatus.FAILS
    assert verdict.witness == frozenset({2})
    assert verdict.radius == pytest.approx(1.0, abs=1e-9)
    witness = sorted(verdict.witness)
    mixed = net.q.copy()
    mixed[witness] = net.p[witness]
    recheck = spectral_radius(mixed)
    assert recheck >= 1 - 1e-9


def test_overflow_condition_report_for_boundary_network():
    report = condition_report(gen_example4(1.0))
    assert report.gm_unstable == frozenset({0, 1})
    assert report.overflow_condition.status is ConditionStatus.FAILS
    assert report.overflow_condition.witness == frozenset({2})


def test_condition_report_characterizes_classes_once(monkeypatch):
    calls = count_calls(monkeypatch, trafficflow.structure, "characterize_classes")
    for net in (gen_example4(1.0), gen_example3(), gen_random(8, seed=11)):
        calls.clear()
        condition_report(net)
        assert len(calls) == 1


def test_overflow_condition_agrees_with_non_isolated_when_no_overflow():
    for seed in range(40):
        base = gen_random(3 + seed % 5, seed=seed)
        net = make_network(base.alpha, base.mu, base.p)
        solution, _ = solve_goodman_massey(net)
        verdict = check_overflow_condition(net, solution.unstable)
        assert verdict.holds() == check_non_isolated(net)


def test_overflow_condition_sufficient_for_strict_row_sums():
    net = gen_example1(CellGridSpec(m=2, delta=1.0, epsilon=1.0))
    solution, _ = solve_goodman_massey(net)
    verdict = check_overflow_condition(net, solution.unstable)
    assert verdict.status is ConditionStatus.HOLDS_SUFFICIENT


def test_overflow_condition_marginal_near_radius_one():
    # A single self-loop just inside the boundary: no stochastic block
    # certifies radius 1, and the estimate sits within the margin.
    net = make_network([0.0], [1.0], [[1.0 - 1e-10]])
    verdict = check_overflow_condition(net, frozenset())
    assert verdict.status is ConditionStatus.MARGINAL
    assert verdict.witness == frozenset({0})


def test_overflow_condition_unknown_beyond_enumeration_limit():
    n = 23
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] = 1.0  # one stochastic cycle, certificate-proof
    net = make_network(np.full(n, 0.01), np.ones(n), p)
    verdict = check_overflow_condition(net, frozenset())
    assert verdict.status is ConditionStatus.UNKNOWN
    assert "23 free nodes" in verdict.reason


def test_condition_report_without_non_isolated_is_unknown():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = condition_report(make_network([0, 0], [1, 1], p))
    assert not report.non_isolated
    assert report.overflow_condition.status is ConditionStatus.UNKNOWN


def test_characterize_rejects_mismatched_decomposition():
    with pytest.raises(ValueError):
        characterize_classes(gen_example3(), [frozenset({0, 1})])


def test_overflow_condition_rejects_bad_unstable_set():
    with pytest.raises(ValueError):
        check_overflow_condition(gen_example3(), {7})
