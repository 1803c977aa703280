import numpy as np
import pytest
from helpers import count_calls, enumerate_overflow_condition, hard_networks

from hypothesis import given, settings

import trafficflow.structure
from trafficflow import (
    CellGridSpec,
    ConditionStatus,
    characterize_classes,
    check_overflow_condition,
    communicating_classes,
    condition_report,
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_random,
    make_network,
    solve_goodman_massey,
    spectral_radius,
)
from trafficflow.linalg import RADIUS_MARGIN
from trafficflow.network import ROW_SUM_TOL
from trafficflow.structure import isolated_classes

EQ12 = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def test_classes_of_example3():
    classes = communicating_classes(gen_example3().p)
    assert set(classes) == {frozenset({0, 1}), frozenset({2, 3})}


def test_classes_of_zero_matrix_are_singletons():
    classes = communicating_classes(np.zeros((3, 3)))
    assert set(classes) == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_classes_of_irreducible_matrix():
    assert communicating_classes(EQ12) == [frozenset({0, 1, 2})]


def _reachability(m):
    """Oracle: reach[i, j] iff j is reachable from i in zero or more steps."""
    n = m.shape[0]
    reach = (m > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def _closure_classes(m):
    """Oracle: communicating classes via boolean transitive closure."""
    n = m.shape[0]
    reach = _reachability(m)
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
    assert not dec.non_isolated


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


def _class_flags_oracle(net, classes):
    """Oracle: every ClassDecomposition field except the classes, read
    off the definitions node by node, for the classes in the given order."""
    fed = _reachability(net.p)[net.alpha > 0].any(axis=0)
    row_sums = net.p.sum(axis=1)

    def routes(src, dst):
        return any(net.p[i, j] > 0 for i in src for j in dst)

    def level(k):
        # Longest chain of classes ending at class k, by plain recursion.
        return max(
            (
                level(j) + 1
                for j in range(len(classes))
                if j != k and routes(classes[j], classes[k])
            ),
            default=0,
        )

    outside = [frozenset(range(net.n)) - cls for cls in classes]
    fillable = tuple(bool(any(fed[i] for i in cls)) for cls in classes)
    ext = tuple(
        bool(any(row_sums[i] < 1.0 - ROW_SUM_TOL for i in cls)) for cls in classes
    )
    internal = tuple(routes(cls, rest) for cls, rest in zip(classes, outside))
    return {
        "fillable": fillable,
        "ext_drainable": ext,
        "int_drainable": internal,
        "isolated": tuple(not (f or e or d) for f, e, d in zip(fillable, ext, internal)),
        "levels": tuple(level(k) for k in range(len(classes))),
    }


def test_class_flags_match_closure_oracle():
    # Sparse routing gives many classes; zero input on some nodes and rows
    # rescaled to sum to 1 leave some closed classes unfed and undrained.
    rng = np.random.default_rng(59)
    isolated = multi_class = 0
    for _ in range(160):
        n = int(rng.integers(1, 10))
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
        sums = p.sum(axis=1)
        full = (sums > 0) & (rng.random(n) < 0.6)
        p[full] /= sums[full, None]
        p[~full] *= 0.9 / np.maximum(sums[~full], 1.0)[:, None]
        alpha = rng.random(n) * (rng.random(n) < 0.3)
        net = make_network(alpha, np.ones(n), p)
        dec = characterize_classes(net)
        closure = _closure_classes(net.p)
        assert set(dec.classes) == closure and len(dec.classes) == len(closure)
        expected = _class_flags_oracle(net, dec.classes)
        for field, value in expected.items():
            assert getattr(dec, field) == value, field
        isolated += sum(dec.isolated)
        multi_class += len(dec.classes) > 1
    assert isolated >= 10 and multi_class >= 100


def _isolated_read_off(net):
    """The isolated classes of ``characterize_classes(net)``, in its order."""
    dec = characterize_classes(net)
    return [cls for cls, iso in zip(dec.classes, dec.isolated) if iso]


def test_isolated_classes_match_the_decomposition(monkeypatch):
    # Sparse routing with every row of P summing to 0.99, or each to 1,
    # 1 - 1e-13 (no leak by ROW_SUM_TOL) or 0.99: both branches of
    # isolated_classes run, the one with no class decomposition when
    # every row leaks, and some networks have isolated classes.
    rng = np.random.default_rng(83)
    decompositions = count_calls(monkeypatch, trafficflow.structure, "characterize_classes")
    skipped = isolated = 0
    for k in range(200):
        n = int(rng.integers(1, 10))
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        sums = p.sum(axis=1)
        target = rng.choice([1.0, 1.0 - 1e-13, 0.99], size=n) if k % 2 else np.full(n, 0.99)
        p *= np.where(sums > 0, target / np.where(sums > 0, sums, 1.0), 0.0)[:, None]
        net = make_network(rng.random(n) * (rng.random(n) < 0.2), np.ones(n), p)
        decompositions.clear()
        got = isolated_classes(net)
        skipped += not decompositions
        assert got == _isolated_read_off(net)
        isolated += bool(got)
    assert skipped >= 50 and isolated >= 10


@settings(max_examples=200)
@given(hard_networks())
def test_isolated_classes_match_the_decomposition_on_hard_networks(net):
    assert isolated_classes(net) == _isolated_read_off(net)


def test_condition_split_examples():
    e3 = gen_example3()
    dec = characterize_classes(e3)
    assert dec.non_isolated and not dec.filled_or_drained
    assert characterize_classes(gen_example4(1.0)).non_isolated


def test_filled_or_drained_implies_non_isolated():
    for seed in range(60):
        net = gen_random(3 + seed % 6, seed=seed)
        dec = characterize_classes(net)
        if dec.filled_or_drained:
            assert dec.non_isolated


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
        assert (
            characterize_classes(net).non_isolated
            == characterize_classes(pnet).non_isolated
        )


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
        assert verdict.holds() == characterize_classes(net).non_isolated


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
    # Every node overloaded leaves one mix, Q, whose rows of s/4 give it
    # radius exactly s = 1 - RADIUS_MARGIN: a tie is not below the margin.
    s = 1.0 - RADIUS_MARGIN
    tie = make_network(np.ones(4), np.ones(4), np.zeros((4, 4)), np.full((4, 4), s / 4))
    verdict = check_overflow_condition(tie, frozenset(range(4)))
    assert verdict.status is ConditionStatus.MARGINAL
    assert verdict.witness == frozenset()


def test_overflow_condition_holds_when_envelope_chains_near_critical_classes():
    # Every class of the envelope max(P, Q) has radius 1 - 2e-9, but its
    # row 3 chains the self-loop of Q into the 2-cycle of Q through P, so
    # its Neumann values reach about 1e18 and certificate 2 declines.  No
    # single mix takes both entries of row 3, and policy iteration finds
    # that the condition holds.
    w = 1.0 - 2e-9
    p = np.zeros((3, 3))
    p[2, 0] = 1.0
    q = np.array([[0, w, 0], [w, 0, 0], [0, 0, w]])
    net = make_network(np.ones(3), np.ones(3), p, q)
    assert check_overflow_condition(net, frozenset()).holds()


def test_overflow_condition_fails_on_stochastic_cycle_of_23_free_nodes():
    n = 23
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] = 1.0  # one stochastic cycle, certificate-proof
    net = make_network(np.full(n, 0.01), np.ones(n), p)
    verdict = check_overflow_condition(net, frozenset())
    assert verdict.status is ConditionStatus.FAILS
    assert verdict.witness == frozenset(range(n))
    assert verdict.radius == 1.0


def _near_stochastic_family(rng, n):
    """Network whose P and Q rows each have 0-3 random entries scaled to
    sum to 1, 0.99, 0.9 or 0.6; single-entry rows summing to 1 make
    stochastic cycles common."""
    mats = []
    for _ in range(2):
        m = np.zeros((n, n))
        for i in range(n):
            k = int(rng.integers(0, min(n, 3) + 1))
            if k:
                cols = rng.choice(n, size=k, replace=False)
                w = rng.random(k) + 0.05
                m[i, cols] = w / w.sum() * rng.choice([1.0, 0.99, 0.9, 0.6])
        mats.append(m)
    return make_network(np.ones(n), np.ones(n), *mats)


def _assert_agrees_with_enumeration(net, gm_unstable):
    verdict = check_overflow_condition(net, gm_unstable)
    expected = enumerate_overflow_condition(net, gm_unstable)
    if verdict.status is ConditionStatus.HOLDS_SUFFICIENT:
        assert expected.status is ConditionStatus.HOLDS
    else:
        assert (verdict.status, verdict.witness, verdict.radius) == (
            expected.status,
            expected.witness,
            expected.radius,
        )
    return verdict.status


def test_overflow_condition_agrees_with_enumeration():
    rng = np.random.default_rng(53)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(1, 9))
        unstable = frozenset(int(i) for i in np.flatnonzero(rng.random(n) < 0.3))
        seen.add(_assert_agrees_with_enumeration(_near_stochastic_family(rng, n), unstable))
    assert seen >= {
        ConditionStatus.HOLDS,
        ConditionStatus.HOLDS_SUFFICIENT,
        ConditionStatus.FAILS,
    }
    for n in range(2, 13):
        net = gen_example2(n)
        assert _assert_agrees_with_enumeration(net, condition_report(net).gm_unstable) in (
            ConditionStatus.HOLDS,
            ConditionStatus.HOLDS_SUFFICIENT,
        )
    triangle = gen_example4(1.0)
    for unstable in (frozenset(), frozenset({0, 1})):
        assert _assert_agrees_with_enumeration(triangle, unstable) is ConditionStatus.FAILS
    self_loop = make_network([0.0], [1.0], [[1.0 - 1e-10]])
    assert _assert_agrees_with_enumeration(self_loop, frozenset()) is ConditionStatus.MARGINAL


def test_overflow_condition_on_long_chains():
    # The 2-cycle between nodes 1 and 2 weighs 1 - 2**-(n+1): radius
    # 1 - 2**-(n+2) is inside the margin at n = 28 and rounds to a
    # stochastic block at n = 40.
    verdict = condition_report(gen_example2(28)).overflow_condition
    assert verdict.status is ConditionStatus.MARGINAL
    assert verdict.witness == frozenset({0})
    verdict = condition_report(gen_example2(40)).overflow_condition
    assert verdict.status is ConditionStatus.FAILS
    assert verdict.witness == frozenset({0})
    assert verdict.radius == 1.0


def test_condition_report_without_non_isolated_is_unknown():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = condition_report(make_network([0, 0], [1, 1], p))
    assert not report.non_isolated
    assert report.overflow_condition.status is ConditionStatus.UNKNOWN


def test_overflow_condition_rejects_bad_unstable_set():
    with pytest.raises(ValueError):
        check_overflow_condition(gen_example3(), {7})
