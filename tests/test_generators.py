import numpy as np
import pytest

from trafficflow import (
    CellGridSpec,
    ConditionStatus,
    check_overflow_condition,
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_random,
    solve_goodman_massey,
    validate_network,
)
from trafficflow.generators import _SplitMix64, _uniforms


def _cell_node(m, col, row, role):
    return 4 * (col * m + row) + role


def test_cell_grid_sizes():
    assert gen_example1(CellGridSpec(m=3, delta=0.0, epsilon=0.0)).n == 36
    assert gen_example1(CellGridSpec(m=5, delta=1.0, epsilon=1.0)).n == 100


def test_cell_grid_valid_with_strict_row_sums_on_parameter_grid():
    for m in (2, 3):
        for delta in (0.0, 0.37, 1.0):
            for eps in (0.0, 0.58, 1.0):
                net = gen_example1(CellGridSpec(m=m, delta=delta, epsilon=eps))
                assert validate_network(net) == []
                assert np.all(net.p.sum(axis=1) < 1.0)
                assert np.all(net.q.sum(axis=1) < 1.0)
                assert net.alpha[0] == net.n**2
                assert np.all(net.mu == 1.0)


def test_cell_grid_cross_cell_overflow_links():
    # m=3 layout: overflow runs from the south-east node of a cell to the
    # south-west node of its eastern neighbor, and there is no such link
    # into a cell on the western boundary.
    net = gen_example1(CellGridSpec(m=3, delta=0.5, epsilon=0.4))
    assert net.q[19, 28] == pytest.approx(0.99 * 0.4)  # node 20 -> node 29
    assert net.q[7, 16] == pytest.approx(0.99 * 0.4)  # node 8 -> node 17
    # node 5 sits on the western boundary: it receives the in-cell link
    # from node 7 and the northward link from node 2, but no west link
    # because there is no cell on that side.
    inflow_sources = np.flatnonzero(net.q[:, 4])
    assert set(inflow_sources) == {1, 6}


def test_cell_grid_cross_cell_routing_links():
    net = gen_example1(CellGridSpec(m=3, delta=0.5, epsilon=0.0))
    assert net.p[6, 17] == pytest.approx(0.19 * 0.5)  # node 7 -> node 18
    assert net.p[18, 29] == pytest.approx(0.19 * 0.5)  # node 19 -> node 30
    assert net.p[17, 20] == pytest.approx(0.79 * 0.5)  # node 18 -> node 21
    assert net.p[20, 17] == pytest.approx(0.19 * 0.5)  # node 21 -> node 18


def test_cell_grid_interior_cells_share_one_pattern():
    nets = {m: gen_example1(CellGridSpec(m=m, delta=0.7, epsilon=0.3)) for m in (3, 4)}

    def interior_rows(net, m, col, row):
        nodes = [_cell_node(m, col, row, r) for r in range(4)]
        profile = []
        for node in nodes:
            for matrix in (net.p, net.q):
                targets = np.flatnonzero(matrix[node])
                profile.append(
                    tuple(
                        (int(t) - node, float(matrix[node, t])) for t in targets
                    )
                )
        return tuple(profile)

    reference = None
    for m, net in nets.items():
        for col in range(1, m - 1):
            for row in range(1, m - 1):
                profile = interior_rows(net, m, col, row)
                if reference is None:
                    reference = profile
                else:
                    # Offsets differ across m because columns stack m cells.
                    assert len(profile) == len(reference)
                    for got, want in zip(profile, reference):
                        assert [w for _, w in got] == [w for _, w in want]


def test_worst_case_chain_constants():
    net = gen_example2(3)
    assert np.allclose(net.mu, [7 / 6, 13 / 12, 1 / 6])
    expected_q = 1 - 2.0**-4
    assert expected_q == 0.9375
    assert net.q[1, 0] == expected_q
    assert net.q[2, 1] == expected_q


def test_worst_case_chain_row_sum_profile():
    for n in (2, 4, 9):
        net = gen_example2(n)
        q_n = 1 - 2.0 ** -(n + 1)
        p_sums = net.p.sum(axis=1)
        q_sums = net.q.sum(axis=1)
        assert np.all(p_sums[:-1] == 1.0) and p_sums[-1] == 0.0
        assert q_sums[0] == 0.0 and np.all(q_sums[1:] == q_n)


def test_worst_case_chain_single_node():
    net = gen_example2(1)
    assert net.mu[0] == 0.5
    assert np.array_equal(net.p, [[0.0]])
    assert np.array_equal(net.q, [[0.0]])


def test_two_class_network_constants():
    net = gen_example3()
    assert np.array_equal(net.alpha, [1, 0, 0, 0])
    assert np.array_equal(net.mu, [1, 1, 1, 1])
    assert np.array_equal(
        net.p,
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0.5, 0, 0.5], [0, 0, 1, 0]],
    )
    assert not np.any(net.q)


def test_overflow_triangle_constants():
    net = gen_example4(1.0)
    assert np.allclose(net.mu, [4 / 3, 2 / 3, 1.0])
    assert np.array_equal(net.q[2], [0, 0, 0])
    with pytest.raises(ValueError):
        gen_example4(0.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        CellGridSpec(m=1, delta=0.5, epsilon=0.5)
    with pytest.raises(ValueError):
        CellGridSpec(m=3, delta=1.5, epsilon=0.5)


def test_random_networks_deterministic():
    a = gen_random(10, seed=42, p_density=0.4, q_density=0.6, leak=0.2)
    b = gen_random(10, seed=42, p_density=0.4, q_density=0.6, leak=0.2)
    assert a == b
    c = gen_random(10, seed=43, p_density=0.4, q_density=0.6, leak=0.2)
    assert a != c


def test_random_networks_valid_and_certified():
    for seed in range(30):
        net = gen_random(3 + seed % 8, seed=seed)
        assert validate_network(net) == []
        row_sums = np.concatenate([net.p.sum(axis=1), net.q.sum(axis=1)])
        nonzero = row_sums[row_sums > 0]
        assert np.allclose(nonzero, 0.75, atol=1e-12)
        solution, _ = solve_goodman_massey(net)
        verdict = check_overflow_condition(net, solution.unstable)
        assert verdict.status is ConditionStatus.HOLDS_SUFFICIENT


def test_random_network_parameter_validation():
    with pytest.raises(ValueError):
        gen_random(0, seed=1)
    with pytest.raises(ValueError):
        gen_random(3, seed=1, p_density=1.5)
    with pytest.raises(ValueError):
        gen_random(3, seed=1, leak=0.0)


def _reference_routing(rng, n, density, leak):
    """``gen_random``'s draw order, one scalar draw at a time."""
    m = np.zeros((n, n))
    for i in range(n):
        included = [j for j in range(n) if j != i and rng.uniform() < density]
        if not included:
            continue
        weights = np.array([rng.uniform() for _ in included])
        total = weights.sum()
        if total <= 0:
            continue
        m[i, included] = weights * (1.0 - leak) / total
    return m


def _reference_random(n, seed, p_density, q_density, leak):
    rng = _SplitMix64(seed)
    p = _reference_routing(rng, n, p_density, leak)
    q = _reference_routing(rng, n, q_density, leak)
    alpha = np.zeros(n)
    position = min(int(rng.uniform() * n), n - 1)
    alpha[position] = 0.1 + rng.uniform()
    mu = np.array([0.5 + rng.uniform() for _ in range(n)])
    return alpha, mu, p, q


def test_random_networks_match_the_scalar_stream_byte_for_byte():
    # The vectorized draws against _SplitMix64, one draw at a time, with
    # seeds past 2**63 and negative ones reduced modulo 2**64.  From
    # about 45 nodes a network takes more than one block of draws.
    seeds = (0, 2**63 + 5, -1, -(2**40) - 3)
    for seed in seeds:
        rng = _SplitMix64(seed)
        stream = [rng.uniform() for _ in range(50)]
        assert _uniforms(seed, 0, 50).tolist() == stream
        assert _uniforms(seed, 17, 9).tolist() == stream[17:26]
    for n in [*range(1, 31), 50, 70]:
        for density in (0.0, 0.3, 1.0):
            for seed in seeds:
                net = gen_random(n, seed, density, 1.0 - density, leak=0.1)
                want = _reference_random(n, seed, density, 1.0 - density, 0.1)
                for got, expected in zip((net.alpha, net.mu, net.p, net.q), want):
                    assert got.tobytes() == expected.tobytes()
