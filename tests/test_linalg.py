import numpy as np
import pytest

from trafficflow import (
    SolveStatus,
    gen_example3,
    gen_example4,
    has_stochastic_class,
    solve_left,
    spectral_radius,
)

EQ12 = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def test_solve_left_identity():
    b = np.array([1.0, -2.0, 3.0])
    result = solve_left(np.eye(3), b)
    assert result.status is SolveStatus.UNIQUE
    assert np.allclose(result.x, b, atol=1e-15)


def test_solve_left_open_network_system():
    net = gen_example4(0.5)
    result = solve_left(np.eye(3) - net.p, net.alpha)
    assert result.status is SolveStatus.UNIQUE
    assert np.allclose(result.x, [2 / 3, 1 / 3, 0.0], atol=1e-12)


def test_solve_left_singular_classification():
    system = np.eye(3) - EQ12
    consistent = solve_left(system, np.array([1.0, 0.0, -1.0]))
    inconsistent = solve_left(system, np.array([2.0, 0.0, -1.0]))
    assert consistent.status is SolveStatus.SINGULAR_CONSISTENT
    assert inconsistent.status is SolveStatus.SINGULAR_INCONSISTENT


def test_solve_left_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        a = rng.standard_normal((n, n)) + 2 * np.eye(n)
        b = rng.standard_normal(n)
        result = solve_left(a, b)
        assert result.status is SolveStatus.UNIQUE
        res = np.max(np.abs(result.x @ a - b))
        assert res <= 1e-9 * (1 + np.max(np.abs(b)))


def test_solve_left_neumann_nonnegativity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        m = rng.random((n, n))
        m = m / m.sum(axis=1, keepdims=True) * rng.random()
        if spectral_radius(m) >= 1 - 1e-6:
            continue
        b = rng.random(n)
        result = solve_left(np.eye(n) - m, b)
        assert result.status is SolveStatus.UNIQUE
        assert np.min(result.x) >= -1e-10


def test_solve_left_rejects_non_square():
    with pytest.raises(ValueError):
        solve_left(np.zeros((2, 3)), np.zeros(2))


def test_spectral_radius_fixed_points():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.eye(4)) == 1.0
    assert spectral_radius(EQ12) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(np.array([[0.0, 0.5], [1.0, 0.0]])) == pytest.approx(
        np.sqrt(0.5), abs=1e-9
    )


def test_spectral_radius_nilpotent_shift():
    shift = np.diag(np.ones(4), k=1)
    assert spectral_radius(shift) == 0.0


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))


def test_spectral_radius_matches_dense_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.6) * 2 * rng.random()
        mine = spectral_radius(m)
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert mine == pytest.approx(ref, abs=1e-9 * max(1.0, ref))


def test_spectral_radius_monotone_under_row_masking():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        rows = [i for i in range(n) if rng.random() < 0.5]
        masked = np.zeros_like(m)
        masked[rows] = m[rows]
        assert spectral_radius(masked) <= spectral_radius(m) + 1e-9


def test_spectral_radius_permutation_invariant():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        perm = rng.permutation(n)
        assert spectral_radius(m[np.ix_(perm, perm)]) == pytest.approx(
            spectral_radius(m), abs=1e-9
        )


def test_stochastic_class_certificate():
    assert has_stochastic_class(EQ12)
    assert has_stochastic_class(gen_example3().p)
    assert not has_stochastic_class(gen_example4(1.0).p)
    assert not has_stochastic_class(np.zeros((2, 2)))
