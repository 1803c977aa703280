import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import corpus, count_calls, small_networks
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trafficflow import (
    SolveStatus,
    enumerate_solutions,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_random,
    has_stochastic_class,
    make_network,
    solve_left,
    spectral_radius,
)
from trafficflow import linalg, solvers
from trafficflow.linalg import RADIUS_MARGIN, _solve_stack, neumann_values, solve_reduced
from trafficflow.solvers import _pattern_system

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
    # The consistent system returns its least-squares candidate.
    assert np.max(np.abs(consistent.x @ system - [1.0, 0.0, -1.0])) <= 1e-9 * 2.0
    assert inconsistent.x is None


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


def test_solve_left_rejects_non_finite_input():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            solve_left(np.array([[1.0, bad], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            solve_left(np.eye(2), np.array([1.0, -bad]))


def test_solve_left_pivot_test_is_relative_to_row_scale():
    # Scaling column j of a (row j of the transposed system) and b_j by
    # the same factor leaves x and the singularity verdict unchanged.
    factors = 10.0 ** np.array([-30, -10, 0, 10, 30])
    rng = np.random.default_rng(11)
    a = np.eye(5) - rng.random((5, 5)) / 10
    b = rng.random(5)
    scaled = solve_left(a * factors, b * factors)
    assert scaled.status is SolveStatus.UNIQUE
    assert np.allclose(scaled.x, solve_left(a, b).x, rtol=1e-12, atol=0)
    singular = (np.eye(3) - EQ12) * factors[[0, 2, 4]]
    assert solve_left(singular, np.zeros(3)).status is SolveStatus.SINGULAR_CONSISTENT


def test_solve_left_never_reports_a_non_finite_unique_solution():
    # Equilibrating by a column scale near the underflow limit overflows
    # b / scale; the solve must fall through to the singular branch.
    for a in ([[1e-320, 0.0], [0.0, 1.0]], [[1e-310, 1.0], [0.0, 1.0]]):
        with np.errstate(over="ignore", invalid="ignore"):
            result = solve_left(np.array(a), np.ones(2))
        assert result.status is not SolveStatus.UNIQUE
        assert result.x is None or np.all(np.isfinite(result.x))


def test_solve_left_equilibration_raises_no_warning():
    # A column scale near the underflow limit overflows the equilibrated
    # rhs; the solve classifies that silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_left(np.array([[1e-320, 0.0], [0.0, 1.0]]), np.ones(2))
    assert result.status is not SolveStatus.UNIQUE


def _routes(c, rows):
    """``solve_reduced``'s ``routes`` for the rows R = ``rows`` of C: C_R,
    then a row of zeros."""
    return np.concatenate([c[rows], np.zeros((1, len(c)))])


def _materialized(c, rows):
    """The reduced system ``I - C_RR`` as an array."""
    return np.eye(len(rows)) - c[np.ix_(rows, rows)]


def test_solve_reduced_equilibration_raises_no_warning():
    # A column scale near the underflow limit in the gathered system
    # overflows the equilibrated rhs; the solve classifies that silently,
    # as solve_left does.
    c = np.array([[1.0, 0.0, -5.0], [1e-320, 0.0, 0.0], [-7.0, 0.0, 0.0]])
    rows = np.array([0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_reduced(_routes(c, rows), rows, np.ones(3))
    want = solve_left(_materialized(c, rows), np.ones(2))
    assert result.status is want.status is not SolveStatus.UNIQUE


def test_solve_reduced_rejects_non_finite_input():
    for bad in (np.nan, np.inf):
        c = np.zeros((3, 3))
        c[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_reduced(_routes(c, [0, 2]), np.array([0, 2]), np.ones(3))
        # Entries outside the gathered rows play no part.
        rows = np.array([1, 2])
        assert solve_reduced(_routes(c, rows), rows, np.ones(3)).status is SolveStatus.UNIQUE
        # A non-finite rhs is rejected with or without equilibration.
        for unit_scales in (False, True):
            with pytest.raises(ValueError, match="finite"):
                solve_reduced(_routes(c, rows), rows, np.array([1.0, 1.0, bad]), None, unit_scales)


class TestEliminateFallback:
    """The solve_left and solve_reduced tests above, on the pure-Python
    fallback kernel."""

    @pytest.fixture(autouse=True)
    def _fallback(self, monkeypatch):
        monkeypatch.setattr(linalg, "_kernel", linalg._eliminate)

    test_solve_left_identity = staticmethod(test_solve_left_identity)
    test_solve_left_open_network_system = staticmethod(test_solve_left_open_network_system)
    test_solve_left_singular_classification = staticmethod(
        test_solve_left_singular_classification
    )
    test_solve_left_residual_contract = staticmethod(test_solve_left_residual_contract)
    test_solve_left_neumann_nonnegativity = staticmethod(test_solve_left_neumann_nonnegativity)
    test_solve_left_rejects_non_square = staticmethod(test_solve_left_rejects_non_square)
    test_solve_left_rejects_non_finite_input = staticmethod(
        test_solve_left_rejects_non_finite_input
    )
    test_solve_left_pivot_test_is_relative_to_row_scale = staticmethod(
        test_solve_left_pivot_test_is_relative_to_row_scale
    )
    test_solve_left_never_reports_a_non_finite_unique_solution = staticmethod(
        test_solve_left_never_reports_a_non_finite_unique_solution
    )
    test_solve_left_equilibration_raises_no_warning = staticmethod(
        test_solve_left_equilibration_raises_no_warning
    )
    test_solve_reduced_equilibration_raises_no_warning = staticmethod(
        test_solve_reduced_equilibration_raises_no_warning
    )
    test_solve_reduced_rejects_non_finite_input = staticmethod(
        test_solve_reduced_rejects_non_finite_input
    )


def test_kernels_solve_without_touching_their_arguments():
    # solve_left and the census hand both kernels the same stacked
    # (a, scale, b); the pivoting swaps rows of private copies only.
    rng = np.random.default_rng(5)
    kernels = [linalg._eliminate] + [linalg._solve_lapack] * (linalg._LAPACK is not None)
    for kernel in kernels:
        a = rng.random((3, 6, 6))
        args = (a, np.max(np.abs(a), axis=1), rng.random((3, 6)))
        copies = [arg.copy() for arg in args]
        x = kernel(*args)
        assert np.allclose(np.matmul(x[:, None, :], a)[:, 0], args[2], rtol=0, atol=1e-12)
        assert all(np.array_equal(arg, c) for arg, c in zip(args, copies))


def _census_systems(net):
    """Every census pattern system of ``net``, in mask order, as one stack."""
    stable = ((np.arange(2**net.n)[:, None] >> np.arange(net.n)) & 1).astype(bool)
    return stable, *_pattern_system(net, stable, ~stable)


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
def test_lapack_and_fallback_agree_on_census_systems(monkeypatch):
    # Every stable pattern of the census on networks of 3 to 8 nodes:
    # same status, and unique solutions within 1e-12 relative.
    checked = 0
    for net in corpus(40, sizes=range(3, 9)):
        _, systems, rhs = _census_systems(net)
        for system, b in zip(systems, rhs):
            results = []
            for kernel in (linalg._solve_lapack, linalg._eliminate):
                monkeypatch.setattr(linalg, "_kernel", kernel)
                results.append(solve_left(system, b))
            fast, slow = results
            assert fast.status is slow.status
            if fast.status is SolveStatus.UNIQUE:
                scale = np.max(np.abs(slow.x))
                assert np.max(np.abs(fast.x - slow.x)) <= 1e-12 * scale
                checked += 1
    assert checked > 1000


def test_stacked_census_solves_match_solve_left_bit_for_bit():
    # The census solves a whole stack of pattern systems with one kernel
    # call; each pattern must get solve_left's status and solution bits,
    # from a system built alone.
    singular = 0
    for net in corpus(40) + small_networks(400):
        stable, systems, rhs = _census_systems(net)
        stacked = _solve_stack(systems, rhs)
        for mask, stacked_system, x in zip(stable, systems, stacked):
            system, b = _pattern_system(net, mask[None], ~mask[None])
            assert system[0].tobytes() == stacked_system.tobytes()
            result = solve_left(system[0], b[0])
            assert (result.status is SolveStatus.UNIQUE) == np.isfinite(x).all()
            if result.status is SolveStatus.UNIQUE:
                assert result.x.tobytes() == x.tobytes()
            else:
                singular += 1
    assert singular > 100


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
def test_census_verdicts_agree_under_fallback_kernel(monkeypatch):
    # The overflow triangle at the benchmark's five input rates, and
    # random networks: same kinds and patterns, solutions within 1e-12.
    nets = [gen_example4(a) for a in (0.25, 0.5, 0.9, 1.0, 2.0)]
    nets += corpus(6, sizes=range(3, 9))
    fast = [enumerate_solutions(net) for net in nets]
    monkeypatch.setattr(linalg, "_kernel", linalg._eliminate)
    for net, want in zip(nets, fast):
        got = enumerate_solutions(net)
        assert (got.kind, got.patterns_checked, got.pattern) == (
            want.kind,
            want.patterns_checked,
            want.pattern,
        )
        assert len(got.solutions) == len(want.solutions)
        pairs = list(zip(got.solutions, want.solutions))
        if want.base is not None:
            pairs.append((got.base, want.base))
        for x, y in pairs:
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


#: The largest off-diagonal row sum that ``_dominant`` rejects.
_DOMINANCE_EDGE = 1.0 - 2 * linalg.PIVOT_TOL


def _edge_network(row_sum):
    """Two nodes that route and overflow all but ``1 - row_sum`` of their
    flow to each other: every pattern row has that off-diagonal sum."""
    c = np.array([[0.0, row_sum], [row_sum, 0.0]])
    return make_network([1.0, 0.0], [1.0, 1.0], c, c)


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
def test_census_chunks_take_one_stacked_call_only_when_dominant(monkeypatch):
    # A gen_random network's rows sum to 0.75 with a zero diagonal, so
    # every chunk of its census is one numpy.linalg.solve call and none
    # reaches the per-slice kernel (the only caller of _row_scales here).
    # The triangle's rows sum to 1, a self-loop leaves the diagonal below
    # 1, and a row sum at the edge is not below it: those chunks go to
    # the per-slice kernel, as every chunk does under the fallback kernel.
    stacked = count_calls(monkeypatch, np.linalg, "solve")
    per_slice = count_calls(monkeypatch, linalg, "_row_scales")
    for n in (3, 9, 11):
        chunk = solvers.CENSUS_CHUNK_ENTRIES // (n * n)
        enumerate_solutions(gen_random(n, seed=n))
        assert (len(stacked), len(per_slice)) == (-(-(2**n) // chunk), 0)
        stacked.clear()
    below_edge = np.nextafter(_DOMINANCE_EDGE, 0.0)
    enumerate_solutions(_edge_network(below_edge))
    assert (len(stacked), len(per_slice)) == (1, 0)
    self_loop = gen_random(4, seed=4)
    p = self_loop.p.copy()
    p[2, 2] = 0.1
    for net in (
        gen_example4(0.5),
        make_network(self_loop.alpha, self_loop.mu, p, self_loop.q),
        _edge_network(_DOMINANCE_EDGE),
    ):
        stacked.clear()
        per_slice.clear()
        enumerate_solutions(net)
        assert (len(stacked), len(per_slice)) == (0, 1)
    # The fallback kernel solves every stack itself.
    monkeypatch.setattr(linalg, "_kernel", linalg._eliminate)
    stacked.clear()
    enumerate_solutions(gen_random(5, seed=5))
    assert not stacked


@st.composite
def near_dominant_stacks(draw):
    """Stacks ``(a, b)`` of up to 4 systems ``I - C`` of up to 7 rows,
    C nonnegative and sometimes with a diagonal, each row of C scaled to
    an off-diagonal sum at, just below or past the dominance edge."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    weights = draw(
        arrays(np.float64, (k, n, n), elements=st.floats(0.0, 1.0), fill=st.nothing())
    )
    diagonal = np.arange(n)
    loops = weights[:, diagonal, diagonal] * draw(st.sampled_from([0.0, 0.0, 1e-3, 0.5]))
    weights[:, diagonal, diagonal] = 0.0
    below = np.nextafter(_DOMINANCE_EDGE, 0.0)
    targets = draw(
        arrays(
            np.float64,
            (k, n, 1),
            elements=st.sampled_from([0.0, 0.3, 0.75, below, _DOMINANCE_EDGE, 1.0, 1.5]),
        )
    )
    sums = weights.sum(axis=2, keepdims=True)
    c = np.divide(weights * targets, sums, out=np.zeros_like(weights), where=sums > 0)
    c[:, diagonal, diagonal] = loops
    b = draw(arrays(np.float64, (k, n), elements=st.floats(-10.0, 10.0)))
    return np.eye(n) - c, b


@settings(max_examples=150, deadline=None)
@given(near_dominant_stacks())
@example(((np.eye(3) - 0.25 * (1 - np.eye(3)))[None], np.array([[1.0, 2.0, 3.0]])))
@example(((np.eye(2) - _DOMINANCE_EDGE * (1 - np.eye(2)))[None], np.ones((1, 2))))
def test_dominant_stacks_are_unique_with_the_bits_of_solve_left(stack):
    # Whenever _dominant certifies a stack, each slice is UNIQUE to
    # solve_left and the stack's one call returns its bytes; any other
    # stack keeps the per-slice path's status and bits.
    a, b = stack
    x = _solve_stack(a, b)
    dominant = linalg._dominant(a, b)
    for system, rhs, got in zip(a, b, x):
        want = solve_left(system, rhs)
        if dominant:
            assert want.status is SolveStatus.UNIQUE
        assert (want.status is SolveStatus.UNIQUE) == np.isfinite(got).all()
        if want.status is SolveStatus.UNIQUE:
            assert got.tobytes() == want.x.tobytes()


def test_dominant_stack_rejects_non_finite_input():
    a = np.stack([np.eye(3) - 0.25 * (1 - np.eye(3))] * 2)
    for bad in (np.nan, np.inf, -np.inf):
        b = np.ones((2, 3))
        b[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            _solve_stack(a, b)
        nan_a = a.copy()
        nan_a[0, 1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            _solve_stack(nan_a, np.ones((2, 3)))


def _banded_routing(rng, n, kl, ku, diagonal=True):
    """A random n x n routing matrix C with rows summing to less than 1,
    nonzero only at ``[i, j]`` with ``-ku <= j - i <= kl`` (off the
    diagonal unless ``diagonal``), as in a pattern system, and a rhs."""
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    c = rng.random((n, n)) * ((offset <= ku) & (-offset <= kl) & (diagonal | (offset != 0)))
    c *= rng.random((n, 1)) / np.maximum(c.sum(axis=1, keepdims=True), 1e-300)
    return c, rng.standard_normal(n)


def _eighths_on_diagonal(c):
    """Round C's diagonal down to multiples of 1/8, in place, so that
    ``_scaled`` can scale it; rows still sum to less than 1."""
    np.fill_diagonal(c, np.floor(8 * c.diagonal()) / 8)


def _scaled(c, factors):
    """The routing matrix C' with ``I - C' = (I - C) * factors`` bit for
    bit, for a C whose diagonal holds multiples of 1/8 in [0, 1] and
    factors that are powers of two from 2**-50 up: each diagonal entry d
    of ``(I - C) * factors`` is then 0 or a multiple of 2**-53, and
    ``1 - (1 - d)`` gives d back.  It would not for, say, d = 1e-30:
    ``1 - d`` rounds to 1, so no C' gives that system."""
    n = len(c)
    want = (np.eye(n) - c) * factors
    scaled = np.eye(n) - want
    assert (np.eye(n) - scaled).tobytes() == want.tobytes()
    return scaled


def _assert_agree(got, want):
    """Both unique with x within 1e-12 relative, or both singular."""
    assert (got.status is SolveStatus.UNIQUE) == (want.status is SolveStatus.UNIQUE)
    if want.status is SolveStatus.UNIQUE:
        assert np.max(np.abs(got.x - want.x)) <= 1e-12 * np.max(np.abs(want.x))


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
def test_banded_and_dense_kernels_agree(monkeypatch):
    # Systems above the cut-over with a narrow band, solved banded: the
    # dense kernel's status and x within 1e-12 relative, on regular
    # systems, systems singular to the pivot test (a zero column with a
    # consistent or an inconsistent rhs, or a zero row) and copies with
    # their columns and rhs scaled by 2**-50 to 2**99 (about 1e-15 to
    # 1e30), compared with the unscaled system.
    banded = count_calls(monkeypatch, linalg, "_reduced_banded")
    rng = np.random.default_rng(29)
    n = linalg.BAND_MIN_ROWS + 9
    every = np.arange(n)
    factors = 2.0 ** rng.integers(-50, 100, size=n)
    bands = [(0, 0), (1, 0), (0, 1), (1, 1), (4, 2), (2, 7), (9, 3)]
    statuses = set()
    for kl, ku in bands:
        for kind in ("regular", "regular", "consistent", "inconsistent", "zero row"):
            c, b = _banded_routing(rng, n, kl, ku)
            _eighths_on_diagonal(c)
            j = int(rng.integers(n))
            if kind == "zero row":
                c[j] = np.eye(n)[j]
            elif kind != "regular":
                c[:, j] = np.eye(n)[j]
                b[j] = 0.0 if kind == "consistent" else 1.0
            want = solve_left(np.eye(n) - c, b)
            got = solve_reduced(_routes(c, every), every, b, (kl, ku))
            assert got.status is want.status
            _assert_agree(got, want)
            # Scaling can move a singular system's consistency verdict (its
            # residual test is absolute) but not its pivot test.
            scaled = _scaled(c, factors)
            _assert_agree(solve_reduced(_routes(scaled, every), every, b * factors, (kl, ku)), want)
            statuses.add(want.status)
        # Reduced systems, as the stable-set loop gathers them: still
        # above the cut-over, and within the band of the whole.
        for _ in range(3):
            c, b = _banded_routing(rng, n, kl, ku)
            rows = np.sort(rng.choice(n, size=n - 5, replace=False))
            want = solve_left(_materialized(c, rows), b[rows])
            _assert_agree(solve_reduced(_routes(c, rows), rows, b, (kl, ku)), want)
    assert statuses == set(SolveStatus)
    assert len(banded) == 13 * len(bands)
    # A band too wide for its size, a system at the cut-over, and the
    # fallback kernel all factor dense: the same bits as with no band.
    cases = [(n, (n // 2, 1)), (linalg.BAND_MIN_ROWS, (1, 1))]
    for size, band in cases:
        c, b = _banded_routing(rng, size, *band)
        every = np.arange(size)
        got = solve_reduced(_routes(c, every), every, b, band)
        assert got.x.tobytes() == solve_left(np.eye(size) - c, b).x.tobytes()
    monkeypatch.setattr(linalg, "_kernel", linalg._eliminate)
    c, b = _banded_routing(rng, n, 1, 1)
    every = np.arange(n)
    got = solve_reduced(_routes(c, every), every, b, (1, 1))
    assert got.x.tobytes() == solve_left(np.eye(n) - c, b).x.tobytes()
    assert len(banded) == 13 * len(bands)


def _band_reference(a, b, kl, ku):
    """The banded kernel on the array ``a``, its band storage filled entry
    by entry: ``solve_reduced``'s result, by another route."""
    n = len(b)
    scale = linalg._row_scales(a, b)
    buf, ab, x = linalg._band_buffer(n, kl, ku)
    for col in range(n):
        for row in range(max(0, col - ku), min(n, col + kl + 1)):
            ab[col, kl + ku + row - col] = a[col, row] / scale[row]
    x[:] = b / scale
    x = linalg._gbsv(buf, ab, x, kl, ku)
    if np.isfinite(x).all():
        return linalg.LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    return linalg._solve_singular(a, b)


def _make_singular(rng, c, rows, reach=None):
    """Make ``I - C_RR`` singular: by a unit self-loop, which leaves a zero
    row; or, keeping C's diagonal zero, by a two-cycle of unit routes
    between rows at most ``reach`` apart, whose rows of ``I - C_RR`` are
    ``e_j - e_k`` and ``e_k - e_j``.  Within a band with ``kl`` or ``ku``
    0, ``C_RR`` is triangular with a zero diagonal and cannot be made so;
    then C stays as it is."""
    n = len(c)
    if reach is None:
        j = rows[int(rng.integers(len(rows)))]
        c[j] = np.eye(n)[j]
        return
    near = np.flatnonzero(np.diff(rows) <= reach)
    if reach > 0 and len(near):
        i = near[int(rng.integers(len(near)))]
        j, k = rows[i], rows[i + 1]
        c[[j, k]] = np.eye(n)[[k, j]]


@pytest.mark.skipif(linalg._LAPACK is None, reason="numpy bundles no ILP64 OpenBLAS")
@pytest.mark.parametrize("unit_scales", [True, False])
def test_reduced_gather_matches_the_materialized_system_bit_for_bit(monkeypatch, unit_scales):
    # solve_reduced gathers its system from C's rows; the materialized
    # I - C_RR, solved by solve_left where the system is factored dense
    # and by the band kernel filled entry by entry where it is banded,
    # gives the same status and the same bytes, and hands LAPACK the same
    # bytes: band slots outside the system hold +0.0.  With unit_scales,
    # C has a zero diagonal and entries in [0, 1] and equilibration is
    # skipped; without, C has self-loops and columns scaled by up to 1e3,
    # and the scales come from the gathered band.
    banded = count_calls(monkeypatch, linalg, "_reduced_banded")
    inputs = []
    for name in ("_gesv", "_gbsv"):
        kernel = getattr(linalg, name)

        def recorded(buf, m, x, *band, kernel=kernel):
            inputs.append(m.tobytes() + x.tobytes())
            return kernel(buf, m, x, *band)

        monkeypatch.setattr(linalg, name, recorded)
    rng = np.random.default_rng(37)
    cut = linalg.BAND_MIN_ROWS
    # (n, r, kl, ku): r = n keeps the first and last node; kl or ku = 0;
    # the smallest banded order; 2 kl + ku + 1 = r - 1, the widest banded
    # band; and, factored dense, r at the cut-over and 2 kl + ku + 1 = r.
    cases = [
        (cut + 9, cut + 9, 3, 2),
        (cut + 12, cut + 9, 0, 4),
        (cut + 12, cut + 9, 5, 0),
        (cut + 4, cut + 1, 2, 1),
        (cut + 10, cut + 9, 9, 21),
        (cut + 3, cut, 1, 1),
        (cut + 9, cut + 9, 9, 22),
    ]
    statuses, systems = set(), []
    for n, r, kl, ku in cases:
        for kind in ("regular", "regular", "singular"):
            c, b = _banded_routing(rng, n, kl, ku, diagonal=not unit_scales)
            if not unit_scales:
                c *= 10.0 ** rng.integers(0, 4, size=n)
            inner = np.sort(rng.choice(np.arange(1, n - 1), size=r - 2, replace=False))
            rows = np.concatenate([[0], inner, [n - 1]])
            if kind == "singular":
                _make_singular(rng, c, rows, min(kl, ku) if unit_scales else None)
            a = _materialized(c, rows)
            got = solve_reduced(_routes(c, rows), rows, b, (kl, ku), unit_scales)
            dense = r <= cut or 2 * kl + ku + 1 >= r
            want = solve_left(a, b[rows]) if dense else _band_reference(a, b[rows], kl, ku)
            assert inputs[-2] == inputs[-1]
            assert got.status is want.status
            assert (got.x is None) == (want.x is None)
            if want.x is not None:
                assert got.x.tobytes() == want.x.tobytes()
            statuses.add(want.status is SolveStatus.UNIQUE)
            systems.append((c, rows, b, (kl, ku)))
    assert statuses == {True, False}
    assert len(banded) == 5 * 3
    for c, rows, b, band in systems:
        for bad in (np.nan, np.inf):
            rhs = b.copy()
            rhs[rows[-1]] = bad
            with pytest.raises(ValueError, match="finite"):
                solve_reduced(_routes(c, rows), rows, rhs, band, unit_scales)


def _assert_same_bits(results, stacked):
    """The same status and the same bytes of x from every single-system
    entry, and the stacked kernel's x for a unique one."""
    first = results[0]
    for result in results:
        assert result.status is first.status
        assert (result.x is None) == (first.x is None)
        if first.x is not None:
            assert result.x.tobytes() == first.x.tobytes()
    assert (first.status is SolveStatus.UNIQUE) == np.isfinite(stacked).all()
    if first.status is SolveStatus.UNIQUE:
        assert stacked.tobytes() == first.x.tobytes()


def test_single_and_stacked_solves_agree_bit_for_bit():
    # solve_reduced, solve_left and a stack of one through _solve_stack,
    # with no band: on banded systems of both sides of the cut-over
    # (regular, singular, and with columns scaled by 2**-50 to 2**99), whole,
    # reduced and with no rows, and on every census pattern of small
    # networks.  Banded factors add and multiply in another order, so
    # test_banded_and_dense_kernels_agree holds them to 1e-12 instead.
    rng = np.random.default_rng(41)
    statuses = set()
    for n in (5, linalg.BAND_MIN_ROWS + 9):
        factors = 2.0 ** rng.integers(-50, 100, size=n)
        for kind in ("regular", "consistent", "inconsistent", "scaled"):
            c, b = _banded_routing(rng, n, 2, 1)
            if kind in ("consistent", "inconsistent"):
                c[:, 1] = np.eye(n)[1]
                b[1] = 0.0 if kind == "consistent" else 1.0
            elif kind == "scaled":
                _eighths_on_diagonal(c)
                c, b = _scaled(c, factors), b * factors
            subset = np.sort(rng.choice(n, size=n - 2, replace=False))
            for rows in (np.arange(n), subset, np.arange(0)):
                sub, rhs = _materialized(c, rows), b[rows]
                results = [solve_reduced(_routes(c, rows), rows, b), solve_left(sub, rhs)]
                _assert_same_bits(results, _solve_stack(sub[None], rhs[None])[0])
                statuses.add(results[0].status)
    assert statuses == set(SolveStatus)
    for net in corpus(8, sizes=range(3, 7)) + small_networks(40):
        stable, systems, rhs = _census_systems(net)
        every = np.arange(net.n)
        for mask, system, b, x in zip(stable, systems, rhs, _solve_stack(systems, rhs)):
            routes = _routes(np.where(mask[:, None], net.p, net.q), every)
            _assert_same_bits([solve_reduced(routes, every, b), solve_left(system, b)], x)


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


@st.composite
def nonnegative_matrices(draw):
    """Nonnegative n x n matrices, n <= 8, drawn to sit near the Neumann
    boundary: sparse, reducible (upper triangular), stochastic blocks,
    nilpotent shifts, and rows rescaled to sum near 1 - RADIUS_MARGIN."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["sparse", "reducible", "blocks", "nilpotent"]))
    weights = draw(
        arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0), fill=st.nothing())
    )
    mask = draw(arrays(np.bool_, (n, n), fill=st.nothing()))
    m = weights * mask * draw(st.sampled_from([0.3, 1.0, 3.0]))
    if kind == "reducible":
        m = np.triu(m)
    elif kind == "nilpotent":
        m = np.triu(m + np.eye(n, k=1), k=1)
    elif kind == "blocks":
        # Stochastic diagonal blocks (a permutation plus the drawn weights,
        # rows normalized), each scaled on its own, with sparse coupling
        # from each block into the later ones.
        cut = draw(st.integers(0, n))
        m = np.triu(m) * 0.1
        for lo, hi in ((0, cut), (cut, n)):
            if hi > lo:
                block = np.eye(hi - lo)[draw(st.permutations(range(hi - lo)))]
                block = block + weights[lo:hi, lo:hi]
                block /= block.sum(axis=1, keepdims=True)
                m[lo:hi, lo:hi] = block * draw(st.sampled_from([0.5, 0.999, 1.0, 1.001]))
    if draw(st.booleans()):
        sums = m.sum(axis=1, keepdims=True)
        delta = draw(st.sampled_from([-1e-3, -1e-5, -2e-6, 0.0, 2e-6, 1e-5, 1e-3]))
        target = (1.0 - RADIUS_MARGIN) * (1.0 + delta)
        m = np.divide(m * target, sums, out=np.zeros_like(m), where=sums > 0)
    return m


def _chain_mix(n):
    """The last mix policy iteration evaluates on the worst-case chain
    ``gen_example2(n)``: its routing rows and the tail node's overflow row.
    Its radius sits 2**-n below 1 - RADIUS_MARGIN and its Neumann values
    reach about 4 * 2**n."""
    net = gen_example2(n)
    m = net.p.copy()
    m[-1] = net.q[-1]
    return m


@settings(max_examples=200)
@given(nonnegative_matrices())
# Values of 1.6e4 to 5.2e5, radius 6.1e-5 to 1.9e-6 below s.
@example(_chain_mix(12))
@example(_chain_mix(15))
@example(_chain_mix(17))
# Values of 1.7e7, radius 5.9e-8 below s: the solve's residual sits at
# its rounding floor, above 1e-9 * (1 + |b|).
@example(_chain_mix(22))
def test_neumann_values_decide_radius_below_margin(m):
    s = 1.0 - RADIUS_MARGIN
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    v = neumann_values(m)
    if v is not None:
        assert np.all(v >= 1.0 - 1e-9)
    if abs(radius - s) >= 1e-6:
        assert (v is not None) == (radius < s)
