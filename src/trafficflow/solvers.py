"""Traffic-equation solvers and independent cross-checking oracles.

Three solvers share one convention: rates are row vectors, node i is
overloaded when its rate reaches capacity (within a small margin), and
every linear step is one LAPACK call from scratch, with no warm starting
and no factors carried between steps, so iteration counts are exactly
reproducible.  A step of the stable-set iteration gathers the
coefficient rows of its stable and overloaded nodes, the others being
identity rows, from ``[P; Q]``, stacked once per solve, and hands them
to ``solve_reduced`` with the network's band; the census gathers the full
pattern systems of a chunk of patterns by row and solves them dense with
one ``_solve_stack`` call, a single stacked ``dgesv`` call when every
system of the chunk is diagonally dominant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditionNotVerifiedError,
    IsolatedClassError,
    IterationCapError,
    NonConvergenceError,
    OracleSizeError,
    SingularInnerSystemError,
    SpectralRadiusAtLeastOneError,
)
from .linalg import BAND_MIN_ROWS, RADIUS_MARGIN, SolveStatus, neumann_values
from .linalg import solve_left, solve_reduced, spectral_radius
from .linalg import _solve_singular, _solve_stack
from .network import STABILITY_MARGIN, Equation, Network, TrafficSolution, _frozen
from .network import _ValueEq, classify_nodes, residual
from .structure import check_overflow_condition, isolated_classes

#: Successful solves must satisfy this max-norm residual.
RESIDUAL_TOL = 1e-9
#: Enumeration oracle: hard size guard.
ORACLE_NODE_LIMIT = 24
#: Enumeration oracle: slack for pattern-consistency at the capacity boundary.
PATTERN_SLACK = 1e-9
#: Enumeration oracle: residual bound for accepting a candidate solution.
ORACLE_RESIDUAL_TOL = 1e-8
#: Enumeration oracle: solutions closer than this are considered identical.
DEDUP_TOL = 1e-7
#: Monotone fixed-point iteration: stop when successive iterates are closer.
FIXED_POINT_TOL = 1e-12
FIXED_POINT_CAP = 10**6
#: Enumeration oracle: matrix entries per chunk of pattern systems solved
#: together (bounds the census's memory, not its result).
CENSUS_CHUNK_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class TraceStep(_ValueEq):
    outer: int
    inner: int
    rates: np.ndarray
    stable: frozenset[int]
    unstable: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "rates", _frozen(self.rates))


@dataclass(frozen=True, eq=False)
class SolveTrace(_ValueEq):
    """Iteration telemetry: one entry per linear solve."""

    outer_iterations: int
    inner_iterations_total: int
    history: tuple[TraceStep, ...]


def _pattern_system(net: Network, stable: np.ndarray, overflow: np.ndarray):
    """Linearize the overflow equation for a stack of stable/overflow
    patterns, given as disjoint boolean masks of shape (k, n).

    Returns (systems, rhs), of shapes (k, n, n) and (k, n), with
    ``rates @ systems[i] = rhs[i]`` equivalent to
    rates = alpha + mu @ P_(rest) + rates @ P_(stable) + (rates - mu) @ Q_(overflow):
    rows of P in ``stable[i]`` route the unknown rate, the remaining rows
    run at capacity, and rows of Q in ``overflow[i]`` carry linear (not
    clipped) overflow terms.  Row j of ``systems[i]`` is gathered from
    ``[I - P; I - Q; I]``: row j of ``I - P`` for a stable j, of ``I - Q``
    for an overflow j, and of I otherwise.  Each rhs row is its own
    vector-matrix product, so its bits do not depend on the rest of the
    stack.
    """
    n = net.n
    eye = np.eye(n)
    source = np.concatenate([eye - net.p, eye - net.q, eye])
    rows = np.where(stable, 0, np.where(overflow, n, 2 * n)) + np.arange(n)
    inflow = np.matmul(np.where(stable, 0.0, net.mu)[:, None, :], net.p)[:, 0]
    outflow = np.matmul(np.where(overflow, net.mu, 0.0)[:, None, :], net.q)[:, 0]
    return source[rows], net.alpha + inflow - outflow


def _network_band(net: Network) -> tuple[int, int] | None:
    """``(kl, ku)``: the largest ``j - i`` and ``i - j`` over the
    off-diagonal nonzeros ``[i, j]`` of P and Q, or None for a network of
    at most BAND_MIN_ROWS nodes, none of whose systems is factored banded.
    It bounds the band of every pattern system, reduced or not.
    """
    if net.n <= BAND_MIN_ROWS:
        return None
    rows, cols = np.nonzero((net.p != 0) | (net.q != 0))
    offset = cols - rows
    return int(np.max(offset, initial=0)), int(-np.min(offset, initial=0))


class _Routing(NamedTuple):
    """What every stable-set pass of one solve shares: ``source``, the
    rows of P, then those of Q, then a row of zeros, (2n + 1) x n; the
    network band; and whether equilibration is the identity."""

    source: np.ndarray
    band: tuple[int, int] | None
    unit_scales: bool


def _routing(net: Network) -> _Routing:
    """The ``_Routing`` of ``net``, built once per solve.  With zero
    diagonals in P and Q and every entry in [0, 1], each reduced system
    ``I - C_RR`` has a unit diagonal and no larger entry, so every column
    scale is exactly 1."""
    source = np.concatenate([net.p, net.q, np.zeros((1, net.n))])
    loops = net.p.diagonal().any() or net.q.diagonal().any()
    in_unit = np.min(source, initial=0.0) >= 0.0 and np.max(source, initial=0.0) <= 1.0
    return _Routing(source, _network_band(net), bool(not loops and in_unit))


def _stable_set_loop(net: Network, overloaded: frozenset[int], budget: int, routing: _Routing):
    """The stable-set growth iteration with a fixed overloaded set.

    Starting from an empty stable set, each pass solves the pattern
    system with the current stable set and linear overflow rows for
    ``overloaded``, then re-derives the stable set among the other nodes
    from the result, until the set stops changing.  Returns one
    (rates, stable, unstable) triple per linear solve, where ``unstable``
    holds every node at or above capacity (within the margin, as in
    ``classify_nodes``), or None when ``budget`` solves do not settle the
    set.  With an empty overloaded set this is the Goodman-Massey
    iteration.

    Only the rows R = stable | overloaded of the pattern system are not
    identity rows.  Each pass gathers their coefficient rows C_R from
    ``routing.source``, solves ``x_R (I - C_RR) = b_R`` with one
    ``solve_reduced`` call (no rows when R is empty) and gets the other
    rates from ``x = b + x_R @ C_R``.  The pattern system is block
    triangular, so it is singular exactly when the reduced one is.
    """
    n = net.n
    overflow = np.zeros(n, dtype=bool)
    overflow[list(overloaded)] = True
    outflow = np.where(overflow, net.mu, 0.0) @ net.q
    # The stable set never meets the overloaded one, so row i of every
    # pass's coefficient matrix is Q's for an overloaded i and P's for a
    # stable one: source row i + n for the one, i for the other.  The last
    # entries select the zero row that solve_reduced takes after C_R.
    source_rows = np.append(np.arange(n) + n * overflow, 2 * n)
    selected = np.append(overflow, True)
    threshold = net.mu - STABILITY_MARGIN
    stable_mask = np.zeros(n, dtype=bool)
    stable: frozenset[int] = frozenset()
    solves = []
    for _ in range(budget):
        # _pattern_system's rhs for this one pattern, with the same bits.
        b = net.alpha + np.where(stable_mask, 0.0, net.mu) @ net.p - outflow
        np.logical_or(stable_mask, overflow, out=selected[:n])
        picked = selected.nonzero()[0]
        rows = picked[:-1]
        routes = routing.source.take(source_rows.take(picked), 0)
        result = solve_reduced(routes, rows, b, routing.band, routing.unit_scales)
        if result.status is not SolveStatus.UNIQUE:
            raise SingularInnerSystemError(
                f"inner system is {result.status.value} for stable rows "
                f"{sorted(stable)} and overflow rows {sorted(overloaded)}"
            )
        x = b + result.x @ routes[:-1]
        x[rows] = result.x
        unstable = x >= threshold
        stable_mask = ~(unstable | overflow)
        new_stable = frozenset(stable_mask.nonzero()[0].tolist())
        solves.append((x, new_stable, frozenset(unstable.nonzero()[0].tolist())))
        if new_stable == stable:
            return solves
        stable = new_stable
    return None


def _goodman_massey_pass(net: Network, routing: _Routing):
    """The Goodman-Massey iteration: at most one linear solve per node
    plus a confirming solve (n + 2 allowed), given ``_routing(net)``.
    Returns the loop's triples."""
    solves = _stable_set_loop(net, frozenset(), net.n + 2, routing)
    if solves is None:
        raise NonConvergenceError("stable-set iteration failed to settle")
    return solves


def _goodman_massey_trace(solves) -> SolveTrace:
    """Label a Goodman-Massey pass: one outer iteration per solve."""
    steps = tuple(
        TraceStep(outer=k, inner=1, rates=rates, stable=stable, unstable=unstable)
        for k, (rates, stable, unstable) in enumerate(solves, 1)
    )
    return SolveTrace(
        outer_iterations=len(steps), inner_iterations_total=len(steps), history=steps
    )


def _solution(net: Network, rates, equation: Equation) -> TrafficSolution:
    """The result for ``rates``: its stability split and its residual."""
    stable, unstable = classify_nodes(rates, net.mu)
    return TrafficSolution(
        rates=rates,
        stable=stable,
        unstable=unstable,
        residual=residual(net, rates, equation),
        equation=equation,
    )


def solve_jackson(net: Network) -> TrafficSolution:
    """Solve the open-network linear equation rates = alpha + rates @ P.

    Requires the routing matrix's spectral radius to be below
    1 - RADIUS_MARGIN (the Neumann test); the unique solution is then
    nonnegative.
    """
    if neumann_values(net.p) is None:
        raise SpectralRadiusAtLeastOneError(
            f"routing matrix has spectral radius {spectral_radius(net.p):.17g}, "
            f"not below 1 - {RADIUS_MARGIN:g}"
        )
    result = solve_left(np.eye(net.n) - net.p, net.alpha)
    if result.status is not SolveStatus.UNIQUE:
        raise SingularInnerSystemError("open-network system unexpectedly singular")
    return _solution(net, result.x, Equation.JACKSON)


def solve_goodman_massey(net: Network) -> tuple[TrafficSolution, SolveTrace]:
    """Goodman-Massey algorithm for rates = alpha + min(rates, mu) @ P.

    Only valid for non-isolated networks (every communicating class can
    be filled or drained); then the unique nonnegative solution is found
    with at most one linear solve per node plus a final confirming solve.
    """
    isolated = isolated_classes(net)
    if isolated:
        raise IsolatedClassError(isolated)
    solves = _goodman_massey_pass(net, _routing(net))
    solution = _solution(net, solves[-1][0], Equation.GOODMAN_MASSEY)
    return solution, _goodman_massey_trace(solves)


def solve_overflow(
    net: Network, *, best_effort: bool = False, delegate_zero_overflow: bool = True
) -> tuple[TrafficSolution, SolveTrace]:
    """Solve rates = alpha + min(rates, mu) @ P + max(rates - mu, 0) @ Q.

    The outer loop grows the overloaded set starting from empty; the
    inner loop is the Goodman-Massey iteration with linear overflow terms
    for the current overloaded set.  The inner stable set restarts from
    empty on every outer pass, so iteration counts match the plain
    pseudocode exactly.

    In every mode the first outer pass, with an empty overloaded set, is
    the Goodman-Massey pass (at most n + 1 linear solves).  Unless
    ``best_effort`` is set, the spectral uniqueness condition is verified
    against it, and a non-holding verdict raises ConditionNotVerifiedError.
    The passes after it run under a cap of n**2 + 1 linear solves in all,
    and the result is only returned if its residual certifies it.

    When Q is exactly zero the equation coincides with the
    capacity-clipped one, and by default the solver returns that first
    pass as the Goodman-Massey solve, with an identical iteration
    sequence and trace.  Pass ``delegate_zero_overflow=False`` to force
    the nested loops even then (useful for iteration-count studies: the
    outer loop then spends one extra pass confirming the overloaded set).
    """
    isolated = isolated_classes(net)
    if isolated:
        raise IsolatedClassError(isolated)
    routing = _routing(net)
    solves = _goodman_massey_pass(net, routing)
    if not best_effort:
        verdict = check_overflow_condition(net, solves[-1][2])
        if not verdict.holds():
            raise ConditionNotVerifiedError(verdict)

    if delegate_zero_overflow and not np.any(net.q):
        rates, trace = solves[-1][0], _goodman_massey_trace(solves)
    else:
        n = net.n
        cap = n * n + 1
        overloaded: frozenset[int] = frozenset()
        steps: list[TraceStep] = []
        for kappa in range(1, n + 3):
            if kappa > 1:
                solves = _stable_set_loop(net, overloaded, cap - len(steps), routing)
                if solves is None:
                    raise NonConvergenceError(
                        f"exceeded iteration cap {cap} without reaching a fixed point"
                    )
            steps.extend(
                TraceStep(outer=kappa, inner=ell, rates=r, stable=st, unstable=overloaded)
                for ell, (r, st, _) in enumerate(solves, 1)
            )
            rates, _, unstable = solves[-1]
            # A node joins the overloaded set only at or above capacity, and
            # stays while it is within the margin below it: joining within
            # the margin can push it further below and cycle the outer loop.
            at_capacity = frozenset(np.flatnonzero(rates >= net.mu).tolist())
            new_overloaded = unstable & (at_capacity | overloaded)
            if new_overloaded == overloaded:
                break
            overloaded = new_overloaded
        else:
            raise NonConvergenceError("overloaded-set iteration failed to settle")
        trace = SolveTrace(
            outer_iterations=kappa,
            inner_iterations_total=len(steps),
            history=tuple(steps),
        )

    solution = _solution(net, rates, Equation.OVERFLOW)
    if solution.residual >= RESIDUAL_TOL:
        raise NonConvergenceError(
            f"iteration settled but residual {solution.residual:.3e} "
            f"exceeds {RESIDUAL_TOL:.0e}"
        )
    return solution, trace


def tarski_fixed_point(net: Network) -> TrafficSolution:
    """Least fixed point of x -> alpha + min(x, mu) @ P by monotone iteration.

    Only defined for networks without overflow routing (Q = 0).  The map
    is monotone on [0, c]^n with c the largest entry of alpha + mu @ P,
    so iterating from zero converges to the least fixed point from below.
    Serves as an independent oracle for the Goodman-Massey solver.
    """
    if np.any(net.q):
        raise ValueError("fixed-point iteration requires a zero overflow matrix")
    x = np.zeros(net.n)
    for _ in range(FIXED_POINT_CAP):
        y = net.alpha + np.minimum(x, net.mu) @ net.p
        if float(np.max(np.abs(y - x))) < FIXED_POINT_TOL:
            x = y
            break
        x = y
    else:
        raise IterationCapError(
            f"no convergence within {FIXED_POINT_CAP} monotone iterations"
        )
    return _solution(net, x, Equation.GOODMAN_MASSEY)


class OracleKind(enum.Enum):
    NO_SOLUTION = "no-solution"
    UNIQUE = "unique"
    MULTIPLE_ISOLATED = "multiple-isolated"
    CONTINUUM = "continuum"


@dataclass(frozen=True, eq=False)
class OracleVerdict(_ValueEq):
    kind: OracleKind
    solutions: tuple[np.ndarray, ...]
    patterns_checked: int
    pattern: frozenset[int] | None = None
    base: np.ndarray | None = None
    direction_note: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "solutions", tuple(map(_frozen, self.solutions)))
        if self.base is not None:
            object.__setattr__(self, "base", _frozen(self.base))


def _region(mu, stable_mask, slack=PATTERN_SLACK):
    """A pattern's region as ``sign * x <= bound``: stable nodes at most
    ``slack`` above capacity, the others at most ``slack`` below it."""
    sign = np.where(stable_mask, 1.0, -1.0)
    return sign, sign * mu + slack


def _null_space(mt: np.ndarray) -> np.ndarray:
    """Rows spanning {v : v @ m = 0}, via SVD of the transpose system."""
    _, s, vh = np.linalg.svd(mt)
    tol = max(mt.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return vh[int(np.sum(s > tol)) :]


def _interval_for_line(x0, v, sign, bound):
    """Feasible t-interval of x0 + t*v against the region sign * x <= bound."""
    a = sign * v
    room = bound - sign * x0
    up, down = a > 1e-14, a < -1e-14
    if np.any(room[~(up | down)] < 0):
        return None
    hi = float(np.min(room[up] / a[up], initial=math.inf))
    lo = float(np.max(room[down] / a[down], initial=-math.inf))
    if lo > hi:
        return None
    return lo, hi


def _affine_region_points(x0, basis, mu, stable_mask):
    """Feasibility of {x0 + t @ basis} against the pattern region.

    Returns (low_point, high_point) extremal along the coordinate sum, or
    None when the intersection is empty.  Dimension one is handled by
    interval arithmetic; higher dimensions fall back to linear programs.
    """
    k = basis.shape[0]
    sign, bound = _region(mu, stable_mask)
    if k == 1:
        interval = _interval_for_line(x0, basis[0], sign, bound)
        if interval is None:
            return None
        # Slack decides feasibility; the reported endpoints come from the
        # unslacked boundary when that interval is nonempty, so boundary
        # solutions land exactly on the capacity values.
        _, tight_bound = _region(mu, stable_mask, slack=0.0)
        tight = _interval_for_line(x0, basis[0], sign, tight_bound)
        lo, hi = tight if tight is not None else interval
        t_a = lo if math.isfinite(lo) else (hi - 1.0 if math.isfinite(hi) else 0.0)
        t_b = hi if math.isfinite(hi) else t_a + 1.0
        pa = x0 + t_a * basis[0]
        pb = x0 + t_b * basis[0]
        return (pa, pb) if pa.sum() <= pb.sum() else (pb, pa)

    from scipy.optimize import linprog

    a_ub = basis.T * sign[:, None]
    b_ub = bound - sign * x0
    objective = basis @ np.ones(len(mu))
    # Box bounds keep unbounded families finite; any point this far out
    # still witnesses a continuum.
    box = 1e6 * max(1.0, float(np.max(np.abs(x0))), float(np.max(mu)))
    points = []
    for direction in (1.0, -1.0):
        res = linprog(
            direction * objective,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(-box, box)] * k,
            method="highs",
        )
        if not res.success:
            return None
        points.append(x0 + res.x @ basis)
    return points[0], points[1]


def _pattern_families(net: Network):
    """Every census pattern's family of linearized solutions that the
    acceptance rule could keep, in mask order, as
    ``(stable_mask, low, high, basis)``.

    The patterns are solved in chunks of about CENSUS_CHUNK_ENTRIES
    matrix entries: one stack of pattern systems per chunk, one
    ``_solve_stack`` call, and the finiteness and region tests over the
    whole chunk.  A unique solution is one point (``low is high``, no
    basis); it is yielded only when it lies in its pattern's region,
    since outside it the rule drops a point.  A singular pattern is
    classified by ``_solve_singular``, and a consistent one's affine
    family is clipped to the region, with ``basis`` spanning its
    directions.
    """
    n = net.n
    total = 2**n
    chunk = max(1, CENSUS_CHUNK_ENTRIES // max(1, n * n))
    bits = np.arange(n)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total))
        stable = ((masks[:, None] >> bits) & 1).astype(bool)
        systems, rhs = _pattern_system(net, stable, ~stable)
        x = _solve_stack(systems, rhs)
        unique = np.isfinite(x).all(axis=1)
        sign, bound = _region(net.mu, stable)
        inside = (sign * x <= bound).all(axis=1)
        for i in np.flatnonzero(inside | ~unique).tolist():
            if unique[i]:
                point = x[i]
                yield stable[i], point, point, None
                continue
            result = _solve_singular(systems[i], rhs[i])
            if result.status is SolveStatus.SINGULAR_INCONSISTENT:
                continue
            basis = _null_space(systems[i].T)
            if basis.shape[0] == 0:
                continue
            points = _affine_region_points(result.x, basis, net.mu, stable[i])
            if points is not None:
                yield stable[i], *points, basis


def enumerate_solutions(net: Network) -> OracleVerdict:
    """Brute-force census of the overflow equation's solutions.

    For every stable-pattern subset S the fully linearized equation (rows
    of P for S, capacity outputs elsewhere, linear overflow rows for the
    complement) is solved.  The patterns are solved in memory-bounded
    chunks with the same kernel as ``solve_left``, so each pattern's
    solution has the bits of its own solve.  A unique solution is a
    family whose low and high ends coincide; a singular-but-consistent
    pattern's affine family is clipped to the pattern's region, with ends
    extremal along the coordinate sum.  One rule decides every family:
    one wider than 1e-9 whose two ends both satisfy the nonlinear
    equation witnesses a continuum; otherwise its low end is a candidate
    when it lies in the pattern's region (within a small boundary slack)
    and satisfies the equation.  Distinct candidates, deduplicated by
    max-norm in mask order, set the kind; the first witness in mask order
    is the one reported.
    """
    n = net.n
    if n > ORACLE_NODE_LIMIT:
        raise OracleSizeError(n, ORACLE_NODE_LIMIT)

    def satisfies(x):
        return residual(net, x, Equation.OVERFLOW) < ORACLE_RESIDUAL_TOL

    distinct: list[np.ndarray] = []
    witness = None
    for stable_mask, low, high, basis in _pattern_families(net):
        # No width test for a unique solution (high is low).
        sign, bound = _region(net.mu, stable_mask)
        inside = np.all(sign * low <= bound)
        wide = high is not low and float(np.max(np.abs(high - low))) > 1e-9
        if not ((inside or wide) and satisfies(low)):
            continue
        if wide and satisfies(high):
            if witness is None:
                direction = basis[0] / np.linalg.norm(basis[0])
                if direction.sum() < 0:
                    direction = -direction
                note = ", ".join(f"{v:.6g}" for v in direction)
                witness = OracleVerdict(
                    kind=OracleKind.CONTINUUM,
                    solutions=(),
                    patterns_checked=2**n,
                    pattern=frozenset(int(i) for i in np.flatnonzero(stable_mask)),
                    base=low,
                    direction_note=f"family base + t * [{note}]",
                )
        elif inside and all(float(np.max(np.abs(low - d))) > DEDUP_TOL for d in distinct):
            distinct.append(low)

    if witness is not None:
        return witness
    kinds = (OracleKind.NO_SOLUTION, OracleKind.UNIQUE, OracleKind.MULTIPLE_ISOLATED)
    return OracleVerdict(
        kind=kinds[min(len(distinct), 2)], solutions=tuple(distinct), patterns_checked=2**n
    )
