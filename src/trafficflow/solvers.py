"""Traffic-equation solvers and independent cross-checking oracles.

Three solvers share one convention: rates are row vectors, node i is
overloaded when its rate reaches capacity (within a small margin), and
every linear step is solved from scratch with no warm starting or
factorization reuse, so iteration counts are exactly reproducible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
from .linalg import SolveStatus, solve_left, spectral_radius
from .network import (
    STABILITY_MARGIN,
    Equation,
    Network,
    TrafficSolution,
    classify_nodes,
    residual,
)
from .structure import RADIUS_MARGIN, check_overflow_condition, isolated_classes

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


@dataclass(frozen=True)
class TraceStep:
    outer: int
    inner: int
    rates: np.ndarray
    stable: frozenset[int]
    unstable: frozenset[int]

    def __post_init__(self):
        arr = np.array(self.rates, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)


@dataclass(frozen=True)
class SolveTrace:
    """Iteration telemetry: one entry per linear solve."""

    outer_iterations: int
    inner_iterations_total: int
    history: tuple[TraceStep, ...]


def _pattern_system(net: Network, stable_mask, overflow_mask):
    """Linearize the overflow equation for one stable/overflow pattern.

    Returns (system, rhs) with ``rates @ system = rhs`` equivalent to
    rates = alpha + mu @ P_(rest) + rates @ P_(stable) + (rates - mu) @ Q_(overflow):
    rows of P in ``stable_mask`` route the unknown rate, the remaining
    rows run at capacity, and rows of Q in ``overflow_mask`` carry linear
    (not clipped) overflow terms.
    """
    coeff = np.where(stable_mask[:, None], net.p, 0.0) + np.where(
        overflow_mask[:, None], net.q, 0.0
    )
    system = np.eye(net.n) - coeff
    rhs = (
        net.alpha
        + (np.where(~stable_mask, net.mu, 0.0)) @ net.p
        - (np.where(overflow_mask, net.mu, 0.0)) @ net.q
    )
    return system, rhs


def _stable_set_loop(net: Network, overloaded: frozenset[int], budget: int):
    """The stable-set growth iteration with a fixed overloaded set.

    Starting from an empty stable set, each pass solves the pattern
    system with the current stable set and linear overflow rows for
    ``overloaded``, then re-derives the stable set among the other nodes
    from the result, until the set stops changing.  Returns one
    (rates, stable) pair per linear solve, or None when ``budget`` solves
    do not settle the set.  With an empty overloaded set this is the
    Goodman-Massey iteration.
    """
    n = net.n
    overflow_mask = np.zeros(n, dtype=bool)
    overflow_mask[list(overloaded)] = True
    stable: frozenset[int] = frozenset()
    pairs = []
    for _ in range(budget):
        stable_mask = np.zeros(n, dtype=bool)
        stable_mask[list(stable)] = True
        result = solve_left(*_pattern_system(net, stable_mask, overflow_mask))
        if result.status is not SolveStatus.UNIQUE:
            raise SingularInnerSystemError(
                f"inner system is {result.status.value} for stable rows "
                f"{sorted(stable)} and overflow rows {sorted(overloaded)}"
            )
        below = (result.x < net.mu - STABILITY_MARGIN) & ~overflow_mask
        new_stable = frozenset(int(i) for i in np.flatnonzero(below))
        pairs.append((result.x, new_stable))
        if new_stable == stable:
            return pairs
        stable = new_stable
    return None


def _goodman_massey_pass(net: Network):
    """The Goodman-Massey iteration: at most one linear solve per node
    plus a confirming solve (n + 2 allowed).  Returns the loop's pairs."""
    pairs = _stable_set_loop(net, frozenset(), net.n + 2)
    if pairs is None:
        raise NonConvergenceError("stable-set iteration failed to settle")
    return pairs


def _goodman_massey_trace(net: Network, pairs) -> SolveTrace:
    """Label a Goodman-Massey pass: one outer iteration per solve."""
    everyone = frozenset(range(net.n))
    steps = tuple(
        TraceStep(outer=k, inner=1, rates=rates, stable=stable, unstable=everyone - stable)
        for k, (rates, stable) in enumerate(pairs, 1)
    )
    return SolveTrace(
        outer_iterations=len(steps), inner_iterations_total=len(steps), history=steps
    )


def solve_jackson(net: Network) -> TrafficSolution:
    """Solve the open-network linear equation rates = alpha + rates @ P.

    Requires the routing matrix's spectral radius to be strictly below 1;
    the unique solution is then nonnegative.
    """
    sigma = spectral_radius(net.p)
    if sigma >= 1.0 - RADIUS_MARGIN:
        raise SpectralRadiusAtLeastOneError(
            f"routing matrix has spectral radius {sigma:.17g} >= 1"
        )
    result = solve_left(np.eye(net.n) - net.p, net.alpha)
    if result.status is not SolveStatus.UNIQUE:
        raise SingularInnerSystemError("open-network system unexpectedly singular")
    rates = result.x
    stable, unstable = classify_nodes(rates, net.mu)
    return TrafficSolution(
        rates=rates,
        stable=stable,
        unstable=unstable,
        residual=residual(net, rates, Equation.JACKSON),
        equation=Equation.JACKSON,
    )


def solve_goodman_massey(net: Network) -> tuple[TrafficSolution, SolveTrace]:
    """Goodman-Massey algorithm for rates = alpha + min(rates, mu) @ P.

    Only valid for non-isolated networks (every communicating class can
    be filled or drained); then the unique nonnegative solution is found
    with at most one linear solve per node plus a final confirming solve.
    """
    isolated = isolated_classes(net)
    if isolated:
        raise IsolatedClassError(isolated)
    pairs = _goodman_massey_pass(net)
    rates = pairs[-1][0]
    stable, unstable = classify_nodes(rates, net.mu)
    solution = TrafficSolution(
        rates=rates,
        stable=stable,
        unstable=unstable,
        residual=residual(net, rates, Equation.GOODMAN_MASSEY),
        equation=Equation.GOODMAN_MASSEY,
    )
    return solution, _goodman_massey_trace(net, pairs)


def solve_overflow(
    net: Network, *, best_effort: bool = False, delegate_zero_overflow: bool = True
) -> tuple[TrafficSolution, SolveTrace]:
    """Solve rates = alpha + min(rates, mu) @ P + max(rates - mu, 0) @ Q.

    The outer loop grows the overloaded set starting from empty; the
    inner loop is the Goodman-Massey iteration with linear overflow terms
    for the current overloaded set.  The inner stable set restarts from
    empty on every outer pass, so iteration counts match the plain
    pseudocode exactly.

    Unless ``best_effort`` is set, the spectral uniqueness condition is
    verified against the first outer pass, which is the Goodman-Massey
    solve, and a non-holding verdict raises ConditionNotVerifiedError.
    In best-effort mode the iteration runs under a cap of n**2 + 1 linear
    solves and the result is only returned if its residual certifies it.

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

    n = net.n
    cap = n * n + 1
    delegate = delegate_zero_overflow and not np.any(net.q)
    # A checked or delegated solve needs pass 1 to be the Goodman-Massey
    # solve, errors included; a best-effort overflow solve spends its cap.
    if best_effort and not delegate:
        pairs = _stable_set_loop(net, frozenset(), cap)
    else:
        pairs = _goodman_massey_pass(net)
    if not best_effort:
        _, gm_unstable = classify_nodes(pairs[-1][0], net.mu)
        verdict = check_overflow_condition(net, gm_unstable)
        if not verdict.holds():
            raise ConditionNotVerifiedError(verdict)

    if delegate:
        rates, trace = pairs[-1][0], _goodman_massey_trace(net, pairs)
    else:
        overloaded: frozenset[int] = frozenset()
        steps: list[TraceStep] = []
        for kappa in range(1, n + 3):
            if kappa > 1:
                pairs = _stable_set_loop(net, overloaded, cap - len(steps))
            # Pass 1 may have run under the Goodman-Massey budget of n + 2
            # solves, which exceeds the cap when n = 1.
            if pairs is None or len(steps) + len(pairs) > cap:
                raise NonConvergenceError(
                    f"exceeded iteration cap {cap} without reaching a fixed point"
                )
            steps.extend(
                TraceStep(outer=kappa, inner=ell, rates=r, stable=st, unstable=overloaded)
                for ell, (r, st) in enumerate(pairs, 1)
            )
            rates = pairs[-1][0]
            new_overloaded = frozenset(
                int(i) for i in np.flatnonzero(rates >= net.mu - STABILITY_MARGIN)
            )
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

    res = residual(net, rates, Equation.OVERFLOW)
    if res >= RESIDUAL_TOL:
        raise NonConvergenceError(
            f"iteration settled but residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    stable, unstable = classify_nodes(rates, net.mu)
    solution = TrafficSolution(
        rates=rates,
        stable=stable,
        unstable=unstable,
        residual=res,
        equation=Equation.OVERFLOW,
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
    stable, unstable = classify_nodes(x, net.mu)
    return TrafficSolution(
        rates=x,
        stable=stable,
        unstable=unstable,
        residual=residual(net, x, Equation.GOODMAN_MASSEY),
        equation=Equation.GOODMAN_MASSEY,
    )


class OracleKind(enum.Enum):
    NO_SOLUTION = "no-solution"
    UNIQUE = "unique"
    MULTIPLE_ISOLATED = "multiple-isolated"
    CONTINUUM = "continuum"


@dataclass(frozen=True)
class OracleVerdict:
    kind: OracleKind
    solutions: tuple[np.ndarray, ...]
    patterns_checked: int
    pattern: frozenset[int] | None = None
    base: np.ndarray | None = None
    direction_note: str | None = None


def _region(mu, stable_mask, slack=PATTERN_SLACK):
    """A pattern's region as ``sign * x <= bound``: stable nodes at most
    ``slack`` above capacity, the others at most ``slack`` below it."""
    sign = np.where(stable_mask, 1.0, -1.0)
    return sign, sign * mu + slack


def _null_space(mt: np.ndarray) -> np.ndarray:
    """Rows spanning {v : v @ m = 0}, via SVD of the transpose system."""
    _, s, vh = np.linalg.svd(mt)
    tol = max(mt.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    null_rows = vh[s.size - np.sum(s <= tol) :] if np.sum(s <= tol) else vh[:0]
    return null_rows


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


def enumerate_solutions(net: Network) -> OracleVerdict:
    """Brute-force census of the overflow equation's solutions.

    For every stable-pattern subset S the fully linearized equation (rows
    of P for S, capacity outputs elsewhere, linear overflow rows for the
    complement) is solved and the result kept only if it is consistent
    with the pattern within a small boundary slack and actually satisfies
    the nonlinear equation.  Singular-but-consistent patterns whose
    affine solution family meets the pattern's region are reported as a
    continuum.  Distinct isolated solutions are deduplicated by max-norm.
    """
    n = net.n
    if n > ORACLE_NODE_LIMIT:
        raise OracleSizeError(n, ORACLE_NODE_LIMIT)

    candidates: list[np.ndarray] = []
    continuum = None
    for mask in range(2**n):
        stable_mask = ((mask >> np.arange(n)) & 1).astype(bool)
        sign, bound = _region(net.mu, stable_mask)
        system, rhs = _pattern_system(net, stable_mask, ~stable_mask)
        result = solve_left(system, rhs)

        if result.status is SolveStatus.UNIQUE:
            x = result.x
            if np.all(sign * x <= bound):
                if residual(net, x, Equation.OVERFLOW) < ORACLE_RESIDUAL_TOL:
                    candidates.append(x)
            continue
        if result.status is SolveStatus.SINGULAR_INCONSISTENT:
            continue

        # Singular but consistent: the solution family is affine.
        x0, *_ = np.linalg.lstsq(system.T, rhs, rcond=None)
        basis = _null_space(system.T)
        if basis.shape[0] == 0:
            continue
        points = _affine_region_points(x0, basis, net.mu, stable_mask)
        if points is None:
            continue
        low, high = points
        ok_low = residual(net, low, Equation.OVERFLOW) < ORACLE_RESIDUAL_TOL
        ok_high = residual(net, high, Equation.OVERFLOW) < ORACLE_RESIDUAL_TOL
        if float(np.max(np.abs(high - low))) > 1e-9 and ok_low and ok_high:
            if continuum is None:
                direction = basis[0] / np.linalg.norm(basis[0])
                continuum = (stable_mask, low, direction)
        elif ok_low and np.all(sign * low <= bound):
            candidates.append(low)

    checked = 2**n
    if continuum is not None:
        stable_mask, base, direction = continuum
        if direction.sum() < 0:
            direction = -direction
        note = "family base + t * [" + ", ".join(f"{v:.6g}" for v in direction) + "]"
        return OracleVerdict(
            kind=OracleKind.CONTINUUM,
            solutions=(),
            patterns_checked=checked,
            pattern=frozenset(int(i) for i in np.flatnonzero(stable_mask)),
            base=base,
            direction_note=note,
        )

    distinct: list[np.ndarray] = []
    for cand in candidates:
        if all(float(np.max(np.abs(cand - d))) > DEDUP_TOL for d in distinct):
            distinct.append(cand)
    if not distinct:
        return OracleVerdict(
            kind=OracleKind.NO_SOLUTION, solutions=(), patterns_checked=checked
        )
    if len(distinct) == 1:
        return OracleVerdict(
            kind=OracleKind.UNIQUE, solutions=(distinct[0],), patterns_checked=checked
        )
    return OracleVerdict(
        kind=OracleKind.MULTIPLE_ISOLATED,
        solutions=tuple(distinct),
        patterns_checked=checked,
    )
