"""Output checks computed apart from the program.

Each check recomputes what it needs from the network's arrays with plain
numpy (or from a closed form) and never calls trafficflow's own residual,
classification or condition code; only the census check also compares
with ``solve_overflow``, a second path through the program.  A check returns ``True`` when the
output is right, returns ``False`` when the program gave no answer (an
UNKNOWN verdict), and raises ``Incorrect`` when the output is wrong.
"""

from __future__ import annotations

import numpy as np

#: A node at or above capacity minus this margin counts as overloaded.
MARGIN = 1e-9


class Incorrect(Exception):
    """The program returned a wrong result."""


def _require(ok, message):
    if not ok:
        raise Incorrect(message)


def overflow_residual(net, rates) -> float:
    """Max-norm residual of rates = alpha + min(rates, mu) P + max(rates - mu, 0) Q."""
    x = np.asarray(rates, dtype=float)
    rhs = (
        np.asarray(net.alpha)
        + np.minimum(x, net.mu) @ np.asarray(net.p)
        + np.maximum(x - net.mu, 0.0) @ np.asarray(net.q)
    )
    return float(np.max(np.abs(x - rhs)))


def overloaded(rates, mu) -> frozenset[int]:
    x = np.asarray(rates, dtype=float)
    return frozenset(int(i) for i in np.flatnonzero(x >= np.asarray(mu) - MARGIN))


def _check_trace_shape(trace):
    """The counters agree with the recorded history."""
    history = trace.history
    _require(
        trace.inner_iterations_total == len(history),
        f"inner count {trace.inner_iterations_total} != {len(history)} recorded steps",
    )
    _require(
        bool(history) and trace.outer_iterations == history[-1].outer,
        f"outer count {trace.outer_iterations} disagrees with the history",
    )


def _check_split(net, solution):
    expected = overloaded(solution.rates, net.mu)
    _require(
        solution.unstable == expected,
        f"unstable set {sorted(solution.unstable)} != {sorted(expected)} from rates vs mu",
    )
    _require(
        solution.stable == frozenset(range(net.n)) - expected,
        "stable set is not the complement of the unstable set",
    )


def check_cellgrid(net, result) -> bool:
    """Cell-grid point: the row-sum bound makes the solution unique, so a
    small residual identifies it; the trace stays within the paper's bounds."""
    solution, trace = result
    n = net.n
    rows = max(float(np.max(net.p.sum(axis=1))), float(np.max(net.q.sum(axis=1))))
    _require(rows <= 0.99 + 1e-12, f"row sum {rows} above 0.99: uniqueness not given")
    res = overflow_residual(net, solution.rates)
    _require(res <= 1e-9, f"overflow residual {res:.3e} above 1e-9")
    _check_split(net, solution)
    _check_trace_shape(trace)
    _require(trace.outer_iterations <= n + 1, f"{trace.outer_iterations} outer > n+1")
    bound = 1 + n * (n + 1) // 2
    _require(trace.inner_iterations_total <= bound, f"inner count above {bound}")
    return True


def check_worstcase(net, result) -> bool:
    """Worst-case chain: the bound 1 + n(n+1)/2 is attained exactly and
    every node ends overloaded."""
    solution, trace = result
    n = net.n
    expected_inner = 1 + n * (n + 1) // 2
    _require(
        trace.inner_iterations_total == expected_inner,
        f"inner count {trace.inner_iterations_total} != {expected_inner}",
    )
    _require(trace.outer_iterations == n + 1, f"outer count {trace.outer_iterations} != {n + 1}")
    _check_trace_shape(trace)
    res = overflow_residual(net, solution.rates)
    _require(res <= 1e-9, f"overflow residual {res:.3e} above 1e-9")
    _require(
        overloaded(solution.rates, net.mu) == frozenset(range(n)),
        "not every node ends overloaded",
    )
    _check_split(net, solution)
    return True


def check_census_random(net, verdict, solve_overflow) -> bool:
    """Random network with rows summing to at most 0.75: exactly one
    solution, found among all 2**n patterns, equal to the solver's."""
    n = net.n
    rows = max(float(np.max(net.p.sum(axis=1))), float(np.max(net.q.sum(axis=1))))
    _require(rows <= 0.75 + 1e-12, f"row sum {rows} above 0.75: uniqueness not given")
    _require(verdict.kind.value == "unique", f"census says {verdict.kind.value}, expected unique")
    _require(
        verdict.patterns_checked == 2**n,
        f"{verdict.patterns_checked} patterns checked, expected {2**n}",
    )
    (x,) = verdict.solutions
    res = overflow_residual(net, x)
    _require(res <= 1e-8, f"census solution residual {res:.3e} above 1e-8")
    solution, _ = solve_overflow(net)
    gap = float(np.max(np.abs(np.asarray(x) - solution.rates)))
    _require(gap <= 1e-9, f"census solution differs from solve_overflow by {gap:.3e}")
    return True


def triangle_solution(a: float) -> np.ndarray:
    """Closed form for the overflow triangle with input rate ``a``: the
    unique solution below a = 1, the continuum's base at a = 1, and the
    all-overloaded solution above 1."""
    if a <= 1.0:
        return np.array([4 * a / 3, 2 * a / 3, 0.0])
    return np.array([4 * a / 3 + 1, 2 * a / 3 + 1, a])


def check_triangle(net, verdict, a: float) -> bool:
    _require(verdict.patterns_checked == 8, f"{verdict.patterns_checked} patterns checked, expected 8")
    target = triangle_solution(a)
    tol = 1e-9 * (1.0 + float(np.max(target)))
    if a == 1.0:
        _require(verdict.kind.value == "continuum", f"census says {verdict.kind.value} at a = 1")
        gap = float(np.max(np.abs(np.asarray(verdict.base) - target)))
        _require(gap <= tol, f"continuum base off the closed form by {gap:.3e}")
        return True
    # Below 1 the solution is unique; above 1 the census must at least
    # list isolated solutions, one of them the closed form.
    kinds = ("unique",) if a < 1.0 else ("unique", "multiple-isolated")
    _require(verdict.kind.value in kinds, f"census says {verdict.kind.value} at a = {a}")
    found = [s for s in verdict.solutions if float(np.max(np.abs(np.asarray(s) - target))) <= tol]
    _require(found, f"closed-form solution {target.tolist()} not among the census solutions")
    for s in verdict.solutions:
        res = overflow_residual(net, s)
        _require(res <= 1e-8, f"census solution residual {res:.3e} above 1e-8")
    return True


def _chain_no_overflow_rates(net) -> np.ndarray:
    """Capacity-clipped rates by forward substitution; valid because the
    routing matrix of a chain is strictly upper triangular (acyclic)."""
    p = np.asarray(net.p)
    _require(not np.any(np.tril(p)), "routing matrix is not strictly upper triangular")
    x = np.array(net.alpha, dtype=float)
    for i in range(net.n):
        x[i + 1 :] += min(x[i], net.mu[i]) * p[i, i + 1 :]
    return x


def check_chain_report(net, report) -> bool:
    """Chain with free nodes 0..n-2: the no-overflow overload is exactly the
    tail node, and every row selection sends row i only to i+1 (routing)
    or i-1 (overflow), so its only cycles are 2-cycles of weight below 1
    and the condition holds."""
    n = net.n
    p, q = np.asarray(net.p), np.asarray(net.q)
    x = _chain_no_overflow_rates(net)
    expected = overloaded(x, net.mu)
    _require(expected == frozenset({n - 1}), f"own no-overflow overload is {sorted(expected)}")
    _require(
        report.gm_unstable == expected,
        f"overloaded set {sorted(report.gm_unstable)} != {sorted(expected)}",
    )
    _require(report.non_isolated and report.filled_or_drained, "chain is fed end to end")
    _require(not np.any(p - np.diag(np.diag(p, 1), 1)), "routing leaves the superdiagonal")
    _require(not np.any(q - np.diag(np.diag(q, -1), -1)), "overflow leaves the subdiagonal")
    cycle = float(np.max(np.diag(p, 1) * np.diag(q, -1))) if n > 1 else 0.0
    _require(cycle < 1.0, f"a 2-cycle has weight {cycle}")
    _require(
        report.overflow_condition.holds(),
        f"verdict {report.overflow_condition.status.value}, expected holds",
    )
    return True


def check_stochastic_cycle(net, verdict) -> bool:
    """Single stochastic cycle, no overflow, nothing overloaded: selecting
    every routing row gives radius exactly 1, any other selection has a
    zero row that breaks the cycle, so the verdict is FAILS with all nodes
    as the witness."""
    n = net.n
    p = np.asarray(net.p)
    _require(not np.any(net.q), "overflow matrix is not zero")
    _require(np.array_equal(p, np.roll(np.eye(n), 1, axis=1)), "routing is not the cycle i -> i+1")
    status = verdict.status.value
    if status == "unknown":
        return False
    _require(status == "fails", f"verdict {status}, expected fails")
    _require(
        verdict.witness == frozenset(range(n)),
        f"witness {sorted(verdict.witness or ())}, expected all {n} nodes",
    )
    return True
