"""Graph-structural analysis of the routing matrix: communicating
classes, the fillable/drainable/isolated trichotomy, the non-isolated
(NI) and filled-or-drained (FD) conditions, and the spectral condition
governing uniqueness for overflow networks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._graph import strongly_connected_components
from .linalg import SolveStatus, has_stochastic_class, solve_left, spectral_radius
from .network import ROW_SUM_TOL, Network, classify_nodes

#: Strict-inequality margin for spectral comparisons against 1.
RADIUS_MARGIN = 1e-9
#: Relative margin by which a row must beat the current one before
#: policy iteration switches to it, so that rounding in two equal
#: products cannot make the iteration cycle.
_TIE_TOL = 1e-12


def communicating_classes(p: np.ndarray) -> list[frozenset[int]]:
    """Communicating classes of a nonnegative square matrix.

    Classes are the strongly connected components of the incidence
    digraph (edge i -> j iff p[i, j] > 0; every node communicates with
    itself), listed in topological order of access.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(p < 0):
        raise ValueError("matrix must be nonnegative")
    return strongly_connected_components(p)


@dataclass(frozen=True)
class ClassDecomposition:
    """Communicating classes of the routing matrix with per-class flags.

    ``levels`` is the longest-path depth of each class in the class DAG
    (0 for classes nothing else accesses); exposed for diagnostics.
    """

    classes: tuple[frozenset[int], ...]
    fillable: tuple[bool, ...]
    ext_drainable: tuple[bool, ...]
    int_drainable: tuple[bool, ...]
    isolated: tuple[bool, ...]
    levels: tuple[int, ...]


def characterize_classes(net: Network, classes=None) -> ClassDecomposition:
    """Fill in the fillable / externally-drained / internally-drained /
    isolated flags for each communicating class of ``net.p``.

    A class is fillable if some node in it is reachable (in zero or more
    routing steps) from a node with positive exogenous input; externally
    drained if some row in the class sums below 1; internally drained if
    some node routes to another class; isolated if none of the above.
    """
    canonical = communicating_classes(net.p)
    if classes is not None and {frozenset(c) for c in classes} != set(canonical):
        raise ValueError("class decomposition does not match the network")
    classes = canonical

    adjacency = net.p > 0
    # Reachable set of the support of alpha, including the support itself.
    reach = np.asarray(net.alpha, dtype=float) > 0
    frontier = reach.copy()
    while frontier.any():
        nxt = adjacency[frontier].any(axis=0) & ~reach
        reach |= nxt
        frontier = nxt

    row_sums = net.p.sum(axis=1)
    label = {}
    for k, cls in enumerate(classes):
        for i in cls:
            label[i] = k

    fillable, ext_dr, int_dr, isolated = [], [], [], []
    for k, cls in enumerate(classes):
        idx = sorted(cls)
        fillable.append(bool(reach[idx].any()))
        ext_dr.append(bool(np.any(row_sums[idx] < 1.0 - ROW_SUM_TOL)))
        internal = any(
            net.p[i, j] > 0 for i in idx for j in range(net.n) if label[j] != k
        )
        int_dr.append(internal)
        isolated.append(not fillable[k] and not ext_dr[k] and not int_dr[k])

    # Longest-path depth over the class DAG; classes arrive topologically
    # ordered, so a single sweep suffices.
    levels = [0] * len(classes)
    for k, cls in enumerate(classes):
        for j in range(k + 1, len(classes)):
            if any(net.p[i, t] > 0 for i in cls for t in classes[j]):
                levels[j] = max(levels[j], levels[k] + 1)

    return ClassDecomposition(
        classes=tuple(classes),
        fillable=tuple(fillable),
        ext_drainable=tuple(ext_dr),
        int_drainable=tuple(int_dr),
        isolated=tuple(isolated),
        levels=tuple(levels),
    )


def isolated_classes(net: Network) -> list[frozenset[int]]:
    dec = characterize_classes(net)
    return [c for c, iso in zip(dec.classes, dec.isolated) if iso]


def check_non_isolated(net: Network) -> bool:
    """True iff no communicating class is isolated (the NI condition).

    Equivalent to the capacity-clipped traffic equation having a unique
    nonnegative solution.  The overflow matrix is ignored.
    """
    return not isolated_classes(net)


def check_filled_or_drained(net: Network) -> bool:
    """True iff every class is fillable or externally drained (the FD
    condition).  Strictly stronger than NI: internal drainage does not
    count here."""
    dec = characterize_classes(net)
    return all(
        f or e for f, e in zip(dec.fillable, dec.ext_drainable)
    )


class ConditionStatus(enum.Enum):
    HOLDS = "holds"
    HOLDS_SUFFICIENT = "holds-by-sufficient-check"
    FAILS = "fails"
    MARGINAL = "marginal"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConditionVerdict:
    status: ConditionStatus
    witness: frozenset[int] | None = None
    radius: float | None = None
    reason: str | None = None

    def holds(self) -> bool:
        return self.status in (ConditionStatus.HOLDS, ConditionStatus.HOLDS_SUFFICIENT)

    def __str__(self):
        parts = [self.status.value]
        if self.witness is not None:
            pretty = "{" + ", ".join(str(i + 1) for i in sorted(self.witness)) + "}"
            parts.append(f"witness A={pretty}")
        if self.radius is not None:
            parts.append(f"radius={self.radius:.17g}")
        if self.reason:
            parts.append(self.reason)
        return ", ".join(parts)


def _offending_selection(p, q, choosable, use_p):
    """Howard policy iteration over the row mixes of ``p`` and ``q``.

    Rows marked ``choosable`` may take either matrix's row; the others
    keep the choice ``use_p`` gives them, which is also where the
    iteration starts.  Each round evaluates the current mix B by solving
    ``(I - B) v = 1``.  When every row mix has spectral radius below 1,
    each evaluated v is at least 1 (Neumann series); a mix with radius 1
    or more has a singular system or some v_i <= 0 (Collatz-Wielandt:
    v > 0 with Bv = v - 1 < v would bound the radius below 1).  So an
    evaluation failing the midpoint test v >= 1/2 is returned as an
    offending selection.  Otherwise every choosable row switches to the
    matrix whose row gives the larger product with v, only on a strict
    improvement beyond a relative tie tolerance, which makes the values
    increase and the iteration terminate.  When no row switches, v
    solves ``v = 1 + max(P_i v, Q_i v)`` and every mix has radius below
    1: None is returned.
    """
    use_p = use_p.copy()
    identity = np.eye(len(use_p))
    ones = np.ones(len(use_p))
    while True:
        mixed = np.where(use_p[:, None], p, q)
        result = solve_left(identity - mixed.T, ones)
        if result.status is not SolveStatus.UNIQUE or not np.all(result.x >= 0.5):
            return use_p
        pv, qv = p @ result.x, q @ result.x
        switch = choosable & np.where(
            use_p, qv > pv * (1.0 + _TIE_TOL), pv > qv * (1.0 + _TIE_TOL)
        )
        if not switch.any():
            return None
        use_p ^= switch


def check_overflow_condition(net: Network, gm_unstable) -> ConditionVerdict:
    """Verify that every mix of routing rows (on a subset A of the
    candidate-stable nodes) with overflow rows (elsewhere) has spectral
    radius strictly below 1.

    ``gm_unstable`` is the overloaded set of the no-overflow solution;
    subsets A range over all subsets of its complement, including the
    empty set and the full complement.

    Two stages: (a) sufficient certificates -- every selectable row
    summing below 1 (max-norm bound), or the entrywise upper envelope of
    all row mixes having radius below 1 (Perron-root monotonicity); (b)
    Howard policy iteration on the mixes scaled by 1/(1 - RADIUS_MARGIN),
    which decides whether some mix has radius at least 1 - RADIUS_MARGIN
    with a few linear solves instead of one spectral radius per subset.  The mixes form a product family (each row is
    chosen on its own), so the free nodes can be fixed one at a time,
    from the highest index down, to the overflow row whenever an
    offending mix remains and to the routing row otherwise; this yields
    the first offending subset in mask order (bit k of the mask selects
    the k-th free node) with one more policy iteration per free node.
    The witness radius is then estimated once: above 1 + RADIUS_MARGIN
    or certified by a stochastic block it is a "fails" verdict, otherwise
    "marginal".
    """
    unstable = frozenset(int(i) for i in gm_unstable)
    if any(i < 0 or i >= net.n for i in unstable):
        raise ValueError("gm_unstable is not a subset of the node set")
    free = np.ones(net.n, dtype=bool)
    free[list(unstable)] = False

    # Certificate 1: every selectable row sums below 1, so the max-norm
    # of every row mix is below 1.
    p_sums = net.p.sum(axis=1)
    q_sums = net.q.sum(axis=1)
    worst_row = np.max(np.where(free, np.maximum(p_sums, q_sums), q_sums))
    if worst_row < 1.0 - RADIUS_MARGIN:
        return ConditionVerdict(status=ConditionStatus.HOLDS_SUFFICIENT)

    # Certificate 2: the entrywise upper envelope of all row mixes has
    # radius below 1 (Perron-root monotonicity).
    envelope = np.where(free[:, None], np.maximum(net.p, net.q), net.q)
    if spectral_radius(envelope) < 1.0 - RADIUS_MARGIN:
        return ConditionVerdict(status=ConditionStatus.HOLDS_SUFFICIENT)

    scale = 1.0 - RADIUS_MARGIN
    p, q = net.p / scale, net.q / scale
    # The first improvement step from v = 1 picks the larger row sum.
    offending = _offending_selection(p, q, free, free & (p_sums >= q_sums))
    if offending is None:
        return ConditionVerdict(status=ConditionStatus.HOLDS)

    choosable = free.copy()
    for i in np.flatnonzero(free)[::-1]:
        choosable[i] = False
        if offending[i]:
            trial = offending.copy()
            trial[i] = False
            found = _offending_selection(p, q, choosable, trial)
            if found is not None:
                offending = found

    mixed = np.where(offending[:, None], net.p, net.q)
    radius = spectral_radius(mixed)
    witness = frozenset(int(i) for i in np.flatnonzero(offending))
    if radius > 1.0 + RADIUS_MARGIN or has_stochastic_class(mixed):
        return ConditionVerdict(
            status=ConditionStatus.FAILS, witness=witness, radius=radius
        )
    return ConditionVerdict(
        status=ConditionStatus.MARGINAL, witness=witness, radius=radius
    )


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the structural and spectral solvability conditions."""

    non_isolated: bool
    filled_or_drained: bool
    overflow_condition: ConditionVerdict
    gm_unstable: frozenset[int]
    decomposition: ClassDecomposition


def condition_report(net: Network) -> ConditionReport:
    """Assemble the full condition report for a network.

    The overloaded set of the no-overflow solution is computed with the
    Goodman-Massey iteration when the network is NI; otherwise the
    spectral verdict is "unknown".
    """
    from .solvers import _goodman_massey_pass

    dec = characterize_classes(net)
    ni = not any(dec.isolated)
    fd = all(f or e for f, e in zip(dec.fillable, dec.ext_drainable))
    if not ni:
        verdict = ConditionVerdict(
            status=ConditionStatus.UNKNOWN,
            reason="network has an isolated class; no-overflow solution undefined",
        )
        return ConditionReport(
            non_isolated=False,
            filled_or_drained=fd,
            overflow_condition=verdict,
            gm_unstable=frozenset(),
            decomposition=dec,
        )
    _, gm_unstable = classify_nodes(_goodman_massey_pass(net)[-1][0], net.mu)
    return ConditionReport(
        non_isolated=True,
        filled_or_drained=fd,
        overflow_condition=check_overflow_condition(net, gm_unstable),
        gm_unstable=gm_unstable,
        decomposition=dec,
    )
