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
from .errors import _fmt_set
from .linalg import RADIUS_MARGIN, has_stochastic_class, neumann_values, spectral_radius
from .network import ROW_SUM_TOL, Network

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

    @property
    def non_isolated(self) -> bool:
        """True iff no class is isolated (the NI condition).

        Equivalent to the capacity-clipped traffic equation having a
        unique nonnegative solution.  The overflow matrix plays no part.
        """
        return not any(self.isolated)

    @property
    def filled_or_drained(self) -> bool:
        """True iff every class is fillable or externally drained (the FD
        condition).  Strictly stronger than NI: internal drainage does not
        count here."""
        return all(f or e for f, e in zip(self.fillable, self.ext_drainable))


def characterize_classes(net: Network) -> ClassDecomposition:
    """Fill in the fillable / externally-drained / internally-drained /
    isolated flags for each communicating class of ``net.p``.

    A class is fillable if some node in it is reachable (in zero or more
    routing steps) from a node with positive exogenous input; externally
    drained if some row in the class sums below 1; internally drained if
    some node routes to another class; isolated if none of the above.

    All flags come from the class-access matrix (class a routes into
    class b != a); classes arrive in topological order, so fillability
    and the longest-path levels propagate in one forward sweep.
    """
    classes = communicating_classes(net.p)
    k = len(classes)
    label = np.empty(net.n, dtype=np.intp)
    for c, cls in enumerate(classes):
        label[list(cls)] = c
    src, dst = np.nonzero(net.p > 0)
    access = np.zeros((k, k), dtype=bool)
    access[label[src], label[dst]] = True
    np.fill_diagonal(access, False)

    int_dr = access.any(axis=1)
    ext_dr = np.zeros(k, dtype=bool)
    ext_dr[label[net.p.sum(axis=1) < 1.0 - ROW_SUM_TOL]] = True
    fillable = np.zeros(k, dtype=bool)
    fillable[label[net.alpha > 0]] = True
    levels = np.zeros(k, dtype=int)
    for c in range(k):
        succ = access[c]
        fillable[succ] |= fillable[c]
        levels[succ] = np.maximum(levels[succ], levels[c] + 1)

    return ClassDecomposition(
        classes=tuple(classes),
        fillable=tuple(fillable.tolist()),
        ext_drainable=tuple(ext_dr.tolist()),
        int_drainable=tuple(int_dr.tolist()),
        isolated=tuple((~(fillable | ext_dr | int_dr)).tolist()),
        levels=tuple(levels.tolist()),
    )


def isolated_classes(net: Network) -> list[frozenset[int]]:
    dec = characterize_classes(net)
    return [c for c, iso in zip(dec.classes, dec.isolated) if iso]


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
            parts.append(f"witness A={_fmt_set(self.witness)}")
        if self.radius is not None:
            parts.append(f"radius={self.radius:.17g}")
        if self.reason:
            parts.append(self.reason)
        return ", ".join(parts)


def _offending_selection(p, q, choosable, use_p):
    """Howard policy iteration over the row mixes of ``p`` and ``q``.

    Rows marked ``choosable`` may take either matrix's row; the others
    keep the choice ``use_p`` gives them, which is also where the
    iteration starts.  Each round evaluates the current mix B with
    ``neumann_values``; a mix it finds not below 1 - RADIUS_MARGIN is
    returned as an offending selection.  Otherwise every choosable row
    switches to the matrix whose row gives the larger product with the
    values v, only on a strict improvement beyond a relative tie
    tolerance, which makes the values increase and the iteration
    terminate.  When no row switches, v solves
    ``v = 1 + max(P_i v, Q_i v) / (1 - RADIUS_MARGIN)`` and every mix has
    radius below 1 - RADIUS_MARGIN: None is returned.
    """
    use_p = use_p.copy()
    while True:
        v = neumann_values(np.where(use_p[:, None], p, q))
        if v is None:
            return use_p
        pv, qv = p @ v, q @ v
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

    "Below 1" means below 1 - RADIUS_MARGIN, decided by the Neumann test
    of ``neumann_values``; an exact tie is not below.  Two stages:
    (a) sufficient certificates -- every selectable row summing below 1
    (max-norm bound), or the entrywise upper envelope of all row mixes
    passing the Neumann test (Perron-root monotonicity); (b) Howard policy
    iteration, which decides whether some mix fails the Neumann test with
    a few linear solves instead of one per subset.  The mixes form a
    product family (each row is chosen on its own), so the free nodes
    can be fixed one at a time, from the highest index down, to the
    overflow row whenever an offending mix remains and to the routing row
    otherwise; this yields the first offending subset in mask order (bit
    k of the mask selects the k-th free node) with one more policy
    iteration per free node.  The witness radius is the only one
    estimated: above 1 + RADIUS_MARGIN or certified by a stochastic
    block it is a "fails" verdict, otherwise "marginal".
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

    # Certificate 2: the entrywise upper envelope of all row mixes passes
    # the Neumann test, so every mix does (Perron-root monotonicity).
    envelope = np.where(free[:, None], np.maximum(net.p, net.q), net.q)
    if neumann_values(envelope) is not None:
        return ConditionVerdict(status=ConditionStatus.HOLDS_SUFFICIENT)

    # The first improvement step from v = 1 picks the larger row sum.
    offending = _offending_selection(net.p, net.q, free, free & (p_sums >= q_sums))
    if offending is None:
        return ConditionVerdict(status=ConditionStatus.HOLDS)

    choosable = free.copy()
    for i in np.flatnonzero(free)[::-1]:
        choosable[i] = False
        if offending[i]:
            trial = offending.copy()
            trial[i] = False
            found = _offending_selection(net.p, net.q, choosable, trial)
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
    from .solvers import _goodman_massey_pass, _routing

    dec = characterize_classes(net)
    if dec.non_isolated:
        gm_unstable = _goodman_massey_pass(net, _routing(net))[-1][2]
        verdict = check_overflow_condition(net, gm_unstable)
    else:
        gm_unstable = frozenset()
        verdict = ConditionVerdict(
            status=ConditionStatus.UNKNOWN,
            reason="network has an isolated class; no-overflow solution undefined",
        )
    return ConditionReport(
        non_isolated=dec.non_isolated,
        filled_or_drained=dec.filled_or_drained,
        overflow_condition=verdict,
        gm_unstable=gm_unstable,
        decomposition=dec,
    )
