"""Constructors for the library's example networks and for random test
networks with controllable structure.

The four fixed families:

* ``gen_example1`` -- a square grid of four-node cells with parameter-
  scaled routing and overflow links between neighboring cells; every row
  sum stays at or below 0.99, so the uniqueness condition holds for the
  whole parameter square.
* ``gen_example2`` -- a forward service chain with near-full backward
  overflow, tuned so the overflow solver needs its maximum number of
  inner iterations.
* ``gen_example3`` -- two communicating classes where the second cannot
  be filled and drains only into the first: filled-or-drained fails but
  non-isolated holds.
* ``gen_example4`` -- a three-node overflow triangle whose mixed
  routing/overflow row selection reaches spectral radius exactly 1, so
  solution structure depends on the input rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, make_network

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
#: Uniforms computed per ``_uniforms`` call of a ``_Draws`` stream.
_DRAW_BLOCK = 4096


class _SplitMix64:
    """splitmix64 stream; documented so fixtures are reproducible anywhere.

    state += 0x9E3779B97F4A7C15 (mod 2**64); the output mixes the new
    state with xor-shifts by 30/27/31 and multiplies by
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  ``uniform`` keeps the top
    53 bits, giving a float in [0, 1).  This is the scalar reference for
    ``_uniforms``, which the generators use.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start`` to ``start + count - 1`` of ``_SplitMix64(seed)``'s
    ``uniform``, at once: the stream is counter-based, so draw k mixes the
    state ``seed + (k + 1) * 0x9E3779B97F4A7C15``, and ``uint64`` array
    arithmetic wraps modulo 2**64 as the reference masks."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = z * np.uint64(_GAMMA) + np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) / float(1 << 53)


class _Draws:
    """``_SplitMix64(seed)``'s uniforms in order, ``take`` returning the
    next ``count`` of them; they are computed ``_DRAW_BLOCK`` or more at a
    time, so that a small network costs one ``_uniforms`` call."""

    def __init__(self, seed: int):
        self.seed = seed
        self.next = self.start = 0
        self.block = np.empty(0)

    def take(self, count: int) -> np.ndarray:
        end = self.next + count
        if end > self.start + len(self.block):
            self.start = self.next
            self.block = _uniforms(self.seed, self.start, max(count, _DRAW_BLOCK))
        out = self.block[self.next - self.start : end - self.start]
        self.next = end
        return out


@dataclass(frozen=True)
class CellGridSpec:
    """Parameters of the cell-grid family: grid side m (cells per side,
    n = 4 m**2 nodes) and the routing/overflow scale factors in [0, 1]."""

    m: int
    delta: float
    epsilon: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"grid side must be >= 2, got {self.m}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


# Node roles within a cell, in numbering order: south-west, north-west,
# north-east, south-east.
_SW, _NW, _NE, _SE = 0, 1, 2, 3

# In-cell routing edges (source role, target role, weight).  The
# south-east row is scaled so that no row sum can exceed 0.99; the
# drawn per-cell pattern pairs each fixed row with a parameter-scaled
# edge that tops the row up to exactly 0.99 at delta = 1.
_P_CELL_EDGES = (
    (_SW, _NW, 0.4),
    (_NW, _SW, 0.1),
    (_SW, _SE, 0.4),
    (_SE, _SW, 0.495),
    (_NW, _NE, 0.1),
    (_NE, _NW, 0.4),
    (_SE, _NE, 0.495),
    (_NE, _SE, 0.4),
)
# Cross-cell routing edges (source role, cell offset (dcol, drow),
# target role, weight per unit delta).
_P_CROSS_EDGES = (
    (_NE, (1, 0), _NW, 0.19),
    (_NW, (0, 1), _SW, 0.79),
    (_SW, (0, -1), _NW, 0.19),
)
# In-cell overflow edges, scaled by the same 0.99 row cap.
_Q_CELL_EDGES = (
    (_SW, _NW, 0.0495),
    (_SW, _SE, 0.0495),
    (_SW, _NE, 0.891),
    (_NE, _SW, 0.891),
    (_NE, _SE, 0.099),
)
# Cross-cell overflow edges, weight per unit epsilon.
_Q_CROSS_EDGES = (
    (_NW, (0, 1), _SW, 0.99),
    (_SE, (1, 0), _SW, 0.99),
)


def _cell_node(m: int, col: int, row: int, role: int) -> int:
    return 4 * (col * m + row) + role


def gen_example1(spec: CellGridSpec) -> Network:
    """Cell-grid network: m x m cells of four nodes each, n = 4 m**2.

    Node 1 (the grid's south-west corner node) receives exogenous input
    at rate n**2; every node has unit capacity.  Cells are numbered
    column by column from the south-west, with nodes inside each cell in
    the order south-west, north-west, north-east, south-east.  Edges to
    cells outside the grid are dropped without renormalizing, so boundary
    rows simply sum lower.
    """
    m = spec.m
    n = 4 * m * m
    p = np.zeros((n, n))
    q = np.zeros((n, n))
    for col in range(m):
        for row in range(m):
            for src, dst, w in _P_CELL_EDGES:
                p[_cell_node(m, col, row, src), _cell_node(m, col, row, dst)] = w
            for src, (dc, dr), dst, w in _P_CROSS_EDGES:
                tc, tr = col + dc, row + dr
                if 0 <= tc < m and 0 <= tr < m:
                    p[_cell_node(m, col, row, src), _cell_node(m, tc, tr, dst)] = (
                        w * spec.delta
                    )
            for src, dst, w in _Q_CELL_EDGES:
                q[_cell_node(m, col, row, src), _cell_node(m, col, row, dst)] = w
            for src, (dc, dr), dst, w in _Q_CROSS_EDGES:
                tc, tr = col + dc, row + dr
                if 0 <= tc < m and 0 <= tr < m:
                    q[_cell_node(m, col, row, src), _cell_node(m, tc, tr, dst)] = (
                        w * spec.epsilon
                    )
    alpha = np.zeros(n)
    alpha[0] = float(n * n)
    mu = np.ones(n)
    return make_network(alpha, mu, p, q)


def gen_example2(n: int) -> Network:
    """Worst-case chain: unit input at node 1, service along the
    superdiagonal, and overflow at rate 1 - 2**-(n+1) along the
    subdiagonal.  Capacities decrease gently along the chain and drop to
    1/(2n) at the tail, so overloads are discovered one node per outer
    pass and the solver's inner-iteration bound 1 + n(n+1)/2 is attained
    exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = np.zeros(n)
    alpha[0] = 1.0
    mu = np.empty(n)
    for i in range(1, n + 1):
        mu[i - 1] = 1.0 + (n - i) / (n * (n + 1)) if i < n else 1.0 / (2 * n)
    p = np.zeros((n, n))
    q = np.zeros((n, n))
    q_n = 1.0 - 2.0 ** -(n + 1)
    for i in range(n - 1):
        p[i, i + 1] = 1.0
        q[i + 1, i] = q_n
    return make_network(alpha, mu, p, q)


def gen_example3() -> Network:
    """Two communicating classes {1,2} and {3,4}: only the first can be
    filled, neither can be externally drained, and the second drains
    internally into the first.  No overflow routing."""
    alpha = [1.0, 0.0, 0.0, 0.0]
    mu = [1.0, 1.0, 1.0, 1.0]
    p = [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0, 0.0],
    ]
    return make_network(alpha, mu, p)


def gen_example4(alpha1: float) -> Network:
    """Three-node overflow triangle with input ``alpha1`` at node 1.

    Choosing the routing row of node 3 together with the overflow rows of
    nodes 1 and 2 yields a doubly stochastic matrix with spectral radius
    exactly 1, so the uniqueness condition fails for every input rate and
    the solution census depends on the magnitude of ``alpha1`` (``a`` below):

    * ``alpha1 < 1``: the unique solution ``[4a/3, 2a/3, 0]``;
    * ``alpha1 == 1``: a continuum of solutions based at ``[4/3, 2/3, 0]``;
    * ``alpha1 > 1``: the unique solution ``[4a/3 + 1, 2a/3 + 1, a]``, with
      all three nodes overloaded.
    """
    if alpha1 <= 0:
        raise ValueError(f"alpha1 must be positive, got {alpha1}")
    alpha = [float(alpha1), 0.0, 0.0]
    mu = [4.0 / 3.0, 2.0 / 3.0, 1.0]
    p = [
        [0.0, 0.5, 0.0],
        [0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0],
    ]
    q = [
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0],
    ]
    return make_network(alpha, mu, p, q)


def _random_routing(rng: _Draws, n: int, density: float, leak: float) -> np.ndarray:
    """One matrix of the documented draw order: for each row, inclusion
    draws for every off-diagonal column in ascending order, then weight
    draws for the included columns in ascending order; rows with at least
    one included entry are scaled to sum exactly 1 - leak."""
    m = np.zeros((n, n))
    for i in range(n):
        included = np.flatnonzero(rng.take(n - 1) < density)
        if not included.size:
            continue
        weights = rng.take(included.size)
        total = weights.sum()
        if total <= 0:
            continue
        off_diagonal = np.zeros(n - 1)
        off_diagonal[included] = weights * (1.0 - leak) / total
        m[i, :i], m[i, i + 1 :] = off_diagonal[:i], off_diagonal[i:]
    return m


def gen_random(
    n: int,
    seed: int,
    p_density: float = 0.5,
    q_density: float = 0.5,
    leak: float = 0.25,
) -> Network:
    """Deterministic random network from a splitmix64 stream.

    Every routing and overflow row sums to exactly 1 - leak (or 0 when no
    entries were included), so both matrices are strictly substochastic
    and the uniqueness condition holds by construction.  One node, chosen
    uniformly, receives input uniform in [0.1, 1.1); capacities are
    uniform in [0.5, 1.5).  Identical arguments produce identical
    networks.

    Draw order (one splitmix64 stream seeded with ``seed``): routing rows
    first, then overflow rows (inclusion draws then weight draws per row,
    columns ascending), then the input position, the input rate, and the
    n capacities.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for name, value in (("p_density", p_density), ("q_density", q_density)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if not 0.0 < leak <= 1.0:
        raise ValueError(f"leak must be in (0, 1], got {leak}")

    rng = _Draws(seed)
    p = _random_routing(rng, n, p_density, leak)
    q = _random_routing(rng, n, q_density, leak)
    u = rng.take(n + 2)
    alpha = np.zeros(n)
    alpha[min(int(u[0] * n), n - 1)] = 0.1 + u[1]
    mu = 0.5 + u[2:]
    return make_network(alpha, mu, p, q)
