"""Network data model, validation, residuals, and JSON serialization.

A fluid network is the tuple (alpha, mu, P, Q): exogenous input rates,
service capacities, a substochastic routing matrix, and a substochastic
overflow matrix.  Vectors are row vectors; ``x @ P`` sends the output of
node i to node j in proportion P[i, j].  A node with an all-zero Q row
has an infinite buffer: its excess inflow accumulates instead of being
rerouted.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NetworkFormatError

ROW_SUM_TOL = 1e-12
#: Nodes within this margin of capacity are classified as overloaded.
STABILITY_MARGIN = 1e-9


class Equation(enum.Enum):
    """Which fixed-point equation a rate vector is measured against."""

    JACKSON = "jackson"
    GOODMAN_MASSEY = "goodman-massey"
    OVERFLOW = "overflow"


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class _ValueEq:
    """Value equality for frozen dataclasses, declared with ``eq=False``,
    that hold arrays: arrays compare by ``np.array_equal`` and tuples
    elementwise; the hash reads only the fields that are neither."""

    def _values(self):
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _same(self._values(), other._values())

    def __hash__(self):
        return hash(tuple(v for v in self._values() if not isinstance(v, (np.ndarray, tuple))))


@dataclass(frozen=True, eq=False)
class Network(_ValueEq):
    """Immutable network model; arrays are copied and marked read-only."""

    n: int
    alpha: np.ndarray
    mu: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "mu", "p", "q"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def __repr__(self):
        return f"Network(n={self.n})"


@dataclass(frozen=True, eq=False)
class TrafficSolution(_ValueEq):
    """A rate vector together with its stability split and residual."""

    rates: np.ndarray
    stable: frozenset[int]
    unstable: frozenset[int]
    residual: float
    equation: Equation

    def __post_init__(self):
        object.__setattr__(self, "rates", _frozen(self.rates))


def make_network(alpha, mu, p, q=None) -> Network:
    """Build a Network from array-likes, inferring n and defaulting Q=0."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0] if alpha.ndim == 1 else 0
    if q is None:
        q = np.zeros((n, n))
    return Network(n=n, alpha=alpha, mu=mu, p=p, q=q)


def _overloaded(rates: np.ndarray, mu: np.ndarray) -> frozenset[int]:
    """``classify_nodes``'s unstable set of the float arrays ``rates``
    and ``mu``."""
    return frozenset((rates >= mu - STABILITY_MARGIN).nonzero()[0].tolist())


def classify_nodes(rates, mu) -> tuple[frozenset[int], frozenset[int]]:
    """Split nodes into (stable, unstable) with the documented margin.

    A node is unstable when its rate is within STABILITY_MARGIN of its
    capacity or above it; results within the margin of the boundary are
    classification-fragile.
    """
    mu = np.asarray(mu, dtype=float)
    unstable = _overloaded(np.asarray(rates, dtype=float), mu)
    stable = frozenset(range(len(mu))) - unstable
    return stable, unstable


def validate_network(net: Network) -> list[str]:
    """Check every model invariant; return a list of violations (empty if valid).

    Failures are data, not exceptions: each entry names the broken
    invariant and the offending index or row.
    """
    problems: list[str] = []
    n = net.n
    if not isinstance(n, (int, np.integer)) or n < 1:
        problems.append(f"n must be a positive integer, got {n!r}")
        return problems
    if net.alpha.shape != (n,):
        problems.append(f"alpha has shape {net.alpha.shape}, expected ({n},)")
    if net.mu.shape != (n,):
        problems.append(f"mu has shape {net.mu.shape}, expected ({n},)")
    for name in ("p", "q"):
        m = getattr(net, name)
        if m.shape != (n, n):
            problems.append(f"{name} has shape {m.shape}, expected ({n}, {n})")
    if problems:
        return problems

    for name in ("alpha", "mu", "p", "q"):
        arr = getattr(net, name)
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} contains non-finite entries")
    if problems:
        return problems

    for i in np.flatnonzero(net.alpha < 0):
        problems.append(f"alpha[{i + 1}] = {net.alpha[i]} is negative")
    for i in np.flatnonzero(net.mu <= 0):
        problems.append(f"mu[{i + 1}] = {net.mu[i]} is not strictly positive")
    for name in ("p", "q"):
        m = getattr(net, name)
        rows, cols = np.nonzero(m < 0)
        for i, j in zip(rows, cols):
            problems.append(f"{name}[{i + 1}][{j + 1}] = {m[i, j]} is negative")
        sums = m.sum(axis=1)
        for i in np.flatnonzero(sums > 1.0 + ROW_SUM_TOL):
            problems.append(f"row {i + 1} of {name} sums to {sums[i]} > 1")
    return problems


def residual(net: Network, rates, equation: Equation) -> float:
    """Max-norm residual of ``rates`` against the chosen traffic equation.

    The right-hand sides are, per node i:

    * Jackson:        alpha + rates @ P
    * Goodman-Massey: alpha + min(rates, mu) @ P
    * overflow:       alpha + min(rates, mu) @ P + max(rates - mu, 0) @ Q

    Exact arithmetic of the right-hand side; no damping.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (net.n,):
        raise ValueError(f"rates has shape {rates.shape}, expected ({net.n},)")
    if equation is Equation.JACKSON:
        rhs = net.alpha + rates @ net.p
    elif equation is Equation.GOODMAN_MASSEY:
        rhs = net.alpha + np.minimum(rates, net.mu) @ net.p
    elif equation is Equation.OVERFLOW:
        rhs = (
            net.alpha
            + np.minimum(rates, net.mu) @ net.p
            + np.maximum(rates - net.mu, 0.0) @ net.q
        )
    else:
        raise ValueError(f"unknown equation kind: {equation!r}")
    return float(np.max(np.abs(rates - rhs)))


def _reject_constant(token):
    raise NetworkFormatError(f"non-finite number token {token!r} not permitted")


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise NetworkFormatError(f"{where} is not finite")
    return float(value)


def _as_vector(value, n, name):
    if not isinstance(value, list) or len(value) != n:
        raise NetworkFormatError(f'"{name}" must be an array of {n} numbers')
    return [_as_number(v, f"{name}[{i + 1}]") for i, v in enumerate(value)]


def _as_matrix(value, n, name):
    if not isinstance(value, list) or len(value) != n:
        raise NetworkFormatError(f'"{name}" must be an array of {n} rows')
    return [_as_vector(row, n, f"{name}[{i + 1}]") for i, row in enumerate(value)]


def parse_network(text: str | bytes) -> Network:
    """Parse a UTF-8 JSON network document.

    Top-level keys: "n" (integer), "alpha", "mu" (arrays of n numbers),
    "p", "q" (arrays of n arrays of n numbers).  "q" may be omitted,
    meaning Q = 0.  NaN/Infinity tokens are rejected.  The parsed network
    must satisfy every model invariant.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("document root must be an object")
    if "n" not in doc:
        raise NetworkFormatError('missing key "n"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise NetworkFormatError(f'"n" must be a positive integer, got {n!r}')
    for key in ("alpha", "mu", "p"):
        if key not in doc:
            raise NetworkFormatError(f'missing key "{key}"')
    alpha = _as_vector(doc["alpha"], n, "alpha")
    mu = _as_vector(doc["mu"], n, "mu")
    p = _as_matrix(doc["p"], n, "p")
    if "q" in doc:
        q = _as_matrix(doc["q"], n, "q")
    else:
        q = [[0.0] * n for _ in range(n)]
    net = Network(n=n, alpha=np.array(alpha), mu=np.array(mu), p=np.array(p), q=np.array(q))
    problems = validate_network(net)
    if problems:
        raise NetworkFormatError(problems)
    return net


def serialize_network(net: Network) -> str:
    """Serialize to the JSON document format; round-trips exactly.

    Floats are written with Python's shortest round-trip representation,
    which preserves at least 17 significant digits of information.
    """
    doc = {
        "n": int(net.n),
        "alpha": [float(v) for v in net.alpha],
        "mu": [float(v) for v in net.mu],
        "p": [[float(v) for v in row] for row in net.p],
        "q": [[float(v) for v in row] for row in net.q],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return parse_network(fh.read())


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_network(net))
