"""Dense linear-algebra kernels: left-sided linear solves with
singularity classification, and spectral-radius estimation for
nonnegative matrices.

All vectors are row vectors, so solves have the form ``x @ A = b``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._graph import strongly_connected_components

#: A pivot below PIVOT_TOL times the row scale marks the system singular.
PIVOT_TOL = 1e-12
#: Residual threshold separating consistent from inconsistent singular systems.
CONSISTENCY_TOL = 1e-9
#: Number of matrix squarings used for the spectral-radius estimate.
_SQUARINGS = 64


class SolveStatus(enum.Enum):
    UNIQUE = "unique"
    SINGULAR_CONSISTENT = "singular-consistent"
    SINGULAR_INCONSISTENT = "singular-inconsistent"


@dataclass(frozen=True)
class LinearSolveResult:
    status: SolveStatus
    x: np.ndarray | None


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return m


def _eliminate(mt: np.ndarray, rhs: np.ndarray):
    """Gaussian elimination with scaled partial pivoting on ``mt y = rhs``.

    Returns the solution, or None when a pivot falls below PIVOT_TOL
    relative to its row scale.
    """
    n = mt.shape[0]
    a = mt.copy()
    b = rhs.copy()
    scale = np.max(np.abs(a), axis=1)
    for k in range(n):
        col = np.abs(a[k:, k])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(scale[k:] > 0, col / scale[k:], 0.0)
        p = k + int(np.argmax(ratios))
        if abs(a[p, k]) <= PIVOT_TOL * max(scale[p], np.finfo(float).tiny):
            return None
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
            scale[[k, p]] = scale[[p, k]]
        if k + 1 < n:
            factors = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
            b[k + 1 :] -= factors * b[k]
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def solve_left(a_matrix: np.ndarray, b) -> LinearSolveResult:
    """Solve ``x @ a_matrix = b`` for the row vector x.

    The elimination runs on the transposed system with scaled partial
    pivoting.  A unique solution is reported only when every pivot clears
    the relative threshold; otherwise the system is classified as
    singular-consistent or singular-inconsistent by the max-norm residual
    of a least-squares candidate against CONSISTENCY_TOL * (1 + |b|).
    """
    a = _check_square(a_matrix)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")

    if n == 0:
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=b.copy())
    x = _eliminate(a.T, b)
    bound = CONSISTENCY_TOL * (1.0 + float(np.max(np.abs(b))))
    if x is None:
        candidate, *_ = np.linalg.lstsq(a.T, b, rcond=None)
        res = float(np.max(np.abs(candidate @ a - b)))
        status = (
            SolveStatus.SINGULAR_CONSISTENT
            if res <= bound
            else SolveStatus.SINGULAR_INCONSISTENT
        )
        return LinearSolveResult(status=status, x=None)

    res = float(np.max(np.abs(x @ a - b)))
    if res > bound:
        # One pass of iterative refinement; these systems are rarely this
        # ill-conditioned, so the extra elimination is acceptable.
        dx = _eliminate(a.T, b - x @ a)
        if dx is not None:
            x = x + dx
    return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)


def has_stochastic_class(m: np.ndarray) -> bool:
    """Detect a communicating class whose in-class row sums are all 1.

    The check is combinatorial (row sums within 1e-12 of 1 on a strongly
    connected block) and certifies that the spectral radius is at least 1
    without relying on floating-point eigenvalue estimates.
    """
    m = _check_square(m)
    for cls in strongly_connected_components(m):
        idx = np.array(sorted(cls), dtype=int)
        block_sums = m[np.ix_(idx, idx)].sum(axis=1)
        if np.all(np.abs(block_sums - 1.0) <= 1e-12):
            return True
    return False


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix.

    Uses the Gelfand limit via repeated squaring: the matrix is
    renormalized by its max-norm at every squaring and the logs of the
    norms are accumulated, so after k squarings the estimate is
    ``exp(t_k / 2**k)``.  Unlike power iteration this is oblivious to
    reducibility and periodicity.  When a stochastic communicating block
    certifies a radius of exactly 1 and the numeric estimate agrees to
    1e-9, exactly 1.0 is returned.
    """
    m = _check_square(m)
    if m.size == 0:
        return 0.0
    if np.any(m < 0):
        raise ValueError("matrix must be nonnegative")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")

    norm = float(np.max(m))
    if norm == 0.0:
        return 0.0
    a = m / norm
    log_scale = math.log(norm)
    estimate = norm
    for k in range(1, _SQUARINGS + 1):
        a = a @ a
        norm = float(np.max(a))
        if norm == 0.0:
            estimate = 0.0
            break
        log_scale = 2.0 * log_scale + math.log(norm)
        a = a / norm
        estimate = math.exp(log_scale / float(2**k))

    if abs(estimate - 1.0) <= 1e-9 and has_stochastic_class(m):
        return 1.0
    return estimate
