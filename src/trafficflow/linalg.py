"""Dense linear-algebra kernels: left-sided linear solves with
singularity classification, the Neumann test that decides whether a
nonnegative matrix has spectral radius below 1 - RADIUS_MARGIN, and
spectral-radius estimation for the radii that get reported.

All vectors are row vectors, so solves have the form ``x @ A = b``.
Each solve is one LU factorization of the row-equilibrated transposed
system and one substitution, by LAPACK ``dgetrf`` and ``dgetrs`` from
the OpenBLAS that numpy's wheel bundles
(``numpy.libs/libscipy_openblas64_*.so``), called through ctypes so
that SciPy is never imported.  Where that library is missing, the
pure-Python elimination ``_eliminate`` is the kernel; the import decides
which, once.
"""

from __future__ import annotations

import ctypes
import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from ._graph import strongly_connected_components

#: A pivot below PIVOT_TOL times the row scale marks the system singular.
PIVOT_TOL = 1e-12
#: Residual threshold separating consistent from inconsistent singular systems.
CONSISTENCY_TOL = 1e-9
#: Strict-inequality margin for spectral comparisons against 1.
RADIUS_MARGIN = 1e-9
#: Number of matrix squarings used for the spectral-radius estimate.
_SQUARINGS = 64


def _find_lapack():
    """``(dgetrf, dgetrs)`` of numpy's bundled ILP64 OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(
            f
            for f in os.listdir(libs)
            if f.startswith("libscipy_openblas64_") and f.endswith(".so")
        )
        lib = ctypes.CDLL(os.path.join(libs, names[0]))
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
    except (OSError, IndexError, AttributeError):
        return None
    # Arrays go in as raw addresses; the last dgetrs argument is Fortran's
    # hidden length of TRANS.
    getrf.argtypes = [ctypes.c_void_p] * 6
    getrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
    getrf.restype = getrs.restype = None
    return getrf, getrs


_LAPACK = _find_lapack()


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


def _eliminate(a: np.ndarray, scale: np.ndarray, b: np.ndarray):
    """Fallback kernel for ``x @ a = b``: Gaussian elimination with scaled
    partial pivoting on ``a.T``, whose positive row scales are ``scale``.

    Returns the solution, or None when a pivot falls below PIVOT_TOL
    relative to its row scale.
    """
    n = a.shape[0]
    a, b, scale = a.T.copy(), b.copy(), scale.copy()
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k]) / scale[k:]))
        if abs(a[p, k]) <= PIVOT_TOL * scale[p]:
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


def _solve_lapack(a: np.ndarray, scale: np.ndarray, b: np.ndarray):
    """LAPACK kernel for ``x @ a = b``.

    Factors ``D^-1 a.T = P L U`` with ``dgetrf``, where D holds the row
    scales of ``a.T``, and substitutes ``D^-1 b`` with one ``dgetrs``.
    Partial pivoting on the equilibrated system picks the pivots of
    ``_eliminate``'s scaled partial pivoting, and ``|U_kk| <= PIVOT_TOL``
    is its relative pivot test.  Returns the solution, or None when
    singular.
    """
    getrf, getrs = _LAPACK
    n = a.shape[0]
    # C order, so LAPACK's column-major view of it is D^-1 a.T.
    lu = np.divide(a, scale, out=np.empty((n, n)))
    x = b / scale
    ints = np.empty(n + 3, dtype=np.int64)  # n, nrhs = 1, info, ipiv
    ints[:3] = n, 1, 0
    p = ints.ctypes.data
    getrf(p, p, lu.ctypes.data, p, p + 24, p + 16)
    if not (np.abs(lu.diagonal()) > PIVOT_TOL).all():
        return None
    getrs(b"N", p, p + 8, lu.ctypes.data, p, p + 24, x.ctypes.data, p, p + 16, 1)
    return x


#: The kernel behind every solve, chosen once at import.
_kernel = _eliminate if _LAPACK is None else _solve_lapack


def solve_left(a_matrix: np.ndarray, b) -> LinearSolveResult:
    """Solve ``x @ a_matrix = b`` for the row vector x.

    The kernel factors the transposed system with scaled partial
    pivoting and substitutes once.  A unique solution is reported only
    when every pivot clears the relative threshold and the solution is
    finite (equilibrating a column near the underflow limit can overflow
    it); otherwise the system is classified as singular-consistent or
    singular-inconsistent by the max-norm residual of a least-squares
    candidate against CONSISTENCY_TOL * (1 + |b|); a consistent system
    returns that candidate as ``x``.  Non-finite input raises ValueError.
    """
    a = _check_square(a_matrix)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")

    if n == 0:
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=b.copy())
    # Row scales of a.T; a NaN or inf entry makes its scale non-finite.
    scale = np.max(np.abs(a), axis=0)
    b_norm = float(np.max(np.abs(b)))
    if not (math.isfinite(b_norm) and np.all(np.isfinite(scale))):
        raise ValueError("matrix and rhs must be finite")
    # A zero row of a.T stays zero, so its scale of 1 changes no pivot.
    x = _kernel(a, np.where(scale > 0, scale, 1.0), b)
    if x is not None and np.isfinite(x).all():
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    candidate, *_ = np.linalg.lstsq(a.T, b, rcond=None)
    if float(np.max(np.abs(candidate @ a - b))) > CONSISTENCY_TOL * (1.0 + b_norm):
        return LinearSolveResult(status=SolveStatus.SINGULAR_INCONSISTENT, x=None)
    return LinearSolveResult(status=SolveStatus.SINGULAR_CONSISTENT, x=candidate)


def neumann_values(m: np.ndarray) -> np.ndarray | None:
    """Decide whether the nonnegative matrix ``m`` has spectral radius
    below s = 1 - RADIUS_MARGIN by solving ``(I - m/s) v = 1``.

    When the radius is below s, the Neumann series gives
    v = sum_k (m/s)^k 1 >= 1.  When it is s or more, the system is
    singular or some v_i <= 0 (Collatz-Wielandt: v > 0 with
    (m/s) v = v - 1 < v would bound the radius below s).  The midpoint
    test v >= 1/2 separates the two cases, so an exact tie counts as
    "not below".  Returns v when the radius is below s, None otherwise.
    """
    m = _check_square(m)
    n = m.shape[0]
    result = solve_left(np.eye(n) - m.T / (1.0 - RADIUS_MARGIN), np.ones(n))
    if result.status is SolveStatus.UNIQUE and np.all(result.x >= 0.5):
        return result.x
    return None


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
