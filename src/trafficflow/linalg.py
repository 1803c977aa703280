"""Linear-algebra kernels: left-sided linear solves with singularity
classification, the Neumann test that decides whether a nonnegative
matrix has spectral radius below 1 - RADIUS_MARGIN, and spectral-radius
estimation for the radii that get reported.

All vectors are row vectors, so solves have the form ``x @ A = b``.
Each solve is one LU factorization of the row-equilibrated transposed
system and one substitution, by LAPACK from the OpenBLAS that numpy's
wheel bundles (``numpy.libs/libscipy_openblas64_*.so``), called through
ctypes so that SciPy is never imported.  The factorization is dense
(``dgetrf``/``dgetrs``) unless the caller states a band that is narrow
against a system of more than BAND_MIN_ROWS rows; then it is banded
(``dgbtrf``/``dgbtrs``), with the same pivots in exact arithmetic and
the same pivot test.  Where that library is missing, the pure-Python
dense elimination ``_eliminate`` is the kernel; the import decides
which, once.  The kernels take a stack of systems with a leading batch
axis and solve it slice by slice: ``solve_left`` passes a stack of one,
and the census passes a chunk of pattern systems.
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
#: Systems of at most this many rows are factored dense even when a band
#: is given: there banded LU is no faster, and its first call pages in
#: more memory.
BAND_MIN_ROWS = 32


def _find_lapack():
    """``(dgetrf, dgetrs, dgbtrf, dgbtrs)`` of numpy's bundled ILP64
    OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(
            f
            for f in os.listdir(libs)
            if f.startswith("libscipy_openblas64_") and f.endswith(".so")
        )
        lib = ctypes.CDLL(os.path.join(libs, names[0]))
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
        gbtrf, gbtrs = lib.scipy_dgbtrf_64_, lib.scipy_dgbtrs_64_
    except (OSError, IndexError, AttributeError):
        return None
    # Arrays go in as raw addresses; the last argument of each substitution
    # is Fortran's hidden length of TRANS.
    getrf.argtypes = [ctypes.c_void_p] * 6
    getrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
    gbtrf.argtypes = [ctypes.c_void_p] * 8
    gbtrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
    for f in (getrf, getrs, gbtrf, gbtrs):
        f.restype = None
    return getrf, getrs, gbtrf, gbtrs


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


def _eliminate(a: np.ndarray, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fallback kernel for the stacked systems ``x[i] @ a[i] = b[i]``:
    Gaussian elimination with scaled partial pivoting on each ``a[i].T``,
    whose positive row scales are ``scale[i]``, one slice at a time.

    Returns the solutions, with a row of NaN for each slice where a pivot
    falls below PIVOT_TOL relative to its row scale.
    """
    n = b.shape[1]
    out = np.full(b.shape, np.nan)
    # Private copies; the row swaps below act on one slice of them.
    for x, t, rhs, rs in zip(out, a.transpose(0, 2, 1).copy(), b.copy(), scale.copy()):
        for k in range(n):
            p = k + int(np.argmax(np.abs(t[k:, k]) / rs[k:]))
            if abs(t[p, k]) <= PIVOT_TOL * rs[p]:
                break
            if p != k:
                t[[k, p]] = t[[p, k]]
                rhs[[k, p]] = rhs[[p, k]]
                rs[[k, p]] = rs[[p, k]]
            if k + 1 < n:
                factors = t[k + 1 :, k] / t[k, k]
                t[k + 1 :, k:] -= np.outer(factors, t[k, k:])
                rhs[k + 1 :] -= factors * rhs[k]
        else:
            for k in range(n - 1, -1, -1):
                x[k] = (rhs[k] - t[k, k + 1 :] @ x[k + 1 :]) / t[k, k]
    return out


def _solve_lapack(a: np.ndarray, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK kernel for the stacked systems ``x[i] @ a[i] = b[i]``.

    Factors each ``D^-1 a[i].T = P L U`` with ``dgetrf``, where D holds
    the row scales of ``a[i].T``, and substitutes ``D^-1 b[i]`` with one
    ``dgetrs``, slice by slice by address.  Partial pivoting on the
    equilibrated system picks the pivots of ``_eliminate``'s scaled
    partial pivoting, and ``|U_kk| <= PIVOT_TOL`` is its relative pivot
    test.  Returns the solutions, with a row of NaN for each singular slice.
    """
    getrf, getrs = _LAPACK[:2]
    k, n = b.shape
    # C order, so LAPACK's column-major view of each slice is D^-1 a[i].T.
    lu = np.divide(a, scale[:, None, :], out=np.empty(a.shape))
    x = b / scale
    # n, nrhs = 1, info, then each slice's row interchanges.
    ints = np.empty(3 + k * n, dtype=np.int64)
    ints[:3] = n, 1, 0
    p, lu_at, x_at = ints.ctypes.data, lu.ctypes.data, x.ctypes.data
    row = 8 * n
    for i in range(k):
        getrf(p, p, lu_at + i * n * row, p, p + 24 + i * row, p + 16)
    regular = (np.abs(lu.reshape(k, n * n)[:, :: n + 1]) > PIVOT_TOL).all(axis=1)
    for i in range(k):
        if regular[i]:
            at = i * row
            getrs(b"N", p, p + 8, lu_at + n * at, p, p + 24 + at, x_at + at, p, p + 16, 1)
        else:
            x[i] = np.nan
    return x


def _solve_banded(
    a: np.ndarray, scale: np.ndarray, b: np.ndarray, kl: int, ku: int
) -> np.ndarray:
    """``_solve_lapack`` for stacked systems whose ``a[i].T`` has at most
    ``kl`` subdiagonals and ``ku`` superdiagonals, by ``dgbtrf`` and
    ``dgbtrs`` on LAPACK band storage.

    Row partial pivoting within the band picks the dense pivots, since
    every candidate outside it is 0, and ``|U_kk| <= PIVOT_TOL`` on the
    band row that holds U's diagonal is the same relative pivot test.
    Entries of ``a`` outside the band are ignored.
    """
    gbtrf, gbtrs = _LAPACK[2:]
    k, n = b.shape
    width = 2 * kl + ku + 1
    # Row c of a slice of LAPACK's band storage is column c of the
    # equilibrated transpose M after kl entries for fill-in: entry kl + t
    # is M[j, c] = a[i, c, j] / scale[i, j] for j = c - ku + t, or 0 where
    # j falls outside the matrix.  Gathering only the band, rather than
    # copying the whole system, keeps every temporary small.
    c = np.arange(n)[:, None]
    cols = c + np.arange(-ku, kl + 1)
    inside = (cols >= 0) & (cols < n)
    cols = np.where(inside, cols, 0)
    ab = np.zeros((k, n, width))
    np.divide(a[:, c, cols], scale[:, cols], out=ab[:, :, kl:], where=inside)
    x = b / scale
    # n, kl, ku, width, nrhs = 1, info, then each slice's row interchanges.
    ints = np.empty(6 + k * n, dtype=np.int64)
    ints[:6] = n, kl, ku, width, 1, 0
    p, ab_at, x_at = ints.ctypes.data, ab.ctypes.data, x.ctypes.data
    row = 8 * n
    for i in range(k):
        gbtrf(p, p, p + 8, p + 16, ab_at + i * width * row, p + 24, p + 48 + i * row, p + 40)
    regular = (np.abs(ab[:, :, kl + ku]) > PIVOT_TOL).all(axis=1)
    for i in range(k):
        if regular[i]:
            at = i * row
            ab_i, piv_i = ab_at + width * at, p + 48 + at
            gbtrs(b"N", p, p + 8, p + 16, p + 32, ab_i, p + 24, piv_i, x_at + at, p, p + 40, 1)
        else:
            x[i] = np.nan
    return x


#: The kernel behind every solve, chosen once at import.
_kernel = _eliminate if _LAPACK is None else _solve_lapack


def _solve_stack(a: np.ndarray, b: np.ndarray, band=None) -> np.ndarray:
    """Kernel solutions of the stacked systems ``x[i] @ a[i] = b[i]``,
    for ``a`` of shape (k, n, n) and ``b`` of shape (k, n).

    ``band`` is ``solve_left``'s: given as ``(kl, ku)`` on a system of
    more than BAND_MIN_ROWS rows with ``2 kl + ku + 1 < n``, the LAPACK
    kernel factors it banded.  The fallback kernel ignores it.

    A row that is not finite marks a singular system: the kernel fills a
    slice that fails the pivot test with NaN, and dividing by a column
    scale near the underflow limit (the LAPACK kernel's equilibration, or
    the fallback's substitution) can overflow a solution.  That is a
    verdict, not an accident, so the floating-point warning is silenced.
    Non-finite input raises ValueError.
    """
    if b.shape[1] == 0:  # LAPACK rejects a leading dimension of 0
        return b.copy()
    # Row scales of each a[i].T; a NaN or inf entry makes its scale
    # non-finite, and a zero row stays zero, so its scale of 1 changes no
    # pivot.
    scale = np.abs(a).max(axis=1)
    if not (np.isfinite(scale).all() and np.isfinite(b).all()):
        raise ValueError("matrix and rhs must be finite")
    scale = np.where(scale > 0, scale, 1.0)
    n = b.shape[1]
    narrow = band is not None and n > BAND_MIN_ROWS and 2 * band[0] + band[1] + 1 < n
    with np.errstate(over="ignore", invalid="ignore"):
        if narrow and _kernel is _solve_lapack:
            return _solve_banded(a, scale, b, *band)
        return _kernel(a, scale, b)


def _solve_singular(a: np.ndarray, b: np.ndarray) -> LinearSolveResult:
    """Classify ``x @ a = b`` after its kernel solve failed, by the
    max-norm residual of a least-squares candidate against
    CONSISTENCY_TOL * (1 + |b|); a consistent system returns that
    candidate as ``x``."""
    candidate, *_ = np.linalg.lstsq(a.T, b, rcond=None)
    b_norm = float(np.max(np.abs(b)))
    if float(np.max(np.abs(candidate @ a - b))) > CONSISTENCY_TOL * (1.0 + b_norm):
        return LinearSolveResult(status=SolveStatus.SINGULAR_INCONSISTENT, x=None)
    return LinearSolveResult(status=SolveStatus.SINGULAR_CONSISTENT, x=candidate)


def solve_left(a_matrix: np.ndarray, b, *, band=None) -> LinearSolveResult:
    """Solve ``x @ a_matrix = b`` for the row vector x.

    The kernel factors the transposed system with scaled partial
    pivoting and substitutes once, as a stack of one system.  ``band``,
    when given as ``(kl, ku)``, is the caller's statement of where
    ``a_matrix`` is nonzero: off the diagonal only at ``[i, j]`` with
    ``-ku <= j - i <= kl``.  It lets a large system be factored banded
    (see ``_solve_stack``); entries outside it are then ignored.  A unique
    solution is reported only when every pivot clears the relative
    threshold and the solution is finite; otherwise ``_solve_singular``
    classifies the system as singular-consistent or
    singular-inconsistent.  Non-finite input raises ValueError.
    """
    a = _check_square(a_matrix)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    x = _solve_stack(a[None], b[None], band)[0]
    if np.isfinite(x).all():
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    return _solve_singular(a, b)


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
