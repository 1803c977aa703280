"""Linear-algebra kernels: left-sided linear solves with singularity
classification, the Neumann test that decides whether a nonnegative
matrix has spectral radius below 1 - RADIUS_MARGIN, and spectral-radius
estimation for the radii that get reported.

All vectors are row vectors, so solves have the form ``x @ A = b``.
Each solve is one LAPACK call, ``dgesv`` (or ``dgbsv`` when
``solve_reduced`` is given a narrow band), on the row-equilibrated
transposed system, from the OpenBLAS that numpy's wheel bundles
(``numpy.libs/libscipy_openblas64_*.so``), called through ctypes so that
SciPy is never imported.  Where that library is missing, the pure-Python
elimination ``_eliminate`` is the kernel; the import decides which, once.
``solve_left`` solves one system given as an array.  ``solve_reduced``
solves ``x_R (I - C_RR) = b_R`` given the rows C_R, forming the system in
the kernel's buffer: a banded one as its band alone, with no r x r array,
and with no equilibration when the caller states that every column scale
is 1.  The census solves a stack of pattern systems with
``_solve_stack``.  A stack whose every system has a unit diagonal and
rows of off-diagonal absolute sum below ``1 - 2 PIVOT_TOL`` needs neither
equilibration (every row scale is 1) nor the pivot test (no pivot falls
below that margin), so it goes to the same ``dgesv`` in one
``numpy.linalg.solve`` call, with the same bits.
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
    """``(dgesv, dgbsv)`` of numpy's bundled ILP64 OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(
            f
            for f in os.listdir(libs)
            if f.startswith("libscipy_openblas64_") and f.endswith(".so")
        )
        lib = ctypes.CDLL(os.path.join(libs, names[0]))
        gesv, gbsv = lib.scipy_dgesv_64_, lib.scipy_dgbsv_64_
    except (OSError, IndexError, AttributeError):
        return None
    # Every argument goes in as a raw address.
    gesv.argtypes = [ctypes.c_void_p] * 8
    gbsv.argtypes = [ctypes.c_void_p] * 10
    gesv.restype = gbsv.restype = None
    return gesv, gbsv


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


def _regular(diagonal: np.ndarray):
    """The pivot test on the diagonal of U, along the last axis, which
    the LAPACK kernels leave in place: every ``|U_kk| > PIVOT_TOL``."""
    return np.abs(diagonal).min(axis=-1) > PIVOT_TOL


def _solve_lapack(a: np.ndarray, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK kernel for the stacked systems ``x[i] @ a[i] = b[i]``.

    Solves each ``(D^-1 a[i].T) x[i] = D^-1 b[i]`` with one ``dgesv``,
    where D holds the row scales of ``a[i].T``, slice by slice by address.
    Partial pivoting on the equilibrated system picks the pivots of
    ``_eliminate``'s scaled partial pivoting, and ``_regular`` is its
    relative pivot test.  Returns the solutions, with a row of NaN for
    each singular slice.  The calls go slice by slice so that each U
    diagonal stays readable for that test; ``_solve_stack`` hands this
    kernel only the stacks ``_dominant`` does not certify.  Unlike
    ``_dense_buffer`` it keeps three arrays: one buffer per census chunk
    raised the census's peak memory 0.1 MB.
    """
    k, n = b.shape
    # C order, so LAPACK's column-major view of each slice is D^-1 a[i].T.
    lu = np.divide(a, scale[:, None, :], out=np.empty(a.shape))
    x = b / scale
    # n, nrhs = 1, info, then the row interchanges.
    ints = np.empty(3 + n, dtype=np.int64)
    ints[:3] = n, 1, 0
    p, lu_at, x_at = ints.ctypes.data, lu.ctypes.data, x.ctypes.data
    gesv, nrhs, info, piv = _LAPACK[0], p + 8, p + 16, p + 24
    for at in range(0, 8 * k * n, 8 * n):  # 8 n i, the byte offset of x[i]
        gesv(p, nrhs, lu_at + n * at, p, piv, x_at + at, p, info)
    x[~_regular(lu.reshape(k, n * n)[:, :: n + 1])] = np.nan
    return x


def _dense_buffer(n: int):
    """One ``dgesv`` buffer for an order-n system, so one address lookup:
    n, nrhs = 1, info, the row interchanges, the matrix in column-major
    order, then the rhs.  Returns it with views of the matrix, as the rows
    of its transpose, and of the rhs."""
    head = 3 + n
    buf = np.empty(head + n * (n + 1))
    buf[:3].view(np.int64)[:] = n, 1, 0
    return buf, buf[head : head + n * n].reshape(n, n), buf[head + n * n :]


def _gesv(buf: np.ndarray, lu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Run ``dgesv`` on a filled ``_dense_buffer``: the solution, or NaN
    where ``_regular`` fails."""
    n = len(x)
    p = buf.ctypes.data
    lu_at = p + 8 * (3 + n)
    _LAPACK[0](p, p + 8, lu_at, p, p + 24, lu_at + 8 * n * n, p, p + 16)
    # A copy, so that the factors are freed on return.
    return x.copy() if _regular(lu.reshape(-1)[:: n + 1]) else np.full(n, np.nan)


def _band_buffer(n: int, kl: int, ku: int):
    """The ``dgbsv`` counterpart of ``_dense_buffer``, zeroed: n, kl, ku,
    the leading dimension 2 kl + ku + 1, nrhs = 1, info, the row
    interchanges, the band storage, then the rhs.  Row c of the band
    storage is column c of the matrix M: kl entries for fill-in, then entry
    kl + t is ``M[c - ku + t, c]``.  Returns it with views of the band
    storage and of the rhs."""
    width = 2 * kl + ku + 1
    head = 6 + n
    buf = np.zeros(head + n * (width + 1))
    buf[:6].view(np.int64)[:] = n, kl, ku, width, 1, 0
    return buf, buf[head : head + n * width].reshape(n, width), buf[head + n * width :]


def _gbsv(buf: np.ndarray, ab: np.ndarray, x: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Run ``dgbsv`` on a filled ``_band_buffer``: the solution, or NaN
    where ``_regular`` fails on the band row that holds U's diagonal.  Row
    partial pivoting within the band picks the dense pivots, since every
    candidate outside it is 0, so this is the dense pivot test."""
    n, width = ab.shape
    p = buf.ctypes.data
    ab_at = p + 8 * (6 + n)
    _LAPACK[1](p, p + 8, p + 16, p + 32, ab_at, p + 24, p + 48, ab_at + 8 * n * width, p, p + 40)
    return x.copy() if _regular(ab[:, kl + ku]) else np.full(n, np.nan)


#: The kernel behind every solve, chosen once at import.
_kernel = _eliminate if _LAPACK is None else _solve_lapack


def _row_scales(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The row scales of ``a.T`` (of each ``a[i].T`` in a stack), 1 for a
    zero row, which changes no pivot; non-finite input raises ValueError."""
    scale = np.abs(a).max(axis=-2)
    if not (np.isfinite(scale).all() and np.isfinite(b).all()):
        raise ValueError("matrix and rhs must be finite")
    return np.where(scale > 0, scale, 1.0)


def _dominant(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every ``a[i]`` has a unit diagonal and rows whose
    off-diagonal absolute sums are below ``1 - 2 PIVOT_TOL``, and ``b`` is
    finite.  Each ``a[i].T`` is then diagonally dominant by columns, so
    partial pivoting never swaps rows and every pivot is at least the
    margin, less rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 9.5).  Non-finite entries fail the test.
    """
    n = b.shape[1]
    i = np.arange(n)
    if not ((a[:, i, i] == 1.0).all() and np.isfinite(b).all()):
        return False
    off = np.abs(a)
    off[:, i, i] = 0.0
    # A product with ones sums these short rows about 4x faster than sum().
    return bool((off.reshape(-1, n) @ np.ones(n) < 1.0 - 2 * PIVOT_TOL).all())


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel solutions of the stacked systems ``x[i] @ a[i] = b[i]``,
    for ``a`` of shape (k, n, n) and ``b`` of shape (k, n).

    Under the LAPACK kernel a ``_dominant`` stack is solved by one
    ``numpy.linalg.solve`` call on ``a[i].T``: its row scales are all 1,
    so these are the bytes ``_solve_lapack`` would equilibrate, numpy
    hands them to the same bundled ``dgesv``, and every pivot passes
    ``_regular``.  Any other stack goes to the kernel.

    A row that is not finite marks a singular system: the kernel fills a
    slice that fails the pivot test with NaN, and dividing by a column
    scale near the underflow limit can overflow a solution.  That is a
    verdict, so the floating-point warning is silenced.
    """
    if b.shape[1] == 0:  # LAPACK rejects a leading dimension of 0
        return b.copy()
    if _kernel is _solve_lapack and _dominant(a, b):
        return np.linalg.solve(a.transpose(0, 2, 1), b[:, :, None]).reshape(b.shape)
    scale = _row_scales(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _solve(a: np.ndarray, b: np.ndarray) -> LinearSolveResult:
    """One system ``x @ a = b``, dense, with the bits of a stack of one
    through ``_solve_stack`` but no stack axis.  ``_solve_singular``
    classifies a non-finite solution."""
    if len(b) == 0 or _kernel is not _solve_lapack:
        x = _solve_stack(a[None], b[None])[0]
    else:
        scale = _row_scales(a, b)
        buf, lu, x = _dense_buffer(len(b))
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(a, scale, out=lu)
            np.divide(b, scale, out=x)
        x = _gesv(buf, lu, x)
    if np.isfinite(x).all():
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    return _solve_singular(a, b)


def solve_left(a_matrix: np.ndarray, b) -> LinearSolveResult:
    """Solve ``x @ a_matrix = b`` for the row vector x.

    One dense kernel call factors the transposed system with scaled
    partial pivoting and substitutes.  The status is unique only when
    every pivot clears the relative threshold and the solution is finite;
    otherwise the system is singular-consistent (with a least-squares x)
    or singular-inconsistent.  Non-finite input raises ValueError.
    """
    a = _check_square(a_matrix)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    return _solve(a, b)


def _identity_minus(m: np.ndarray, diagonal: np.ndarray) -> None:
    """Overwrite m with ``I - m``, given the view ``diagonal`` of m that I
    covers, by the IEEE operations of ``np.eye(n) - m``: ``0 - c`` is
    exact, so ``1 + (0 - c)`` is ``1 - c``."""
    np.subtract(0.0, m, out=m)
    diagonal += 1.0


def _reduced_system(routes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``I - C_RR`` as an array, from ``solve_reduced``'s arguments."""
    return np.eye(len(rows)) - routes[:-1].take(rows, 1)


def _reduced_dense(routes, rows, b, unit_scales):
    """The dense kernel on ``I - C_RR``, gathered into its buffer."""
    buf, lu, x = _dense_buffer(len(b))
    # Every index is in range; "clip" only lets take write to out unbuffered.
    routes[:-1].take(rows, 1, out=lu, mode="clip")
    _identity_minus(lu, lu.reshape(-1)[:: len(b) + 1])
    if unit_scales:
        x[:] = b
    else:
        scale = _row_scales(lu, b)
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(lu, scale, out=lu)
            np.divide(b, scale, out=x)
    return _gesv(buf, lu, x)


def _windows(v: np.ndarray, w: int) -> np.ndarray:
    """The views ``v[c : c + w]``, as the rows of one array.  Not numpy's
    ``sliding_window_view``: under numpy 2.4 its memory use grew with the
    number of calls, about 1 MB of peak RSS over ten cell-grid sweeps."""
    return np.ndarray((len(v) - w + 1, w), v.dtype, v, strides=2 * v.strides)


def _reduced_banded(routes, rows, b, kl, ku, unit_scales):
    """The banded kernel on ``I - C_RR``, whose band is gathered straight
    from ``routes`` into band storage: no r x r system is built."""
    r, n = len(b), routes.shape[1]
    w = kl + ku + 1
    buf, ab, x = _band_buffer(r, kl, ku)
    # Slot [c, t] is (I - C_RR)[c, j] for j = c - ku + t, at the flat index
    # c n + rows[j] of routes.  A j outside the system indexes past the
    # end, which "clip" maps to the last entry, in the zero row.
    cols = np.full(r + w - 1, routes.size)
    cols[ku : ku + r] = rows
    index = np.arange(0, r * n, n)[:, None] + _windows(cols, w)
    if unit_scales:
        band = ab[:, kl:]
    else:
        # With kl zero rows above the band and ku below it.
        padded = np.zeros((r + w - 1, w))
        band = padded[kl : kl + r]
    np.take(routes, index, out=band, mode="clip")
    _identity_minus(band, band[:, ku])
    if unit_scales:
        x[:] = b
    else:
        # Column j of the system, the slots [c, j - c + ku] for c = j - kl
        # ... j + ku, is one strided row of ``columns``.
        columns = np.ndarray((r, w), float, padded, 8 * (w - 1), (8 * w, 8 * (w - 1)))
        scale = _row_scales(columns.T, b)
        ones = np.ones(r + w - 1)
        ones[ku : ku + r] = scale
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(band, _windows(ones, w), out=ab[:, kl:])
            np.divide(b, scale, out=x)
    return _gbsv(buf, ab, x, kl, ku)


def solve_reduced(
    routes: np.ndarray,
    rows: np.ndarray,
    b: np.ndarray,
    band: tuple[int, int] | None = None,
    unit_scales: bool = False,
) -> LinearSolveResult:
    """``solve_left`` of ``x_R @ (I - C_RR) = b[R]`` for the ascending
    indices R = ``rows`` of ``b`` (n) and of an n x n matrix C, given as
    ``routes``: C's rows R, then one row of zeros.  No row gives the empty
    solution.  The system is formed in the kernel's buffer by the IEEE
    operations of ``np.eye(n) - C``.

    ``band``, given as ``(kl, ku)``, is the caller's statement that C is
    nonzero off its diagonal only at ``[i, j]`` with ``-ku <= j - i <=
    kl``; so is ``C_RR``, whose rows and columns keep their order.  A
    system of more than BAND_MIN_ROWS rows with ``2 kl + ku + 1`` below
    its order is then factored banded, ignoring entries outside the band.
    ``unit_scales`` states that C has a zero diagonal and entries in
    [0, 1]: every column scale of ``I - C_RR`` is then exactly 1, so
    equilibration is skipped and only the rhs is checked for finiteness.
    """
    r = len(rows)
    b = b.take(rows)
    if r == 0 or _kernel is not _solve_lapack:
        return _solve(_reduced_system(routes, rows), b)
    if unit_scales and not np.isfinite(b).all():
        raise ValueError("matrix and rhs must be finite")
    if band is not None and r > BAND_MIN_ROWS and 2 * band[0] + band[1] + 1 < r:
        x = _reduced_banded(routes, rows, b, *band, unit_scales)
    else:
        x = _reduced_dense(routes, rows, b, unit_scales)
    if np.isfinite(x).all():
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    return _solve_singular(_reduced_system(routes, rows), b)


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
