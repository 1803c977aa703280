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
solves ``x_R (I - C_RR) = b_R`` given the rows R of ``I - C``, gathering
the system with one ``take`` into a ``Workspace`` that the caller reuses
for every system of a solve: a banded one as its band alone, with no
r x r array, and with no equilibration when the caller states that every
column scale is 1.  Its pivot and finiteness tests are one reduction and
one count, and it checks the rhs only when the solution is not finite.
The census solves a stack of pattern systems with
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
    the LAPACK kernels leave in place: every ``|U_kk| > PIVOT_TOL``.  It
    overwrites the diagonal, a view of factors no caller reads again,
    with its absolute values."""
    return np.minimum.reduce(np.abs(diagonal, out=diagonal), axis=-1) > PIVOT_TOL


def _solve_lapack(a: np.ndarray, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK kernel for the stacked systems ``x[i] @ a[i] = b[i]``.

    Solves each ``(D^-1 a[i].T) x[i] = D^-1 b[i]`` with one ``dgesv``,
    where D holds the row scales of ``a[i].T``, slice by slice by address.
    Partial pivoting on the equilibrated system picks the pivots of
    ``_eliminate``'s scaled partial pivoting, and ``_regular`` is its
    relative pivot test.  Returns the solutions, with a row of NaN for
    each singular slice.  The calls go slice by slice so that each U
    diagonal stays readable for that test; ``_solve_stack`` hands this
    kernel only the stacks ``_dominant`` does not certify.  Unlike a
    single solve it keeps three arrays, not a ``Workspace``: one buffer
    per census chunk raised the census's peak memory 0.1 MB.
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


class Workspace:
    """The LAPACK buffer of one solve, reused by each system it hands
    ``solve_reduced``, with the solve's statements about those systems.

    ``n`` is the number of columns of every ``routes`` and bounds the
    order of every system; ``band`` and ``unit_scales`` are the statements
    that ``solve_reduced`` describes.  ``floats`` starts with ``ints``, the
    int64 header that ``dgesv`` and ``dgbsv`` read (the order, nrhs = 1,
    info, kl, ku and the band storage's leading dimension
    ``width = 2 kl + ku + 1``) and the row interchanges.  The rhs follows
    at ``head``, then kl columns of band storage that stay zero, then the
    matrix from ``start`` on: column-major, or in band storage, where row
    c is column c of the matrix M, kl entries for fill-in (which LAPACK
    sets itself), then entry kl + t is ``M[c - ku + t, c]``.  The buffer is
    sized once for the largest system; its call arguments and raw
    addresses are made once, and the views of each order once, so only
    the order in the header changes from one system to the next.
    """

    __slots__ = (
        "band", "unit_scales", "dense_rows", "width", "head", "start", "ints", "floats",
        "gesv", "gbsv", "cols", "sentinel", "windows", "offsets", "scales", "_views",
    )  # fmt: skip

    def __init__(self, n: int, band: tuple[int, int] | None = None, unit_scales: bool = False):
        kl, ku = band or (0, 0)
        self.band, self.unit_scales = band, unit_scales
        self.width = 2 * kl + ku + 1
        # Systems of more rows than this are factored banded.
        self.dense_rows = n if band is None else max(BAND_MIN_ROWS, self.width)
        self.head = 6 + n
        self.start = self.head + n + kl * self.width
        # Room for the largest system; a banded one has ku columns after it.
        dense = min(n, self.dense_rows)
        banded = (n + ku) * self.width if n > dense else 0
        self.floats = np.zeros(self.start + max(dense * dense, banded))
        self.ints = self.floats[: self.head].view(np.int64)
        self.ints[1:6] = 1, 0, kl, ku, self.width
        p = self.floats.ctypes.data
        a, b = p + 8 * self.start, p + 8 * self.head
        self.gesv = (p, p + 8, a, p, p + 48, b, p, p + 16)
        self.gbsv = (p, p + 24, p + 32, p + 8, a, p + 40, p + 48, b, p, p + 16)
        self._views = {}
        if band is not None:
            w = kl + ku + 1
            # Column indices into routes for the band gather: rows[j] at
            # ku + j, and past the end of any routes elsewhere.
            self.sentinel = (n + 1) * n
            self.cols = np.full(n + w - 1, self.sentinel)
            self.windows = _windows(self.cols, w)
            self.offsets = np.arange(0, n * n, n)[:, None]
            # Column scales at ku + j; the others divide only zero slots.
            self.scales = np.ones(n + w - 1)

    def views(self, r: int):
        """The rhs, the matrix and U's diagonal of an order-r system, as
        views of ``floats``: the matrix as the rows of its transpose when
        dense, as band storage of shape (r, width) when banded (above
        ``dense_rows`` rows), with room after it for the ku columns that
        equilibration reads."""
        views = self._views.get(r)
        if views is None:
            kl, ku = self.band or (0, 0)
            f, h, s = self.floats, self.head, self.start
            if r > self.dense_rows:
                m = f[s : s + r * self.width].reshape(r, self.width)
                views = f[h : h + r], m, m[:, kl + ku]
            else:
                views = f[h : h + r], f[s : s + r * r].reshape(r, r), f[s : s + r * r : r + 1]
            self._views[r] = views
        return views


def _lapack_solve(ws: Workspace, r: int, x, diagonal) -> np.ndarray | None:
    """Run ``dgesv``, or ``dgbsv`` above ``ws.dense_rows`` rows, on the
    system filled into ``ws`` with its rhs ``x``: a copy of the solution,
    or None where ``_regular`` fails on U's ``diagonal``.  Row partial
    pivoting within a band picks the dense pivots, since every candidate
    outside it is 0, so this is the dense pivot test."""
    ws.ints[0] = r
    if r > ws.dense_rows:
        _LAPACK[1](*ws.gbsv)
    else:
        _LAPACK[0](*ws.gesv)
    return x.copy() if _regular(diagonal) else None


#: The kernel behind every solve, chosen once at import.
_kernel = _eliminate if _LAPACK is None else _solve_lapack


def _positive(scale: np.ndarray) -> np.ndarray:
    """Row scales with 1 for a zero row, which changes no pivot; a
    non-finite scale raises ValueError."""
    if not np.isfinite(scale).all():
        raise ValueError("matrix and rhs must be finite")
    return np.where(scale > 0, scale, 1.0)


def _row_scales(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The row scales of ``a.T`` (of each ``a[i].T`` in a stack), 1 for a
    zero row, which changes no pivot; non-finite input raises ValueError."""
    if not np.isfinite(b).all():
        raise ValueError("matrix and rhs must be finite")
    return _positive(np.abs(a).max(axis=-2))


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


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite.  On the short vectors of a
    stable-set step ``count_nonzero`` costs less than a reduction."""
    return np.count_nonzero(np.isfinite(x)) == len(x)


def solve_left(a_matrix: np.ndarray, b) -> LinearSolveResult:
    """Solve ``x @ a_matrix = b`` for the row vector x.

    One dense kernel call factors the transposed system with scaled
    partial pivoting and substitutes, with the bits of a stack of one
    through ``_solve_stack``.  The status is unique only when every pivot
    clears the relative threshold and the solution is finite; otherwise
    the system is singular-consistent (with a least-squares x) or
    singular-inconsistent.  Non-finite input raises ValueError.
    """
    a = _check_square(a_matrix)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    if n == 0 or _kernel is not _solve_lapack:
        x = _solve_stack(a[None], b[None])[0]
    else:
        scale = _row_scales(a, b)
        ws = Workspace(n)
        rhs, m, diagonal = ws.views(n)
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(a, scale, out=m)
            np.divide(b, scale, out=rhs)
        x = _lapack_solve(ws, n, rhs, diagonal)
    if x is not None and _finite(x):
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    return _solve_singular(a, b)


def _windows(v: np.ndarray, w: int) -> np.ndarray:
    """The views ``v[c : c + w]``, as the rows of one array.  Not numpy's
    ``sliding_window_view``: under numpy 2.4 its memory use grew with the
    number of calls, about 1 MB of peak RSS over ten cell-grid sweeps."""
    return np.ndarray((len(v) - w + 1, w), v.dtype, v, strides=2 * v.strides)


def _reduced_banded(routes, rows, ws: Workspace, x: np.ndarray, ab: np.ndarray) -> None:
    """Gather the band of ``I - C_RR`` straight from ``routes`` into the
    band storage ``ab``, with no r x r system; equilibrate it with ``x``."""
    r, s, width = len(rows), ws.start, ws.width
    kl, ku = ws.band
    w = kl + ku + 1
    band = ab[:, kl:]
    # Slot [c, t] is (I - C_RR)[c, j] for j = c - ku + t, at the flat index
    # c n + rows[j] of routes.  A j outside the system indexes past the
    # end, which "clip" maps to the last entry, in the zero row.
    cols = ws.cols
    cols[ku : ku + r] = rows
    cols[ku + r : r + w - 1] = ws.sentinel
    routes.take(ws.offsets[:r] + ws.windows[:r], out=band, mode="clip")
    if not ws.unit_scales:
        # Column j of the system, the slots [c, j - c + ku] for c = j - kl
        # ... j + ku, is one strided row of ``columns``.  Its slots for
        # c < 0 and c >= r lie in the zero columns before and after the
        # band: kl of them that nothing writes, and ku cleared here.
        floats = ws.floats
        floats[s + r * width : s + (r + ku) * width] = 0.0
        at = 8 * (s - kl * width + width - 1)
        columns = np.ndarray((r, w), float, floats, at, (8 * width, 8 * (width - 1)))
        scale = _positive(np.maximum.reduce(np.abs(columns), axis=1))
        # Slot [c, t] is divided by the scale of column j at ws.scales[c + t];
        # those outside the system divide a zero by a positive scale.
        ws.scales[ku : ku + r] = scale
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(band, _windows(ws.scales, w)[:r], out=band)
            np.divide(x, scale, out=x)


def _reduced_solution(routes, rows, b, workspace: Workspace) -> np.ndarray | None:
    """A copy of the kernel solution of ``solve_reduced``'s system, or None
    where the kernel fails, for ``_solve_singular`` to classify.  A
    non-finite rhs entry always reaches the solution, so the rhs is
    checked only when the solution is not finite."""
    r = len(rows)
    if r == 0 or _kernel is not _solve_lapack:
        x = _solve_stack(routes[:-1].take(rows, 1)[None], b.take(rows)[None])[0]
    else:
        rhs, m, diagonal = workspace.views(r)
        # Every index is in range; "clip" only lets take write to out unbuffered.
        b.take(rows, out=rhs, mode="clip")
        if r > workspace.dense_rows:
            _reduced_banded(routes, rows, workspace, rhs, m)
        else:
            routes[:-1].take(rows, 1, out=m, mode="clip")
            if not workspace.unit_scales:
                # The column maxima of I - C_RR are the row scales of its transpose.
                scale = _positive(np.maximum.reduce(np.abs(m), axis=0))
                with np.errstate(over="ignore", invalid="ignore"):
                    np.divide(m, scale, out=m)
                    np.divide(rhs, scale, out=rhs)
        x = _lapack_solve(workspace, r, rhs, diagonal)
    if x is not None and _finite(x):
        return x
    if not np.isfinite(b.take(rows)).all():
        raise ValueError("matrix and rhs must be finite")
    return None


def solve_reduced(
    routes: np.ndarray, rows: np.ndarray, b: np.ndarray, workspace: Workspace
) -> LinearSolveResult:
    """``solve_left`` of ``x_R @ (I - C_RR) = b[R]`` for the ascending
    indices R = ``rows`` of ``b`` (n) and of an n x n matrix C, given as
    ``routes``: the rows R of ``I - C``, then one row of zeros.  No row
    gives the empty solution.  The system is gathered into
    ``workspace``, which the caller passes from one system to the next;
    the solution is a copy.

    ``workspace.band``, given as ``(kl, ku)``, is the caller's statement
    that C is nonzero off its diagonal only at ``[i, j]`` with
    ``-ku <= j - i <= kl``; so is ``C_RR``, whose rows and columns keep
    their order.  A system of more than BAND_MIN_ROWS rows with
    ``2 kl + ku + 1`` below its order is then factored banded, ignoring
    entries outside the band.  ``workspace.unit_scales`` states that
    ``I - C`` has a unit diagonal and off-diagonal entries in [-1, 0]:
    every column scale of ``I - C_RR`` is then exactly 1, so
    equilibration is skipped.  Non-finite input raises ValueError.
    """
    x = _reduced_solution(routes, rows, b, workspace)
    if x is not None:
        return LinearSolveResult(status=SolveStatus.UNIQUE, x=x)
    return _solve_singular(routes[:-1].take(rows, 1), b.take(rows))


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
