"""Wigner matrices, resolvents, and Stieltjes-transform derivative calculus.

A Wigner matrix of order N is built from n = N(N+1)/2 independent coordinates
x_ij (i <= j), placed symmetrically with scale N^(-1/2).  For a spectral point
z off the real axis, the normalized trace of the resolvent

    m(x, z) = (1/N) tr (A(x) - z I)^(-1)

is smooth in every coordinate.  Its value comes from one real Householder
reduction A = Q T Q^T to a tridiagonal T = tridiag(d, e), which leaves the
trace unchanged, followed by an O(N) continued fraction for tr (T - z)^(-1);
no complex matrix is formed.  ``stieltjes`` takes one coordinate vector or a
whole (B, n) replicate block, whose rows share one N x N buffer and one row
buffer, with ``dsytrd`` bound to them once per block, and LAPACK reduces
each in panels of ``_PANEL`` columns with level-3 updates once N is past
its crossover of 32.

Differentiating the resolvent identity gives closed forms for the first three
coordinate partials:

    d1 = -(1/N) tr(E G^2),  d2 = (2/N) tr(E G E G^2),
    d3 = -(6/N) tr(E G E G E G^2),

where E = dA/dx_ij carries N^(-1/2) at (i,j) and (j,i).  The partials need
the full resolvent G, which ``resolvent`` builds by a dense complex LU; the
tests also use it as the reference for the transform value.  Because G is
symmetric, each trace collapses to a handful of entries of G and G^2, so
``stieltjes_partials_all`` gives all n coordinates' partials as one (n, 3)
table, one vectorised O(n) pass after one LU and one product G @ G.  Every
single-coordinate partial is read off that table.  Spectral calculus bounds
the partials uniformly:

    |d1| <= 2 |v|^-2 N^(-3/2), |d2| <= 4 |v|^-3 N^-2, |d3| <= 12 |v|^-4 N^(-5/2),

with v = Im z, which yields the influence values used by the swap bound, and
summing tail second moments at K = eps sqrt(N) yields the classical vanishing
condition for semicircle convergence.

Both decompositions call LAPACK through ``lapack()``, a ctypes binding of
``dsytrd``, ``zgetrf`` and ``zgetrs`` in the LAPACK that numpy already
holds: no other BLAS runtime is loaded, and each call runs outside the GIL.
Each routine has one caller, ``_tridiagonal``, ``lu_factor`` or
``lu_solve``, which checks the inputs the Fortran does not.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .core import (
    BoundTerms,
    GapReport,
    SmoothFunction,
    SuiteReport,
    TestFunction,
    gap_experiment,
    partials_at_point,
    swap_terms,
    triangle_indices,
    triangle_offsets,
)
from .distributions import DistributionSpec, truncated_second_moment

__all__ = [
    "WignerLayout",
    "build_matrix",
    "resolvent",
    "stieltjes",
    "stieltjes_partials_all",
    "stieltjes_function",
    "DerivativeBounds",
    "derivative_bounds",
    "semicircle_stieltjes",
    "pastur_term",
    "semicircle_swap_terms",
    "SemicircleReport",
    "semicircle_experiment",
]


@dataclass(frozen=True)
class WignerLayout:
    """Flat indexing of the n = N(N+1)/2 independent entries, i <= j row-major."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("matrix order must be positive")

    @property
    def coordinate_count(self) -> int:
        return self.size * (self.size + 1) // 2


def _upper_triangle(layout: WignerLayout, x: np.ndarray) -> np.ndarray:
    """Entries N^(-1/2) x_ij at (i, j), i <= j, zeros below; Fortran order."""
    N = layout.size
    x = np.asarray(x, dtype=float)
    if x.shape != (layout.coordinate_count,):
        raise ValueError("coordinate vector has wrong length")
    A = np.zeros((N, N), order="F")
    A.ravel(order="K")[triangle_offsets(N, 0, "F")] = x / math.sqrt(N)
    return A


def build_matrix(layout: WignerLayout, x: np.ndarray) -> np.ndarray:
    """Real symmetric matrix with entries N^(-1/2) x_ij mirrored below."""
    A = _upper_triangle(layout, x)
    return A + np.triu(A, 1).T


# numpy >= 2 wheels export the ILP64 LAPACK routines of their bundled
# OpenBLAS as scipy_<routine>_64_, openblas64_ builds as <routine>_64_
_SPELLINGS = ("scipy_{}_64_", "{}_64_")
_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_PTR = ctypes.c_void_p
# Fortran passes each CHARACTER argument's length as a trailing hidden value
_CHAR, _CHAR_LEN = ctypes.c_char_p, ctypes.c_size_t


def _int(value: int):
    return ctypes.byref(_INT(value))


def _routine(library: ctypes.CDLL, name: str, *argtypes):
    for spelling in _SPELLINGS:
        try:
            function = getattr(library, spelling.format(name))
        except AttributeError:
            continue
        function.argtypes = argtypes
        function.restype = None
        return function
    spellings = " or ".join(s.format(name) for s in _SPELLINGS)
    raise ImportError(
        f"LAPACK {name} not found in numpy's LAPACK as {spellings}; "
        f"the Stieltjes transform needs a numpy whose LAPACK is "
        f"ILP64 OpenBLAS, as numpy's wheels ship it")


@functools.cache
def lapack() -> dict:
    """``dsytrd``, ``zgetrf`` and ``zgetrs`` by name, bound once with ctypes
    in the LAPACK that ``numpy.linalg`` itself calls.

    Only the suites that evaluate a Stieltjes transform call LAPACK.  The
    library is opened by the file name of numpy's ``_umath_linalg``
    extension, whose symbol lookup also searches the OpenBLAS it links, so
    no second BLAS runtime is loaded and no OpenBLAS file name is spelled
    out.  A ctypes call releases the GIL, so worker threads run these
    routines concurrently.  Raises ImportError naming the routine when
    numpy's LAPACK holds none of its spellings.
    """
    from numpy.linalg import _umath_linalg

    library = ctypes.CDLL(_umath_linalg.__file__)
    return {
        "dsytrd": _routine(library, "dsytrd", _CHAR, _INT_P, _PTR, _INT_P,
                           _PTR, _PTR, _PTR, _PTR, _INT_P, _INT_P, _CHAR_LEN),
        "zgetrf": _routine(library, "zgetrf", _INT_P, _INT_P, _PTR, _INT_P,
                           _PTR, _INT_P),
        "zgetrs": _routine(library, "zgetrs", _CHAR, _INT_P, _INT_P, _PTR,
                           _INT_P, _PTR, _PTR, _INT_P, _INT_P, _CHAR_LEN),
    }


# dsytrd's workspace over N, the panel width of its blocked reduction.
# LAPACK reduces N <= 32 unblocked whatever the workspace; past that, a
# workspace of N would keep it unblocked, and the width decides the gain.
# Per N = 100 matrix on a 2-vCPU Xeon, OpenBLAS 0.3.31, medians of 12
# interleaved rounds:
#
#   panel width     1      4      8      16     32
#   us per matrix   196.5  170.7  164.6  170.5  188.8
#
# At width 8, N = 200 takes 794 us against 1064 unblocked, N = 400 3898
# against 6183.
_PANEL = 8


def _tridiagonal(a: np.ndarray) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
    """Bind LAPACK ``dsytrd`` to ``a``, a writable Fortran-ordered N x N
    float array: return ``reduce()``, which overwrites ``a`` with the
    reduction T = tridiag(d, e) = Q^T A Q of the symmetric A held in its
    upper triangle, whose lower triangle it never reads, and returns
    (d, e).  The outputs, the workspace and the ctypes arguments are made
    once per binding, so every ``reduce()`` returns the same two arrays,
    which the next one overwrites.  A workspace of ``_PANEL`` N runs the
    blocked reduction, with level-3 updates, where N passes LAPACK's
    crossover."""
    n = len(a)
    d, work = np.empty(n), np.empty(_PANEL * n)
    e, tau = np.empty(n - 1), np.empty(n - 1)
    info = _INT()
    dsytrd = lapack()["dsytrd"]
    # data_as pointers keep their arrays, ``a`` among them, alive
    args = (b"U", _int(n), a.ctypes.data_as(_PTR), _int(n),
            d.ctypes.data_as(_PTR), e.ctypes.data_as(_PTR),
            tau.ctypes.data_as(_PTR), work.ctypes.data_as(_PTR),
            _int(len(work)), ctypes.byref(info), 1)

    def reduce() -> tuple[np.ndarray, np.ndarray]:
        dsytrd(*args)
        if info.value != 0:
            raise ValueError(f"tridiagonal reduction failed "
                             f"(dsytrd info = {info.value})")
        return d, e

    return reduce


# ``resolvent`` calls LAPACK through these two module globals:
# perfbench/tracing.py rebinds them as its ``wigner.linalg`` span
def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted LU of a finite square complex matrix by LAPACK ``zgetrf``,
    in a copy of it; the pivots are 0-based, as in scipy."""
    lu = np.array(np.asarray_chkfinite(a), dtype=np.complex128, order="F")
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
        raise ValueError(f"zgetrf takes a square matrix, not {lu.shape}")
    n = len(lu)
    piv = np.empty(n, dtype=np.int64)
    info = _INT()
    lapack()["zgetrf"](_int(n), _int(n), lu.ctypes.data, _int(max(n, 1)),
                       piv.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise ValueError(f"LU factorisation failed "
                         f"(zgetrf info = {info.value})")
    return lu, piv - 1


def lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from ``lu_factor(a)`` by LAPACK ``zgetrs``, in a copy
    of the 2-D ``b``.  ``zgetrs`` swaps rows by the pivots unchecked, so
    they must be n integers in 0..n-1."""
    lu, piv = factors
    lu = np.asarray_chkfinite(lu).astype(np.complex128, order="F",
                                         copy=False)
    x = np.array(np.asarray_chkfinite(b), dtype=np.complex128, order="F")
    if (lu.ndim != 2 or x.ndim != 2
            or not lu.shape[0] == lu.shape[1] == len(x)):
        raise ValueError(f"zgetrs takes a square LU and 2-D b of as many "
                         f"rows, not shapes {lu.shape} and {x.shape}")
    n = len(x)
    piv = np.asarray(piv)
    if (piv.shape != (n,) or piv.dtype.kind not in "iu"
            or n and not 0 <= piv.min() <= piv.max() < n):
        raise ValueError(f"zgetrs takes {n} integer pivots in 0..{n - 1}")
    piv = piv.astype(np.int64) + 1
    info = _INT()
    lapack()["zgetrs"](b"N", _int(n), _int(x.shape[1]), lu.ctypes.data,
                       _int(max(n, 1)), piv.ctypes.data, x.ctypes.data,
                       _int(max(n, 1)), ctypes.byref(info), 1)
    if info.value != 0:
        raise ValueError(f"LU solve failed (zgetrs info = {info.value})")
    return x


def _check_z(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("spectral point must have nonzero imaginary part")
    return z


def resolvent(layout: WignerLayout, x: np.ndarray, z: complex) -> np.ndarray:
    """(A(x) - z I)^(-1) by dense pivoted LU on the complex shifted matrix."""
    z = _check_z(z)
    N = layout.size
    shifted = build_matrix(layout, x).astype(complex)
    shifted[np.diag_indices(N)] -= z
    lu, piv = lu_factor(shifted)
    return lu_solve((lu, piv), np.eye(N, dtype=complex))


def _pivot_trace(d: np.ndarray, e: np.ndarray, z: complex) -> complex:
    """tr (T - z)^(-1) for T = tridiag(d, e), by the pivot recurrence."""
    shifted = (d - z).tolist()
    f = shifted[0]
    df = -1.0
    total = df / f
    for dk, ek in zip(shifted[1:], e.tolist()):
        r = ek * ek / f
        df = r / f * df - 1.0
        f = dk - r
        total += df / f
    return -total


def stieltjes(layout: WignerLayout, x: np.ndarray,
              z: complex) -> complex | np.ndarray:
    """(1/N) tr (A(x) - z I)^(-1) by tridiagonal reduction: a complex for
    one coordinate vector x, or the (B,) values of a (B, n) block of them.

    LAPACK ``dsytrd`` reduces the upper triangle of A to T = tridiag(d, e)
    with A = Q T Q^T, so tr (A - z)^(-1) = tr (T - z)^(-1).  The pivots of
    T - z obey f_1 = d_1 - z, f_k = d_k - z - e_{k-1}^2 / f_{k-1}, and the
    trace is -d/dz log det (T - z) = -sum_k f_k' / f_k, with
    f_1' = -1, f_k' = -1 + (e_{k-1}^2 / f_{k-1}^2) f_{k-1}'.  Every f_k has
    imaginary part of sign -sign(Im z) and |f_k| >= |Im z|, so no pivot
    vanishes.  ``resolvent`` is the dense reference for this value; like
    it, this refuses infs and NaNs, read off the value once per matrix.
    Where e_k^2 overflows on a finite input (entries past about 1e154),
    the value is recomputed as m(A / s, z / s) / s with s = max |e_k|.

    Every row of a block is reduced in one Fortran N x N buffer, to which
    ``dsytrd`` is bound once per call: the row is divided by N^(1/2) into
    one row buffer, whose scatter refills the whole upper triangle, and
    the lower one, which ``dsytrd`` never reads, stays zero.  So a row's
    value has the bits of a one-vector call, wherever it sits in whichever
    block, and no block-sized array is made.

    The recurrence does not pivot, so it loses accuracy where a pivot
    cancels: on the rank-one all-equal matrix at N = 3, z = i, the
    relative error is about 1e-9 at entries 1e8 and 0.7 at 1e16, while
    gaussian entries at those scales stay within 1e-14.
    """
    z = _check_z(z)
    N, n = layout.size, layout.coordinate_count
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError("coordinate vector has wrong length")
    rows = x.reshape(-1, n)
    a = np.zeros((N, N), order="F")
    upper, offsets = a.ravel(order="K"), triangle_offsets(N, 0, "F")
    reduce = _tridiagonal(a)
    entries, root = np.empty(n), math.sqrt(N)
    values = np.empty(len(rows), dtype=complex)
    for r, row in enumerate(rows):
        upper[offsets] = np.divide(row, root, out=entries)
        d, e = reduce()
        m = _pivot_trace(d, e, z) / N
        if not cmath.isfinite(m):
            if not np.isfinite(row).all():
                raise ValueError("array must not contain infs or NaNs")
            s = np.abs(e).max()
            m = _pivot_trace(d / s, e / s, z / s) / s / N
        values[r] = m
    return values if x.ndim == 2 else complex(values[0])


def stieltjes_partials_all(layout: WignerLayout, x: np.ndarray,
                           z: complex) -> np.ndarray:
    """(n, 3) complex table of every coordinate's first three partials.

    One vectorised pass over the pairs i <= j after one LU ``resolvent`` G
    and one G @ G.  The traces reduce to entries of G and G^2 by symmetry;
    E of a diagonal coordinate has one entry, not two, so it takes the
    off-diagonal formula times 2^(-p).
    """
    G = resolvent(layout, x, z)
    G2 = G @ G
    N = layout.size
    i, j = triangle_indices(N, 0)
    gij, gii, gjj = G[i, j], G[i, i], G[j, j]
    hij, hii, hjj = G2[i, j], G2[i, i], G2[j, j]
    s = 1.0 / math.sqrt(N)
    t1 = 2.0 * s * hij
    t2 = s * s * (2.0 * gij * hij + gii * hjj + gjj * hii)
    t3 = s**3 * 2.0 * (gij**2 * hij + gij * gjj * hii + gii * gjj * hij
                       + gii * gij * hjj)
    half = np.where(i == j, 0.5, 1.0)
    return np.stack([-t1 * half / N, 2.0 * t2 * half**2 / N,
                     -6.0 * t3 * half**3 / N], axis=1)


def stieltjes_function(layout: WignerLayout, z: complex) -> SmoothFunction:
    """The complex transform at fixed z as a SmoothFunction of the
    coordinates.  The partials read one ``stieltjes_partials_all`` table per
    point."""
    z = _check_z(z)

    def value(x):
        return stieltjes(layout, x, z)

    def table(x):
        return stieltjes_partials_all(layout, x, z)

    return SmoothFunction(n=layout.coordinate_count, value=value,
                          partial=partials_at_point(table))


@dataclass(frozen=True)
class DerivativeBounds:
    """Uniform partial bounds and the influence values they imply."""

    b1: float
    b2: float
    b3: float
    lambda2: float
    lambda3: float


def derivative_bounds(N: int, v: float) -> DerivativeBounds:
    if N < 1:
        raise ValueError("matrix order must be positive")
    if v == 0.0:
        raise ValueError("spectral point must be off the real axis")
    av = abs(v)
    try:
        bounds = DerivativeBounds(
            b1=2.0 * av**-2 * N**-1.5,
            b2=4.0 * av**-3 * N**-2.0,
            b3=12.0 * av**-4 * N**-2.5,
            lambda2=4.0 * max(av**-4, av**-3) * N**-2.0,
            lambda3=12.0 * max(av**-6, av**-4) * N**-2.5,
        )
    except OverflowError:
        bounds = None
    if bounds is None or not all(map(math.isfinite, astuple(bounds))):
        raise ValueError(f"|Im z| = {av:g} is too close to the real axis: "
                         f"the derivative bounds overflow")
    return bounds


def semicircle_stieltjes(z: complex) -> complex:
    """Transform of the semicircle density on [-2, 2].

    The root of m^2 + z m + 1 = 0 whose imaginary part has the sign of Im z
    (the defining half-plane-preserving property) is m = -2 / (z + w) with
    w = sqrt(z - 2) sqrt(z + 2), the branch of sqrt(z^2 - 4) that grows like
    z.  In u = z / 2 it reads m = -1 / (u + sqrt(u - 1) sqrt(u + 1)): no z^2
    is formed, and the sum, close to z for large |z|, neither cancels nor
    overflows, so every finite z off the real axis gives a finite value.
    """
    u = _check_z(z) / 2.0
    return -1.0 / (u + cmath.sqrt(u - 1.0) * cmath.sqrt(u + 1.0))


def pastur_term(spec: DistributionSpec, N: int, epsilon: float) -> float:
    """N^-2 sum_{i<=j} E(X_ij^2; |X_ij| > eps sqrt(N)) for coordinates of the
    one law ``spec``; vanishing as N grows is the classical sufficient
    condition for semicircle convergence."""
    if not isinstance(spec, DistributionSpec):
        raise ValueError("pastur_term takes one DistributionSpec for every "
                         "coordinate")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    layout = WignerLayout(N)
    K = epsilon * math.sqrt(N)
    return layout.coordinate_count * truncated_second_moment(spec, K) / N**2


@dataclass(frozen=True)
class SemicircleReport(SuiteReport):
    """Paired-ensemble transform gap at one spectral point, both parts."""

    report_re: GapReport
    report_im: GapReport
    mean_m: complex       # mean transform over the X-side replicates
    m_reference: complex  # semicircle transform at z


def semicircle_swap_terms(spec_x: DistributionSpec, spec_y: DistributionSpec,
                          N: int, z: complex, epsilon: float) -> BoundTerms:
    """The transform bound's record: ``swap_terms`` over the N(N+1)/2
    coordinates at truncation K = eps sqrt(N), with the influence of
    ``derivative_bounds``; raises outside their domains (a body third moment
    infinite at K, as at K = inf for Pareto tails with exponent <= 3)."""
    bounds = derivative_bounds(N, z.imag)
    return swap_terms(spec_x, spec_y, WignerLayout(N).coordinate_count,
                      epsilon * math.sqrt(N), bounds.lambda2, bounds.lambda3)


def semicircle_experiment(spec_x: DistributionSpec, spec_y: DistributionSpec,
                          N: int, z: complex, g: TestFunction,
                          replicates: int, master_seed: int,
                          epsilon: float = 0.2,
                          threads: int = 1) -> SemicircleReport:
    """Paired transform gap for Re and Im parts against the swap bound, in
    one ``core.gap_experiment`` run.

    Both parts are tested against the same bound (the projections can only
    shrink the influence values).  Its own parts are the terms, the label
    (N, z), the functional, ``stieltjes`` on each whole replicate block,
    and the diagnostics: the mean X-side transform and the semicircle's."""
    z = _check_z(z)
    terms = semicircle_swap_terms(spec_x, spec_y, N, z, epsilon)
    (report_re, report_im), vx, _ = gap_experiment(
        functools.partial(stieltjes, WignerLayout(N), z=z), terms, spec_x,
        spec_y, g, replicates, master_seed, "wigner",
        f"N{N}/z{z.real:g}+{z.imag:g}i", threads=threads, dtype=complex)
    mean_m = complex(math.fsum(v.real for v in vx) / len(vx),
                     math.fsum(v.imag for v in vx) / len(vx))
    return SemicircleReport(report_re=report_re, report_im=report_im,
                            mean_m=mean_m,
                            m_reference=semicircle_stieltjes(z))
