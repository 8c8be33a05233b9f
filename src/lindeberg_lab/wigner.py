"""Wigner matrices, resolvents, and Stieltjes-transform derivative calculus.

A Wigner matrix of order N is built from n = N(N+1)/2 independent coordinates
x_ij (i <= j), placed symmetrically with scale N^(-1/2).  For a spectral point
z off the real axis, the normalized trace of the resolvent

    m(x, z) = (1/N) tr (A(x) - z I)^(-1)

is smooth in every coordinate.  Its value comes from one real Householder
reduction A = Q T Q^T to a tridiagonal T = tridiag(d, e), which leaves the
trace unchanged, followed by an O(N) continued fraction for tr (T - z)^(-1);
no complex matrix is formed.

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

Both decompositions call LAPACK (``dsytrd``, and ``zgetrf``/``zgetrs`` for
the LU) through ``lapack()``, a ctypes binding to the LAPACK that numpy
already holds: no other BLAS runtime is loaded, and each call runs outside
the GIL.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import (
    BoundTerms,
    GapReport,
    InfiniteGammaError,
    SmoothFunction,
    SuiteReport,
    TestFunction,
    evaluate_bound,
    paired_functional_values,
    partials_at_point,
    summarize_gap,
    triangle_indices,
    triangle_offsets,
)
from .distributions import DistributionSpec, third_abs_moment, \
    truncated_second_moment, truncated_third_moment

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


def _writable_fortran(a, dtype, overwrite: bool) -> np.ndarray:
    """``a`` itself if ``overwrite`` is set and it already is a writable
    Fortran-ordered 2-D array of ``dtype``, else such a copy of it."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"LAPACK takes a 2-D array, not {a.ndim}-D")
    if (overwrite and a.dtype == dtype and a.flags.f_contiguous
            and a.flags.writeable):
        return a
    return np.array(a, dtype=dtype, order="F")


def _square(a: np.ndarray) -> int:
    n, m = a.shape
    if n != m:
        raise ValueError(f"LAPACK takes a square matrix, not {n} x {m}")
    return n


class NumpyLapack:
    """``dsytrd``, ``zgetrf`` and ``zgetrs`` in numpy's own LAPACK, with the
    call shapes and return tuples of scipy's f2py wrappers."""

    def __init__(self, library: ctypes.CDLL):
        def routine(name, *argtypes):
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

        self._dsytrd = routine("dsytrd", _CHAR, _INT_P, _PTR, _INT_P, _PTR,
                               _PTR, _PTR, _PTR, _INT_P, _INT_P, _CHAR_LEN)
        self._zgetrf = routine("zgetrf", _INT_P, _INT_P, _PTR, _INT_P, _PTR,
                               _INT_P)
        self._zgetrs = routine("zgetrs", _CHAR, _INT_P, _INT_P, _PTR, _INT_P,
                               _PTR, _PTR, _INT_P, _INT_P, _CHAR_LEN)

    def dsytrd(self, a, overwrite_a=0):
        """``(a, d, e, tau, info)``: Householder tridiagonal reduction of the
        symmetric matrix held in the upper triangle of ``a``, with scipy's
        default workspace of N, which keeps it unblocked."""
        a = _writable_fortran(a, np.float64, overwrite_a)
        n = _square(a)
        d, work = np.empty(n), np.empty(max(n, 1))
        e, tau = np.empty(max(n - 1, 0)), np.empty(max(n - 1, 0))
        info = _INT()
        self._dsytrd(b"U", _int(n), a.ctypes.data,
                     _int(max(n, 1)), d.ctypes.data, e.ctypes.data,
                     tau.ctypes.data, work.ctypes.data, _int(len(work)),
                     ctypes.byref(info), 1)
        return a, d, e, tau, info.value

    def zgetrf(self, a):
        """``(lu, piv, info)``: pivoted LU of a copy of a complex matrix,
        with 0-based pivots."""
        lu = _writable_fortran(a, np.complex128, False)
        m, n = lu.shape
        piv = np.empty(min(m, n), dtype=np.int64)
        info = _INT()
        self._zgetrf(_int(m), _int(n), lu.ctypes.data, _int(max(m, 1)),
                     piv.ctypes.data, ctypes.byref(info))
        return lu, piv - 1, info.value

    def zgetrs(self, lu, piv, b):
        """``(x, info)``: the solution of ``a x = b`` from ``zgetrf(a)``,
        in a copy of ``b``."""
        lu = _writable_fortran(lu, np.complex128, True)
        n = _square(lu)
        piv = np.asarray(piv, dtype=np.int64) + 1
        x = _writable_fortran(b, np.complex128, False)
        if piv.shape != (n,) or x.shape[0] != n:
            raise ValueError(f"zgetrs takes {n} pivots and {n} rows of b")
        info = _INT()
        self._zgetrs(b"N", _int(n), _int(x.shape[1]), lu.ctypes.data,
                     _int(max(n, 1)), piv.ctypes.data, x.ctypes.data,
                     _int(max(n, 1)), ctypes.byref(info), 1)
        return x, info.value


@functools.cache
def lapack() -> NumpyLapack:
    """The LAPACK routines the Wigner suites call, bound once with ctypes in
    the LAPACK that ``numpy.linalg`` itself calls.

    Only the suites that evaluate a Stieltjes transform call LAPACK, and
    they need only ``dsytrd``, ``zgetrf`` and ``zgetrs``.  The library is
    opened by the file name of numpy's ``_umath_linalg`` extension, whose
    symbol lookup also searches the OpenBLAS it links, so no second BLAS
    runtime is loaded and no OpenBLAS file name is spelled out.  A ctypes
    call releases the GIL, so worker threads run these routines
    concurrently.  Raises ImportError naming the routine when numpy's
    LAPACK holds none of its spellings.
    """
    from numpy.linalg import _umath_linalg

    return NumpyLapack(ctypes.CDLL(_umath_linalg.__file__))


# ``resolvent`` calls LAPACK through these two module globals:
# perfbench/tracing.py rebinds them as its ``wigner.linalg`` span
def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted LU of a finite complex matrix by LAPACK ``zgetrf``; the
    pivots are 0-based, as ``zgetrs`` takes them."""
    lu, piv, info = lapack().zgetrf(np.asarray_chkfinite(a))
    if info != 0:
        raise ValueError(f"LU factorisation failed (zgetrf info = {info})")
    return lu, piv


def lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from ``lu_factor(a)`` by LAPACK ``zgetrs``."""
    lu, piv = factors
    x, info = lapack().zgetrs(lu, piv, np.asarray_chkfinite(b))
    if info != 0:
        raise ValueError(f"LU solve failed (zgetrs info = {info})")
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


def stieltjes(layout: WignerLayout, x: np.ndarray, z: complex) -> complex:
    """(1/N) tr (A(x) - z I)^(-1) by tridiagonal reduction.

    LAPACK ``dsytrd`` reduces the upper triangle of A to T = tridiag(d, e)
    with A = Q T Q^T, so tr (A - z)^(-1) = tr (T - z)^(-1).  The pivots of
    T - z obey f_1 = d_1 - z, f_k = d_k - z - e_{k-1}^2 / f_{k-1}, and the
    trace is -d/dz log det (T - z) = -sum_k f_k' / f_k, with
    f_1' = -1, f_k' = -1 + (e_{k-1}^2 / f_{k-1}^2) f_{k-1}'.  Every f_k has
    imaginary part of sign -sign(Im z) and |f_k| >= |Im z|, so no pivot
    vanishes.  ``resolvent`` is the dense reference for this value.
    """
    z = _check_z(z)
    _, d, e, _, info = lapack().dsytrd(_upper_triangle(layout, x),
                                       overwrite_a=1)
    if info != 0:
        raise ValueError(f"tridiagonal reduction failed "
                         f"(dsytrd info = {info})")
    d = d.tolist()
    f = d[0] - z
    df = -1.0
    total = df / f
    for dk, ek2 in zip(d[1:], (e * e).tolist()):
        r = ek2 / f
        df = r / f * df - 1.0
        f = dk - z - r
        total += df / f
    return -total / layout.size


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
    """The transform bound's record: the swap form at truncation
    K = eps sqrt(N), with the influence of ``derivative_bounds``; raises
    outside its domain (a body third moment infinite at K, as at K = inf for
    Pareto tails with exponent <= 3) and does no bound arithmetic."""
    K = epsilon * math.sqrt(N)
    n = WignerLayout(N).coordinate_count
    tail_sum = n * (truncated_second_moment(spec_x, K)
                    + truncated_second_moment(spec_y, K))
    body_sum = n * (truncated_third_moment(spec_x, K)
                    + truncated_third_moment(spec_y, K))
    if math.isinf(body_sum):
        raise InfiniteGammaError(
            f"body third moment is infinite at truncation level K = {K:g}; "
            f"use a finite truncation level"
        )
    bounds = derivative_bounds(N, z.imag)
    return BoundTerms(form="swap", lambda2=bounds.lambda2,
                      lambda3=bounds.lambda3, tail_sum=tail_sum,
                      body_sum=body_sum, truncation=K,
                      gamma=max(third_abs_moment(spec_x),
                                third_abs_moment(spec_y)), n=n)


def semicircle_experiment(spec_x: DistributionSpec, spec_y: DistributionSpec,
                          N: int, z: complex, g: TestFunction,
                          replicates: int, master_seed: int,
                          epsilon: float = 0.2,
                          threads: int = 1) -> SemicircleReport:
    """Paired transform gap for Re and Im parts against the swap bound.

    Both parts are tested against the same bound (the projections can only
    shrink the influence values).  ``stieltjes`` runs on each row of every
    replicate block.  The mean transform over the X-side
    replicates is reported next to the semicircle reference.
    """
    z = _check_z(z)
    layout = WignerLayout(N)
    bound = evaluate_bound(semicircle_swap_terms(spec_x, spec_y, N, z, epsilon),
                           g)
    experiment = (f"wigner/{spec_x.label}-vs-{spec_y.label}/"
                  f"N{N}/z{z.real:g}+{z.imag:g}i")

    def transform(block):
        return np.fromiter((stieltjes(layout, xv, z) for xv in block),
                           dtype=complex, count=len(block))

    vx, vy = paired_functional_values(
        transform, transform, spec_x, spec_y, layout.coordinate_count,
        replicates, master_seed, experiment, threads=threads,
        dtype=complex,
    )
    report_re, report_im = (
        summarize_gap(g, part(vx), part(vy),
                      experiment_id=f"{experiment}/{tag}",
                      n=layout.coordinate_count, theoretical_bound=bound,
                      seed=master_seed)
        for part, tag in ((np.real, "re"), (np.imag, "im")))
    mean_m = complex(math.fsum(v.real for v in vx) / len(vx),
                     math.fsum(v.imag for v in vx) / len(vx))
    return SemicircleReport(report_re=report_re, report_im=report_im,
                            mean_m=mean_m,
                            m_reference=semicircle_stieltjes(z))
