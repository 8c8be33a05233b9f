"""Maxima of normalized random-walk partial sums and their universality bound.

The running maximum max_j n^(-1/2) (x_1 + ... + x_j) is the hard max of the
family of prefix sums f_j(x) = n^(-1/2) sum_{i<=j} x_i, j = 1..n.  The family
is linear with c1 = n^(-1/2), so lambda_3 = n^(-3/2) exactly and |family| = n,
and the alpha-optimized max bound becomes

    K(g) [ gamma^(1/3) n^(-1/6) (log n)^(2/3) + gamma n^(-1/2) ].

Under Gaussian steps the maximum converges in law to |Z|, Z standard normal;
the Kolmogorov-Smirnov distance to that half-normal reference is reported as
a secondary sanity statistic (the finite-n bound above is the actual claim).

The experiment hands ``max_partial_sums`` whole replicate blocks: one
``cumsum`` and one ``max`` along the rows of each (B, n) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundTerms,
    GapReport,
    InfiniteGammaError,
    SuiteReport,
    TestFunction,
    gap_experiment,
)
from .distributions import DistributionSpec, third_abs_moment
from .smoothmax import FunctionFamily, max_bound_terms

__all__ = [
    "walk_family",
    "max_partial_sums",
    "erdos_kac_domain",
    "erdos_kac_terms",
    "half_normal_reference",
    "ks_to_half_normal",
    "WalkReport",
    "erdos_kac_experiment",
]


def walk_family(n: int) -> FunctionFamily:
    """Prefix-mean family f_j(x) = n^(-1/2) sum_{i<=j} x_i, j = 1..n.

    Member j - 1 is prefix j: the values are n^(-1/2) cumsum(x) and the
    partials in coordinate i are n^(-1/2) 1{j > i}.  Nothing is built until
    they are read, so the bound, which reads only the family's influence and
    size, costs O(1) in n.
    """
    if n < 1:
        raise ValueError("need at least one step")
    root = 1.0 / math.sqrt(n)

    def values(x):
        return root * np.cumsum(x)

    def partials(i, x):
        if not -n <= i < n:
            raise IndexError(f"coordinate {i} is out of range for {n} steps")
        out = np.zeros((3, n))
        out[0, i:] = root
        return out

    return FunctionFamily(n=n, values=values, partials=partials,
                          c1=root, c2=0.0, c3=0.0, log_size=math.log(n))


def max_partial_sums(x):
    """max over prefixes of the normalized partial sums, one O(n) pass.

    A step vector gives a float; a (B, n) block of step vectors gives the
    (B,) maxima of its rows, each with the arithmetic of its own vector.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("need a nonempty step vector or block of them")
    top = np.cumsum(x, axis=-1).max(axis=-1) / math.sqrt(x.shape[-1])
    return float(top) if x.ndim == 1 else top


def erdos_kac_domain(spec_x: DistributionSpec, spec_y: DistributionSpec,
                     n: int) -> float:
    """gamma = max(E|X|^3, E|Y|^3) of ``erdos_kac_terms``; raises outside
    its domain and does no bound arithmetic."""
    gamma = max(third_abs_moment(spec_x), third_abs_moment(spec_y))
    if math.isinf(gamma):
        raise InfiniteGammaError("the bound needs a finite third moment")
    if n < 2:
        raise ValueError("need at least two steps")
    return gamma


def erdos_kac_terms(spec_x: DistributionSpec, spec_y: DistributionSpec,
                    n: int) -> BoundTerms:
    """The running-max bound's record: the max form of ``walk_family(n)``
    with gamma of ``erdos_kac_domain``, which it calls first."""
    gamma = erdos_kac_domain(spec_x, spec_y, n)
    return max_bound_terms(gamma, n, walk_family(n))


def half_normal_reference(t):
    """CDF of |Z| for standard normal Z: erf(t / sqrt 2) for t >= 0, else 0."""
    t = np.asarray(t, dtype=float)
    z = np.maximum(t, 0.0) / math.sqrt(2.0)
    cdf = np.fromiter(map(math.erf, z.ravel().tolist()), dtype=float,
                      count=z.size).reshape(z.shape)
    out = np.where(t >= 0.0, cdf, 0.0)
    return float(out) if out.ndim == 0 else out


def ks_to_half_normal(sample) -> float:
    """Kolmogorov-Smirnov distance of a sample to the half-normal reference."""
    s = np.sort(np.asarray(sample, dtype=float))
    if s.size == 0:
        raise ValueError("need a nonempty sample")
    cdf = half_normal_reference(s)
    grid = np.arange(1, s.size + 1) / s.size
    return float(np.max(np.maximum(np.abs(grid - cdf),
                                   np.abs(grid - 1.0 / s.size - cdf))))


@dataclass(frozen=True)
class WalkReport(SuiteReport):
    """Running-max universality gap plus the half-normal KS diagnostic."""

    report: GapReport
    ks_distance: float   # KS of the Y-side maxima to the half-normal


def erdos_kac_experiment(spec_x: DistributionSpec, spec_y: DistributionSpec,
                         n: int, g: TestFunction, replicates: int,
                         master_seed: int, threads: int = 1) -> WalkReport:
    """Paired running-max gap against the optimized bound, in one
    ``core.gap_experiment`` run.

    Its own parts are the terms, the label, the functional
    ``max_partial_sums`` and the KS diagnostic, from the Y-side maxima (put
    the Gaussian law on the Y side to probe the half-normal limit)."""
    [report], _, vy = gap_experiment(
        max_partial_sums, erdos_kac_terms(spec_x, spec_y, n), spec_x, spec_y,
        g, replicates, master_seed, "erdos-kac", f"n{n}", threads=threads)
    return WalkReport(report=report, ks_distance=ks_to_half_normal(vy))
