"""Soft-max smoothing of finite function families with its analytic derivatives.

For a finite family F of coordinatewise thrice differentiable functions and a
smoothing level alpha >= 1,

    F_alpha(x) = alpha^(-1) log sum_{f in F} exp(alpha f(x))

is a smooth upper proxy for the pointwise maximum, sandwiched within
alpha^(-1) log |F| of it.  Its coordinate derivatives are driven by the Gibbs
weights p(x, f) = exp(alpha f(x)) / Z(x) and scores a_i(x, f) = alpha d_i f(x):

    d_i F = e_i / alpha               with e_i = sum_f a_i p
    d_i p = (a_i - e_i) p
    d_i e_i = sum_f (p d_i a_i + a_i d_i p)
    d_i^2 p = (d_i a_i - d_i e_i) p + (a_i - e_i)^2 p
    d_i^2 e_i = sum_f (p d_i^2 a_i + 2 (d_i a_i)(d_i p) + a_i d_i^2 p)

The chain is implemented as exactly this recursion so each link can be audited
against its uniform bound (|e_i| <= alpha C1 and so on) term by term.

A family hands over its members as two arrays in member order: their values
at x, and their first three partials in one coordinate.  ``softmax_state``
turns the values into the Gibbs weights at one point and ``coordinate_chain``
runs the recursion on the partial rows of one coordinate; the value and the
partials are read off them, one state per point for all coordinates.  For
a linear family da = d2a = 0, and the chain is the closed form
d_i F = E_p[w_i], d_i^2 F = alpha Var_p(w_i),
d_i^3 F = alpha^2 E_p[(w_i - E_p w_i)^3] in the member coefficients w_i.
Every array read is guarded at 2^22 members; the SK free energy value is
enumerated in ``sk`` without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BoundTerms,
    InfiniteGammaError,
    LambdaEstimate,
    SmoothFunction,
    TestFunction,
    _lambda_from_sups,
    c_constants,
    partials_at_point,
)

__all__ = [
    "FunctionFamily",
    "SoftMaxState",
    "SoftMaxChain",
    "softmax_state",
    "coordinate_chain",
    "softmax_function",
    "smoothed_lambda_bounds",
    "max_swap_bound",
    "k_constant",
    "optimized_max_bound",
    "max_bound_terms",
    "estimate_family_lambda",
]

_MATERIALIZE_LIMIT = 1 << 22


@dataclass(frozen=True)
class FunctionFamily:
    """A finite family of smooth functions with family-wide derivative bounds.

    The members are read as arrays in one fixed member order: ``values(x)``
    has one entry per member, ``partials(i, x)`` has rows d_i f, d_i^2 f,
    d_i^3 f, and ``log_size`` = log |F| is all the bounds read of their
    number.  Nothing is built until they are called, so a family of all 2^N
    spin configurations costs nothing to build.  ``c1, c2, c3`` are sup
    bounds on |d_i f|, |d_i^2 f|, |d_i^3 f| over all members, coordinates
    and points; they determine the family influence values exactly:

        lambda_2(F) = max(c1^2, c2),  lambda_3(F) = max(c1^3, c2^(3/2), c3).
    """

    n: int
    values: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[int, np.ndarray], np.ndarray]
    c1: float
    c2: float
    c3: float
    log_size: float

    def __post_init__(self):
        if not self.log_size >= 0.0:
            raise ValueError("a family must have at least one member")
        if any(c < 0.0 for c in (self.c1, self.c2, self.c3)):
            raise ValueError("derivative sup bounds must be nonnegative")

    @property
    def lambda2(self) -> float:
        return max(self.c1**2, self.c2)

    @property
    def lambda3(self) -> float:
        return max(self.c1**3, self.c2**1.5, self.c3)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha >= 1.0:
        raise ValueError("smoothing level alpha must be >= 1")
    return alpha


def _check_materializable(family: FunctionFamily) -> None:
    # 22 log 2 == log 2^22 in floating point, so 2^22 members pass exactly
    if family.log_size > math.log(_MATERIALIZE_LIMIT):
        raise ValueError(
            f"family of 2^{family.log_size / math.log(2.0):.4g} members is "
            f"too large to materialize (limit 2^22)"
        )


@dataclass(frozen=True)
class SoftMaxState:
    """Gibbs-weight state of F_alpha at one point, for a materialized family."""

    alpha: float
    point: np.ndarray
    value: float           # alpha^(-1) log sum exp(alpha f), max-shifted
    weights: np.ndarray    # p(x, f), sums to 1


def softmax_state(family: FunctionFamily, alpha: float,
                  x: np.ndarray) -> SoftMaxState:
    alpha = _check_alpha(alpha)
    _check_materializable(family)
    x = np.asarray(x, dtype=float)
    scaled = alpha * family.values(x)
    shift = float(scaled.max())
    w = np.exp(scaled - shift)
    z = float(w.sum())
    return SoftMaxState(
        alpha=alpha,
        point=x,
        value=(shift + math.log(z)) / alpha,
        weights=w / z,
    )


@dataclass(frozen=True)
class SoftMaxChain:
    """Per-coordinate derivative chain of F_alpha, one link per recursion
    step, in the member scores a = alpha d_i f, da = alpha d_i^2 f and
    d2a = alpha d_i^3 f."""

    e: float          # sum a p
    dp: np.ndarray    # (a - e) p
    de: float         # sum (p da + a dp)
    d2p: np.ndarray   # (da - de) p + (a - e)^2 p
    d2e: float        # sum (p d2a + 2 da dp + a d2p)

    def partials(self, alpha: float) -> tuple[float, float, float]:
        return self.e / alpha, self.de / alpha, self.d2e / alpha


def coordinate_chain(family: FunctionFamily, state: SoftMaxState,
                     i: int) -> SoftMaxChain:
    """The derivative recursion at coordinate i, with the per-member weight
    derivatives dp and d2p exposed."""
    p = state.weights
    a, da, d2a = state.alpha * family.partials(i, state.point)
    e = float(np.dot(a, p))
    dp = (a - e) * p
    de = float(np.sum(p * da + a * dp))
    d2p = (da - de) * p + (a - e) ** 2 * p
    d2e = float(np.sum(p * d2a + 2.0 * da * dp + a * d2p))
    return SoftMaxChain(e=e, dp=dp, de=de, d2p=d2p, d2e=d2e)


def softmax_function(family: FunctionFamily, alpha: float) -> SmoothFunction:
    """F_alpha wrapped as a SmoothFunction with analytic partials, read
    from one state and n coordinate chains per point."""
    alpha = _check_alpha(alpha)

    def value(x):
        return softmax_state(family, alpha, x).value

    def table(x):
        state = softmax_state(family, alpha, x)
        return np.array([coordinate_chain(family, state, i).partials(alpha)
                         for i in range(family.n)])

    return SmoothFunction(n=family.n, value=value,
                          partial=partials_at_point(table))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def smoothed_lambda_bounds(family: FunctionFamily,
                           alpha: float) -> tuple[float, float]:
    """Influence bounds of the smoothed max: (3 a lambda_2(F), 13 a^2 lambda_3(F))."""
    alpha = _check_alpha(alpha)
    return 3.0 * alpha * family.lambda2, 13.0 * alpha**2 * family.lambda3


def max_swap_bound(g: TestFunction, alpha: float, family: FunctionFamily,
                   tail_sum: float, body_sum: float) -> float:
    """Swap bound for the max of a family, smoothed at level alpha.

    2|g'| alpha^(-1) log|F|  +  C1(g) (3 a l2) T1(K)  +  C2(g) (13 a^2 l3) T2(K).
    """
    if tail_sum < 0.0 or body_sum < 0.0:
        raise ValueError("truncated moment sums must be nonnegative")
    lam2_s, lam3_s = smoothed_lambda_bounds(family, alpha)
    c1, c2 = c_constants(g)
    smoothing = 2.0 * g.norm1 * family.log_size / alpha
    return smoothing + c1 * lam2_s * tail_sum + c2 * lam3_s * body_sum


def k_constant(g: TestFunction) -> float:
    """(19/3)|g'| + 13|g''| + (13/3)|g'''|, the optimized-alpha constant."""
    return 19.0 / 3.0 * g.norm1 + 13.0 * g.norm2 + 13.0 / 3.0 * g.norm3


def optimized_max_bound(g: TestFunction, terms: BoundTerms) -> float:
    """Alpha-optimized max bound K(g) [ (g n l3)^(1/3) (log|F|)^(2/3) + g n l3 ]
    of a ``max_bound_terms`` record.

    It dominates ``max_swap_bound`` at K = oo, body sum 2 gamma n, and the
    level alpha = [ (g n l3)^(-2/3) (log|F|)^(2/3) + 1 ]^(1/2).  Of the
    record it reads gamma, n, lambda3 and log_size.
    """
    gamma, n = terms.gamma, terms.n
    if math.isinf(gamma):
        raise InfiniteGammaError(
            "optimized max bound needs a finite third absolute moment"
        )
    if gamma < 0.0 or n < 1:
        raise ValueError("gamma must be nonnegative and n positive")
    gnl = gamma * n * terms.lambda3
    return k_constant(g) * (gnl ** (1.0 / 3.0) * terms.log_size ** (2.0 / 3.0)
                            + gnl)


def max_bound_terms(gamma: float, n: int,
                    family: FunctionFamily) -> BoundTerms:
    """The record of ``optimized_max_bound`` for the max of ``family`` over
    n coordinates with third absolute moment gamma: the influence and
    log |F| of the family, at K = oo."""
    return BoundTerms(form="max", lambda2=family.lambda2,
                      lambda3=family.lambda3, tail_sum=0.0,
                      body_sum=2.0 * gamma * n, truncation=math.inf,
                      gamma=gamma, n=n, log_size=family.log_size)


def estimate_family_lambda(family: FunctionFamily,
                           points) -> LambdaEstimate:
    """Empirical family influence: sup of |d_i^p f(x)|^(r/p) over members,
    coordinates and the given points, read from the partial arrays."""
    _check_materializable(family)
    points = [np.asarray(pt, dtype=float) for pt in points]
    if not points:
        raise ValueError("estimate_family_lambda needs at least one point")
    sups = np.zeros(3)
    for pt in points:
        if pt.shape != (family.n,):
            raise ValueError("point dimension mismatch")
        for i in range(family.n):
            np.maximum(sups, np.abs(family.partials(i, pt)).max(axis=1),
                       out=sups)
    return _lambda_from_sups(sups.tolist())
