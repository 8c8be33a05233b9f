"""Standardized input laws with exact truncated moments.

Every law here is mean-zero, unit-variance by construction (standardization
is applied once, in the family definitions), because the swap bounds only
apply to inputs with matched first and second moments.  The two quantities
the bounds consume are the tail second moment and the body third moment

    tail2(K) = E(X^2; |X| > K),      body3(K) = E(|X|^3; |X| <= K),

both available in closed form for all five families.  The third absolute
moment may be infinite (heavy-tailed Pareto with tail exponent <= 3); it is
reported as ``math.inf`` and the third-moment corollaries refuse it.

Sampling consumes exactly one uniform per value (inverse CDF transforms),
which keeps coordinate draws pinned to counter positions of the stream.

Each transform overwrites the caller's uniform buffer in place with plain
elementwise ufuncs: no ``np.where`` and no ``where=``-masked ufunc, each of
which costs more per value than the ``np.power`` of the Pareto transform.
Branches become arithmetic on the comparison (``u - (u < 0.5)``) or a sign
copy (``np.copysign``), chosen so every value is bit-identical to the
two-branch formula.  The engine reuses one replicate block per worker.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "Family",
    "DistributionSpec",
    "parse_spec",
    "sample",
    "truncated_second_moment",
    "truncated_third_moment",
    "third_abs_moment",
    "GAUSSIAN",
    "RADEMACHER",
    "UNIFORM",
    "CEXP",
]

_SQRT3 = math.sqrt(3.0)
_HALF_ULP = 0.5 * 2.0**-53      # keeps inverse-CDF arguments above 0
_BELOW_ONE = 1.0 - 2.0**-53     # ... and strictly below 1


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_SCALED = "uniform"
    CENTERED_EXPONENTIAL_SCALED = "cexp"
    TRUNCATED_PARETO = "pareto"


@dataclass(frozen=True)
class DistributionSpec:
    """A standardized sampling law: mean 0, variance 1, known third moment."""

    family: Family
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.family is Family.TRUNCATED_PARETO:
            if len(self.params) != 1:
                raise ValueError("pareto spec needs exactly one tail exponent")
            if not 2.0 < self.params[0] < math.inf:
                raise ValueError(
                    "pareto tail exponent must be finite and exceed 2 for "
                    "unit variance"
                )
        elif self.params:
            raise ValueError(f"{self.family.value} takes no parameters")

    @property
    def label(self) -> str:
        if self.family is Family.TRUNCATED_PARETO:
            return f"pareto:{self.params[0]:g}"
        return self.family.value


GAUSSIAN = DistributionSpec(Family.GAUSSIAN)
RADEMACHER = DistributionSpec(Family.RADEMACHER)
UNIFORM = DistributionSpec(Family.UNIFORM_SCALED)
CEXP = DistributionSpec(Family.CENTERED_EXPONENTIAL_SCALED)


def pareto(tail_exponent: float) -> DistributionSpec:
    """Symmetric Pareto with P(|X| > t) ~ t^(-a), standardized to variance 1."""
    return DistributionSpec(Family.TRUNCATED_PARETO, (float(tail_exponent),))


def parse_spec(text: str) -> DistributionSpec:
    """Parse config strings: rademacher, gaussian, uniform, cexp, pareto:<a>."""
    token = text.strip().lower()
    if token.startswith("pareto:"):
        return pareto(float(token.split(":", 1)[1]))
    for spec in (GAUSSIAN, RADEMACHER, UNIFORM, CEXP):
        if token == spec.family.value:
            return spec
    raise ValueError(f"unknown distribution spec {text!r}")


def _pareto_scale(a: float) -> float:
    # |W| ~ Pareto(1, a), E W^2 = a/(a-2); X = W / s has unit variance.
    return math.sqrt(a / (a - 2.0))


def sample(spec: DistributionSpec, gen: np.random.Generator, size=None):
    """Draw from the law; one uniform consumed per value."""
    u = _transform(spec, np.asarray(gen.random(size)))
    return u if size is not None else u[()]


def _transform(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Overwrite the uniforms ``u`` (a float array) with draws; return ``u``."""
    fam = spec.family
    if fam is Family.GAUSSIAN:
        u += _HALF_ULP
        np.minimum(u, _BELOW_ONE, out=u)
        return ndtri(u, out=u)
    if fam is Family.RADEMACHER:
        np.greater_equal(u, 0.5, out=u)
        u *= 2.0
        u -= 1.0
        return u
    if fam is Family.UNIFORM_SCALED:
        u *= 2.0
        u -= 1.0
        u *= _SQRT3
        return u
    if fam is Family.CENTERED_EXPONENTIAL_SCALED:
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u -= 1.0
        return u
    # symmetric Pareto: sign and magnitude from one uniform.  With v = 2u on
    # the lower half and 2u - 1 on the upper, 1 - v = (2 - 2u) - 1{u < 0.5},
    # every step exact for u on the 2^-53 grid.
    a = spec.params[0]
    lower = u < 0.5
    sign = u - 0.5
    u *= -2.0
    u += 2.0
    u -= lower
    np.power(u, -1.0 / a, out=u)
    np.copysign(u, sign, out=u)
    u /= _pareto_scale(a)
    return u


def make_vector_sampler(specs):
    """Compile a per-coordinate spec list into a fast ``draw(gen, out=None)``.

    Coordinate i always consumes the i-th uniform of its generator, whether
    the list is homogeneous (one vectorized transform) or mixed (grouped
    transforms through index arrays).  ``gen`` is a generator, which fills
    one vector of length n, or an iterable of generators, one per row of a
    2-D ``out`` of shape (B, n): each row is filled before the next
    generator is taken, so the iterable may reposition one shared generator
    per row.  The transform then runs once over the whole block, elementwise,
    so a row's values do not depend on the block around it.  ``draw`` fills
    ``out`` when given (a vector may also be drawn into a fresh array) and
    returns it; a caller that passes the same ``out`` on every call must not
    keep a reference to an earlier result.
    """
    specs = list(specs)
    n = len(specs)
    if n == 0:
        raise ValueError("need at least one coordinate spec")

    def fill(gen, out):
        if isinstance(gen, np.random.Generator):
            return gen.random(n, out=out)
        for row, g in zip(out, gen):
            g.random(out=row)
        return out

    if specs.count(specs[0]) == n:
        spec0 = specs[0]

        def draw(gen, out=None) -> np.ndarray:
            return _transform(spec0, fill(gen, out))

        return draw

    groups = {}
    for i, s in enumerate(specs):
        groups.setdefault(s, []).append(i)
    compiled = [(spec, np.array(idx)) for spec, idx in groups.items()]

    def draw(gen, out=None) -> np.ndarray:
        u = fill(gen, out)
        for spec, idx in compiled:
            u[..., idx] = _transform(spec, u[..., idx])
        return u

    return draw


def _check_k(K: float) -> float:
    K = float(K)
    if not K > 0.0:
        raise ValueError("truncation level K must be positive")
    return K


def truncated_second_moment(spec: DistributionSpec, K: float) -> float:
    """Tail second moment E(X^2; |X| > K), exact."""
    K = _check_k(K)
    fam = spec.family
    if fam is Family.GAUSSIAN:
        if K > 40.0:
            return 0.0
        # erfc keeps full relative accuracy deep in the tail
        q = 0.5 * erfc(K / math.sqrt(2.0))
        return 2.0 * (K * _phi(K) + q)
    if fam is Family.RADEMACHER:
        return 1.0 if K < 1.0 else 0.0
    if fam is Family.UNIFORM_SCALED:
        if K >= _SQRT3:
            return 0.0
        return 1.0 - K**3 / (3.0 * _SQRT3)
    if fam is Family.CENTERED_EXPONENTIAL_SCALED:
        hi = math.exp(-(K + 1.0)) * (K * K + 2.0 * K + 2.0)
        if K >= 1.0:
            return hi
        lo = 1.0 - math.exp(-(1.0 - K)) * ((1.0 - K) ** 2 + 1.0)
        return hi + lo
    a = spec.params[0]
    t = K * _pareto_scale(a)
    return 1.0 if t <= 1.0 else t ** (2.0 - a)


def truncated_third_moment(spec: DistributionSpec, K: float) -> float:
    """Body third moment E(|X|^3; |X| <= K), exact.

    Finite for every finite K; at K = inf it is ``third_abs_moment``, which
    is infinite for Pareto tail exponents <= 3.
    """
    K = _check_k(K)
    fam = spec.family
    if fam is Family.GAUSSIAN:
        if math.isinf(K):
            return 2.0 * math.sqrt(2.0 / math.pi)
        return math.sqrt(2.0 / math.pi) * (
            2.0 - (K * K + 2.0) * math.exp(-K * K / 2.0)
        )
    if fam is Family.RADEMACHER:
        return 1.0 if K >= 1.0 else 0.0
    if fam is Family.UNIFORM_SCALED:
        return min(K, _SQRT3) ** 4 / (4.0 * _SQRT3)
    if fam is Family.CENTERED_EXPONENTIAL_SCALED:
        return _cexp_body3(K)
    a = spec.params[0]
    s = _pareto_scale(a)
    t = K * s
    if t <= 1.0:
        return 0.0
    if math.isinf(t):
        if a <= 3.0:
            return math.inf
        return (a / (a - 3.0)) / s**3
    if a == 3.0:
        return a * math.log(t) / s**3
    return a * (t ** (3.0 - a) - 1.0) / (3.0 - a) / s**3


def _phi(x: float) -> float:
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def _cexp_body3(K: float) -> float:
    # X = E - 1 with E ~ Exp(1); integrate |t-1|^3 e^{-t} over the kept band.
    if math.isinf(K):
        return 12.0 / math.e - 2.0
    lo = max(0.0, 1.0 - K)
    p_at = lambda u: u**3 - 3.0 * u * u + 6.0 * u - 6.0
    left = 6.0 / math.e + math.exp(-lo) * p_at(1.0 - lo)
    right = (6.0 - math.exp(-K) * (K**3 + 3.0 * K * K + 6.0 * K + 6.0)) / math.e
    return left + right


def third_abs_moment(spec: DistributionSpec) -> float:
    """E|X|^3, or ``math.inf`` for Pareto tail exponents <= 3."""
    fam = spec.family
    if fam is Family.GAUSSIAN:
        return 2.0 * math.sqrt(2.0 / math.pi)
    if fam is Family.RADEMACHER:
        return 1.0
    if fam is Family.UNIFORM_SCALED:
        return 3.0 * _SQRT3 / 4.0
    if fam is Family.CENTERED_EXPONENTIAL_SCALED:
        return 12.0 / math.e - 2.0
    a = spec.params[0]
    if a <= 3.0:
        return math.inf
    return (a / (a - 3.0)) / _pareto_scale(a) ** 3
