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

The gaussian quantile is Wichura's AS 241 (*Applied Statistics* 37, 1988),
the algorithm of ``statistics.NormalDist.inv_cdf``, in numpy: its central
rational function runs over the whole block, its log/sqrt tail only on the
values with |p - 1/2| > 0.425 (about 15%).  Its two block-sized temporaries
are kept per thread, so no call allocates a block.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "DistributionSpec",
    "pareto",
    "parse_spec",
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


def _transform(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """Overwrite the uniforms ``u`` (a float array) with draws; return ``u``."""
    fam = spec.family
    if fam is Family.GAUSSIAN:
        u += _HALF_ULP
        np.minimum(u, _BELOW_ONE, out=u)
        return _normal_quantile(u)
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


# AS 241 coefficients, highest power first: the central branch, in
# r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425, and the tail branches, in
# s - 1.6 for s = sqrt(-log min(p, 1 - p)) <= 5 and in s - 5 beyond, where
# min(p, 1 - p) < exp(-25).
_CENTRAL_NUM = (2.50908092873012267270e+3, 3.34305755835881281050e+4,
                6.72657709270087008530e+4, 4.59219539315498714570e+4,
                1.37316937655094611250e+4, 1.97159095030655144270e+3,
                1.33141667891784377450e+2, 3.38713287279636660800e+0)
_CENTRAL_DEN = (5.22649527885285456100e+3, 2.87290857357219426740e+4,
                3.93078958000927106100e+4, 2.12137943015865958670e+4,
                5.39419602142475110770e+3, 6.87187007492057908300e+2,
                4.23133307016009112520e+1, 1.0)
_TAIL_NUM = (7.74545014278341407640e-4, 2.27238449892691845833e-2,
             2.41780725177450611770e-1, 1.27045825245236838258e+0,
             3.64784832476320460504e+0, 5.76949722146069140550e+0,
             4.63033784615654529590e+0, 1.42343711074968357734e+0)
_TAIL_DEN = (1.05075007164441684324e-9, 5.47593808499534494600e-4,
             1.51986665636164571966e-2, 1.48103976427480074590e-1,
             6.89767334985100004550e-1, 1.67638483018380384940e+0,
             2.05319162663775882187e+0, 1.0)
_FAR_NUM = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
            1.24266094738807843860e-3, 2.65321895265761230930e-2,
            2.96560571828504891230e-1, 1.78482653991729133580e+0,
            5.46378491116411436990e+0, 6.65790464350110377720e+0)
_FAR_DEN = (2.04426310338993978564e-15, 1.42151175831644588870e-7,
            1.84631831751005468180e-5, 7.86869131145613259100e-4,
            1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)

# Per-thread (2, m) float workspace.  Its contents never outlive a call, so
# threads share nothing and need no lock; fresh block-sized temporaries
# would page in again on every block.
_workspace = threading.local()


def _scratch(m: int) -> tuple[np.ndarray, np.ndarray]:
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.shape[1] < m:
        buf = _workspace.buf = np.empty((2, m))
    return buf[0, :m], buf[1, :m]


def _polynomial(coefs, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Horner's rule into ``out``, in the operation order of AS 241."""
    np.multiply(r, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= r
    out += coefs[-1]
    return out


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Overwrite probabilities p in (0, 1), a float array contiguous in C or
    Fortran order, with their standard normal quantiles by AS 241; return
    ``p``.

    Every value is bit-identical to the scalar two-branch formula, with
    ``np.log`` for the logarithm.
    """
    if not (p.flags.c_contiguous or p.flags.f_contiguous):
        raise ValueError("the gaussian transform needs a contiguous array")
    flat = p.ravel(order="K")  # a view of the same memory
    a, b = _scratch(flat.size)
    np.subtract(flat, 0.5, out=a)
    np.abs(a, out=a)
    mask = b.view(np.bool_)[:flat.size]
    np.greater(a, 0.425, out=mask)
    tail = np.flatnonzero(mask)
    t = flat[tail]
    # central branch over the whole block: q num(r) / den(r)
    np.multiply(a, a, out=a)
    np.subtract(0.180625, a, out=a)
    flat -= 0.5
    flat *= _polynomial(_CENTRAL_NUM, a, b)
    flat /= _polynomial(_CENTRAL_DEN, a, b)
    # tail branch on its subset; min(p, 0.5 - q) is p or, exactly, 1 - p
    q = t - 0.5
    w = 0.5 - q
    np.minimum(t, w, out=t)
    np.log(t, out=t)
    np.negative(t, out=t)
    np.sqrt(t, out=t)
    far = np.flatnonzero(t > 5.0)
    s = t[far] - 5.0
    t -= 1.6
    x = _polynomial(_TAIL_NUM, t, np.empty_like(t))
    x /= _polynomial(_TAIL_DEN, t, w)
    if far.size:
        x[far] = (_polynomial(_FAR_NUM, s, np.empty_like(s))
                  / _polynomial(_FAR_DEN, s, np.empty_like(s)))
    flat[tail] = np.copysign(x, q, out=x)
    return p


def make_vector_sampler(specs):
    """Compile a list of n coordinate specs, all one law, into
    ``draw(stream, start, out)``.

    ``draw`` has the ``RandomStream`` ``stream`` fill the rows of the (B, n)
    float array ``out`` with the uniforms of replicates ``start`` ..
    ``start + B - 1``, transforms the block in place with one vectorized
    transform and returns it, so coordinate i always consumes the i-th
    uniform of its replicate.  The transform is elementwise, so a row's
    values do not depend on the block around it.  A caller that passes the
    same ``out`` on every call must not keep a reference to an earlier
    result.  A list of differing laws, or of anything but a
    ``DistributionSpec``, raises ValueError.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one coordinate spec")
    spec = specs[0]
    if not isinstance(spec, DistributionSpec) or \
            specs.count(spec) != len(specs):
        raise ValueError("every coordinate must draw from one "
                         "DistributionSpec")

    def draw(stream, start: int, out: np.ndarray) -> np.ndarray:
        return _transform(spec, stream.fill(start, out))

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
        q = 0.5 * math.erfc(K / math.sqrt(2.0))
        return 2.0 * (K * _phi(K) + q)
    if fam is Family.RADEMACHER:
        return 1.0 if K < 1.0 else 0.0
    if fam is Family.UNIFORM_SCALED:
        if K >= _SQRT3:
            return 0.0
        return 1.0 - K**3 / (3.0 * _SQRT3)
    if fam is Family.CENTERED_EXPONENTIAL_SCALED:
        if K > 800.0:   # exp(-(K + 1)) underflows to 0 here
            return 0.0
        hi = math.exp(-(K + 1.0)) * (K * K + 2.0 * K + 2.0)
        if K >= 1.0:
            return hi
        lo = 1.0 - math.exp(-(1.0 - K)) * ((1.0 - K) ** 2 + 1.0)
        return hi + lo
    a = spec.params[0]
    s = _pareto_scale(a)
    t = K * s
    if math.isinf(t) and math.isfinite(K):
        # t overflows, its power need not: split it over the factors
        return K ** (2.0 - a) * s ** (2.0 - a)
    return 1.0 if t <= 1.0 else t ** (2.0 - a)


def truncated_third_moment(spec: DistributionSpec, K: float) -> float:
    """Body third moment E(|X|^3; |X| <= K), exact.

    Finite for every finite K; at K = inf it is ``third_abs_moment``, which
    is infinite for Pareto tail exponents <= 3.
    """
    K = _check_k(K)
    fam = spec.family
    if fam is Family.GAUSSIAN:
        if K > 40.0:    # exp(-K^2 / 2) underflows to 0 here
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
    if math.isinf(K):
        if a <= 3.0:
            return math.inf
        return (a / (a - 3.0)) / s**3
    if math.isinf(t):
        # K * s overflows, its logarithm and powers need not: split them
        # over the factors, with t^(3 - a) / s^3 as K^(3 - a) s^(-a)
        if a == 3.0:
            return a * (math.log(K) + math.log(s)) / s**3
        return a * (K ** (3.0 - a) * s ** -a - s ** -3.0) / (3.0 - a)
    if a == 3.0:
        return a * math.log(t) / s**3
    return a * (t ** (3.0 - a) - 1.0) / (3.0 - a) / s**3


def _phi(x: float) -> float:
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def _cexp_body3(K: float) -> float:
    # X = E - 1 with E ~ Exp(1); integrate |t-1|^3 e^{-t} over the kept band.
    if K > 800.0:       # exp(-K) underflows to 0 here
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
