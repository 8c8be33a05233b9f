"""Influence measures, coordinate-swap bounds, and the paired Monte Carlo engine.

The quantity driving everything is the maximum single-coordinate influence of
a smooth function f on I^n,

    lambda_r(f) = sup { |d_i^p f(x)|^(r/p) : i <= n, p <= r, x in I^n },

for r = 1, 2, 3.  For two independent input vectors X, Y with matched first
and second moments coordinate-wise, replacing X by Y one coordinate at a time
and Taylor-expanding the telescoping increments yields

    |E g(f(X)) - E g(f(Y))| <= C1(g) lambda_2(f) * sum_i [tail2_i(K)]
                             + C2(g) lambda_3(f) * sum_i [body3_i(K)]

for every truncation level K > 0, where tail2/body3 are the truncated moments
of both laws and

    C1(g) = |g'|oo + |g''|oo,   C2(g) = |g'|oo/6 + |g''|oo/2 + |g'''|oo/6.

When both laws have finite third absolute moments the K -> oo limit gives the
third-moment form  2 C2(g) gamma n lambda_3(f).

Every suite hands its bound inputs over in one record, ``BoundTerms``: the
form of its bound (this swap bound, the third-moment form, or the
alpha-optimized max bound of ``smoothmax``), lambda_2 and lambda_3 read from
their owner, the tail and body sums at the truncation level K, gamma, n and,
for a max, log |F|.  ``evaluate_bound`` is the one function that turns a
record into a bound for g.

Every suite estimates the left side by paired Monte Carlo (common replicate
indices, independent counter-based streams for X and Y, one law per side) and
reports it against its bound with a 3-sigma noise margin, through the same
two calls: ``paired_functional_values`` draws the replicates in (B, n) blocks
and maps each block to its B values f(X), f(Y), and ``summarize_gap`` applies
g to them and reduces the differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionSpec, make_vector_sampler, \
    third_abs_moment
from .rng import RandomStream

__all__ = [
    "LindebergError",
    "InfiniteGammaError",
    "SmoothFunction",
    "partials_at_point",
    "TestFunction",
    "LambdaEstimate",
    "GapReport",
    "SuiteReport",
    "mean_function",
    "test_function",
    "c_constants",
    "swap_bound",
    "third_moment_bound",
    "BoundTerms",
    "evaluate_bound",
    "clt_swap_terms",
    "fd_partial",
    "estimate_lambda",
    "paired_functional_values",
    "summarize_gap",
    "clt_experiment",
]


class LindebergError(Exception):
    """Base error for this package."""


class InfiniteGammaError(LindebergError):
    """A third-moment bound was requested for a law with E|X|^3 = oo."""


@functools.lru_cache(maxsize=None)
def triangle_indices(N: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(N, k)``, built once per (N, k) and read-only."""
    rows, cols = np.triu_indices(N, k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=None)
def triangle_offsets(N: int, k: int, order: str) -> np.ndarray:
    """Flat offsets of the ``triangle_indices(N, k)`` entries of an N x N
    array laid out in ``order``: i N + j in "C" order, j N + i in "F" order.
    One scatter through them fills the triangle.  Cached read-only."""
    rows, cols = triangle_indices(N, k)
    offsets = rows * N + cols if order == "C" else cols * N + rows
    offsets.setflags(write=False)
    return offsets


# ---------------------------------------------------------------------------
# function containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFunction:
    """A map on R^n, thrice differentiable in each coordinate.

    ``value(x)`` may return a real or complex scalar; ``partial(i, p, x)``
    is the p-th partial in coordinate i (p in {1, 2, 3}).
    """

    n: int
    value: Callable[[np.ndarray], complex]
    partial: Callable[[int, int, np.ndarray], complex]


def partials_at_point(table: Callable[[np.ndarray], np.ndarray]
                      ) -> Callable[[int, int, np.ndarray], complex]:
    """``partial(i, p, x)`` read off ``table(x)``, the (n, 3) array of all
    first three partials at x, kept in one slot keyed by the bytes of x.

    ``estimate_lambda`` asks for every (i, p) at one point, so it pays for
    one table per point.  The slot takes no lock: its readers are serial.
    """
    key, rows = None, None

    def partial(i, p, x):
        nonlocal key, rows
        x = np.asarray(x, dtype=float)
        if x.tobytes() != key:
            rows, key = table(x).tolist(), x.tobytes()
        return rows[i][p - 1]

    return partial


@dataclass(frozen=True)
class TestFunction:
    """A scalar g with certified sup norms of its first three derivatives."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]
    norm1: float
    norm2: float
    norm3: float


def mean_function(n: int) -> SmoothFunction:
    """f(x) = n^(-1/2) sum_i x_i, the classical CLT functional."""
    root = 1.0 / math.sqrt(n)

    def value(x):
        return root * float(np.sum(x))

    def partial(i, p, x):
        return root if p == 1 else 0.0

    return SmoothFunction(n=n, value=value, partial=partial)


# ---------------------------------------------------------------------------
# registered test functions
# ---------------------------------------------------------------------------

def _tanh_d2(x: float) -> float:
    t = math.tanh(x)
    return -2.0 * t * (1.0 - t * t)


def _tanh_d3(x: float) -> float:
    t = math.tanh(x)
    return (6.0 * t * t - 2.0) * (1.0 - t * t)


@functools.lru_cache(maxsize=None)
def _clipped_square() -> TestFunction:
    # g(x) = x^2 exactly on [-c, c], c = 10, spliced by a degree-6 polynomial
    # on [c, c + w], w = 5, matching value and first three derivatives at
    # both ends, constant beyond.  Even in x, C^3 everywhere, bounded
    # derivatives.
    c, w = 10.0, 5.0
    mat = np.array(
        [
            [4 * w**3, 5 * w**4, 6 * w**5],
            [12 * w**2, 20 * w**3, 30 * w**4],
            [24 * w, 60 * w**2, 120 * w**3],
        ]
    )
    a4, a5, a6 = np.linalg.solve(mat, -np.array([2 * c + 2 * w, 2.0, 0.0]))

    def q(s, order):
        if order == 0:
            return c * c + 2 * c * s + s * s + a4 * s**4 + a5 * s**5 + a6 * s**6
        if order == 1:
            return 2 * c + 2 * s + 4 * a4 * s**3 + 5 * a5 * s**4 + 6 * a6 * s**5
        if order == 2:
            return 2 + 12 * a4 * s**2 + 20 * a5 * s**3 + 30 * a6 * s**4
        return 24 * a4 * s + 60 * a5 * s**2 + 120 * a6 * s**3

    plateau = q(w, 0)

    def deriv(x, order):
        ax, sgn = abs(x), (1.0 if x >= 0 else -1.0)
        odd = order % 2 == 1
        if ax <= c:
            base = (x * x, 2 * x, 2.0, 0.0)[order]
            return base
        if ax >= c + w:
            return plateau if order == 0 else 0.0
        val = q(ax - c, order)
        return sgn * val if odd else val

    ss = np.linspace(0.0, w, 200_001)
    safety = 1.0 + 1e-6  # grid certification: round the sup up, never down
    n1 = max(2 * c, float(np.max(np.abs(q(ss, 1))))) * safety
    n2 = max(2.0, float(np.max(np.abs(q(ss, 2))))) * safety
    n3 = float(np.max(np.abs(q(ss, 3)))) * safety
    return TestFunction(
        value=lambda x: deriv(x, 0),
        d1=lambda x: deriv(x, 1),
        d2=lambda x: deriv(x, 2),
        d3=lambda x: deriv(x, 3),
        norm1=n1,
        norm2=n2,
        norm3=n3,
    )


# name -> builder of the test function; clipped_square certifies its norms on
# a 200 001-point grid, so it is built on first use, once
_TEST_FUNCTIONS: dict[str, Callable[[], TestFunction]] = {
    "sin": functools.partial(
        TestFunction,
        value=math.sin,
        d1=math.cos,
        d2=lambda x: -math.sin(x),
        d3=lambda x: -math.cos(x),
        norm1=1.0,
        norm2=1.0,
        norm3=1.0,
    ),
    # even, so a gap between symmetric laws is not 0 by symmetry: for sums
    # it has a closed form, E cos(S_n / sqrt(n)) against E cos Z = e^(-1/2)
    "cos": functools.partial(
        TestFunction,
        value=math.cos,
        d1=lambda x: -math.sin(x),
        d2=lambda x: -math.cos(x),
        d3=math.sin,
        norm1=1.0,
        norm2=1.0,
        norm3=1.0,
    ),
    "tanh": functools.partial(
        TestFunction,
        value=math.tanh,
        d1=lambda x: 1.0 - math.tanh(x) ** 2,
        d2=_tanh_d2,
        d3=_tanh_d3,
        norm1=1.0,
        norm2=4.0 / (3.0 * math.sqrt(3.0)),
        norm3=2.0,
    ),
    "identity": functools.partial(
        TestFunction,
        value=lambda x: x,
        d1=lambda x: 1.0,
        d2=lambda x: 0.0,
        d3=lambda x: 0.0,
        norm1=1.0,
        norm2=0.0,
        norm3=0.0,
    ),
    "clipped_square": _clipped_square,
}


def test_function(name: str) -> TestFunction:
    try:
        build = _TEST_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown test function {name!r}; "
            f"choose from {sorted(_TEST_FUNCTIONS)}"
        ) from None
    return build()


# ---------------------------------------------------------------------------
# bound arithmetic
# ---------------------------------------------------------------------------

def c_constants(g: TestFunction) -> tuple[float, float]:
    """C1 = |g'| + |g''|;  C2 = |g'|/6 + |g''|/2 + |g'''|/6."""
    for nm in (g.norm1, g.norm2, g.norm3):
        if not math.isfinite(nm):
            raise ValueError("test function derivative norms must be finite")
    c1 = g.norm1 + g.norm2
    c2 = g.norm1 / 6.0 + g.norm2 / 2.0 + g.norm3 / 6.0
    return c1, c2


def swap_bound(c1: float, c2: float, lambda2: float, lambda3: float,
               tail_sum: float, body_sum: float) -> float:
    """Truncated-moment swap bound: C1 l2 T1(K) + C2 l3 T2(K).

    ``tail_sum`` is sum_i [E(X_i^2;|X_i|>K) + E(Y_i^2;|Y_i|>K)] and
    ``body_sum`` is sum_i [E(|X_i|^3;|X_i|<=K) + E(|Y_i|^3;|Y_i|<=K)].
    """
    vals = (c1, c2, lambda2, lambda3, tail_sum, body_sum)
    if any(v < 0.0 for v in vals):
        raise ValueError("swap bound inputs must be nonnegative")
    return c1 * lambda2 * tail_sum + c2 * lambda3 * body_sum


def third_moment_bound(c2: float, gamma: float, n: int, lambda3: float) -> float:
    """K -> oo form 2 C2 gamma n lambda_3; refuses infinite third moments."""
    if math.isinf(gamma):
        raise InfiniteGammaError(
            "third absolute moment is infinite; use swap_bound with a finite "
            "truncation level instead"
        )
    if c2 < 0.0 or gamma < 0.0 or lambda3 < 0.0 or n < 0:
        raise ValueError("third-moment bound inputs must be nonnegative")
    return 2.0 * c2 * gamma * n * lambda3


BOUND_FORMS = ("swap", "third_moment", "max")


@dataclass(frozen=True)
class BoundTerms:
    """Every input of a suite's bound, read from its owners.

    ``form`` names the arithmetic ``evaluate_bound`` runs on the record:

    - "swap": ``swap_bound``, C1 lambda2 tail_sum + C2 lambda3 body_sum;
    - "third_moment": ``third_moment_bound``, 2 C2 gamma n lambda3;
    - "max": ``smoothmax.optimized_max_bound`` of a family of
      exp(``log_size``) members.

    ``lambda2`` and ``lambda3`` are the influence values of the suite's
    function or family.  ``tail_sum`` and ``body_sum`` are the truncated
    moments of both laws at the truncation level ``truncation`` (K), summed
    over the ``n`` coordinates; the K = oo forms hold no tail and the body
    2 gamma n that they bound.  ``gamma`` is the larger third absolute
    moment of the two laws (inf for a heavy tail, which only the swap form
    at a finite K admits).
    """

    form: str
    lambda2: float
    lambda3: float
    tail_sum: float
    body_sum: float
    truncation: float
    gamma: float
    n: int
    log_size: float = 0.0

    def __post_init__(self):
        if self.form not in BOUND_FORMS:
            raise ValueError(f"unknown bound form {self.form!r}; "
                             f"choose from {BOUND_FORMS}")


def evaluate_bound(terms: BoundTerms, g: TestFunction) -> float:
    """The bound of ``terms`` for g, in the arithmetic order of its form's
    function, so every form gives the bits that function gives."""
    if terms.form == "max":
        # smoothmax imports this module, so its bound is looked up per call
        from .smoothmax import optimized_max_bound

        return optimized_max_bound(g, terms)
    c1, c2 = c_constants(g)
    if terms.form == "third_moment":
        return third_moment_bound(c2, terms.gamma, terms.n, terms.lambda3)
    return swap_bound(c1, c2, terms.lambda2, terms.lambda3, terms.tail_sum,
                      terms.body_sum)


def clt_swap_terms(spec_x: DistributionSpec, spec_y: DistributionSpec,
                   n: int) -> BoundTerms:
    """The CLT bound's record: the swap form at K = oo, with the mean
    function's lambda_2 = 1/n and lambda_3 = n^(-3/2), no tail, and the full
    third moments of both laws in the body; raises outside its domain and
    does no bound arithmetic."""
    if n < 1:
        raise ValueError("the normalized sum needs at least one term")
    gx = third_abs_moment(spec_x)
    gy = third_abs_moment(spec_y)
    if math.isinf(gx) or math.isinf(gy):
        raise InfiniteGammaError("CLT bound needs finite third moments")
    return BoundTerms(form="swap", lambda2=1.0 / n, lambda3=n**-1.5,
                      tail_sum=0.0, body_sum=n * (gx + gy),
                      truncation=math.inf, gamma=max(gx, gy), n=n)


# ---------------------------------------------------------------------------
# finite differences (validation oracle for analytic partials)
# ---------------------------------------------------------------------------

_STENCILS = {
    # order: (offsets, weights, denominator power)
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
    3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0),
}


def fd_step(p: int, xi: float) -> float:
    """Default step: balances truncation against roundoff per order."""
    base = 1e-4 if p <= 2 else 8e-3
    return base * max(1.0, abs(xi))


def fd_partial(value: Callable[[np.ndarray], complex], i: int, p: int,
               x: np.ndarray) -> complex:
    """Central finite difference: 5-point stencil for p <= 2, 7-point for p = 3."""
    if p not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    x = np.asarray(x, dtype=float)
    h = fd_step(p, x[i])
    offsets, weights, denom = _STENCILS[p]
    acc = 0.0
    for o, wgt in zip(offsets, weights):
        xo = x.copy()
        xo[i] = x[i] + o * h
        acc = acc + wgt * value(xo)
    return acc / (denom * h**p)


# ---------------------------------------------------------------------------
# empirical influence estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaEstimate:
    lambda2: float
    lambda3: float


def estimate_lambda(f: SmoothFunction,
                    points: Sequence[np.ndarray]) -> LambdaEstimate:
    """Empirical sup of |d_i^p f(x)|^(r/p) over the given points, for
    r = 2, 3: a lower bound on the true influence."""
    points = [np.asarray(pt, dtype=float) for pt in points]
    if not points:
        raise ValueError("estimate_lambda needs at least one point")
    sups = [0.0, 0.0, 0.0]
    for pt in points:
        if pt.shape != (f.n,):
            raise ValueError("point dimension mismatch")
        for i in range(f.n):
            for p in (1, 2, 3):
                mag = abs(f.partial(i, p, pt))
                if mag > sups[p - 1]:
                    sups[p - 1] = mag
    return _lambda_from_sups(sups)


def _lambda_from_sups(sups) -> LambdaEstimate:
    """lambda_r = max_{p <= r} sup_p^(r/p) from the per-order sups."""
    lam = [max(sups[p - 1] ** (r / p) for p in range(1, r + 1))
           for r in (2, 3)]
    return LambdaEstimate(*lam)


# ---------------------------------------------------------------------------
# paired Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Monte Carlo gap estimate vs a theoretical bound, with noise margin."""

    experiment_id: str
    n: int
    replicates: int
    mean_gap: float       # signed mean of g(f(X)) - g(f(Y))
    std_error: float
    theoretical_bound: float
    seed: int

    @property
    def mc_gap(self) -> float:
        """The gap magnitude |mean_gap|, which the bound dominates."""
        return abs(self.mean_gap)

    @property
    def passed(self) -> bool:
        """Dominance within 3 standard errors by a finite bound: an inf or
        nan bound says nothing about the gap, so it never passes."""
        return (math.isfinite(self.theoretical_bound)
                and self.mc_gap <= self.theoretical_bound
                + 3.0 * self.std_error)

    CSV_COLUMNS = ("experiment_id", "n", "replicates", "mc_gap",
                   "std_error", "bound", "passed", "seed")

    def csv_row(self) -> tuple:
        return (self.experiment_id, self.n, self.replicates, self.mc_gap,
                self.std_error, self.theoretical_bound, self.passed, self.seed)


class SuiteReport:
    """Base of a suite's report dataclass: its ``GapReport`` fields, declared
    in the order their rows are written, and its diagnostics, every other
    field.  It passes when every one of its gap reports passes."""

    @property
    def passed(self) -> bool:
        return all(v.passed for v in vars(self).values()
                   if isinstance(v, GapReport))


# float64 entries in one replicate block: the engine draws block_rows(n)
# replicates per block, so vectors of more than BLOCK_ELEMENTS / 2
# coordinates go one replicate at a time (the SK kernel sizes its stacks of
# coupling vectors by its own budget, sk._STACK_ELEMENTS)
BLOCK_ELEMENTS = 1 << 15


def block_rows(n: int) -> int:
    """Replicates per engine block for vectors of n coordinates."""
    return max(1, BLOCK_ELEMENTS // n)


def paired_functional_values(eval_x: Callable[[np.ndarray], np.ndarray],
                             eval_y: Callable[[np.ndarray], np.ndarray],
                             spec_x: DistributionSpec,
                             spec_y: DistributionSpec, n: int,
                             replicates: int,
                             master_seed: int, experiment: str,
                             threads: int = 1,
                             dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """Functional values (eval_x(X_r), eval_y(Y_r)) of every replicate r.

    Each side draws all n coordinates from its one law.  The sides share
    replicate indices but use independent counter-based streams, and
    replicate r of each side is a pure function of
    (master_seed, experiment, side, r).  Replicates are drawn in blocks of
    B <= ``block_rows(n)`` rows: row k of the (B, n) block is filled from the
    stream positioned at its replicate, one in-place transform runs over the
    whole block, and ``eval_x``/``eval_y`` map the block to its (B,) values,
    which land in replicate-indexed arrays.

    A functional must compute each row's value from that row alone, with the
    same arithmetic for every B, so that no value depends on the block it
    lands in, its position there or ``threads``.  It must not keep a
    reference to the block, which the next draw overwrites.  Threads take
    contiguous chunks of whole blocks, at most one chunk per thread, and
    each worker owns its streams and its block buffer.
    """
    if replicates < 100:
        raise ValueError("at least 100 replicates are required")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    draw_x = make_vector_sampler([spec_x] * n)
    draw_y = make_vector_sampler([spec_y] * n)
    vx = np.empty(replicates, dtype=dtype)
    vy = np.empty(replicates, dtype=dtype)
    rows = block_rows(n)

    def run_range(lo: int, hi: int) -> None:
        sx = RandomStream(master_seed, experiment + "/x")
        sy = RandomStream(master_seed, experiment + "/y")
        buffer = np.empty((min(rows, hi - lo), n))
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            block = buffer[:stop - start]
            vx[start:stop] = eval_x(draw_x(sx, start, block))
            vy[start:stop] = eval_y(draw_y(sy, start, block))

    blocks = -(-replicates // rows)
    chunk = -(-blocks // threads) * rows
    ranges = [(lo, min(lo + chunk, replicates))
              for lo in range(0, replicates, chunk)]
    if len(ranges) == 1:
        run_range(0, replicates)
    else:
        # loaded here: a single-thread run never needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            list(pool.map(lambda ab: run_range(*ab), ranges))
    return vx, vy


def summarize_gap(g: TestFunction, vx: np.ndarray, vy: np.ndarray, *,
                  experiment_id: str, n: int, theoretical_bound: float,
                  seed: int) -> GapReport:
    """Apply g to paired real values and reduce g(vx) - g(vy) to a GapReport.

    The one place where g meets the functional values; the reduction is
    deterministic (``math.fsum``) and independent of scheduling order.
    """
    diffs = np.array([g.value(a) - g.value(b) for a, b in zip(vx, vy)])
    reps = len(diffs)
    mean = math.fsum(diffs) / reps
    var = math.fsum((d - mean) ** 2 for d in diffs) / (reps - 1)
    return GapReport(
        experiment_id=experiment_id,
        n=n,
        replicates=reps,
        mean_gap=mean,
        std_error=math.sqrt(var / reps),
        theoretical_bound=theoretical_bound,
        seed=seed,
    )


def clt_experiment(spec_x: DistributionSpec, spec_y: DistributionSpec, n: int,
                   g: TestFunction, replicates: int, master_seed: int,
                   threads: int = 1) -> GapReport:
    """Normalized-sum gap vs the bound of ``clt_swap_terms``,
    C2 (g_x + g_y)/sqrt(n).

    The functional is n^(-1/2) times each row sum of a replicate block, the
    value ``mean_function(n)`` gives one vector, computed for the whole
    block at once.
    """
    bound = evaluate_bound(clt_swap_terms(spec_x, spec_y, n), g)
    root = 1.0 / math.sqrt(n)

    def mean(block):
        return root * block.sum(axis=1)

    experiment = f"clt/{spec_x.label}-vs-{spec_y.label}/n{n}"
    vx, vy = paired_functional_values(mean, mean, spec_x, spec_y, n,
                                      replicates, master_seed, experiment,
                                      threads=threads)
    return summarize_gap(g, vx, vy, experiment_id=experiment, n=n,
                         theoretical_bound=bound, seed=master_seed)
