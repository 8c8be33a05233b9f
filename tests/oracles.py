"""Reference implementations that only the tests call.

Each one computes, by a direct and slower route, a value the package computes
another way, so a test can compare the two.
"""

import math

import numpy as np

from lindeberg_lab import core
from lindeberg_lab import distributions as dist
from lindeberg_lab.core import GapReport, SmoothFunction, TestFunction, \
    summarize_gap, triangle_indices
from lindeberg_lab.distributions import DistributionSpec
from lindeberg_lab.sk import CouplingLayout, SKParams
from lindeberg_lab.smoothmax import FunctionFamily, coordinate_chain, \
    softmax_state
from lindeberg_lab.wigner import WignerLayout, stieltjes_partials_all


def monomial(n: int, power: int, coordinate: int = 0) -> SmoothFunction:
    """f(x) = x_c ** power, handy for hand-checkable influence values."""

    def value(x):
        return float(x[coordinate]) ** power

    def partial(i, p, x):
        if i != coordinate or p > power:
            return 0.0
        coef = 1.0
        for k in range(p):
            coef *= power - k
        return coef * float(x[coordinate]) ** (power - p)

    return SmoothFunction(n=n, value=value, partial=partial)


def telescoping_decomposition(f: SmoothFunction, g: TestFunction,
                              x_draw: np.ndarray,
                              y_draw: np.ndarray) -> np.ndarray:
    """Per-coordinate increments h(Z_i) - h(Z_(i-1)) with h = g o f: the
    paper's swap path, one coordinate at a time.

    Z_i = (x_1..x_i, y_(i+1)..y_n); consecutive evaluations share a cached
    value, so the increments sum to h(x) - h(y) up to one rounding per term.
    """
    x = np.asarray(x_draw, dtype=float)
    y = np.asarray(y_draw, dtype=float)
    if x.shape != (f.n,) or y.shape != (f.n,):
        raise ValueError("draw dimension mismatch")
    z = y.copy()
    h_prev = g.value(f.value(z))
    increments = np.empty(f.n)
    for i in range(f.n):
        z[i] = x[i]
        h_cur = g.value(f.value(z))
        increments[i] = h_cur - h_prev
        h_prev = h_cur
    return increments


def mc_gap(f: SmoothFunction, g: TestFunction, spec_x, spec_y,
           replicates: int, master_seed: int, experiment: str = "mc-gap",
           theoretical_bound: float = 0.0, threads: int = 1) -> GapReport:
    """Paired estimate of |E g(f(X)) - E g(f(Y))| against a bound, with
    ``f.value`` run on each row of every replicate block: the engine with
    a functional of one vector at a time.  With the default bound 0 the
    report passes exactly when the gap is within 3 standard errors of 0."""

    def values(block):
        return np.fromiter(map(f.value, block), dtype=float, count=len(block))

    vx, vy = core.paired_functional_values(
        values, values, spec_x, spec_y, f.n, replicates, master_seed,
        experiment, threads=threads,
    )
    return summarize_gap(g, vx, vy, experiment_id=experiment, n=f.n,
                         theoretical_bound=theoretical_bound, seed=master_seed)


def sample(spec: DistributionSpec, gen: np.random.Generator, size=None):
    """Draw from the law, one uniform of ``gen`` per value: an array of
    ``size`` values, or one float without it."""
    u = dist._transform(spec, np.asarray(gen.random(size)))
    return u if size is not None else u[()]


def _horner(coefs, r):
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * r + c
    return acc


def normal_quantile(p) -> np.ndarray:
    """Wichura's AS 241 written with ``np.where`` over its branches, never in
    place: the central rational function where |p - 1/2| <= 0.425, else the
    tail in s = sqrt(-log min(p, 1 - p)), with one polynomial pair up to
    s = 5 and another beyond."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    r = 0.180625 - q * q
    central = q * _horner(dist._CENTRAL_NUM, r) / _horner(dist._CENTRAL_DEN, r)
    s = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = (_horner(dist._TAIL_NUM, s - 1.6)
                / _horner(dist._TAIL_DEN, s - 1.6))
        far = _horner(dist._FAR_NUM, s - 5.0) / _horner(dist._FAR_DEN, s - 5.0)
    tail = np.where(s <= 5.0, near, far)
    tail = np.where(q < 0.0, -tail, tail)
    return np.where(np.abs(q) <= 0.425, central, tail)


def layout_pairs(layout) -> list[tuple[int, int]]:
    """The pairs of a layout in flat coordinate order, row by row: i < j of
    a ``CouplingLayout``, i <= j of a ``WignerLayout``."""
    d = 0 if isinstance(layout, WignerLayout) else 1
    N = layout.size
    return [(i, j) for i in range(N) for j in range(i + d, N)]


def pair_index(layout, i: int, j: int) -> int:
    """Flat coordinate of the pair (i, j), in either order, in closed form:
    pairs i < j of a ``CouplingLayout``, i <= j of a ``WignerLayout``, row
    by row as ``layout_pairs(layout)`` lists them."""
    i, j = min(i, j), max(i, j)
    d = 0 if isinstance(layout, WignerLayout) else 1
    # row r holds the N - r - d pairs (r, r + d), ..., (r, N - 1)
    return i * (layout.size - d) - i * (i - 1) // 2 + (j - i - d)


def family_member(layout: CouplingLayout, params: SKParams, sigma,
                  x) -> float:
    """f_sigma(x) for one spin configuration."""
    N = layout.size
    sigma = np.asarray(sigma)
    if sigma.shape != (N,) or not np.all(np.abs(sigma) == 1):
        raise ValueError("sigma must be a vector of +-1 of length N")
    x = np.asarray(x, dtype=float)
    if x.shape != (layout.coordinate_count,):
        raise ValueError("coupling vector has wrong length")
    li, lj = triangle_indices(N, 1)
    pair_sum = float(np.dot(x, sigma[li] * sigma[lj]))
    return (params.beta * N**-1.5 * pair_sum
            + params.beta * params.h / N * float(np.sum(sigma)))


def free_energy_gray(layout: CouplingLayout, params: SKParams, x) -> float:
    """The SK free energy by Gray-code single-flip updates, O(N) per flip."""
    N = layout.size
    X = layout.coupling_matrix(np.asarray(x, dtype=float))
    sigma = -np.ones(N)
    pair = 0.5 * float(sigma @ X @ sigma)
    mag = float(sigma.sum())
    beta, h = params.beta, params.h
    shift = -math.inf
    acc = 0.0
    for k in range(1 << N):
        if k:
            flip = (k & -k).bit_length() - 1
            # remove the old row contribution, add the new one: O(N)
            pair -= 2.0 * sigma[flip] * float(X[flip] @ sigma)
            mag -= 2.0 * sigma[flip]
            sigma[flip] = -sigma[flip]
        e = beta / math.sqrt(N) * pair + beta * h * mag
        if e > shift:
            acc = acc * math.exp(shift - e) if acc else 0.0
            shift = e
        acc += math.exp(e - shift)
    return (shift + math.log(acc)) / N


def stieltjes_partials(layout: WignerLayout, x: np.ndarray, z: complex,
                       coordinate: int) -> tuple[complex, complex, complex]:
    """First three partials of the transform in one flat coordinate: its row
    of ``stieltjes_partials_all``."""
    if not 0 <= coordinate < layout.coordinate_count:
        raise ValueError("coordinate out of range")
    return tuple(stieltjes_partials_all(layout, x, z)[coordinate].tolist())


def softmax_partials(family: FunctionFamily, alpha: float, x: np.ndarray,
                     i: int) -> tuple[float, float, float]:
    """(d_i F, d_i^2 F, d_i^3 F) from the derivative chain at coordinate i."""
    state = softmax_state(family, alpha, x)
    return coordinate_chain(family, state, i).partials(state.alpha)
