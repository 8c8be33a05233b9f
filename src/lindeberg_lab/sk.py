"""Sherrington-Kirkpatrick free energy, ground state, and their gap bounds.

Couplings live on the n = N(N-1)/2 pairs i < j.  The family of interest has
one linear member per spin configuration,

    f_sigma(x) = beta N^(-3/2) sum_{i<j} x_ij s_i s_j + beta h N^(-1) sum_i s_i,

so its derivative sups are c1 = beta N^(-3/2), c2 = c3 = 0, giving the exact
family influences lambda_2 = beta^2 N^-3 and lambda_3 = beta^3 N^(-9/2) with
2^N members.  The free energy is the soft-max of this family at level N:

    F(x) = N^(-1) log sum_sigma exp(N f_sigma(x)),

computed here by exact enumeration, and the ground state is the hard max of
the pair sum.

Enumeration splits the spins: the leading ceil(N/2) spins form a and the
trailing floor(N/2) form b, and configuration code = a 2^lo + b keeps the
lexicographic order of the spin tuples.  The pair sum is

    a'X_aa a / 2 + b'X_bb b / 2 + a'X_ab b,

so with the cached +-1 tables A (2^hi x hi) and B (2^lo x lo) the energy grid
is one GEMM, L W, of the augmented operands

    L = [A | row | 1]           (2^hi x (hi+2)),
    W = [X_ab B' ; 1' ; col']   ((hi+2) x 2^lo),

where row and col hold the within-half pair sums a'X_aa a / 2 and b'X_bb b / 2
(cached s_i s_j tables times the pair couplings) plus the field term (cached
magnetisation tables, skipped at zero field): about (hi+2) 2^N flops and no
pass over the grid afterwards.  The 2^hi x 2^lo grid feeds a max-shifted
log-sum-exp (free energy) or a first-maximizer argmax (ground state).  It is
produced in power-of-two row blocks of at most _BLOCK entries and at most
half the rows, which bounds memory up to N = ENUMERATION_LIMIT.  Without a
field E(sigma) = E(-sigma), so the free energy at h = 0 and the ground state
read only the first half of the grid rows, where s_1 = -1, and hand BLAS
only those rows.  A Gray-code single-flip evaluator is kept as an
independent cross-check path.

``free_energy`` and ``ground_state`` also take a (B, n) block of coupling
vectors, as the paired Monte Carlo engine hands them.  The block is
enumerated in stacks of vectors whose operands and energy blocks fit the
_STACK_ELEMENTS budget of 1 MB (twelve at N = 14, six at N = 15, one from
N = 22 on), so each stack's fixed numpy and BLAS call overhead is spread
over its vectors: each row block of a stack is one stacked GEMM with one
BLAS call per vector, followed by a per-vector max-shift, exp and sum (or
argmax), so every value has the bits it has when its vector is enumerated
alone.  The coupling matrices of a stack come from one scatter through the
cached flat offsets of the upper triangle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterator

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
    summarize_gap,
    triangle_indices,
    triangle_offsets,
)
from .distributions import DistributionSpec, third_abs_moment
from .smoothmax import (
    FunctionFamily,
    max_bound_terms,
    smoothed_lambda_bounds,
    softmax_function,
)

__all__ = [
    "CouplingLayout",
    "SKParams",
    "sk_family",
    "free_energy",
    "free_energy_function",
    "free_energy_lambda",
    "ground_state",
    "check_enumerable",
    "SKReport",
    "sk_terms",
    "sk_experiment",
]

ENUMERATION_LIMIT = 24   # 2^24 configurations is the desk-scale ceiling
_BLOCK = 1 << 14
# float64 entries (1 MB) of the L and W operands and one energy block of
# every vector of an enumeration stack: about twelve vectors at N = 14, and
# each stack pays its numpy and BLAS call overhead once
_STACK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class CouplingLayout:
    """Flat indexing of the n = N(N-1)/2 couplings, pairs i < j row-major."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("need at least two spins")

    @property
    def coordinate_count(self) -> int:
        return self.size * (self.size - 1) // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size)
                for j in range(i + 1, self.size)]

    def coupling_matrix(self, x: np.ndarray) -> np.ndarray:
        """Symmetric zero-diagonal matrix X with X[i, j] = x_ij; a (B, n)
        stack of coupling vectors gives the (B, N, N) stack of matrices."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.coordinate_count:
            raise ValueError("coupling vector has wrong length")
        N = self.size
        X = np.zeros(x.shape[:-1] + (N * N,))
        X[..., triangle_offsets(N, 1, "C")] = x
        X = X.reshape(x.shape[:-1] + (N, N))
        return X + np.swapaxes(X, -1, -2)


@dataclass(frozen=True)
class SKParams:
    """Inverse temperature beta and external field h.

    The spin-glass bounds scale as beta^3, so beta must be positive with a
    finite cube (``beta ** 3`` would raise OverflowError, not give inf), and
    h must be finite.
    """

    beta: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0.0
                and math.isfinite(self.beta * self.beta * self.beta)):
            raise ValueError("inverse temperature beta must be positive "
                             "with a finite cube")
        if not math.isfinite(self.h):
            raise ValueError("external field h must be finite")


def check_enumerable(N: int) -> None:
    """Refuse N above ENUMERATION_LIMIT, where exact enumeration stops."""
    if N > ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration is guarded at N <= {ENUMERATION_LIMIT}"
        )


@functools.lru_cache(maxsize=None)
def _spin_table(bits: int) -> np.ndarray:
    """All 2^bits configurations of ``bits`` spins as float rows: bit b of the
    code (MSB first) maps to spin +1, so code order is lexicographic order of
    the spin tuples.  Cached read-only."""
    codes = np.arange(1 << bits, dtype=np.uint32)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    table = ((codes[:, None] >> shifts) & 1) * 2.0 - 1.0
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _magnetisation(bits: int) -> np.ndarray:
    """sum_i s_i of every row of ``_spin_table(bits)``.  Cached read-only."""
    mag = _spin_table(bits).sum(axis=1)
    mag.setflags(write=False)
    return mag


@functools.lru_cache(maxsize=None)
def _pair_products(bits: int) -> np.ndarray:
    """s_i s_j of every row of ``_spin_table(bits)``, one column per pair
    i < j in ``triangle_indices(bits, 1)`` order, so that this table times
    the pair couplings is the pair sum of every row.  Cached read-only."""
    table = _spin_table(bits)
    i, j = triangle_indices(bits, 1)
    products = table[:, i] * table[:, j]
    products.setflags(write=False)
    return products


def _split(N: int) -> tuple[int, int]:
    """(hi, lo): the leading ceil(N/2) spins index the rows of the energy
    grid, the trailing floor(N/2) its columns, so code = row 2^lo + column."""
    return (N + 1) // 2, N // 2


def _code_to_sigma(code, N: int) -> np.ndarray:
    """Spins of a code, or a (B, N) array of them for an array of codes."""
    return ((np.asarray(code)[..., None] >> np.arange(N - 1, -1, -1))
            & 1) * 2 - 1


def _block_rows(N: int) -> int:
    """Grid rows per energy block: a power of two set by N and _BLOCK alone,
    at most half the rows, so a caller that reads only the first half of the
    grid hands BLAS only those rows."""
    hi, lo = _split(N)
    return max(1, min(1 << (hi - 1), _BLOCK >> lo))


def _stack_size(N: int) -> int:
    """Coupling vectors per enumeration stack: as many as keep their L and W
    operands and one energy block each within _STACK_ELEMENTS, at least
    one."""
    hi, lo = _split(N)
    per_vector = (_block_rows(N) << lo) + (hi + 2) * ((1 << hi) + (1 << lo))
    return max(1, _STACK_ELEMENTS // per_vector)


def _as_stack(layout: CouplingLayout, x) -> tuple[np.ndarray, bool]:
    """x as a (B, n) stack of coupling vectors, and whether x was one."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != layout.coordinate_count:
        raise ValueError("coupling vector has wrong length")
    return (x[None], True) if x.ndim == 1 else (x, False)


def _column_stack(v: np.ndarray) -> np.ndarray:
    """The rows of v as a C-ordered (B, p, 1) stack of column vectors, the
    layout for which numpy's stacked matmul makes one BLAS matrix-vector
    call per vector, as it does for a single vector; fancy indexing leaves
    v strided, and the stacked product then rounds differently."""
    return np.ascontiguousarray(v)[..., None]


def _energy_blocks(layout: CouplingLayout, x: np.ndarray, scale: float,
                   field: float, row_start: int,
                   row_stop: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row, E) with E[k, r, b] = scale * pair + field * mag of the
    code (row + r) 2^lo + b under the coupling vector x[k], for grid rows
    covering [row_start, row_stop); x is a (B, n) stack.

    Each block is one stacked GEMM, L[:, rows] @ W, of the augmented
    operands of the module docstring, so the row and column terms ride in
    the product; numpy runs one BLAS call per stacked vector, and the
    within-half pair sums are one matrix-vector product per vector, so each
    vector's energies have the bits they have in a stack of one.  Blocks
    hold ``_block_rows(N)`` rows and start at multiples of it: every caller
    runs the same GEMM shapes on the same operands, so a code's energy has
    the same bits whichever range asked for it (BLAS kernels may round
    differently for other row counts).  The last block is trimmed to
    row_stop only after the arithmetic.
    """
    hi, lo = _split(layout.size)
    X = scale * layout.coupling_matrix(x)
    hi_i, hi_j = triangle_indices(hi, 1)
    lo_i, lo_j = triangle_indices(lo, 1)
    L = np.empty((len(X), 1 << hi, hi + 2))
    L[..., :hi] = _spin_table(hi)
    np.matmul(_pair_products(hi), _column_stack(X[:, hi_i, hi_j]),
              out=L[..., hi:hi + 1])
    L[..., hi + 1] = 1.0
    W = np.empty((len(X), hi + 2, 1 << lo))
    np.matmul(X[:, :hi, hi:], _spin_table(lo).T, out=W[:, :hi])
    W[:, hi] = 1.0
    np.matmul(_pair_products(lo), _column_stack(X[:, hi + lo_i, hi + lo_j]),
              out=W[:, hi + 1, :, None])
    if field:
        L[..., hi] += field * _magnetisation(hi)
        W[:, hi + 1] += field * _magnetisation(lo)
    rows = _block_rows(layout.size)
    for row in range(row_start - row_start % rows, row_stop, rows):
        yield row, (L[:, row:row + rows] @ W)[:, :row_stop - row]


def sk_family(layout: CouplingLayout, params: SKParams) -> FunctionFamily:
    """The 2^N linear members as an array-backed family, in code order.

    Member k is the configuration with code k (``_code_to_sigma``): its
    values come from the split-spin energy grid of ``_pair_energies``, and
    its partial in the coupling of pair (a, b) is scale s_a s_b, read off the
    code bits as scale (1 - 2 (bit_a xor bit_b)).  Nothing is built until
    they are read, so reading the family's influence and size costs O(1)
    in N.
    """
    N = layout.size
    scale = params.beta * N**-1.5
    field_term = params.beta * params.h / N

    def values(x):
        pair, mag = _pair_energies(layout, x, 0, 1 << N)
        return scale * pair + field_term * mag

    def partials(i, x):
        li, lj = triangle_indices(N, 1)
        codes = np.arange(1 << N)
        differ = ((codes >> (N - 1 - li[i])) ^ (codes >> (N - 1 - lj[i]))) & 1
        out = np.zeros((3, 1 << N))
        out[0] = scale * (1 - 2 * differ)
        return out

    return FunctionFamily(
        n=layout.coordinate_count,
        values=values,
        partials=partials,
        c1=scale,
        c2=0.0,
        c3=0.0,
        log_size=N * math.log(2.0),
    )


def _pair_energies(layout: CouplingLayout, x: np.ndarray,
                   start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{i<j} x_ij s_i s_j, sum_i s_i) for codes [start, stop)."""
    hi, lo = _split(layout.size)
    stack, _ = _as_stack(layout, x)
    blocks = list(_energy_blocks(layout, stack, 1.0, 0.0, start >> lo,
                                 -(-stop >> lo)))
    first = blocks[0][0] << lo
    pair = np.concatenate([E[0].ravel() for _, E in blocks])
    codes = np.arange(start, stop)
    mag = (_magnetisation(hi)[codes >> lo]
           + _magnetisation(lo)[codes & ((1 << lo) - 1)])
    return pair[start - first:stop - first], mag


def free_energy(layout: CouplingLayout, params: SKParams, x):
    """N^(-1) log sum_sigma exp{ beta/sqrt(N) sum x ss + beta h sum s }.

    Exact enumeration over the split-spin energy grid with a running
    max-shifted accumulator over its row blocks.  At h = 0 every energy
    equals that of the flipped configuration, so only the grid rows with
    s_1 = -1 enter the sum, which counts twice.  Coincides with the
    soft-max of the member family at level N.

    One coupling vector gives a float; a (B, n) block of them gives the
    (B,) free energies, enumerated in stacks of ``_stack_size(N)`` vectors,
    each row with the arithmetic of its own vector.
    """
    N = layout.size
    check_enumerable(N)
    stack, single = _as_stack(layout, x)
    size = _stack_size(N)
    values = np.concatenate([
        _free_energy_stack(layout, params, stack[k:k + size])
        for k in range(0, len(stack), size)])
    return float(values[0]) if single else values


def _free_energy_stack(layout: CouplingLayout, params: SKParams,
                       x: np.ndarray) -> np.ndarray:
    """``free_energy`` of every vector of the (B, n) stack x: per vector a
    max-shift, exp and sum over each row block."""
    N = layout.size
    beta = params.beta
    hi = _split(N)[0]
    symmetric = params.h == 0.0
    row_stop = 1 << (hi - 1) if symmetric else 1 << hi
    shift = acc = None
    for _, e in _energy_blocks(layout, x, beta / math.sqrt(N),
                               beta * params.h, 0, row_stop):
        e = e.reshape(len(e), -1)
        m = e.max(axis=1)
        if shift is None:
            shift, acc = m, np.zeros(len(e))
        else:
            for k in np.flatnonzero(m > shift):
                acc[k] *= math.exp(shift[k] - m[k])
                shift[k] = m[k]
        e -= shift[:, None]
        acc += np.exp(e, out=e).sum(axis=1)
    if symmetric:
        acc *= 2.0
    return np.array([(top + math.log(total)) / N
                     for top, total in zip(shift.tolist(), acc.tolist())])


def free_energy_function(layout: CouplingLayout,
                         params: SKParams) -> SmoothFunction:
    """The free energy as a SmoothFunction: the soft-max of ``sk_family`` at
    level N, whose partials come from one Gibbs state per point, with the
    value taken from the enumeration kernel of ``free_energy``."""
    N = layout.size
    return replace(
        softmax_function(sk_family(layout, params), N),
        value=lambda x: free_energy(layout, params, x))


def free_energy_lambda(params: SKParams, N: int) -> tuple[float, float]:
    """Influence bounds of the free energy: (3 b^2 N^-2, 13 b^3 N^(-5/2))."""
    layout = CouplingLayout(N)
    return smoothed_lambda_bounds(sk_family(layout, params), float(N))


def ground_state(layout: CouplingLayout, x):
    """max_sigma sum_{i<j} x_ij s_i s_j and one maximizer.

    The sigma -> -sigma symmetry halves the search to configurations with
    s_1 = -1, the first half of the grid rows; ties break to the
    lexicographically smallest spin tuple, which is the first maximizer in
    code order.  One coupling vector gives (float, sigma); a (B, n) block
    gives the (B,) maxima and (B, N) maximizers, searched in stacks of
    ``_stack_size(N)`` vectors.
    """
    N = layout.size
    check_enumerable(N)
    hi, lo = _split(N)
    stack, single = _as_stack(layout, x)
    size = _stack_size(N)
    best = np.full(len(stack), -math.inf)
    best_code = np.zeros(len(stack), dtype=np.int64)
    for k in range(0, len(stack), size):
        top, code = best[k:k + size], best_code[k:k + size]
        for row, pair in _energy_blocks(layout, stack[k:k + size], 1.0, 0.0,
                                        0, 1 << (hi - 1)):
            flat = pair.reshape(len(pair), -1)
            arg = flat.argmax(axis=1)   # row-major: first maximizer
            value = flat[np.arange(len(flat)), arg]
            better = value > top
            top[better] = value[better]
            code[better] = (row << lo) + arg[better]
    if single:
        return float(best[0]), _code_to_sigma(best_code[0], N)
    return best, _code_to_sigma(best_code, N)


@dataclass(frozen=True)
class SKReport(SuiteReport):
    """Spin-glass universality gap report."""

    report: GapReport


def sk_terms(kind: str, spec_x: DistributionSpec, spec_y: DistributionSpec,
             params: SKParams, N: int) -> BoundTerms:
    """The record of ``sk_experiment``'s bound over the n = N(N-1)/2
    couplings, gamma the larger third absolute moment.

    ``kind`` "free_energy": the third-moment form with the smoothed
    influence of ``free_energy_lambda``, 13 beta^3 N^(-5/2).
    "ground_state": the max form of ``sk_family``.  Raises outside its
    domain and does no bound arithmetic; nothing is enumerated.
    """
    if kind not in ("free_energy", "ground_state"):
        raise ValueError(f"unknown SK kind {kind!r}; choose free_energy or "
                         f"ground_state")
    layout = CouplingLayout(N)
    n = layout.coordinate_count
    gamma = max(third_abs_moment(spec_x), third_abs_moment(spec_y))
    if math.isinf(gamma):
        raise InfiniteGammaError("the SK bounds need finite third moments")
    if kind == "ground_state":
        if params.beta != 1.0 or params.h != 0.0:
            raise ValueError(
                "the ground-state experiment is defined at beta = 1, h = 0"
            )
        return max_bound_terms(gamma, n, sk_family(layout, params))
    # the field energy beta h sum_i s_i spans [-beta |h| N, beta |h| N], and
    # the log-sum-exp subtracts energies across that span
    if not math.isfinite(2.0 * params.beta * abs(params.h) * N):
        raise ValueError("2 beta |h| N must be finite: the span of the field "
                         "energies overflows")
    lambda2, lambda3 = free_energy_lambda(params, N)
    return BoundTerms(form="third_moment", lambda2=lambda2, lambda3=lambda3,
                      tail_sum=0.0, body_sum=2.0 * gamma * n,
                      truncation=math.inf, gamma=gamma, n=n)


def sk_experiment(kind: str, spec_x: DistributionSpec,
                  spec_y: DistributionSpec, params: SKParams, N: int,
                  replicates: int, g: TestFunction, master_seed: int,
                  threads: int = 1) -> SKReport:
    """Paired coupling-universality gap of the ``kind`` of ``sk_terms``
    against its bound."""
    layout = CouplingLayout(N)
    check_enumerable(N)
    n = layout.coordinate_count
    bound = evaluate_bound(sk_terms(kind, spec_x, spec_y, params, N), g)

    if kind == "free_energy":
        def evaluate(block):
            return free_energy(layout, params, block)

    else:
        scale = N**-1.5

        def evaluate(block):
            return scale * ground_state(layout, block)[0]

    experiment = (f"sk-{kind}/{spec_x.label}-vs-{spec_y.label}/N{N}/"
                  f"beta{params.beta:g}/h{params.h:g}")
    vx, vy = paired_functional_values(
        evaluate, evaluate, spec_x, spec_y, n, replicates, master_seed,
        experiment, threads=threads,
    )
    report = summarize_gap(g, vx, vy, experiment_id=experiment, n=n,
                           theoretical_bound=bound, seed=master_seed)
    return SKReport(report=report)
