"""Moment and sampling checks for the standardized input laws.

Every analytic truncated moment is checked against an independent adaptive
quadrature of the density written out here, and sampling is checked against
the analytic moments by plain Monte Carlo error bars.  The in-place inverse
CDF transforms are checked bit for bit against the two-branch ``np.where``
formulas they replaced, kept here (the gaussian one in ``oracles``) as the
oracle, and the gaussian quantile against two independent references,
``statistics.NormalDist.inv_cdf`` and ``scipy.special.ndtri``.
"""

import math
import statistics
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from lindeberg_lab import core
from lindeberg_lab.distributions import (
    CEXP,
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    DistributionSpec,
    Family,
    _transform,
    make_vector_sampler,
    pareto,
    parse_spec,
    third_abs_moment,
    truncated_second_moment,
    truncated_third_moment,
)
from lindeberg_lab.rng import RandomStream
from oracles import normal_quantile, sample

SQRT3 = math.sqrt(3.0)


def gauss_pdf(x):
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def uniform_pdf(x):
    return 1.0 / (2.0 * SQRT3) if abs(x) <= SQRT3 else 0.0


def cexp_pdf(x):
    return math.exp(-(x + 1.0)) if x > -1.0 else 0.0


def pareto_pdf_factory(a):
    s = math.sqrt(a / (a - 2.0))

    def pdf(x):
        w = abs(x) * s
        return 0.0 if w < 1.0 else 0.5 * a * w ** (-a - 1.0) * s

    return pdf


INF = math.inf


def _pareto_onset(a):
    return 1.0 / math.sqrt(a / (a - 2.0))


CONTINUOUS = [
    (GAUSSIAN, gauss_pdf, (-INF, INF)),
    (UNIFORM, uniform_pdf, (-SQRT3, SQRT3)),
    (CEXP, cexp_pdf, (-1.0, INF)),
    (pareto(2.5), pareto_pdf_factory(2.5), (-INF, INF)),
    (pareto(3.5), pareto_pdf_factory(3.5), (-INF, INF)),
    (pareto(4.5), pareto_pdf_factory(4.5), (-INF, INF)),
]

# interior density discontinuities (Pareto mass starts at |x| = 1/scale)
BREAKS = {
    "pareto:2.5": (-_pareto_onset(2.5), _pareto_onset(2.5)),
    "pareto:3.5": (-_pareto_onset(3.5), _pareto_onset(3.5)),
    "pareto:4.5": (-_pareto_onset(4.5), _pareto_onset(4.5)),
}

K_GRID = [0.25, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 6.0]


def _piece(pdf, weight, lo, hi, breaks=()):
    if lo >= hi:
        return 0.0
    cuts = [lo] + [b for b in sorted(breaks) if lo < b < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, _ = quad(lambda x: weight(x) * pdf(x), a, b, limit=400)
        total += val
    return total


def tail_oracle(pdf, support, weight, K, breaks=()):
    """Quadrature of E(weight(X); |X| > K), split at the truncation points."""
    lo, hi = support
    return (_piece(pdf, weight, lo, min(-K, hi), breaks)
            + _piece(pdf, weight, max(K, lo), hi, breaks))


def body_oracle(pdf, support, weight, K, breaks=()):
    """Quadrature of E(weight(X); |X| <= K)."""
    lo, hi = support
    return _piece(pdf, weight, max(lo, -K), min(hi, K), breaks)


def quad_moment(pdf, support, weight, breaks=()):
    """Quadrature of E weight(X) over the full support."""
    return body_oracle(pdf, support, weight, INF, breaks)


class TestQuadratureOracles:
    @pytest.mark.parametrize("spec,pdf,support", CONTINUOUS,
                             ids=lambda v: getattr(v, "label", ""))
    def test_tail_second_moment_matches_quadrature(self, spec, pdf, support):
        for K in K_GRID:
            oracle = tail_oracle(pdf, support, lambda x: x * x, K,
                                 BREAKS.get(spec.label, ()))
            got = truncated_second_moment(spec, K)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("spec,pdf,support", CONTINUOUS,
                             ids=lambda v: getattr(v, "label", ""))
    def test_body_third_moment_matches_quadrature(self, spec, pdf, support):
        for K in K_GRID:
            oracle = body_oracle(pdf, support, lambda x: abs(x) ** 3, K,
                                 BREAKS.get(spec.label, ()))
            got = truncated_third_moment(spec, K)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_frozen_oracle_values(self):
        # values computed once with the quadrature oracle above, frozen here
        assert truncated_second_moment(GAUSSIAN, 1.0) == pytest.approx(
            0.801251956901201, rel=1e-12)
        assert truncated_third_moment(GAUSSIAN, 2.0) == pytest.approx(
            0.9478775234474741, rel=1e-12)
        assert truncated_third_moment(GAUSSIAN, math.inf) == pytest.approx(
            1.5957691216057308, rel=1e-12)
        assert third_abs_moment(CEXP) == pytest.approx(
            2.414553294057308, rel=1e-12)
        assert third_abs_moment(pareto(3.5)) == pytest.approx(
            1.963961012123931, rel=1e-12)

    def test_third_moment_matches_quadrature(self):
        for spec, pdf, support in CONTINUOUS:
            if math.isinf(third_abs_moment(spec)):
                continue
            oracle = quad_moment(pdf, support, lambda x: abs(x) ** 3,
                                 BREAKS.get(spec.label, ()))
            assert third_abs_moment(spec) == pytest.approx(oracle, rel=1e-8)

    def test_unit_variance_by_quadrature(self):
        for spec, pdf, support in CONTINUOUS:
            oracle = quad_moment(pdf, support, lambda x: x * x,
                                 BREAKS.get(spec.label, ()))
            assert oracle == pytest.approx(1.0, rel=1e-8)


class TestRademacherEdgeCases:
    def test_tail_second(self):
        assert truncated_second_moment(RADEMACHER, 2.0) == 0.0
        assert truncated_second_moment(RADEMACHER, 0.5) == 1.0

    def test_body_third(self):
        assert truncated_third_moment(RADEMACHER, 2.0) == 1.0
        assert truncated_third_moment(RADEMACHER, 0.5) == 0.0

    def test_third_moment(self):
        assert third_abs_moment(RADEMACHER) == 1.0


class TestMomentStructure:
    all_specs = [GAUSSIAN, RADEMACHER, UNIFORM, CEXP, pareto(2.5), pareto(3.5)]

    @pytest.mark.parametrize("spec", all_specs, ids=lambda s: s.label)
    def test_complement_identity(self, spec):
        # tail second + body second = variance = 1
        for K in K_GRID:
            pdf = dict((s.label, p) for s, p, _ in CONTINUOUS).get(spec.label)
            if pdf is None:  # rademacher: body second is 1{K >= 1}
                body = 1.0 if K >= 1.0 else 0.0
            else:
                support = dict((s.label, sup) for s, _, sup in CONTINUOUS)[
                    spec.label]
                body = body_oracle(pdf, support, lambda x: x * x, K,
                                   BREAKS.get(spec.label, ()))
            assert truncated_second_moment(spec, K) + body == pytest.approx(
                1.0, abs=1e-9)

    @pytest.mark.parametrize("spec", all_specs, ids=lambda s: s.label)
    def test_monotone_in_truncation_level(self, spec):
        tails = [truncated_second_moment(spec, K) for K in K_GRID]
        bodies = [truncated_third_moment(spec, K) for K in K_GRID]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(bodies, bodies[1:]))

    @pytest.mark.parametrize("spec", [GAUSSIAN, RADEMACHER, UNIFORM, CEXP,
                                      pareto(4.0)], ids=lambda s: s.label)
    def test_finite_up_to_the_largest_truncation_level(self, spec):
        # K * K and K ** 3 overflow long after every exponential factor has
        # underflowed to 0, so the moments must reach their K = inf values
        levels = (1.0, 8.0, 40.0, 1e10, 1e154, 1e300, math.inf)
        tails = [truncated_second_moment(spec, K) for K in levels]
        bodies = [truncated_third_moment(spec, K) for K in levels]
        assert all(map(math.isfinite, tails + bodies))
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert all(a <= b for a, b in zip(bodies, bodies[1:]))
        assert (tails[-2], bodies[-2]) == (tails[-1], bodies[-1])

    @pytest.mark.parametrize("a", [2.1, 2.5, 3.0, 3.5, 4.0])
    def test_pareto_finite_where_K_times_its_scale_overflows(self, a):
        # t = K s overflows above K = max / s, s = sqrt(a / (a - 2)); the
        # moments at every finite K stay finite and match their closed
        # forms written in log t = log K + log s
        spec = pareto(a)
        levels = (1e300, 1e307, 5e307, 1e308, 1.7e308, sys.float_info.max)
        tails = [truncated_second_moment(spec, K) for K in levels]
        bodies = [truncated_third_moment(spec, K) for K in levels]
        assert all(map(math.isfinite, tails + bodies))
        assert all(x >= y for x, y in zip(tails, tails[1:]))
        assert all(x <= y for x, y in zip(bodies, bodies[1:]))
        log_s = 0.5 * math.log(a / (a - 2.0))
        for K, tail, body in zip(levels, tails, bodies):
            log_t = math.log(K) + log_s
            # the tail t^(2 - a) is positive wherever it is a normal float
            if (2.0 - a) * log_t > math.log(sys.float_info.min):
                assert tail == pytest.approx(math.exp((2.0 - a) * log_t),
                                             rel=1e-11)
            else:
                assert tail >= 0.0
            reference = (a * log_t if a == 3.0 else
                         a * math.expm1((3.0 - a) * log_t) / (3.0 - a))
            assert body == pytest.approx(reference * math.exp(-3.0 * log_s),
                                         rel=1e-11)

    @pytest.mark.parametrize("spec", all_specs, ids=lambda s: s.label)
    def test_body_third_at_most_K(self, spec):
        for K in K_GRID:
            assert truncated_third_moment(spec, K) <= K * (1.0 + 1e-12)

    @pytest.mark.parametrize("spec", all_specs, ids=lambda s: s.label)
    def test_lyapunov_floor(self, spec):
        assert third_abs_moment(spec) >= 1.0

    @pytest.mark.parametrize("spec", [GAUSSIAN, RADEMACHER, UNIFORM, CEXP,
                                      pareto(2.5), pareto(3.0), pareto(3.5),
                                      pareto(4.0)], ids=lambda s: s.label)
    def test_third_abs_moment_is_the_body_at_infinity(self, spec):
        # one table per law: E|X|^3 is body3(inf) bit for bit, and no tail
        # second moment is left at K = inf
        assert third_abs_moment(spec) == truncated_third_moment(spec,
                                                                math.inf)
        assert truncated_second_moment(spec, math.inf) == 0.0

    @pytest.mark.parametrize("K", [SQRT3, 2.0, 1e300, math.inf])
    def test_uniform_body_is_correctly_rounded_past_its_support(self, K):
        # min(K, sqrt 3)^4 / (4 sqrt 3) would round to one ulp below
        assert truncated_third_moment(UNIFORM, K) == 3.0 * math.sqrt(3.0) / 4.0

    def test_pareto_infinite_third_moment_flag(self):
        assert math.isinf(third_abs_moment(pareto(2.5)))
        assert math.isinf(third_abs_moment(pareto(3.0)))
        assert math.isfinite(third_abs_moment(pareto(3.5)))

    def test_nonpositive_truncation_rejected(self):
        with pytest.raises(ValueError):
            truncated_second_moment(GAUSSIAN, 0.0)
        with pytest.raises(ValueError):
            truncated_third_moment(GAUSSIAN, -1.0)


class TestSampling:
    def gen(self, label, rep=0):
        return RandomStream(91, f"dist-test/{label}").replicate(rep)

    def test_rademacher_support(self):
        x = sample(RADEMACHER, self.gen("rad"), 10_000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_uniform_support(self):
        x = sample(UNIFORM, self.gen("unif"), 10_000)
        assert np.all(np.abs(x) <= SQRT3)

    def test_pareto_support(self):
        spec = pareto(2.5)
        s = math.sqrt(2.5 / 0.5)
        x = sample(spec, self.gen("par"), 10_000)
        assert np.all(np.abs(x) >= 1.0 / s - 1e-12)

    def test_cexp_support(self):
        x = sample(CEXP, self.gen("cexp"), 10_000)
        assert np.all(x >= -1.0)

    def test_deterministic_replicates(self):
        a = sample(GAUSSIAN, self.gen("det", 3), 64)
        b = sample(GAUSSIAN, self.gen("det", 3), 64)
        c = sample(GAUSSIAN, self.gen("det", 4), 64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "spec", [GAUSSIAN, RADEMACHER, UNIFORM, CEXP, pareto(4.5)],
        ids=lambda s: s.label)
    def test_monte_carlo_mean_and_variance(self, spec):
        # 4 / sqrt(R) on the mean and 8 / sqrt(R) on the variance; the
        # variance check needs a finite fourth moment (pareto 4.5 has one).
        R = 1_000_000
        x = sample(spec, self.gen(f"mc/{spec.label}"), R)
        assert abs(float(np.mean(x))) <= 4.0 / math.sqrt(R)
        assert abs(float(np.var(x)) - 1.0) <= 8.0 / math.sqrt(R)

    def test_monte_carlo_heavy_tail_moments(self):
        # pareto(2.5): infinite fourth moment, so check the mean and the
        # bounded truncated moments instead of the raw sample variance
        spec = pareto(2.5)
        R = 1_000_000
        x = sample(spec, self.gen("mc/pareto25"), R)
        assert abs(float(np.mean(x))) <= 4.0 / math.sqrt(R)
        for K in (1.0, 2.0, 5.0):
            emp = float(np.mean(np.where(np.abs(x) > K, x * x, 0.0)))
            se = float(np.std(np.where(np.abs(x) > K, x * x, 0.0),
                              ddof=1)) / math.sqrt(R)
            assert abs(emp - truncated_second_moment(spec, K)) <= 5.0 * se

    def test_monte_carlo_third_moment(self):
        R = 1_000_000
        x = sample(GAUSSIAN, self.gen("mc/third"), R)
        a3 = np.abs(x) ** 3
        se = float(np.std(a3, ddof=1)) / math.sqrt(R)
        assert abs(float(np.mean(a3)) - third_abs_moment(GAUSSIAN)) <= 5 * se


def where_oracle(spec, u):
    """The two-branch inverse CDFs, written with np.where; never in place."""
    fam = spec.family
    if fam is Family.GAUSSIAN:
        return normal_quantile(np.minimum(u + 0.5 * 2.0**-53, 1.0 - 2.0**-53))
    if fam is Family.RADEMACHER:
        return np.where(u < 0.5, -1.0, 1.0)
    if fam is Family.UNIFORM_SCALED:
        return SQRT3 * (2.0 * u - 1.0)
    if fam is Family.CENTERED_EXPONENTIAL_SCALED:
        return -np.log1p(-u) - 1.0
    a = spec.params[0]
    sign = np.where(u < 0.5, -1.0, 1.0)
    v = np.where(u < 0.5, 2.0 * u, 2.0 * u - 1.0)
    mag = np.power(1.0 - v, -1.0 / a)
    return sign * mag / math.sqrt(a / (a - 2.0))


ORACLE_SPECS = [GAUSSIAN, RADEMACHER, UNIFORM, CEXP,
                pareto(2.5), pareto(3.0), pareto(4.0)]
# the grid ends, both sides of the Pareto/Rademacher branch point, quartiles;
# for the gaussian, both sides of |p - 1/2| = 0.425 and of the AS 241 far
# tail, sqrt(-log min(p, 1 - p)) = 5, at each end of the grid
EDGE_UNIFORMS = [0.0, 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.5, 0.75,
                 1.0 - 2.0**-53,
                 675539944105573 * 2.0**-53, 675539944105574 * 2.0**-53,
                 8331659310635416 * 2.0**-53, 8331659310635417 * 2.0**-53,
                 1000 * 2.0**-53, 125090 * 2.0**-53, 125091 * 2.0**-53,
                 1.0 - 125092 * 2.0**-53, 1.0 - 125091 * 2.0**-53,
                 1.0 - 1000 * 2.0**-53]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestInPlaceTransforms:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label)
    def test_bit_identical_to_where_oracle(self, spec):
        gen = RandomStream(17, "transform-oracle").replicate(0)
        u = np.concatenate([gen.random(100_000), EDGE_UNIFORMS])
        expect = where_oracle(spec, u)
        buf = u.copy()
        got = _transform(spec, buf)
        assert got is buf
        assert same_bits(got, expect)

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(k=st.integers(0, 2**53 - 1), spec=st.sampled_from(ORACLE_SPECS))
    def test_bit_identical_on_the_uniform_grid(self, k, spec):
        # gen.random() returns k 2^-53 for k in 0..2^53 - 1
        u = np.array([k * 2.0**-53])
        assert same_bits(_transform(spec, u.copy()), where_oracle(spec, u))

    def test_concurrent_gaussian_transforms_do_not_mix_blocks(self):
        # more threads than cores and a short switch interval: any state
        # the transform shared between threads would mix their blocks
        gen = RandomStream(41, "workspace-threads").replicate(0)
        blocks = [gen.random((8, 4096)) for _ in range(6)]

        def transform_repeatedly(u):
            return [_transform(GAUSSIAN, u.copy()) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
                futures = [pool.submit(transform_repeatedly, u)
                           for u in blocks]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for u, got in zip(blocks, results):
            want = where_oracle(GAUSSIAN, u)
            assert all(same_bits(x, want) for x in got)

    def test_gaussian_draw_leaves_no_memory_behind(self):
        # a fresh thread, so nothing earlier tests drew on this one counts
        def draw_and_drop():
            start = tracemalloc.get_traced_memory()[0]
            u = RandomStream(43, "memory").replicate(0).random(10**6)
            _transform(GAUSSIAN, u)
            del u
            return tracemalloc.get_traced_memory()[0] - start

        tracemalloc.start()
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                kept = pool.submit(draw_and_drop).result(timeout=60)
        finally:
            tracemalloc.stop()
        assert kept < 2**20

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label)
    def test_strided_view(self, spec):
        # the gaussian flat view must alias the block, or the quantiles
        # would land in a copy; the other laws overwrite any view
        u = RandomStream(47, "strided").replicate(0).random((4, 2000))
        view, skipped = u[:, ::2], u[:, 1::2].copy()
        if spec is GAUSSIAN:
            with pytest.raises(ValueError, match="contiguous"):
                _transform(spec, view)
            return
        want = _transform(spec, view.copy())
        assert _transform(spec, view) is view
        assert same_bits(u[:, ::2], want)
        assert same_bits(u[:, 1::2], skipped)

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label)
    def test_reused_buffer_draw_equals_fresh_sample(self, spec):
        stream = RandomStream(23, f"reuse/{spec.label}")
        draw = make_vector_sampler([spec] * 257)
        buf = np.empty((2, 257))
        for r in range(4):
            got = draw(stream, r, buf)
            assert got is buf
            for k in range(2):
                assert same_bits(got[k],
                                 sample(spec, stream.replicate(r + k), 257))

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label)
    def test_scalar_sample(self, spec):
        stream = RandomStream(31, "scalar")
        x = sample(spec, stream.replicate(0))
        assert np.ndim(x) == 0 and isinstance(x, float)
        u = stream.replicate(0).random()
        assert same_bits(x, where_oracle(spec, np.array(u)))


def on_grid(values) -> np.ndarray:
    """``values`` rounded down to the grid k 2^-53 of ``Generator.random``."""
    return np.floor(np.asarray(values) * 2.0**53) * 2.0**-53


def stale_workspace(size: int) -> np.ndarray:
    """A gaussian workspace for ``size`` values that holds only NaN."""
    return np.full(2 * size, np.nan)


class TestGaussianWorkspace:
    """The gaussian quantile writes its two full-length temporaries into the
    caller's workspace.  Whatever the workspace held and however large it
    is, every value keeps the bits of the where-oracle."""

    # (rows, n, first replicate, rows the workspace was sized for)
    @pytest.mark.parametrize("rows, n, start, capacity", [
        (1, 1, 0, 1), (1, 5050, 3, 6), (6, 5050, 0, 6), (7, 257, 11, 7),
        (3, 1000, 40, 32)])
    def test_draw_matches_where_oracle(self, rows, n, start, capacity):
        stream = RandomStream(53, f"workspace/{n}")
        want = where_oracle(GAUSSIAN,
                            stream.fill(start, np.empty((rows, n))))
        out = np.empty((rows, n))
        got = make_vector_sampler([GAUSSIAN] * n)(
            stream, start, out, stale_workspace(capacity * n))
        assert got is out
        assert same_bits(got, want)

    @pytest.mark.parametrize("uniforms, tail, far", [
        ([0.5], False, False),
        (np.linspace(0.1, 0.9, 96), False, False),
        ([0.01, 0.3, 0.5, 0.99, 0.999], True, False),
        (EDGE_UNIFORMS, True, True),
    ], ids=["one-value", "no-tail", "no-far-tail", "edges"])
    def test_hand_built_block(self, uniforms, tail, far):
        u = on_grid(uniforms).reshape(1, -1)
        q = np.abs(u - 0.5)
        assert (q > 0.425).any() == tail
        assert (np.minimum(u, 1.0 - u) < math.exp(-25.0)).any() == far
        want = where_oracle(GAUSSIAN, u)
        got = _transform(GAUSSIAN, u.copy(), stale_workspace(u.size))
        assert same_bits(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sides_share_one_workspace(self, threads):
        # through the engine: each worker hands its one workspace to the
        # X and Y draws in turn; every row's bits fingerprint its values
        n, replicates = 1000, 200
        experiment = "workspace-sides"

        def fingerprint(block):
            return block.view(np.uint64).sum(axis=1, dtype=np.uint64)

        vx, vy = core.paired_functional_values(
            fingerprint, fingerprint, GAUSSIAN, GAUSSIAN, n, replicates, 61,
            experiment, threads=threads, dtype=np.uint64)
        for side, got in (("/x", vx), ("/y", vy)):
            stream = RandomStream(61, experiment + side)
            want = fingerprint(where_oracle(
                GAUSSIAN, stream.fill(0, np.empty((replicates, n)))))
            assert got.tolist() == want.tolist()
        assert vx.tolist() != vy.tolist()

    def test_draw_peak_stays_below_its_block(self):
        # only tail-sized arrays, about 15% of the block each, are allocated
        rows, n = 6, 5050
        stream = RandomStream(59, "workspace-peak")
        out, work = np.empty((rows, n)), np.empty(2 * rows * n)
        draw = make_vector_sampler([GAUSSIAN] * n)
        draw(stream, 0, out, work)
        tracemalloc.start()
        try:
            draw(stream, rows, out, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes


def ulp_error(got, ref) -> np.ndarray:
    """|got - ref| in units of the last place of ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestNormalQuantileAccuracy:
    """The gaussian transform against two independent quantiles, on 10^6
    uniform draws, both grid ends at log-spaced depths (the far tail lies
    below 125091 * 2^-53 from either end) and the edges."""

    @pytest.fixture(scope="class")
    def grid(self):
        gen = RandomStream(37, "quantile-accuracy").replicate(0)
        depth = np.unique(np.floor(np.logspace(0, 52, 4000, base=2.0)))
        u = np.concatenate([gen.random(1_000_000), depth * 2.0**-53,
                            1.0 - depth * 2.0**-53, EDGE_UNIFORMS])
        p = np.minimum(u + 0.5 * 2.0**-53, 1.0 - 2.0**-53)
        return p, _transform(GAUSSIAN, u)

    def test_matches_python_normal_dist(self, grid):
        # the same algorithm; only np.log and libm log may differ in the
        # last place
        p, got = grid
        inv_cdf = statistics.NormalDist().inv_cdf
        err = ulp_error(got, np.array([inv_cdf(v) for v in p.tolist()]))
        assert np.count_nonzero(err) <= 1e-4 * p.size
        assert err.max() <= 3.0

    def test_within_8_ulp_of_scipy_ndtri(self, grid):
        p, got = grid
        assert ulp_error(got, ndtri(p)).max() <= 8.0


class TestParsing:
    def test_round_trip(self):
        for text in ("rademacher", "gaussian", "uniform", "cexp", "pareto:2.5"):
            spec = parse_spec(text)
            assert spec.label == text

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_spec("cauchy")

    def test_rejects_bad_pareto(self):
        with pytest.raises(ValueError):
            parse_spec("pareto:2.0")

    @pytest.mark.parametrize("text", ["pareto:nan", "pareto:inf",
                                      "pareto:-inf"])
    def test_rejects_nonfinite_pareto(self, text):
        with pytest.raises(ValueError):
            parse_spec(text)

    def test_family_takes_no_params(self):
        with pytest.raises(ValueError):
            DistributionSpec(parse_spec("gaussian").family, (1.0,))
