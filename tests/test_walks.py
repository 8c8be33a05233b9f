"""Running maxima of partial sums, the optimized gap bound, half-normal KS."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.core import InfiniteGammaError, evaluate_bound
from lindeberg_lab.distributions import GAUSSIAN, RADEMACHER, UNIFORM, \
    pareto, third_abs_moment
from lindeberg_lab.rng import RandomStream
from lindeberg_lab.smoothmax import estimate_family_lambda, k_constant, \
    max_bound_terms, optimized_max_bound
from lindeberg_lab.walks import (
    erdos_kac_experiment,
    erdos_kac_terms,
    half_normal_reference,
    ks_to_half_normal,
    max_partial_sums,
    walk_family,
)

SIN = named_g("sin")


class TestMaxPartialSums:
    def test_all_up_steps(self):
        for n in (1, 5, 49):
            assert max_partial_sums(np.ones(n)) == pytest.approx(
                math.sqrt(n), rel=1e-14)

    def test_all_down_steps(self):
        for n in (1, 4, 30):
            assert max_partial_sums(-np.ones(n)) == pytest.approx(
                -1.0 / math.sqrt(n), rel=1e-14)

    def test_hand_prefix_oracle(self):
        # prefixes of (1, -2, 2): 1, -1, 1 -> max 1, normalized by sqrt(3)
        got = max_partial_sums(np.array([1.0, -2.0, 2.0]))
        assert got == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_partial_sums(np.array([]))

    def test_equals_family_hard_max(self):
        n = 12
        fam = walk_family(n)
        gen = RandomStream(3, "walk-test").replicate(0)
        for _ in range(5):
            x = gen.standard_normal(n)
            hard = float(fam.values(x).max())
            assert max_partial_sums(x) == pytest.approx(hard, rel=1e-13)


class TestWalkFamily:
    def test_influence_is_exact(self):
        n = 16
        fam = walk_family(n)
        gen = RandomStream(4, "walk-lam").replicate(0)
        pts = [gen.standard_normal(n) for _ in range(3)]
        est = estimate_family_lambda(fam, pts)
        assert est.lambda3 == pytest.approx(n**-1.5, rel=1e-14)
        assert est.lambda2 == pytest.approx(1.0 / n, rel=1e-14)

    def test_family_metadata(self):
        fam = walk_family(9)
        assert fam.log_size == math.log(9)
        assert fam.c1 == pytest.approx(1.0 / 3.0)
        assert fam.lambda3 == pytest.approx(9.0**-1.5)

    def test_family_is_lazy(self):
        # the family and its bound read only size and influence, so neither
        # may touch an array of n members
        n = 10**7
        start = time.perf_counter()
        fam = walk_family(n)
        bound = evaluate_bound(erdos_kac_terms(RADEMACHER, GAUSSIAN, n), SIN)
        assert time.perf_counter() - start < 1.0
        assert fam.lambda3 == pytest.approx(n**-1.5, rel=1e-14)
        assert fam.log_size == pytest.approx(math.log(n), rel=1e-15)
        gamma = third_abs_moment(GAUSSIAN)
        assert bound == pytest.approx(
            k_constant(SIN) * ((gamma * n**-0.5) ** (1.0 / 3.0)
                               * math.log(n) ** (2.0 / 3.0)
                               + gamma * n**-0.5),
            rel=1e-12)

    def test_member_arrays_are_prefix_sums(self):
        n = 7
        fam = walk_family(n)
        x = RandomStream(6, "walk-arrays").replicate(0).standard_normal(n)
        root = 1.0 / math.sqrt(n)
        expect = [root * math.fsum(x[:j]) for j in range(1, n + 1)]
        assert fam.values(x) == pytest.approx(expect, rel=1e-14, abs=1e-15)
        for i in range(n):
            parts = fam.partials(i, x)
            assert parts.shape == (3, n)
            # member j - 1 is prefix j, which holds coordinate i iff j > i
            assert parts[0].tolist() == [root * (j > i)
                                         for j in range(1, n + 1)]
            assert not parts[1:].any()

    def test_partials_refuse_a_coordinate_out_of_range(self):
        # i = n would mark no member and i = -n - 1 every member
        n = 5
        fam = walk_family(n)
        x = np.zeros(n)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                fam.partials(i, x)
        assert np.array_equal(fam.partials(-1, x), fam.partials(n - 1, x))

    def test_smoothed_influence_of_prefix_family(self):
        from lindeberg_lab.smoothmax import smoothed_lambda_bounds

        n, alpha = 25, 3.0
        l2, l3 = smoothed_lambda_bounds(walk_family(n), alpha)
        assert l2 == pytest.approx(3.0 * alpha / n, rel=1e-14)
        assert l3 == pytest.approx(13.0 * alpha**2 * n**-1.5, rel=1e-14)


class TestBound:
    def test_routes_through_optimized_max_bound(self):
        # gamma is the larger third absolute moment of the two laws
        for n in (16, 400):
            for laws in ((RADEMACHER, RADEMACHER), (RADEMACHER, GAUSSIAN),
                         (GAUSSIAN, RADEMACHER)):
                gamma = max(map(third_abs_moment, laws))
                bound = evaluate_bound(erdos_kac_terms(*laws, n), SIN)
                assert bound == pytest.approx(
                    optimized_max_bound(
                        SIN, max_bound_terms(gamma, n, walk_family(n))),
                    rel=1e-12)

    def test_closed_form_at_sin(self):
        # K(sin) = 19/3 + 13 + 13/3 = 71/3; the two channels in brackets;
        # rademacher steps have gamma = 1
        n = 400
        got = evaluate_bound(erdos_kac_terms(RADEMACHER, RADEMACHER, n), SIN)
        expect = (71.0 / 3.0) * (
            n**(-1.0 / 6.0) * math.log(n) ** (2.0 / 3.0) + n**-0.5)
        assert got == pytest.approx(expect, rel=1e-13)
        assert k_constant(SIN) == pytest.approx(71.0 / 3.0)

    def test_decreasing_in_n(self):
        vals = [evaluate_bound(erdos_kac_terms(UNIFORM, UNIFORM, n), SIN)
                for n in (50, 200, 800, 3200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_refuses_infinite_gamma(self):
        with pytest.raises(InfiniteGammaError):
            erdos_kac_terms(pareto(2.5), GAUSSIAN, 100)


class TestHalfNormalReference:
    def test_edges(self):
        assert half_normal_reference(0.0) == 0.0
        assert half_normal_reference(-3.0) == 0.0
        assert half_normal_reference(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_unit_point_matches_quadrature(self):
        phi = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        oracle = 2.0 * quad(phi, 0.0, 1.0)[0]
        assert half_normal_reference(1.0) == pytest.approx(oracle, rel=1e-12)
        assert half_normal_reference(1.0) == pytest.approx(
            0.6826894921370859, rel=1e-14)

    def test_vectorized(self):
        t = np.array([-1.0, 0.0, 1.0, 2.0])
        vals = half_normal_reference(t)
        assert vals.shape == (4,)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= 0.0)


class TestKsStatistic:
    def test_matches_scipy_oracle(self):
        gen = RandomStream(9, "ks-test").replicate(0)
        sample = np.abs(gen.standard_normal(500))
        ours = ks_to_half_normal(sample)
        oracle = kstest(sample, half_normal_reference).statistic
        assert ours == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_sample(self):
        with pytest.raises(ValueError):
            ks_to_half_normal(np.array([]))


def expected_running_max(spec, n: int) -> float:
    """E max_{1<=k<=n} S_k / sqrt(n) for iid steps of a symmetric law, exactly.

    Spitzer's identity (Trans. AMS 82, 1956), applied to the walk after its
    first mean-zero step, gives E max_{1<=k<=n} S_k = sum_{k<n} E[S_k^+] / k,
    where E[S_k^+] = sqrt(k / 2 pi) for gaussian steps and
    2^-k sum_j max(2j - k, 0) C(k, j) for rademacher ones.
    """
    if spec == GAUSSIAN:
        positive = [math.sqrt(k / (2.0 * math.pi)) for k in range(1, n)]
    else:
        assert spec == RADEMACHER
        positive = [math.fsum(max(2 * j - k, 0) * math.comb(k, j)
                              for j in range(k + 1)) / 2.0**k
                    for k in range(1, n)]
    return math.fsum(p / k for k, p in enumerate(positive, 1)) / math.sqrt(n)


class TestExperiment:
    def test_identity_gap_matches_spitzer(self):
        # exact two-sided oracle: with g = identity the signed gap is
        # E max of the rademacher walk minus that of the gaussian one
        n = 16
        report = erdos_kac_experiment(RADEMACHER, GAUSSIAN, n,
                                      named_g("identity"), 200_000, 20240)
        exact = (expected_running_max(RADEMACHER, n)
                 - expected_running_max(GAUSSIAN, n))
        assert exact == pytest.approx(0.020819, abs=5e-7)
        gap = report.report
        assert abs(gap.mean_gap - exact) <= 3.0 * gap.std_error

    def test_small_run_passes(self):
        report = erdos_kac_experiment(RADEMACHER, GAUSSIAN, 64, SIN,
                                      replicates=400, master_seed=6)
        assert report.passed
        assert report.report.theoretical_bound == pytest.approx(
            evaluate_bound(erdos_kac_terms(RADEMACHER, GAUSSIAN, 64), SIN),
            rel=1e-13)
        assert 0.0 < report.ks_distance < 0.25

    def test_deterministic(self):
        a = erdos_kac_experiment(RADEMACHER, GAUSSIAN, 32, SIN,
                                 replicates=150, master_seed=2)
        b = erdos_kac_experiment(RADEMACHER, GAUSSIAN, 32, SIN,
                                 replicates=150, master_seed=2)
        assert a == b
