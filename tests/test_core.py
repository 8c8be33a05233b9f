"""Swap-bound arithmetic, influence estimates, finite differences, paired MC."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from lindeberg_lab.core import (
    BoundTerms,
    GapReport,
    InfiniteGammaError,
    SmoothFunction,
    c_constants,
    clt_experiment,
    clt_swap_terms,
    estimate_lambda,
    evaluate_bound,
    fd_partial,
    mean_function,
    paired_functional_values,
    summarize_gap,
    swap_bound,
    third_moment_bound,
)
from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.distributions import (
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    make_vector_sampler,
    pareto,
    truncated_second_moment,
    truncated_third_moment,
)
from lindeberg_lab.rng import RandomStream
from lindeberg_lab import core, sk, smoothmax, wigner
from lindeberg_lab.walks import walk_family
from oracles import monomial, sample, softmax_partials, \
    telescoping_decomposition

SIN = named_g("sin")
TANH = named_g("tanh")
IDENTITY = named_g("identity")
CLIPPED = named_g("clipped_square")
COS = named_g("cos")
ROOT = Path(__file__).resolve().parent.parent


class TestTestFunctions:
    def test_certified_norms_by_search_oracle(self):
        # independent 1-d maximization of |tanh''| and |tanh'''|
        d2 = lambda x: -abs(-2 * math.tanh(x) * (1 - math.tanh(x) ** 2))
        d3 = lambda x: -abs(
            (6 * math.tanh(x) ** 2 - 2) * (1 - math.tanh(x) ** 2))
        m2 = -minimize_scalar(d2, bounds=(0, 3), method="bounded").fun
        m3 = max(-minimize_scalar(d3, bounds=(0.5, 3), method="bounded").fun,
                 abs(d3(0.0)))
        assert TANH.norm2 == pytest.approx(m2, rel=1e-6)
        assert TANH.norm3 == pytest.approx(m3, rel=1e-9)

    @pytest.mark.parametrize("g", [SIN, TANH, IDENTITY, CLIPPED, COS],
                             ids=["sin", "tanh", "identity", "clipped_square",
                                  "cos"])
    def test_norms_dominate_sampled_derivatives(self, g):
        grid = np.linspace(-50.0, 50.0, 10_000)
        for d, norm in ((g.d1, g.norm1), (g.d2, g.norm2), (g.d3, g.norm3)):
            vals = np.array([abs(d(t)) for t in grid])
            assert float(vals.max()) <= norm + 1e-12

    def test_derivative_maps_match_finite_differences(self):
        for g in (SIN, TANH, CLIPPED, COS):
            for t in (-12.4, -3.0, -0.7, 0.0, 1.3, 9.9, 11.2, 16.0):
                fd1 = fd_partial(lambda v: g.value(v[0]), 0, 1,
                                 np.array([t]))
                fd2 = fd_partial(lambda v: g.value(v[0]), 0, 2,
                                 np.array([t]))
                assert g.d1(t) == pytest.approx(fd1, rel=1e-6, abs=1e-7)
                assert g.d2(t) == pytest.approx(fd2, rel=1e-5, abs=1e-5)
            # the 7-point stencil at 9.9 reaches across the splice at 10,
            # where clipped_square's d3 jumps in slope
            for t in (-12.4, -3.0, -0.7, 0.0, 1.3, 11.2, 16.0):
                fd3 = fd_partial(lambda v: g.value(v[0]), 0, 3,
                                 np.array([t]))
                assert g.d3(t) == pytest.approx(fd3, abs=2e-5)

    def test_clipped_square_is_exact_square_inside(self):
        for t in (-9.5, -1.0, 0.0, 4.2, 10.0):
            assert CLIPPED.value(t) == pytest.approx(t * t, rel=1e-14)
        # C^3 across both splices: the value and each derivative agree
        # one side and the other of |t| = 10 and |t| = 15
        for t in (-15.0, -10.0, 10.0, 15.0):
            for d in (CLIPPED.value, CLIPPED.d1, CLIPPED.d2, CLIPPED.d3):
                assert d(t + 1e-9) == pytest.approx(d(t - 1e-9), abs=1e-6)
        assert CLIPPED.value(40.0) == CLIPPED.value(16.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            named_g("step")

    def test_clipped_square_norms_keep_their_bits(self):
        assert (CLIPPED.norm1.hex(), CLIPPED.norm2.hex(),
                CLIPPED.norm3.hex()) == ("0x1.4d4ef3be31885p+4",
                                         "0x1.0cf5c368c9d69p+3",
                                         "0x1.8b6549edbedb3p+2")

    def test_clipped_square_is_certified_on_first_use(self):
        # a fresh interpreter: this module already asked for clipped_square
        script = (
            "import lindeberg_lab, lindeberg_lab.cli\n"
            "from lindeberg_lab import core\n"
            "assert core._clipped_square.cache_info().misses == 0\n"
            "g = core.test_function('clipped_square')\n"
            "assert core.test_function('clipped_square') is g\n"
            "assert core._clipped_square.cache_info().misses == 1\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]


class TestBoundArithmetic:
    def test_c_constants_sin(self):
        assert c_constants(SIN) == (2.0, pytest.approx(5.0 / 6.0))

    def test_c_constants_identity_like(self):
        assert c_constants(IDENTITY) == (1.0, pytest.approx(1.0 / 6.0))

    def test_c_constants_tanh(self):
        c1, c2 = c_constants(TANH)
        n2 = 4.0 / (3.0 * math.sqrt(3.0))
        assert c1 == pytest.approx(1.0 + n2)
        assert c2 == pytest.approx(1.0 / 6.0 + n2 / 2.0 + 2.0 / 6.0)

    def test_c_constants_reject_infinite_norms(self):
        bad = SIN.__class__(value=math.sin, d1=math.cos, d2=math.sin,
                            d3=math.cos, norm1=math.inf, norm2=1.0,
                            norm3=1.0)
        with pytest.raises(ValueError):
            c_constants(bad)

    def test_swap_bound_zero_moments(self):
        assert swap_bound(2.0, 1.0, 0.5, 0.5, 0.0, 0.0) == 0.0

    def test_swap_bound_clt_rademacher(self):
        # both laws Rademacher, K = 2: tail channel empty, body carries
        # n * (1 + 1) so the bound collapses to 2 C2 / sqrt(n)
        c1, c2 = c_constants(SIN)
        for n in (9, 100, 1024):
            tail = 2.0 * n * truncated_second_moment(RADEMACHER, 2.0)
            body = 2.0 * n * truncated_third_moment(RADEMACHER, 2.0)
            got = swap_bound(c1, c2, 1.0 / n, n**-1.5, tail, body)
            assert got == pytest.approx(2.0 * c2 / math.sqrt(n), rel=1e-13)

    def test_swap_bound_rejects_negative(self):
        with pytest.raises(ValueError):
            swap_bound(1.0, 1.0, -0.1, 0.0, 0.0, 0.0)

    def test_third_moment_bound_zero_lambda(self):
        assert third_moment_bound(1.0, 1.0, 10, 0.0) == 0.0

    def test_third_moment_bound_clt(self):
        _, c2 = c_constants(SIN)
        n = 400
        got = third_moment_bound(c2, 1.0, n, n**-1.5)
        assert got == pytest.approx(2.0 * c2 / math.sqrt(n), rel=1e-13)

    def test_third_moment_bound_spin_glass_shape(self):
        _, c2 = c_constants(TANH)
        beta, N, gamma = 1.0, 12, 1.5
        n = N * (N - 1) // 2
        lam3 = 13.0 * beta**3 * N**-2.5
        got = third_moment_bound(c2, gamma, n, lam3)
        expect = 13.0 * beta**3 * c2 * gamma * N * (N - 1) * N**-2.5
        assert got == pytest.approx(expect, rel=1e-13)

    def test_third_moment_bound_refuses_infinite_gamma(self):
        with pytest.raises(InfiniteGammaError):
            third_moment_bound(1.0, math.inf, 10, 1e-3)

    def test_clt_bound_domain(self):
        with pytest.raises(ValueError):
            clt_swap_terms(RADEMACHER, GAUSSIAN, 0)
        with pytest.raises(InfiniteGammaError):
            clt_swap_terms(pareto(2.5), GAUSSIAN, 400)
        with pytest.raises(InfiniteGammaError):
            clt_swap_terms(GAUSSIAN, pareto(3.0), 400)

    def test_each_form_evaluates_with_its_function(self):
        # the record changes no bit: each form runs its function's
        # arithmetic on the record's fields
        c1, c2 = c_constants(TANH)
        gamma, n = 1.5, 50
        max_terms = smoothmax.max_bound_terms(gamma, n, walk_family(n))
        cases = [
            (BoundTerms(form="swap", lambda2=0.3, lambda3=0.2, tail_sum=0.7,
                        body_sum=11.0, truncation=2.0, gamma=gamma, n=n),
             swap_bound(c1, c2, 0.3, 0.2, 0.7, 11.0)),
            (BoundTerms(form="third_moment", lambda2=0.3, lambda3=0.2,
                        tail_sum=0.0, body_sum=2.0 * gamma * n,
                        truncation=math.inf, gamma=gamma, n=n),
             third_moment_bound(c2, gamma, n, 0.2)),
            (max_terms, smoothmax.optimized_max_bound(TANH, max_terms)),
        ]
        for terms, expect in cases:
            assert evaluate_bound(terms, TANH).hex() == expect.hex(), \
                terms.form

    def test_unknown_form_is_refused(self):
        with pytest.raises(ValueError):
            BoundTerms(form="fourth_moment", lambda2=0.0, lambda3=0.0,
                       tail_sum=0.0, body_sum=0.0, truncation=math.inf,
                       gamma=1.0, n=1)


class TestFiniteDifferences:
    def test_linear_function_first_order_exact(self):
        f = mean_function(7)
        x = np.linspace(-1, 1, 7)
        for i in (0, 3, 6):
            got = fd_partial(f.value, i, 1, x)
            assert got == pytest.approx(7**-0.5, abs=1e-9)

    def test_linear_function_second_order_zero(self):
        f = mean_function(5)
        x = np.zeros(5)
        assert fd_partial(f.value, 2, 2, x) == pytest.approx(0.0, abs=1e-7)

    def test_cubic_third_derivative(self):
        # symbolic oracle: d^3/dx^3 x^3 = 6 everywhere
        f = monomial(3, 3, coordinate=0)
        got = fd_partial(f.value, 0, 3, np.zeros(3))
        assert got == pytest.approx(6.0, abs=1e-4)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            fd_partial(lambda v: 0.0, 0, 4, np.zeros(1))


class TestLambdaEstimates:
    def test_mean_function_exact(self):
        f = mean_function(25)
        pts = [np.zeros(25), np.ones(25)]
        est = estimate_lambda(f, pts)
        assert est.lambda2 == pytest.approx(1.0 / 25.0, rel=1e-14)
        assert est.lambda3 == pytest.approx(25.0**-1.5, rel=1e-14)

    def test_constant_function_zero(self):
        f = SmoothFunction(n=3, value=lambda x: 4.0,
                           partial=lambda i, p, x: 0.0)
        est = estimate_lambda(f, [np.zeros(3)])
        assert (est.lambda2, est.lambda3) == (0.0, 0.0)

    def test_square_coordinate_hand_enumeration(self):
        # oracle: enumerate p at x = 0.5 -> sup over {|2x|^2, |2|^1} = 2
        f = monomial(4, 2, coordinate=0)
        x = np.full(4, 0.5)
        oracle = max(abs(f.partial(0, 1, x)) ** 2, abs(f.partial(0, 2, x)))
        est = estimate_lambda(f, [x])
        assert oracle == 2.0
        assert est.lambda2 == pytest.approx(oracle, rel=1e-14)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            estimate_lambda(mean_function(2), [])

    def test_monotone_in_point_set(self):
        f = monomial(3, 3, coordinate=1)
        gen = np.random.default_rng(5)
        pts = [gen.uniform(-3, 3, size=3) for _ in range(12)]
        small = estimate_lambda(f, pts[:4])
        large = estimate_lambda(f, pts)
        assert large.lambda2 >= small.lambda2
        assert large.lambda3 >= small.lambda3

    def test_scaling_identity_from_per_order_sups(self):
        # lambda_r(c f) = max_p |c|^(r/p) s_p^(r/p), with the per-order sups
        # s_p of f itself read off its partials
        f = monomial(2, 3, coordinate=0)
        gen = np.random.default_rng(11)
        pts = [gen.uniform(-1.5, 1.5, size=2) for _ in range(8)]
        sups = [max(abs(f.partial(i, p, x)) for x in pts for i in range(2))
                for p in (1, 2, 3)]
        for c in (0.3, 2.0, -5.0):
            scaled = SmoothFunction(
                n=2, value=lambda x: c * f.value(x),
                partial=lambda i, p, x: c * f.partial(i, p, x))
            got = estimate_lambda(scaled, pts)
            for r in (2, 3):
                expect = max((abs(c) * sups[p - 1]) ** (r / p)
                             for p in range(1, r + 1))
                assert getattr(got, f"lambda{r}") == pytest.approx(
                    expect, rel=1e-12)


def _stieltjes_case():
    layout, z = wigner.WignerLayout(5), 0.3 + 1.0j
    return (wigner.stieltjes_function(layout, z), wigner, "resolvent",
            lambda x: wigner.stieltjes_partials_all(layout, x, z).tolist())


def _softmax_case():
    fam, alpha = walk_family(6), 2.5
    return (smoothmax.softmax_function(fam, alpha), smoothmax,
            "softmax_state",
            lambda x: [list(softmax_partials(fam, alpha, x, i))
                       for i in range(fam.n)])


def _free_energy_case():
    layout, params = sk.CouplingLayout(5), sk.SKParams(beta=1.1, h=0.2)
    fam = sk.sk_family(layout, params)
    return (sk.free_energy_function(layout, params), smoothmax,
            "softmax_state",
            lambda x: [list(softmax_partials(fam, 5.0, x, i))
                       for i in range(fam.n)])


PARTIAL_TABLE_CASES = {"stieltjes": _stieltjes_case,
                       "softmax": _softmax_case,
                       "free_energy": _free_energy_case}


class TestPartialTables:
    # every analytic factory serves its partials from one (n, 3) table per
    # point, so reading all (i, p) at a point costs one factorization/state

    @pytest.mark.parametrize("case", PARTIAL_TABLE_CASES)
    def test_one_table_per_point(self, case, monkeypatch):
        f, module, name, _ = PARTIAL_TABLE_CASES[case]()
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        x = RandomStream(41, f"table/{case}").replicate(0).standard_normal(f.n)
        estimate_lambda(f, [x])
        assert len(calls) == 1

    @pytest.mark.parametrize("case", PARTIAL_TABLE_CASES)
    def test_each_point_reads_its_own_table(self, case):
        f, _, _, reference = PARTIAL_TABLE_CASES[case]()
        gen = RandomStream(42, f"table/{case}").replicate(0)
        a, b = gen.standard_normal(f.n), gen.standard_normal(f.n)
        for x in (a, b, a):
            got = [[f.partial(i, p, x) for p in (1, 2, 3)]
                   for i in range(f.n)]
            assert got == reference(x)


class TestTelescoping:
    def test_equal_draws_all_zero(self):
        f = mean_function(6)
        x = np.arange(6.0)
        inc = telescoping_decomposition(f, SIN, x, x)
        assert np.all(inc == 0.0)

    def test_single_coordinate(self):
        f = mean_function(1)
        inc = telescoping_decomposition(f, SIN, np.array([0.7]),
                                        np.array([-0.2]))
        expect = SIN.value(f.value(np.array([0.7]))) - SIN.value(
            f.value(np.array([-0.2])))
        assert inc.shape == (1,)
        assert inc[0] == pytest.approx(expect, rel=1e-15)

    def test_three_coordinates_direct_recomputation(self):
        f = mean_function(3)
        x = np.array([0.3, -1.2, 0.8])
        y = np.array([1.0, 0.4, -0.6])
        inc = telescoping_decomposition(f, SIN, x, y)
        h = lambda v: SIN.value(f.value(np.asarray(v)))
        oracle = [
            h([0.3, 0.4, -0.6]) - h([1.0, 0.4, -0.6]),
            h([0.3, -1.2, -0.6]) - h([0.3, 0.4, -0.6]),
            h([0.3, -1.2, 0.8]) - h([0.3, -1.2, -0.6]),
        ]
        assert inc == pytest.approx(oracle, rel=1e-15)

    def test_exactness_of_total(self):
        gen = np.random.default_rng(17)
        f = mean_function(64)
        for _ in range(10):
            x = gen.standard_normal(64)
            y = gen.standard_normal(64)
            inc = telescoping_decomposition(f, TANH, x, y)
            total = TANH.value(f.value(x)) - TANH.value(f.value(y))
            assert math.fsum(inc) == pytest.approx(
                total, rel=1e-12, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            telescoping_decomposition(mean_function(3), SIN, np.zeros(3),
                                      np.zeros(4))


class TestTriangleOffsets:
    # the fills that use them are pinned by tests/test_wigner.py (order "F")
    # and the coupling-matrix tests of tests/test_sk.py (order "C")
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_cached_read_only(self, order):
        offsets = core.triangle_offsets(5, 1, order)
        assert core.triangle_offsets(5, 1, order) is offsets
        assert not offsets.flags.writeable


class TestMcGap:
    def test_identical_laws_within_noise(self):
        report = clt_experiment(GAUSSIAN, GAUSSIAN, 32, SIN, replicates=2000,
                                master_seed=3)
        assert report.mc_gap <= 3.0 * report.std_error

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            clt_experiment(GAUSSIAN, GAUSSIAN, 4, SIN, replicates=99,
                           master_seed=1)

    def test_matched_second_moments_with_clipped_square(self):
        # closed-form oracle: E g(X) under both laws by quadrature; with the
        # clip far out the difference is far below Monte Carlo resolution
        g = CLIPPED
        e_rad = g.value(1.0)  # |X| = 1 surely
        phi = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        e_gauss = quad(lambda t: g.value(t) * phi(t), -40, 40, limit=200)[0]
        assert abs(e_rad - e_gauss) < 1e-12
        # at n = 1 the normalized sum is the coordinate itself
        report = clt_experiment(RADEMACHER, GAUSSIAN, 1, g, replicates=4000,
                                master_seed=10)
        assert report.mc_gap <= 3.0 * report.std_error + 1e-12

    def test_report_is_deterministic(self):
        a = clt_experiment(RADEMACHER, GAUSSIAN, 8, SIN, replicates=300,
                           master_seed=5)
        b = clt_experiment(RADEMACHER, GAUSSIAN, 8, SIN, replicates=300,
                           master_seed=5)
        assert a == b

    def test_threads_reproduce_serial(self):
        serial = clt_experiment(RADEMACHER, GAUSSIAN, 16, SIN, replicates=500,
                                master_seed=8)
        threaded = clt_experiment(RADEMACHER, GAUSSIAN, 16, SIN,
                                  replicates=500, master_seed=8, threads=4)
        assert serial == threaded

    def test_replicate_regenerates_alone(self):
        # replicate r of each side is a pure function of its stream position,
        # whatever the engine drew into the reused buffers before it
        n, experiment = 24, "regen"
        f = mean_function(n)

        def values(block):
            return np.array([f.value(row) for row in block])

        vx, vy = paired_functional_values(values, values, pareto(4.0),
                                          GAUSSIAN, n, 300, 13, experiment,
                                          threads=3)
        for r in (0, 137, 299):
            gx = RandomStream(13, experiment + "/x").replicate(r)
            gy = RandomStream(13, experiment + "/y").replicate(r)
            assert vx[r] == f.value(sample(pareto(4.0), gx, n))
            assert vy[r] == f.value(sample(GAUSSIAN, gy, n))

    def test_a_list_of_differing_laws_is_refused(self):
        # every coordinate of a side draws from one law
        mixed = [RADEMACHER, GAUSSIAN] * 3

        def mean(block):
            return block.sum(axis=1)

        with pytest.raises(ValueError):
            make_vector_sampler(mixed)
        with pytest.raises(ValueError):
            paired_functional_values(mean, mean, mixed, GAUSSIAN, 6, 100, 2,
                                     "spec-lists")
        with pytest.raises(ValueError):
            wigner.pastur_term(mixed, 3, 0.5)

    @staticmethod
    def _diffs_summary(diffs):
        # oracle: the reduction over an explicit list of g differences
        diffs = np.array(diffs)
        reps = len(diffs)
        mean = math.fsum(diffs) / reps
        var = math.fsum((d - mean) ** 2 for d in diffs) / (reps - 1)
        return mean, math.sqrt(var / reps), reps

    @pytest.mark.parametrize("g", [SIN, TANH, IDENTITY, CLIPPED],
                             ids=["sin", "tanh", "identity", "clipped_square"])
    def test_summarize_gap_matches_list_of_diffs(self, g):
        gen = np.random.default_rng(17)
        vx = 3.0 * gen.standard_normal(257)
        vy = 3.0 * gen.standard_normal(257)
        zx = vx + 1j * gen.standard_normal(257)
        zy = vy + 1j * gen.standard_normal(257)
        cases = [(vx, vy, [g.value(a) - g.value(b) for a, b in zip(vx, vy)]),
                 (np.real(zx), np.real(zy),
                  [g.value(a.real) - g.value(b.real) for a, b in zip(zx, zy)]),
                 (np.imag(zx), np.imag(zy),
                  [g.value(a.imag) - g.value(b.imag) for a, b in zip(zx, zy)])]
        for x, y, diffs in cases:
            report = summarize_gap(g, x, y, experiment_id="e", n=5,
                                   theoretical_bound=0.25, seed=9)
            gap, err, reps = self._diffs_summary(diffs)
            assert (report.mean_gap, report.std_error, report.replicates) == \
                (gap, err, reps)
            assert report.mc_gap == abs(gap)
            assert (report.experiment_id, report.n, report.theoretical_bound,
                    report.seed) == ("e", 5, 0.25, 9)

    def test_gap_report_passed_is_derived(self):
        r = GapReport(experiment_id="e", n=1, replicates=100, mean_gap=0.5,
                      std_error=0.01, theoretical_bound=0.4, seed=0)
        assert not r.passed
        r2 = GapReport(experiment_id="e", n=1, replicates=100, mean_gap=0.5,
                       std_error=0.05, theoretical_bound=0.4, seed=0)
        assert r2.passed

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_never_passes(self, bound):
        r = GapReport(experiment_id="e", n=1, replicates=100, mean_gap=0.0,
                      std_error=0.0, theoretical_bound=bound, seed=0)
        assert not r.passed
        assert r.csv_row()[GapReport.CSV_COLUMNS.index("passed")] is False


class TestCltExperiment:
    def test_bound_value_and_dominance(self):
        report = clt_experiment(RADEMACHER, GAUSSIAN, 400, SIN,
                                replicates=2000, master_seed=40)
        expect = (5.0 / 6.0) * (1.0 + 2.0 * math.sqrt(2.0 / math.pi)) / 20.0
        assert report.theoretical_bound == pytest.approx(expect, rel=1e-13)
        assert report.passed

    # g = cos is even, so the exact gap is not 0 by symmetry:
    # E cos(S_4 / 2) is cos(1/2)^4 for rademacher steps and
    # (sin(t) / t)^4, t = sqrt(3) / 2, for uniform ones; E cos Z = e^(-1/2)
    @pytest.mark.parametrize("law, exact", [
        (RADEMACHER, math.cos(0.5) ** 4 - math.exp(-0.5)),
        (UNIFORM, (math.sin(math.sqrt(0.75)) / math.sqrt(0.75)) ** 4
         - math.exp(-0.5)),
    ], ids=["rademacher", "uniform"])
    def test_gap_matches_an_exact_oracle(self, law, exact):
        # two-sided: a wrong stream, transform or reduction moves the
        # signed estimate off the exact gap, which no dominance check can see
        report = clt_experiment(law, GAUSSIAN, 4, COS, replicates=200_000,
                                master_seed=41)
        assert abs(report.mean_gap - exact) <= 3.0 * report.std_error

    def test_k_sweep_interior_minimum_for_gaussian(self):
        # tail channel decays, body channel grows: the swap bound over a K
        # grid has its minimum strictly inside for Gaussian-vs-Gaussian
        c1, c2 = c_constants(SIN)
        n = 4
        grid = np.linspace(0.5, 12.0, 47)
        vals = []
        for K in grid:
            tail = 2 * n * truncated_second_moment(GAUSSIAN, K)
            body = 2 * n * truncated_third_moment(GAUSSIAN, K)
            vals.append(swap_bound(c1, c2, 1.0 / n, n**-1.5, tail, body))
        k = int(np.argmin(vals))
        assert 0 < k < len(grid) - 1


class TestDerivativeAgreementSweep:
    def test_registered_smooth_functions_match_fd(self):
        functions = [
            mean_function(6),
            monomial(4, 2, coordinate=1),
            monomial(3, 3, coordinate=0),
        ]
        gen = np.random.default_rng(23)
        for k, f in enumerate(functions):
            for _ in range(100):
                x = gen.uniform(-2.0, 2.0, size=f.n)
                i = int(gen.integers(f.n))
                for p, rtol, atol in ((1, 1e-5, 1e-9), (2, 1e-5, 5e-7),
                                      (3, 1e-4, 5e-7)):
                    got = f.partial(i, p, x)
                    ref = fd_partial(f.value, i, p, x)
                    assert got == pytest.approx(ref, rel=rtol, abs=atol), (
                        k, i, p)
