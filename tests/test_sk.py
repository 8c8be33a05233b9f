"""Spin-glass enumeration, soft-max identity, ground state, and gap bounds."""

import itertools
import math
import time

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from lindeberg_lab import sk
from lindeberg_lab.cli import build_config, run
from lindeberg_lab.core import block_rows, c_constants, estimate_lambda, \
    fd_partial
from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.distributions import GAUSSIAN, RADEMACHER, \
    truncated_second_moment, truncated_third_moment
from lindeberg_lab.rng import RandomStream
from lindeberg_lab.sk import (
    CouplingLayout,
    SKParams,
    free_energy,
    free_energy_lambda,
    ground_state,
    sk_experiment,
    sk_family,
)
from lindeberg_lab.smoothmax import (
    estimate_family_lambda,
    max_bound_terms,
    max_swap_bound,
    optimized_max_bound,
    softmax_state,
)
from oracles import family_member, free_energy_gray, layout_pairs, \
    pair_index

TANH = named_g("tanh")


def coupling_draws(label, N, count, law="gaussian"):
    layout = CouplingLayout(N)
    gen = RandomStream(55, f"sk-test/{label}").replicate(0)
    if law == "rademacher":
        return [np.where(gen.random(layout.coordinate_count) < 0.5,
                         -1.0, 1.0) for _ in range(count)]
    return [gen.standard_normal(layout.coordinate_count)
            for _ in range(count)]


def brute_force_ground_state(layout, x):
    """Independent oracle: plain loop over every configuration."""
    N = layout.size
    pairs = layout.pairs()
    best = -math.inf
    for sigma in itertools.product((-1, 1), repeat=N):
        val = sum(x[c] * sigma[i] * sigma[j]
                  for c, (i, j) in enumerate(pairs))
        best = max(best, val)
    return best


class TestLayout:
    def test_bijection(self):
        layout = CouplingLayout(5)
        pairs = layout.pairs()
        assert pairs == layout_pairs(layout)
        assert len(pairs) == layout.coordinate_count == 10
        for c, (i, j) in enumerate(pairs):
            assert pair_index(layout, i, j) == c
            assert pair_index(layout, j, i) == c

    def test_coupling_matrix_round_trip(self):
        layout = CouplingLayout(4)
        x = np.arange(1.0, 7.0)
        X = layout.coupling_matrix(x)
        assert np.all(np.diag(X) == 0.0)
        for c, (i, j) in enumerate(layout.pairs()):
            assert X[i, j] == X[j, i] == x[c]

    def test_coupling_matrix_stack_matches_its_rows(self):
        layout = CouplingLayout(6)
        block = np.array(coupling_draws("stack-matrix", 6, 4))
        X = layout.coupling_matrix(block)
        assert X.shape == (4, 6, 6)
        for x, one in zip(block, X):
            assert np.array_equal(layout.coupling_matrix(x), one)
            assert np.array_equal(one, one.T)
            assert np.array_equal(one[np.triu_indices(6, 1)], x)

    def test_too_few_spins(self):
        with pytest.raises(ValueError):
            CouplingLayout(1)


class TestFamilyMember:
    def test_zero_couplings_zero_field(self):
        layout = CouplingLayout(4)
        params = SKParams(beta=1.3, h=0.0)
        assert family_member(layout, params, np.ones(4), np.zeros(6)) == 0.0

    def test_two_spins_single_pair(self):
        layout = CouplingLayout(2)
        beta, x12 = 0.7, 1.9
        got = family_member(layout, SKParams(beta=beta, h=0.0),
                            np.array([1, 1]), np.array([x12]))
        assert got == pytest.approx(beta * 2**-1.5 * x12, rel=1e-15)

    def test_global_sign_flip_invariance_without_field(self):
        layout = CouplingLayout(5)
        params = SKParams(beta=1.0, h=0.0)
        gen = np.random.default_rng(12)
        x = gen.standard_normal(10)
        sigma = np.where(gen.random(5) < 0.5, -1, 1)
        assert family_member(layout, params, sigma, x) == pytest.approx(
            family_member(layout, params, -sigma, x), rel=1e-15)

    def test_bad_sigma_rejected(self):
        layout = CouplingLayout(3)
        with pytest.raises(ValueError):
            family_member(layout, SKParams(), np.array([1, 2, 1]),
                          np.zeros(3))


class TestFamilyLambda:
    def test_stated_values(self):
        fam = sk_family(CouplingLayout(10), SKParams(beta=1.0))
        assert fam.lambda2 == pytest.approx(1e-3, rel=1e-15)
        assert fam.lambda3 == pytest.approx(10.0**-4.5, rel=1e-15)
        assert fam.log_size == pytest.approx(10.0 * math.log(2.0), rel=1e-15)

    def test_beta_homogeneity(self):
        base = sk_family(CouplingLayout(8), SKParams(beta=1.0))
        dbl = sk_family(CouplingLayout(8), SKParams(beta=2.0))
        assert dbl.lambda2 == pytest.approx(4.0 * base.lambda2, rel=1e-15)
        assert dbl.lambda3 == pytest.approx(8.0 * base.lambda3, rel=1e-15)

    def test_empirical_family_influence_is_exact(self):
        # members are linear with constant partials, so the sampled sup
        # equals the analytic value exactly
        N = 6
        layout = CouplingLayout(N)
        params = SKParams(beta=1.0, h=0.3)
        fam = sk_family(layout, params)
        est = estimate_family_lambda(fam, coupling_draws("lam", N, 2))
        assert (est.lambda2, est.lambda3) == (fam.lambda2, fam.lambda3)

    def test_family_is_lazy(self):
        # bounds read only the family's influence and size; the N(N-1)/2
        # pair indices are built when members are
        N = 20000
        start = time.perf_counter()
        fam = sk_family(CouplingLayout(N), SKParams())
        assert time.perf_counter() - start < 1.0
        assert fam.c1 == N**-1.5
        assert fam.log_size == N * math.log(2.0)

    def test_family_metadata(self):
        fam = sk_family(CouplingLayout(6), SKParams(beta=1.0))
        assert fam.log_size == pytest.approx(6 * math.log(2.0))
        assert fam.c1 == pytest.approx(6.0**-1.5)
        assert fam.c2 == fam.c3 == 0.0


class TestFamilyArrays:
    # member k is the k-th spin tuple in lexicographic order, -1 before +1

    def test_values_match_family_member_at_every_code(self):
        for N in range(2, 9):
            layout = CouplingLayout(N)
            params = SKParams(beta=0.8, h=-0.35)
            fam = sk_family(layout, params)
            for x in coupling_draws(f"values{N}", N, 2):
                got = fam.values(x)
                expect = [family_member(layout, params, np.array(sigma), x)
                          for sigma in itertools.product((-1, 1), repeat=N)]
                assert got.shape == (1 << N,)
                assert got == pytest.approx(expect, rel=1e-12, abs=1e-14)

    def test_partials_are_scaled_pair_spin_products(self):
        N = 5
        layout = CouplingLayout(N)
        params = SKParams(beta=1.7, h=0.4)
        fam = sk_family(layout, params)
        sigmas = np.array(list(itertools.product((-1, 1), repeat=N)))
        x = coupling_draws("partials", N, 1)[0]
        for c, (a, b) in enumerate(layout.pairs()):
            parts = fam.partials(c, x)
            assert parts.shape == (3, 1 << N)
            assert parts[0].tolist() == (
                1.7 * N**-1.5 * sigmas[:, a] * sigmas[:, b]).tolist()
            assert not parts[1:].any()

    def test_lambda_estimate_refuses_unmaterializable_family(self):
        N = 23
        layout = CouplingLayout(N)
        fam = sk_family(layout, SKParams())
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large to materialize"):
            estimate_family_lambda(fam, [np.zeros(layout.coordinate_count)])
        assert time.perf_counter() - start < 1.0


class TestFreeEnergy:
    def test_two_spin_hand_enumeration(self):
        # oracle: four configurations, sigma1 sigma2 = +1 twice, -1 twice
        layout = CouplingLayout(2)
        for beta in (0.5, 1.0, 2.0):
            for x12 in (-1.3, 0.0, 0.9):
                got = free_energy(layout, SKParams(beta=beta, h=0.0),
                                  np.array([x12]))
                expect = 0.5 * math.log(
                    4.0 * math.cosh(beta * x12 / math.sqrt(2.0)))
                assert got == pytest.approx(expect, rel=1e-14)

    def test_zero_couplings_factorize(self):
        layout = CouplingLayout(5)
        for beta, h in ((1.0, 0.0), (0.8, 0.4), (2.0, -1.1)):
            got = free_energy(layout, SKParams(beta=beta, h=h), np.zeros(10))
            assert got == pytest.approx(
                math.log(2.0 * math.cosh(beta * h)), rel=1e-13, abs=1e-13)

    def test_agrees_with_streaming_soft_max(self):
        # two independent code paths: block enumeration vs the member
        # family's smoothed max at level N
        for N in (3, 6, 8):
            layout = CouplingLayout(N)
            params = SKParams(beta=1.2, h=0.25)
            fam = sk_family(layout, params)
            for x in coupling_draws(f"stream{N}", N, 3):
                a = free_energy(layout, params, x)
                b = softmax_state(fam, float(N), x).value
                assert a == pytest.approx(b, abs=1e-12)

    def test_agrees_with_gray_code_path(self):
        # every split of N into row and column spins, odd and even; h = 0
        # takes the half grid, h != 0 the full one
        for N in range(2, 14):
            layout = CouplingLayout(N)
            for params in (SKParams(beta=0.9, h=-0.2),
                           SKParams(beta=0.9, h=0.0),
                           SKParams(beta=1.7, h=0.0)):
                for x in coupling_draws(f"gray{N}", N, 2):
                    assert free_energy(layout, params, x) == pytest.approx(
                        free_energy_gray(layout, params, x), abs=1e-12)

    @pytest.mark.parametrize("block", [64, 1])
    def test_multi_block_grid_agrees_with_gray_code_path(self, monkeypatch,
                                                         block):
        # N = 10 has a 32 x 32 grid: 64 entries give 2-row blocks, 1 entry
        # clamps to single-row blocks; N = 11 has a 64 x 32 grid
        monkeypatch.setattr(sk, "_BLOCK", block)
        for N in (10, 11):
            layout = CouplingLayout(N)
            for params in (SKParams(beta=1.3, h=0.4),
                           SKParams(beta=1.3, h=0.0)):
                for x in coupling_draws("multiblock", N, 2):
                    assert free_energy(layout, params, x) == pytest.approx(
                        free_energy_gray(layout, params, x), abs=1e-12)

    @pytest.mark.parametrize("N", [2, 9, 14])
    def test_zero_field_enumerates_half_the_grid_rows(self, monkeypatch, N):
        asked = []
        blocks = sk._energy_blocks

        def recorder(layout, x, scale, field, row_start, row_stop):
            asked.append((row_start, row_stop))
            return blocks(layout, x, scale, field, row_start, row_stop)

        monkeypatch.setattr(sk, "_energy_blocks", recorder)
        layout = CouplingLayout(N)
        x = coupling_draws(f"rows{N}", N, 1)[0]
        hi = (N + 1) // 2
        free_energy(layout, SKParams(beta=1.0, h=0.0), x)
        free_energy(layout, SKParams(beta=1.0, h=0.3), x)
        assert asked == [(0, 1 << (hi - 1)), (0, 1 << hi)]

    @pytest.mark.parametrize("N", [3, 8, 12])
    def test_zero_field_half_grid_matches_full_log_sum_exp(self, N):
        # the half grid doubled against an independent log-sum-exp over
        # every code's pair sum
        layout = CouplingLayout(N)
        for beta in (0.9, 1.7):
            scale = beta / math.sqrt(N)
            for x in coupling_draws(f"lse{N}", N, 3):
                pair, _ = sk._pair_energies(layout, x, 0, 1 << N)
                energies = scale * pair
                top = float(energies.max())
                full = (top + math.log(math.fsum(np.exp(energies - top)))) / N
                got = free_energy(layout, SKParams(beta=beta, h=0.0), x)
                assert got == pytest.approx(full, rel=1e-13)

    def test_sandwich_around_hard_max(self):
        N = 7
        layout = CouplingLayout(N)
        params = SKParams(beta=1.0, h=0.0)
        for x in coupling_draws("sandwich", N, 5):
            soft = free_energy(layout, params, x)
            hard = N**-1.5 * ground_state(layout, x)[0]
            assert -1e-12 <= soft - hard <= math.log(2.0) + 1e-12

    def test_spin_relabeling_invariance(self):
        N = 5
        layout = CouplingLayout(N)
        params = SKParams(beta=1.1, h=0.6)
        gen = np.random.default_rng(3)
        x = gen.standard_normal(10)
        for _ in range(6):
            perm = gen.permutation(N)
            xp = np.empty_like(x)
            for c, (i, j) in enumerate(layout.pairs()):
                xp[pair_index(layout, perm[i], perm[j])] = x[c]
            assert free_energy(layout, params, xp) == pytest.approx(
                free_energy(layout, params, x), rel=1e-13)

    def test_single_row_gauge_flip_invariance(self):
        # flipping one spin's sign flips exactly its row of couplings and
        # leaves the partition sum unchanged when h = 0
        N = 6
        layout = CouplingLayout(N)
        params = SKParams(beta=1.4, h=0.0)
        gen = np.random.default_rng(8)
        x = gen.standard_normal(15)
        for k in range(N):
            flipped = x.copy()
            for c, (i, j) in enumerate(layout.pairs()):
                if i == k or j == k:
                    flipped[c] = -flipped[c]
            assert free_energy(layout, params, flipped) == pytest.approx(
                free_energy(layout, params, x), rel=1e-13)

    def test_enumeration_guard(self):
        layout = CouplingLayout(25)
        with pytest.raises(ValueError):
            free_energy(layout, SKParams(), np.zeros(300))


class TestFreeEnergyLambda:
    def test_stated_values(self):
        l2, l3 = free_energy_lambda(SKParams(beta=1.0), 10)
        assert l2 == pytest.approx(0.03, rel=1e-14)
        assert l3 == pytest.approx(13.0 * 10.0**-2.5, rel=1e-14)

    def test_fd_influence_below_bounds(self):
        N = 6
        layout = CouplingLayout(N)
        params = SKParams(beta=1.0, h=0.0)
        bound2, bound3 = free_energy_lambda(params, N)
        fd_f = lambda i, p, x: fd_partial(
            lambda w: free_energy(layout, params, w), i, p, x)
        values = lambda x: free_energy(layout, params, x)
        from lindeberg_lab.core import SmoothFunction

        f = SmoothFunction(n=layout.coordinate_count, value=values,
                           partial=fd_f)
        est = estimate_lambda(f, coupling_draws("fdlam", N, 3))
        assert est.lambda2 <= bound2
        assert est.lambda3 <= bound3

    def test_beta_zero_excluded(self):
        with pytest.raises(ValueError):
            SKParams(beta=0.0)

    @pytest.mark.parametrize("params", [
        {"beta": 1e200}, {"beta": math.inf}, {"beta": math.nan},
        {"beta": -1.0}, {"h": math.nan}, {"h": math.inf}, {"h": -math.inf},
    ])
    def test_params_outside_the_domain_rejected(self, params):
        # beta^3 overflows at 1e200; a bound scaling as beta^3 is then inf
        with pytest.raises(ValueError):
            SKParams(**params)

    def test_largest_beta_with_a_finite_cube_accepted(self):
        assert SKParams(beta=5e102, h=-1e300).beta == 5e102

    def test_analytic_partials_match_finite_differences(self):
        from lindeberg_lab.sk import free_energy_function

        N = 5
        layout = CouplingLayout(N)
        f = free_energy_function(layout, SKParams(beta=1.1, h=0.2))
        for x in coupling_draws("fechain", N, 2):
            for i in (0, 4, 9):
                for p, rtol, atol in ((1, 1e-5, 1e-9), (2, 1e-5, 5e-7),
                                      (3, 1e-4, 5e-7)):
                    got = f.partial(i, p, x)
                    ref = fd_partial(f.value, i, p, x)
                    assert got == pytest.approx(ref, rel=rtol, abs=atol)


class TestGroundState:
    def test_aligned_couplings(self):
        N = 6
        layout = CouplingLayout(N)
        value, sigma = ground_state(layout, np.ones(15))
        assert value == pytest.approx(15.0, rel=1e-15)
        assert np.all(sigma == sigma[0])  # fully aligned maximizer

    def test_three_spin_hand_case(self):
        layout = CouplingLayout(3)
        x = np.array([1.0, -1.0, 1.0])
        value, sigma = ground_state(layout, x)
        assert value == pytest.approx(
            brute_force_ground_state(layout, x), rel=1e-15)
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_half_enumeration_matches_brute_force(self):
        # the python-loop oracle sums in a different order, hence the 1e-12
        # relative slack; integer couplings below pin exact equality
        for N in (4, 6, 8):
            layout = CouplingLayout(N)
            for x in coupling_draws(f"brute{N}", N, 5):
                value, sigma = ground_state(layout, x)
                assert value == pytest.approx(
                    brute_force_ground_state(layout, x), rel=1e-12)
                env = sum(x[c] * sigma[i] * sigma[j]
                          for c, (i, j) in enumerate(layout.pairs()))
                assert env == pytest.approx(value, rel=1e-12)

    def test_half_enumeration_exact_on_integer_couplings(self):
        # Rademacher couplings make every configuration energy an exact
        # small integer, so the two enumerations must agree bit for bit
        for N in (5, 7):
            layout = CouplingLayout(N)
            for x in coupling_draws(f"int{N}", N, 5, law="rademacher"):
                value, _ = ground_state(layout, x)
                assert value == brute_force_ground_state(layout, x)

    def test_tie_break_lexicographic(self, monkeypatch):
        # one grid block, then 4-entry blocks spreading the ties over many
        for block in (sk._BLOCK, 4):
            monkeypatch.setattr(sk, "_BLOCK", block)
            for N in (2, 3, 4, 9, 10):
                layout = CouplingLayout(N)
                value, sigma = ground_state(layout,
                                           np.zeros(layout.coordinate_count))
                assert value == 0.0
                assert np.all(sigma == -1)  # every config ties; lex smallest

    @pytest.mark.parametrize("block", [sk._BLOCK, 64])
    def test_pair_energies_share_ground_state_arithmetic(self, monkeypatch,
                                                         block):
        # any code range reproduces the full sweep bit for bit, and the
        # half-grid ground state is its exact maximum
        monkeypatch.setattr(sk, "_BLOCK", block)
        for N in (9, 10):
            layout = CouplingLayout(N)
            x = coupling_draws(f"share{N}", N, 1)[0]
            full, full_mag = sk._pair_energies(layout, x, 0, 1 << N)
            spins = np.array(list(itertools.product((-1, 1), repeat=N)))
            assert np.array_equal(full_mag, spins.sum(axis=1))
            for start, stop in ((0, 1), (37, 300), (129, 1 << N)):
                pair, mag = sk._pair_energies(layout, x, start, stop)
                assert np.array_equal(pair, full[start:stop])
                assert np.array_equal(mag, full_mag[start:stop])
            value, sigma = ground_state(layout, x)
            assert value == float(np.max(full))
            assert np.array_equal(sigma, spins[int(np.argmax(full))])

    def test_sign_flip_leaves_value(self):
        layout = CouplingLayout(5)
        x = coupling_draws("flip", 5, 1)[0]
        value, sigma = ground_state(layout, x)
        env = sum(x[c] * (-sigma[i]) * (-sigma[j])
                  for c, (i, j) in enumerate(layout.pairs()))
        assert env == pytest.approx(value, rel=1e-12)


class TestStacks:
    @pytest.mark.parametrize("N", range(2, sk.ENUMERATION_LIMIT + 1))
    def test_stack_fits_its_budget(self, N):
        # a stack holds the L and W operands and one energy block of each
        # of its vectors; only a stack of one may exceed the budget
        size = sk._stack_size(N)
        assert size >= 1
        layout = CouplingLayout(N)
        stack = np.zeros((size, layout.coordinate_count))
        hi, lo = (N + 1) // 2, N // 2
        _, energies = next(sk._energy_blocks(layout, stack, 1.0, 0.0, 0,
                                             1 << hi))
        assert energies.shape[0] == size
        operands = (hi + 2) * ((1 << hi) + (1 << lo))
        if size > 1:
            assert size * (operands + energies[0].size) <= sk._STACK_ELEMENTS

    @pytest.mark.parametrize("N", [5, 14])
    def test_cross_block_stays_a_strided_view(self, monkeypatch, N):
        # X_ab B' reads the cross block of the coupling stack in place: a
        # contiguous gather of it has been seen to round a stacked vector's
        # energies differently from the same vector alone on some BLAS
        # builds, so the bits must not rest on the build
        seen = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if np.ndim(a) == 3:
                seen.append(a)
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        layout = CouplingLayout(N)
        hi, lo = (N + 1) // 2, N // 2
        stack = np.array(coupling_draws("cross", N, 3))
        list(sk._energy_blocks(layout, stack, 1.0, 0.0, 0, 1 << hi))
        [cross] = seen
        assert cross.shape == (3, hi, lo)
        assert not cross.flags.c_contiguous
        assert isinstance(cross.base, np.ndarray)
        assert cross.base.shape == (3, N, N)

    def test_engine_block_opens_few_stacks(self, monkeypatch):
        # the engine hands the N = 14 kernel 360-row blocks; stacks of
        # three would open 120
        opened = []
        blocks = sk._energy_blocks

        def recorder(layout, x, *args):
            opened.append(len(x))
            return blocks(layout, x, *args)

        monkeypatch.setattr(sk, "_energy_blocks", recorder)
        layout = CouplingLayout(14)
        rows = block_rows(layout.coordinate_count)
        assert rows == 360
        block = np.array(coupling_draws("stacks", 14, rows))
        free_energy(layout, SKParams(beta=1.0, h=0.3), block)
        assert sum(opened) == rows and len(opened) <= 45
        opened.clear()
        ground_state(layout, block)
        assert sum(opened) == rows and len(opened) <= 45


class TestGroundStateBound:
    def test_matches_direct_max_swap_bound(self):
        # the truncated max form at smoothing level A N: an A^-1 smoothing
        # floor, an A tail channel and an A^2 body channel
        N, A, eps = 10, 2.0, 0.4
        K = eps * math.sqrt(N)
        n = CouplingLayout(N).coordinate_count
        t1 = n * 2.0 * truncated_second_moment(GAUSSIAN, K)
        t2 = n * 2.0 * truncated_third_moment(GAUSSIAN, K)
        fam = sk_family(CouplingLayout(N), SKParams(beta=1.0, h=0.0))
        c1, c2 = c_constants(TANH)
        expect = (2.0 * TANH.norm1 * math.log(2.0) / A
                  + c1 * 3.0 * A * N * fam.lambda2 * t1
                  + c2 * 13.0 * (A * N) ** 2 * fam.lambda3 * t2)
        assert max_swap_bound(TANH, A * N, fam, t1, t2) == pytest.approx(
            expect, rel=1e-12)

    def test_rademacher_tail_channel_vanishes(self):
        N, A, eps = 9, 1.0, 0.5   # eps sqrt(N) = 1.5 > 1
        K = eps * math.sqrt(N)
        n = CouplingLayout(N).coordinate_count
        assert truncated_second_moment(RADEMACHER, K) == 0.0
        t2 = n * 2.0 * truncated_third_moment(RADEMACHER, K)
        fam = sk_family(CouplingLayout(N), SKParams(beta=1.0, h=0.0))
        bound = max_swap_bound(TANH, A * N, fam, 0.0, t2)
        floor = 2.0 * TANH.norm1 * math.log(2.0) / A
        assert bound > floor

    def test_optimized_bound_decreases_in_size(self):
        fams = [sk_family(CouplingLayout(N), SKParams(beta=1.0, h=0.0))
                for N in (8, 12, 16)]
        vals = [optimized_max_bound(TANH, max_bound_terms(1.0, f.n, f))
                for f in fams]
        assert vals[0] > vals[1] > vals[2]


class TestSkExperiment:
    def test_identical_laws_free_energy(self):
        report = sk_experiment("free_energy", GAUSSIAN, GAUSSIAN,
                               SKParams(beta=1.0, h=0.0), 6, 150, TANH, 71)
        assert report.report.mc_gap <= 3.0 * report.report.std_error
        assert report.passed

    def test_free_energy_gap_matches_the_exact_gap(self):
        # exact oracle at N = 2, beta = 1, h = 0: the one coupling x gives
        # F(x) = (log 4 + log cosh(x / sqrt 2)) / 2, whose mean is a sum
        # over both signs for rademacher and a Gauss-Hermite rule for
        # gaussian
        def h(x):
            return np.tanh(0.5 * (math.log(4.0)
                                  + np.log(np.cosh(x / math.sqrt(2.0)))))

        nodes, weights = hermegauss(40)
        exact = (h(1.0) + h(-1.0)) / 2.0 - weights @ h(nodes) / weights.sum()
        assert exact == pytest.approx(0.0119937563, abs=1e-10)
        gap = sk_experiment("free_energy", RADEMACHER, GAUSSIAN, SKParams(),
                            2, 20_000, TANH, 20240).report
        assert abs(gap.mean_gap - exact) <= 3.0 * gap.std_error

    def test_free_energy_bound_value(self):
        N = 8
        report = sk_experiment("free_energy", GAUSSIAN, RADEMACHER,
                               SKParams(beta=1.0, h=0.0), N, 150, TANH, 72)
        from lindeberg_lab.distributions import third_abs_moment

        _, c2 = c_constants(TANH)
        gamma = third_abs_moment(GAUSSIAN)
        n = N * (N - 1) // 2
        expect = 2.0 * c2 * gamma * n * 13.0 * N**-2.5
        assert report.report.theoretical_bound == pytest.approx(
            expect, rel=1e-13)
        assert report.passed

    def test_ground_state_requires_unit_beta_zero_field(self):
        with pytest.raises(ValueError):
            sk_experiment("ground_state", GAUSSIAN, RADEMACHER,
                          SKParams(beta=2.0, h=0.0), 6, 150, TANH, 73)

    def test_ground_state_small_run(self):
        report = sk_experiment("ground_state", GAUSSIAN, RADEMACHER,
                               SKParams(beta=1.0, h=0.0), 8, 150, TANH, 74)
        assert report.passed
        assert report.report.experiment_id.startswith("sk-ground_state/")

    def test_csv_byte_identical_across_threads(self, tmp_path):
        for suite in ("sk_free_energy", "sk_ground_state"):
            outs = []
            for threads in (1, 2):
                out = tmp_path / f"{suite}{threads}.csv"
                run(build_config(suite, None,
                                 {"size": 10, "replicates": 200, "seed": 6,
                                  "threads": threads, "out": str(out)}))
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], suite

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sk_experiment("annealed", GAUSSIAN, GAUSSIAN, SKParams(), 6,
                          150, TANH, 75)
