"""Soft-max values, derivative chain, chain inequalities, and max bounds."""

import math

import numpy as np
import pytest

from lindeberg_lab.core import SmoothFunction, estimate_lambda, fd_partial
from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.core import InfiniteGammaError
from lindeberg_lab.smoothmax import (
    FunctionFamily,
    coordinate_chain,
    estimate_family_lambda,
    k_constant,
    max_bound_terms,
    max_swap_bound,
    optimized_max_bound,
    smoothed_lambda_bounds,
    softmax_function,
    softmax_state,
)
from oracles import softmax_partials

SIN = named_g("sin")


def sine_member(k: int, n: int = 2) -> SmoothFunction:
    """Nonlinear member with analytic partials in both coordinates."""
    w = k + 1
    amp = 1.0 / (k + 2)

    def value(x):
        return amp * (math.sin(w * x[0]) + 0.3 * math.cos(x[1]))

    def partial(i, p, x):
        if i == 0:
            fns = (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t))
            return amp * w**p * fns[p - 1](w * x[0])
        fns = (lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin)
        return amp * 0.3 * fns[p - 1](x[1])

    return SmoothFunction(n=n, value=value, partial=partial)


def member_family(members, **fields) -> FunctionFamily:
    """A family read off SmoothFunction members, in member order: the
    generic recursion's oracle for nonlinear members."""
    members = tuple(members)
    fields.setdefault("log_size", math.log(len(members)))

    def values(x):
        return np.array([f.value(x) for f in members])

    def partials(i, x):
        return np.array([[f.partial(i, p, x) for f in members]
                         for p in (1, 2, 3)])

    return FunctionFamily(n=members[0].n, values=values, partials=partials,
                          **fields)


def sine_family(m: int = 4) -> FunctionFamily:
    members = tuple(sine_member(k) for k in range(m))
    # sup over members of w^p amp = (k+1)^p / (k+2), largest at k = m-1
    c = [max((k + 1) ** p / (k + 2) for k in range(m)) for p in (1, 2, 3)]
    return member_family(members, c1=c[0], c2=c[1], c3=c[2])


def constant_member(v: float, n: int = 1) -> SmoothFunction:
    return SmoothFunction(n=n, value=lambda x: v,
                          partial=lambda i, p, x: 0.0)


def linear_member(n: int) -> SmoothFunction:
    return SmoothFunction(n=n, value=lambda x: float(x[0]),
                          partial=lambda i, p, x: float(i == 0 and p == 1))


class TestSoftMaxValue:
    def test_single_member_is_exact(self):
        fam = member_family((sine_member(2),), c1=1.0, c2=2.0, c3=4.0)
        x = np.array([0.4, -0.9])
        for alpha in (1.0, 3.0, 50.0):
            assert (softmax_state(fam, alpha, x).value
                    == sine_member(2).value(x))

    def test_duplicated_members_shift_by_log_m(self):
        base = sine_member(1)
        fam = member_family((base,) * 5, c1=1.0, c2=2.0, c3=4.0)
        x = np.array([-0.3, 0.7])
        for alpha in (1.0, 2.5):
            expect = base.value(x) + math.log(5.0) / alpha
            assert softmax_state(fam, alpha, x).value == pytest.approx(
                expect, rel=1e-14)

    def test_two_member_hand_value(self):
        # members {0, x_0} at x_0 = 0, alpha = 1 -> log 2
        fam = member_family((constant_member(0.0), linear_member(1)),
                            c1=1.0, c2=0.0, c3=0.0)
        assert softmax_state(fam, 1.0, np.zeros(1)).value == pytest.approx(
            math.log(2.0), rel=1e-15)

    def test_alpha_below_one_rejected(self):
        fam = sine_family()
        with pytest.raises(ValueError):
            softmax_state(fam, 0.5, np.zeros(2))

    def test_sandwich_at_random_points(self):
        fam = sine_family(5)
        gen = np.random.default_rng(3)
        for alpha in (1.0, 4.0, 16.0):
            gap = fam.log_size / alpha
            for _ in range(1000):
                x = gen.uniform(-3, 3, size=2)
                hard = float(fam.values(x).max())
                soft = softmax_state(fam, alpha, x).value
                assert -1e-12 <= soft - hard <= gap + 1e-12

    def test_monotone_in_alpha(self):
        fam = sine_family(5)
        gen = np.random.default_rng(4)
        grid = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
        for _ in range(50):
            x = gen.uniform(-3, 3, size=2)
            vals = [softmax_state(fam, a, x).value for a in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSoftMaxPartials:
    def test_single_member_collapses_to_member_partials(self):
        f = sine_member(1)
        fam = member_family((f,), c1=2.0, c2=4.0, c3=8.0)
        x = np.array([0.2, -0.5])
        for i in (0, 1):
            d1, d2, d3 = softmax_partials(fam, 2.0, x, i)
            assert d1 == pytest.approx(f.partial(i, 1, x), rel=1e-13)
            assert d2 == pytest.approx(f.partial(i, 2, x), rel=1e-13)
            assert d3 == pytest.approx(f.partial(i, 3, x), rel=1e-13)

    def test_partials_match_finite_differences(self):
        fam = sine_family(4)
        F = softmax_function(fam, 2.5)
        gen = np.random.default_rng(7)
        for _ in range(25):
            x = gen.uniform(-1.5, 1.5, size=2)
            for i in (0, 1):
                d1, d2, d3 = softmax_partials(fam, 2.5, x, i)
                f1 = fd_partial(F.value, i, 1, x)
                f2 = fd_partial(F.value, i, 2, x)
                f3 = fd_partial(F.value, i, 3, x)
                assert d1 == pytest.approx(f1, rel=1e-5, abs=1e-9)
                assert d2 == pytest.approx(f2, rel=1e-5, abs=5e-7)
                assert d3 == pytest.approx(f3, rel=1e-4, abs=5e-7)

    def test_linear_members_derivatives_from_weights_only(self):
        # for linear members the second and third member partials vanish, so
        # d2 and d3 of the soft max come purely from weight derivatives
        fam = member_family((constant_member(0.0), linear_member(1)),
                            c1=1.0, c2=0.0, c3=0.0)
        alpha = 3.0
        x = np.array([0.37])
        d1, d2, d3 = softmax_partials(fam, alpha, x, 0)
        # hand formulas: p = sigmoid(alpha x) weight on the linear member
        p = 1.0 / (1.0 + math.exp(-alpha * x[0]))
        assert d1 == pytest.approx(p, rel=1e-12)
        assert d2 == pytest.approx(alpha * p * (1 - p), rel=1e-12)
        assert d3 == pytest.approx(
            alpha**2 * p * (1 - p) * (1 - 2 * p), rel=1e-12)
        F = softmax_function(fam, alpha)
        assert d2 == pytest.approx(fd_partial(F.value, 0, 2, x), rel=1e-5)
        assert d3 == pytest.approx(fd_partial(F.value, 0, 3, x), rel=1e-4,
                                   abs=5e-7)


def assert_chain_inequalities(fam, alpha, x):
    """The five uniform links of the derivative chain, componentwise."""
    state = softmax_state(fam, alpha, x)
    assert abs(state.weights.sum() - 1.0) <= 1e-12
    assert math.isfinite(state.value)
    c1, c2, c3 = fam.c1, fam.c2, fam.c3
    for i in range(fam.n):
        chain = coordinate_chain(fam, state, i)
        p = state.weights
        assert abs(chain.e) <= alpha * c1
        assert np.all(np.abs(chain.dp) <= 2.0 * alpha * c1 * p)
        assert abs(chain.de) <= alpha**2 * (c2 + 2.0 * c1**2)
        assert np.all(np.abs(chain.d2p)
                      <= alpha**2 * (2.0 * c2 + 6.0 * c1**2) * p)
        assert abs(chain.d2e) <= alpha**3 * (c3 + 6.0 * c1 * c2 + 6.0 * c1**3)


class TestChainInequalities:
    def test_nonlinear_family(self):
        fam = sine_family(5)
        gen = np.random.default_rng(21)
        for alpha in (1.0, 3.0, 9.0):
            for _ in range(20):
                assert_chain_inequalities(fam, alpha,
                                          gen.uniform(-2, 2, size=2))

    def test_weights_consistency(self):
        fam = sine_family(3)
        state = softmax_state(fam, 2.0, np.array([0.1, 0.2]))
        chain = coordinate_chain(fam, state, 0)
        a = 2.0 * fam.partials(0, state.point)[0]
        assert chain.e == pytest.approx(
            float(np.dot(a, state.weights)), rel=1e-14)


class TestBounds:
    def test_smoothed_lambda_bounds_formula(self):
        fam = sine_family(4)
        for alpha in (1.0, 2.0, 7.0):
            l2, l3 = smoothed_lambda_bounds(fam, alpha)
            assert l2 == pytest.approx(3.0 * alpha * fam.lambda2)
            assert l3 == pytest.approx(13.0 * alpha**2 * fam.lambda3)
        with pytest.raises(ValueError):
            smoothed_lambda_bounds(fam, 0.99)

    def test_single_member_bound_dominates_true_influence(self):
        f = sine_member(0)
        fam = member_family((f,), c1=0.5, c2=0.5, c3=0.5)
        gen = np.random.default_rng(2)
        pts = [gen.uniform(-2, 2, size=2) for _ in range(40)]
        for alpha in (1.0, 2.0):
            F = softmax_function(fam, alpha)
            est = estimate_lambda(F, pts)
            l2, l3 = smoothed_lambda_bounds(fam, alpha)
            assert est.lambda2 <= l2 + 1e-12
            assert est.lambda3 <= l3 + 1e-12

    def test_empirical_smoothed_influence_below_bounds(self):
        fam = sine_family(4)
        gen = np.random.default_rng(13)
        pts = [gen.uniform(-2, 2, size=2) for _ in range(30)]
        for alpha in (1.0, 4.0):
            est = estimate_lambda(softmax_function(fam, alpha), pts)
            l2, l3 = smoothed_lambda_bounds(fam, alpha)
            assert est.lambda2 <= l2
            assert est.lambda3 <= l3

    def test_max_swap_bound_zero_case(self):
        single = member_family((constant_member(0.0),),
                               c1=1.0, c2=0.0, c3=0.0)
        assert max_swap_bound(SIN, 2.0, single, 0.0, 0.0) == 0.0

    def test_max_swap_bound_formula(self):
        fam = sine_family(4)
        alpha, t1, t2 = 3.0, 1.7, 0.4
        got = max_swap_bound(SIN, alpha, fam, t1, t2)
        expect = (2.0 * 1.0 * fam.log_size / alpha
                  + 2.0 * 3.0 * alpha * fam.lambda2 * t1
                  + (5.0 / 6.0) * 13.0 * alpha**2 * fam.lambda3 * t2)
        assert got == pytest.approx(expect, rel=1e-14)
        with pytest.raises(ValueError):
            max_swap_bound(SIN, alpha, fam, -1.0, 0.0)

    def test_k_constant_sin(self):
        assert k_constant(SIN) == pytest.approx(71.0 / 3.0, rel=1e-15)

    def test_optimized_alpha_properties(self):
        # the closed form is the smoothed max bound at K = oo (no tail, body
        # sum 2 gamma n) and the level alpha* below, bounded above: alpha*
        # >= 1, 1/alpha* <= (g n l3)^(1/3) (log m)^(-1/3), and the closed
        # form dominates the smoothed bound there
        for gamma in (0.5, 1.0, 2.0):
            for n in (10, 400, 10_000):
                for lam3 in (1e-6, 1e-3, 0.5):
                    for logm in (math.log(2), 5.0, 50.0):
                        gnl = gamma * n * lam3
                        a = math.sqrt(gnl ** (-2 / 3) * logm ** (2 / 3) + 1)
                        assert a >= 1.0
                        assert 1.0 / a <= gnl ** (1 / 3) * \
                            logm ** (-1 / 3) + 1e-15
                        fam = FunctionFamily(
                            n=n, values=None, partials=None,
                            c1=lam3 ** (1 / 3), c2=0.0, c3=0.0,
                            log_size=logm)
                        smoothed = max_swap_bound(SIN, a, fam, 0.0,
                                                  2.0 * gamma * n)
                        assert smoothed <= optimized_max_bound(
                            SIN, max_bound_terms(gamma, n, fam)) \
                            * (1.0 + 1e-12)

    def test_optimized_bound_single_member(self):
        single = member_family((linear_member(3),),
                               c1=1.0, c2=0.0, c3=0.0)
        gamma, n = 1.5, 3
        got = optimized_max_bound(SIN, max_bound_terms(gamma, n, single))
        assert got == pytest.approx(k_constant(SIN) * gamma * n * 1.0,
                                    rel=1e-14)

    def test_optimized_bound_refuses_infinite_gamma(self):
        fam = sine_family(2)
        with pytest.raises(InfiniteGammaError):
            optimized_max_bound(SIN, max_bound_terms(math.inf, 2, fam))

    def test_family_lambda_estimate_respects_family_bounds(self):
        fam = sine_family(4)
        gen = np.random.default_rng(31)
        pts = [gen.uniform(-2, 2, size=2) for _ in range(25)]
        est = estimate_family_lambda(fam, pts)
        assert est.lambda2 <= fam.lambda2 + 1e-12
        assert est.lambda3 <= fam.lambda3 + 1e-12
