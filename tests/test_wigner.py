"""Resolvent calculus, transform derivatives, semicircle reference, tail sums."""

import cmath
import ctypes
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad

from lindeberg_lab import wigner
from lindeberg_lab.core import InfiniteGammaError, estimate_lambda, \
    evaluate_bound, fd_partial
from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.distributions import GAUSSIAN, RADEMACHER, pareto
from lindeberg_lab.rng import RandomStream
from lindeberg_lab.wigner import (
    WignerLayout,
    _tridiagonal,
    _upper_triangle,
    build_matrix,
    derivative_bounds,
    lapack,
    lu_factor,
    lu_solve,
    pastur_term,
    resolvent,
    semicircle_experiment,
    semicircle_stieltjes,
    semicircle_swap_terms,
    stieltjes,
    stieltjes_function,
    stieltjes_partials_all,
)
from oracles import layout_pairs, mc_gap, pair_index, stieltjes_partials

IDENTITY = named_g("identity")


def random_draws(label, layout, count, law="gaussian"):
    gen = RandomStream(77, f"wigner-test/{label}").replicate(0)
    if law == "rademacher":
        return [np.where(gen.random(layout.coordinate_count) < 0.5, -1.0, 1.0)
                for _ in range(count)]
    return [gen.standard_normal(layout.coordinate_count)
            for _ in range(count)]


class TestLayout:
    def test_bijection(self):
        layout = WignerLayout(5)
        pairs = layout_pairs(layout)
        assert len(pairs) == layout.coordinate_count == 15
        for c, (i, j) in enumerate(pairs):
            assert pair_index(layout, i, j) == c
            assert pair_index(layout, j, i) == c

    def test_pair_order_matches_flat_order(self):
        layout = WignerLayout(2)
        assert layout_pairs(layout) == [(0, 0), (0, 1), (1, 1)]


class TestBuildMatrix:
    def test_zero_vector(self):
        layout = WignerLayout(4)
        assert np.all(build_matrix(layout, np.zeros(10)) == 0.0)

    def test_two_by_two_explicit(self):
        layout = WignerLayout(2)
        a, b, c = 1.0, 2.0, 3.0
        A = build_matrix(layout, np.array([a, b, c]))
        root2 = math.sqrt(2.0)
        assert A == pytest.approx(
            np.array([[a, b], [b, c]]) / root2, rel=1e-15)

    def test_round_trip(self):
        layout = WignerLayout(6)
        gen = np.random.default_rng(1)
        x = gen.standard_normal(layout.coordinate_count)
        A = build_matrix(layout, x)
        root = math.sqrt(6.0)
        back = np.array([A[i, j] * root for i, j in layout_pairs(layout)])
        assert back == pytest.approx(x, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_matrix(WignerLayout(3), np.zeros(5))

    def test_upper_triangle_keeps_the_fancy_index_bits(self):
        gen = np.random.default_rng(4)
        for N in range(1, 41):
            layout = WignerLayout(N)
            x = gen.standard_normal(layout.coordinate_count)
            want = np.zeros((N, N), order="F")
            want[np.triu_indices(N)] = x / math.sqrt(N)
            got = _upper_triangle(layout, x)
            assert got.flags.f_contiguous
            assert got.tobytes(order="F") == want.tobytes(order="F"), N


class TestStieltjes:
    def test_zero_matrix(self):
        layout = WignerLayout(5)
        for z in (1j, 2j, 0.5 - 1.5j):
            assert stieltjes(layout, np.zeros(15), z) == pytest.approx(
                -1.0 / z, rel=1e-14)

    def test_order_one(self):
        layout = WignerLayout(1)
        for a in (-0.7, 0.0, 2.2):
            got = stieltjes(layout, np.array([a]), 1j)
            assert got == pytest.approx(1.0 / (a - 1j), rel=1e-14)

    def test_two_by_two_closed_form(self):
        # oracle: explicit 2x2 inverse of (A - zI)
        layout = WignerLayout(2)
        x = np.array([0.8, -1.1, 0.4])
        z = 1j
        A = build_matrix(layout, x)
        a, b, c, d = A[0, 0] - z, A[0, 1], A[1, 0], A[1, 1] - z
        det = a * d - b * c
        trace_inv = (d + a) / det
        assert stieltjes(layout, x, z) == pytest.approx(
            trace_inv / 2.0, rel=1e-13)

    def test_real_spectral_point_rejected(self):
        with pytest.raises(ValueError):
            stieltjes(WignerLayout(2), np.zeros(3), 2.0)

    def test_resolvent_residual_and_symmetry(self):
        layout = WignerLayout(12)
        z = 0.3 + 0.8j
        for x in random_draws("resolvent", layout, 5):
            G = resolvent(layout, x, z)
            A = build_matrix(layout, x).astype(complex)
            A[np.diag_indices(12)] -= z
            residual = np.max(np.abs(A @ G - np.eye(12)))
            assert residual <= 1e-10
            assert np.max(np.abs(G - G.T)) <= 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 17, 100])
    def test_matches_resolvent_trace(self, N):
        # oracle: trace of the dense LU resolvent
        layout = WignerLayout(N)
        for z in (2j, -2j, 0.3 + 0.05j, -1.5 + 1j):
            for law in ("gaussian", "rademacher"):
                for x in random_draws(f"oracle{N}{law}", layout, 3, law):
                    want = complex(np.trace(resolvent(layout, x, z))) / N
                    assert stieltjes(layout, x, z) == pytest.approx(
                        want, rel=1e-12)

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(N=st.integers(1, 40),
           v=st.floats(0.05, 5.0),
           sign=st.sampled_from([-1.0, 1.0]),
           u=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_resolvent_trace_property(self, N, v, sign, u, seed):
        layout = WignerLayout(N)
        x = np.random.default_rng(seed).standard_normal(
            layout.coordinate_count)
        z = complex(u, sign * v)
        want = complex(np.trace(resolvent(layout, x, z))) / N
        assert stieltjes(layout, x, z) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("N", [3, 20])
    def test_large_finite_input_matches_resolvent(self, N, scale):
        # e_k^2 overflows past about 1e154; a rank-one input such as
        # np.full would test the unpivoted recurrence's cancellation instead
        layout = WignerLayout(N)
        for x in random_draws(f"large{N}", layout, 3):
            x = x * scale
            want = complex(np.trace(resolvent(layout, x, 1j))) / N
            assert stieltjes(layout, x, 1j) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rows", [1, 6, 7])
    @pytest.mark.parametrize("N", [3, 40, 100])
    def test_block_rows_match_one_vector_calls(self, N, rows):
        # every row of a block is reduced in the same buffer; N = 40 and 100
        # take LAPACK's blocked reduction
        layout = WignerLayout(N)
        block = np.array(random_draws(f"block{N}", layout, rows))
        z = 0.3 + 1.2j
        want = np.array([stieltjes(layout, x, z) for x in block])
        got = stieltjes(layout, block, z)
        assert got.shape == (rows,) and got.dtype == complex
        assert got.tobytes() == want.tobytes()
        assert stieltjes(layout, block[::-1], z).tobytes() == \
            want[::-1].tobytes()

    def test_block_call_peak_stays_below_its_block(self):
        # a row is scaled into one row buffer, not the block into a copy
        layout = WignerLayout(100)
        block = np.array(random_draws("block-peak", layout, 6))
        stieltjes(layout, block[:1], 2j)    # binds LAPACK, caches offsets
        tracemalloc.start()
        try:
            stieltjes(layout, block, 2j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("row", [0, 3, 5])
    def test_non_finite_row_of_a_block_rejected(self, row, bad):
        layout = WignerLayout(40)
        block = np.array(random_draws("block-bad", layout, 6))
        block[row, 17] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            stieltjes(layout, block, 1j)

    @pytest.mark.parametrize("N", [3, 20])
    def test_large_finite_row_of_a_block_matches_resolvent(self, N,
                                                           monkeypatch):
        # one row scaled past the overflow of e_k^2 takes the scaled
        # recurrence, a second _pivot_trace; its neighbours keep their bits
        layout = WignerLayout(N)
        block = np.array(random_draws(f"block-large{N}", layout, 6))
        block[2] *= 1e200
        want = [stieltjes(layout, x, 1j) for x in block]
        pivot_trace, calls = wigner._pivot_trace, []

        def counting(*args):
            calls.append(args)
            return pivot_trace(*args)

        monkeypatch.setattr(wigner, "_pivot_trace", counting)
        got = stieltjes(layout, block, 1j)
        assert len(calls) == 7
        assert got.tolist() == want
        dense = complex(np.trace(resolvent(layout, block[2], 1j))) / N
        assert got[2] == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (0, 5), (5,),
                                       (1, 1, 6), ()])
    def test_block_of_wrong_width_rejected(self, shape):
        with pytest.raises(ValueError, match="wrong length"):
            stieltjes(WignerLayout(3), np.zeros(shape), 1j)

    def test_half_plane_and_norm_invariants(self):
        layout = WignerLayout(10)
        for z in (1j, 2j, -1.5j, 0.7 + 0.4j):
            for x in random_draws(f"herglotz{z}", layout, 5):
                m = stieltjes(layout, x, z)
                assert m.imag * z.imag > 0.0
                assert abs(m) <= 1.0 / abs(z.imag) + 1e-12


ROOT = Path(__file__).resolve().parents[1]
# Imports scipy.linalg before or after the first transform, in the order
# given, and prints the transform value's bits.
LOAD_ORDER_PROBE = (
    "import json, sys\n"
    "import numpy as np\n"
    "from lindeberg_lab import wigner\n"
    "layout = wigner.WignerLayout(9)\n"
    "x = np.random.default_rng(5).standard_normal(layout.coordinate_count)\n"
    "if sys.argv[1] == 'scipy-first':\n"
    "    import scipy.linalg\n"
    "m = wigner.stieltjes(layout, x, 0.4 + 1.3j)\n"
    "import scipy.linalg\n"
    "again = wigner.stieltjes(layout, x, 0.4 + 1.3j)\n"
    "print(json.dumps([[v.real.hex(), v.imag.hex()] for v in (m, again)]))\n"
)


# Calls lu_solve on the factors of diag(1, 2, 4) with each pivot vector of
# argv[1] and prints what each call raised.  zgetrs swaps rows by the pivots
# unchecked, so one out of range would crash this process, not the test run.
PIVOT_PROBE = (
    "import json, sys\n"
    "import numpy as np\n"
    "from lindeberg_lab.wigner import lu_factor, lu_solve\n"
    "lu, _ = lu_factor(np.diag([1.0, 2.0, 4.0]).astype(complex))\n"
    "raised = []\n"
    "for piv in json.loads(sys.argv[1]):\n"
    "    try:\n"
    "        lu_solve((lu, np.array(piv)), np.eye(3, dtype=complex))\n"
    "        raised.append(None)\n"
    "    except ValueError as exc:\n"
    "        raised.append(str(exc))\n"
    "print(json.dumps(raised))\n"
)


def run_probe(*args: str) -> str:
    """The last stdout line of a fresh interpreter running ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()[-1]


class TestLapack:
    """``lapack()`` binds ``dsytrd``, ``zgetrf`` and ``zgetrs`` in numpy's
    own OpenBLAS with ctypes.  Their only callers, ``_tridiagonal``,
    ``lu_factor`` and ``lu_solve``, give the bits and the failures of
    scipy's public wrappers and refuse what the Fortran does not check."""

    # LAPACK keeps N <= 32 unblocked; 33, 100 and 200 take the panels
    SIZES = [1, 2, 7, 30, 33, 100, 200]
    POINTS = [2j, -0.3 + 0.8j, 1.5 - 1j, 0.05 + 0.4j]

    def test_binding_resolves_in_numpy_lapack(self):
        numpy_lapack = ctypes.CDLL(_umath_linalg.__file__)
        assert list(lapack()) == ["dsytrd", "zgetrf", "zgetrs"]
        for name, bound in lapack().items():
            assert bound.__name__ in [s.format(name)
                                      for s in wigner._SPELLINGS]
            address = ctypes.cast(bound, ctypes.c_void_p).value
            assert address == ctypes.cast(
                getattr(numpy_lapack, bound.__name__), ctypes.c_void_p).value

    @pytest.mark.parametrize("N", SIZES)
    def test_binding_matches_public_routines(self, N):
        # oracle: scipy's f2py dsytrd at the same workspace, which reduces
        # a copy of a in place, and zgetrf, output for output
        layout = WignerLayout(N)
        for x in random_draws(f"binding{N}", layout, 2):
            a = _upper_triangle(layout, x)
            want_a, want_d, want_e, _, info = scipy.linalg.lapack.dsytrd(
                a, lower=0, lwork=wigner._PANEL * N)
            d, e = _tridiagonal(a)()
            assert info == 0
            assert [a.tobytes(), d.tobytes(), e.tobytes()] == \
                [want_a.tobytes(), want_d.tobytes(), want_e.tobytes()]
            shifted = build_matrix(layout, x) - 0.5j * np.eye(N)
            lu, piv = lu_factor(shifted)
            want_lu, want_piv, info = scipy.linalg.lapack.zgetrf(shifted)
            assert info == 0
            assert lu.tobytes() == want_lu.tobytes()
            assert piv.tolist() == want_piv.tolist()

    @pytest.mark.parametrize("N", SIZES)
    def test_stieltjes_reduction_matches_public_dsytrd(self, N, monkeypatch):
        # oracle: scipy's public dsytrd at the same workspace on the upper
        # triangle of A
        layout = WignerLayout(N)
        tridiagonal, calls = wigner._tridiagonal, []

        def recording(a):
            reduce = tridiagonal(a)

            def recorded():
                d, e = reduce()
                calls.append((d.copy(), e.copy()))
                return d, e

            return recorded

        monkeypatch.setattr(wigner, "_tridiagonal", recording)
        for x in random_draws(f"dsytrd{N}", layout, 3):
            stieltjes(layout, x, 1j)
            d, e = calls.pop()
            _, want_d, want_e, _, info = scipy.linalg.lapack.dsytrd(
                np.triu(build_matrix(layout, x)), lower=0,
                lwork=wigner._PANEL * N)
            assert info == 0
            assert d.tobytes() == want_d.tobytes()
            assert e.tobytes() == want_e.tobytes()

    @pytest.mark.parametrize("N", SIZES)
    def test_resolvent_matches_public_lu_pair(self, N):
        # oracle: scipy.linalg.lu_factor and lu_solve on the shifted matrix
        layout = WignerLayout(N)
        for z in self.POINTS:
            for x in random_draws(f"lu{N}", layout, 2):
                shifted = build_matrix(layout, x).astype(complex)
                shifted[np.diag_indices(N)] -= z
                want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(shifted),
                                             np.eye(N, dtype=complex))
                got = resolvent(layout, x, z)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_scipy_import_order_leaves_stieltjes_bits(self):
        seen = []
        for order in ("wigner-first", "scipy-first"):
            seen.extend(json.loads(run_probe(LOAD_ORDER_PROBE, order)))
        layout = WignerLayout(9)
        x = np.random.default_rng(5).standard_normal(layout.coordinate_count)
        m = stieltjes(layout, x, 0.4 + 1.3j)
        assert seen == [[m.real.hex(), m.imag.hex()]] * 4

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_rejected(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            lu_factor(a)
        factors = lu_factor(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="infs or NaNs"):
            lu_solve(factors, a)
        with pytest.raises(ValueError, match="infs or NaNs"):
            lu_solve((a, factors[1]), np.eye(3, dtype=complex))
        # the transform refuses what its dense reference refuses
        layout = WignerLayout(3)
        x = np.zeros(layout.coordinate_count)
        x[4] = bad
        for transform in (resolvent, stieltjes):
            with pytest.raises(ValueError, match="infs or NaNs"):
                transform(layout, x, 1j)

    def test_singular_matrix_raises(self):
        with pytest.raises(ValueError, match="zgetrf info = 2"):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="square"):
            lu_factor(np.zeros((2, 3), dtype=complex))
        factors = lu_factor(np.eye(3, dtype=complex))
        for b in (np.ones(3), np.ones((2, 3))):
            with pytest.raises(ValueError, match="as many rows"):
                lu_solve(factors, b)

    def test_pivots_out_of_range_rejected(self):
        # at the bare routine the first kills the process with SIGSEGV and
        # the second returns a wrong solve
        bad = [[100000000, 1, 2], [5, 1, 2], [3, 1, 2], [-1, 1, 2], [0, 1],
               [[0, 1, 2]], [0.0, 1.0, 2.0], [True, True, True]]
        raised = json.loads(run_probe(PIVOT_PROBE, json.dumps([*bad,
                                                               [0, 1, 2]])))
        assert raised == ["zgetrs takes 3 integer pivots in 0..2"] * len(bad) \
            + [None]

    @pytest.mark.parametrize("routine, info_at, call", [
        ("zgetrs", 8, lambda: lu_solve(scipy.linalg.lu_factor(np.eye(3)),
                                       np.eye(3, dtype=complex))),
        ("dsytrd", 9, lambda: stieltjes(WignerLayout(2), np.ones(3), 1j)),
        ("zgetrf", 5, lambda: lu_factor(np.eye(3, dtype=complex))),
    ], ids=["zgetrs", "dsytrd", "zgetrf"])
    def test_nonzero_info_raises(self, routine, info_at, call, monkeypatch):
        # a routine that reports an illegal argument through its info
        def failing(*args):
            args[info_at]._obj.value = -1

        monkeypatch.setattr(wigner, "lapack", lambda: {routine: failing})
        with pytest.raises(ValueError, match=f"{routine} info = -1"):
            call()

    @pytest.mark.parametrize("hide_scipy", [True, False],
                             ids=["no-scipy", "no-extension"])
    def test_missing_extension_names_it(self, hide_scipy, monkeypatch):
        # numpy's LAPACK holding none of the spellings fails naming the
        # routine and caches nothing; with scipy unimportable the binding
        # fails and succeeds exactly as with it
        if hide_scipy:
            for name in [m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")]:
                monkeypatch.delitem(sys.modules, name)
            monkeypatch.setitem(sys.modules, "scipy", None)
        spellings = wigner._SPELLINGS
        monkeypatch.setattr(wigner, "_SPELLINGS", ("no_such_{}_",))
        lapack.cache_clear()
        with pytest.raises(ImportError, match=r"^LAPACK dsytrd not found in "
                           r"numpy's LAPACK as no_such_dsytrd_;"):
            lapack()
        assert lapack.cache_info().currsize == 0
        monkeypatch.setattr(wigner, "_SPELLINGS", spellings)
        d, _ = _tridiagonal(np.asfortranarray(np.diag([1.0, 2.0, 3.0])))()
        assert d.tolist() == [1.0, 2.0, 3.0]
        assert (sys.modules.get("scipy") is None) == hide_scipy


class TestPartials:
    def test_zero_matrix_diagonal_coordinate(self):
        # hand oracle: at x = 0, z = i the resolvent is i I, so G^2 = -I and
        # the first diagonal partial is N^(-3/2)
        N = 5
        layout = WignerLayout(N)
        c = pair_index(layout, 2, 2)
        d1, d2, d3 = stieltjes_partials(layout, np.zeros(15), 1j, c)
        assert d1 == pytest.approx(N**-1.5, rel=1e-13)
        G = 1j * np.eye(N)
        g2 = G @ G
        s = N**-0.5
        assert d2 == pytest.approx(2 / N * s * s * G[2, 2] * g2[2, 2],
                                   rel=1e-13)
        assert d3 == pytest.approx(-6 / N * s**3 * G[2, 2] ** 2 * g2[2, 2],
                                   rel=1e-13)

    def test_entry_formulas_match_trace_definition(self):
        # oracle: literal matrix products tr(E G^2), tr(E G E G^2), ...;
        # N = 1 has only a diagonal coordinate
        z = 0.4 + 1.0j
        for N in (1, 2, 8):
            layout = WignerLayout(N)
            for x in random_draws("tracedef", layout, 3):
                G = resolvent(layout, x, z)
                G2 = G @ G
                got = stieltjes_partials_all(layout, x, z)
                for c, (i, j) in enumerate(layout_pairs(layout)):
                    E = np.zeros((N, N))
                    E[i, j] = E[j, i] = N**-0.5
                    d1 = -np.trace(E @ G2) / N
                    d2 = 2.0 * np.trace(E @ G @ E @ G2) / N
                    d3 = -6.0 * np.trace(E @ G @ E @ G @ E @ G2) / N
                    assert got[c, 0] == pytest.approx(d1, rel=1e-12)
                    assert got[c, 1] == pytest.approx(d2, rel=1e-12)
                    assert got[c, 2] == pytest.approx(d3, rel=1e-12)

    def test_partials_match_finite_differences(self):
        N = 6
        layout = WignerLayout(N)
        z = 1j
        f = stieltjes_function(layout, z)
        for x in random_draws("fd", layout, 3):
            for c in (0, 7, layout.coordinate_count - 1):
                d1, d2, d3 = stieltjes_partials(layout, x, z, c)
                assert d1 == pytest.approx(
                    fd_partial(f.value, c, 1, x), rel=1e-5, abs=1e-9)
                assert d2 == pytest.approx(
                    fd_partial(f.value, c, 2, x), rel=1e-5, abs=5e-7)
                assert d3 == pytest.approx(
                    fd_partial(f.value, c, 3, x), rel=1e-4, abs=5e-7)

    def test_uniform_bounds_pointwise(self):
        N = 8
        layout = WignerLayout(N)
        for z in (1j, 2j, 0.5j):
            b = derivative_bounds(N, z.imag)
            for x in (random_draws(f"bd{z}", layout, 4)
                      + random_draws(f"bdr{z}", layout, 4, "rademacher")):
                parts = stieltjes_partials_all(layout, x, z)
                assert np.all(np.abs(parts[:, 0]) <= b.b1 + 1e-13)
                assert np.all(np.abs(parts[:, 1]) <= b.b2 + 1e-13)
                assert np.all(np.abs(parts[:, 2]) <= b.b3 + 1e-13)

    def test_empirical_influence_below_bounds(self):
        N = 6
        layout = WignerLayout(N)
        z = 1j
        b = derivative_bounds(N, z.imag)
        est = estimate_lambda(stieltjes_function(layout, z),
                              random_draws("lam", layout, 5))
        assert est.lambda2 <= b.lambda2
        assert est.lambda3 <= b.lambda3

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            stieltjes_partials(WignerLayout(3), np.zeros(6), 1j, 6)


class TestDerivativeBounds:
    def test_first_bound_arithmetic(self):
        assert derivative_bounds(4, 1.0).b1 == pytest.approx(0.25, rel=1e-15)

    def test_branch_above_one(self):
        b = derivative_bounds(4, 2.0)
        assert b.lambda2 == pytest.approx(4.0 * 2.0**-3 * 4**-2.0)
        assert b.lambda3 == pytest.approx(12.0 * 2.0**-4 * 4**-2.5)

    def test_branch_below_one(self):
        b = derivative_bounds(4, 0.5)
        assert b.lambda2 == pytest.approx(4.0 * 0.5**-4 * 4**-2.0)
        assert b.lambda3 == pytest.approx(12.0 * 0.5**-6 * 4**-2.5)

    @pytest.mark.parametrize("N", [0, -3])
    def test_order_below_one_rejected(self, N):
        with pytest.raises(ValueError, match="matrix order"):
            derivative_bounds(N, 1.0)

    def test_real_axis_rejected(self):
        # 1e-300 is off the axis, but its bounds overflow
        for v in (0.0, 1e-300, -1e-60):
            with pytest.raises(ValueError):
                derivative_bounds(4, v)


class TestSemicircleReference:
    def quad_reference(self, z):
        dens = lambda t: math.sqrt(4.0 - t * t) / (2.0 * math.pi)
        re = quad(lambda t: (t - z.real) / ((t - z.real) ** 2 + z.imag**2)
                  * dens(t), -2, 2, limit=200)[0]
        im = quad(lambda t: z.imag / ((t - z.real) ** 2 + z.imag**2)
                  * dens(t), -2, 2, limit=200)[0]
        return complex(re, im)

    def test_value_at_2i_matches_quadrature(self):
        oracle = self.quad_reference(2j)
        got = semicircle_stieltjes(2j)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(1j * (math.sqrt(2.0) - 1.0), rel=1e-14)

    def test_total_mass_asymptotics(self):
        z = 100j
        assert semicircle_stieltjes(z) == pytest.approx(-1.0 / z, rel=1e-3)

    def test_self_consistency_identity(self):
        for z in (2j, 0.5j, 1.0 + 1.0j, -3.0 - 0.2j, 5.0 + 0.01j):
            m = semicircle_stieltjes(z)
            assert abs(m * m + z * m + 1.0) <= 1e-12

    def test_half_plane_preservation(self):
        for z in (1j, -1j, 2.0 + 0.3j, -2.0 - 0.3j):
            m = semicircle_stieltjes(z)
            assert m.imag * z.imag > 0.0

    def test_quadrature_agreement_off_axis(self):
        for z in (1j, 1.0 + 0.7j, -0.8 + 2.0j):
            assert semicircle_stieltjes(z) == pytest.approx(
                self.quad_reference(z), abs=1e-8)

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            semicircle_stieltjes(2.0)

    def test_far_from_the_support_no_overflow(self):
        # z * z overflows from |z| ~ 1.3e154 on
        z = 1e200j
        assert semicircle_stieltjes(z) == pytest.approx(-1.0 / z, rel=1e-15)
        for z in (1e308 + 2j, -1.7e308 - 1e300j, 3e307j):
            m = semicircle_stieltjes(z)
            assert cmath.isfinite(m)
            assert m.real == pytest.approx((-1.0 / z).real, rel=1e-15)


class TestPasturTerm:
    def test_rademacher_vanishes_above_support(self):
        for N in (100, 400, 1600):
            assert pastur_term(RADEMACHER, N, 0.2) == 0.0

    def test_gaussian_decays_against_quadrature(self):
        phi = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        eps = 0.2
        vals = []
        for N in (100, 400, 1600):
            K = eps * math.sqrt(N)
            oracle_tail = 2.0 * quad(lambda t: t * t * phi(t), K, math.inf,
                                     epsabs=0.0, epsrel=1e-11)[0]
            n = N * (N + 1) // 2
            oracle = n * oracle_tail / N**2
            got = pastur_term(GAUSSIAN, N, eps)
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-300)
            vals.append(got)
        assert vals[0] > vals[1] > vals[2]

    def test_heavy_tail_decays_slower(self):
        # analytic tail-integral oracle: E(X^2; |X| > K) = (K s)^(2 - a)
        a, eps = 2.5, 0.2
        s = math.sqrt(a / (a - 2.0))
        spec = pareto(a)
        gaussian_vals, heavy_vals = [], []
        for N in (100, 400, 1600):
            K = eps * math.sqrt(N)
            n = N * (N + 1) // 2
            oracle = n * (K * s) ** (2.0 - a) / N**2
            got = pastur_term(spec, N, eps)
            assert got == pytest.approx(oracle, rel=1e-12)
            heavy_vals.append(got)
            gaussian_vals.append(pastur_term(GAUSSIAN, N, eps))
        assert heavy_vals[0] > heavy_vals[1] > heavy_vals[2]
        # slower decay: the heavy-tail ratio stays far larger
        assert heavy_vals[2] / heavy_vals[0] > gaussian_vals[2] / \
            gaussian_vals[0]

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            pastur_term(GAUSSIAN, 10, 0.0)


class TestSemicircleBound:
    def test_infinite_body_moment_is_refused(self):
        # at K = eps sqrt(N) = inf the body moment of pareto:a is E|X|^3,
        # infinite for a <= 3 and finite above
        with pytest.raises(InfiniteGammaError):
            semicircle_swap_terms(pareto(2.5), GAUSSIAN, 10, 2j, math.inf)
        for law, epsilon in ((pareto(4.0), math.inf), (pareto(2.5), 0.2)):
            terms = semicircle_swap_terms(law, GAUSSIAN, 10, 2j, epsilon)
            assert math.isfinite(evaluate_bound(terms, IDENTITY))


class TestSemicircleExperiment:
    def test_small_run_passes_and_matches_mc_gap(self):
        N, z = 16, 2j
        report = semicircle_experiment(RADEMACHER, GAUSSIAN, N, z, IDENTITY,
                                       replicates=150, master_seed=5)
        assert report.passed
        # the Re-part report must coincide with a literal mc_gap run of the
        # real-part transform under the same experiment label
        layout = WignerLayout(N)
        f_re = replace(stieltjes_function(layout, z),
                       value=lambda x: stieltjes(layout, x, z).real)
        twin = mc_gap(f_re, IDENTITY, RADEMACHER, GAUSSIAN, replicates=150,
                      master_seed=5, experiment=report.report_re.experiment_id
                      .removesuffix("/re"),
                      theoretical_bound=report.report_re.theoretical_bound)
        assert twin.mc_gap == pytest.approx(report.report_re.mc_gap,
                                            rel=1e-12)
        assert twin.std_error == pytest.approx(report.report_re.std_error,
                                               rel=1e-12)

    def test_re_gap_is_zero_on_the_imaginary_axis(self):
        # exact oracle: at z = iv, Re m is odd under x -> -x (the spectrum
        # flips), and both laws are symmetric, so E Re m is the same, 0,
        # under each; a shifted law breaks the symmetry
        report = semicircle_experiment(RADEMACHER, GAUSSIAN, 16, 2j, IDENTITY,
                                       replicates=2000, master_seed=20240)
        gap = report.report_re
        assert abs(gap.mean_gap) <= 3.0 * gap.std_error

    def test_im_gap_matches_the_exact_gap(self):
        # exact oracle at N = 2, z = 2i: with A = [[a, b], [b, c]] / sqrt 2,
        # m = (tr A - 2z) / (2 det(A - z)); its mean is a sum over the 8
        # sign vectors for rademacher and a 20^3 Gauss-Hermite tensor rule
        # for gaussian (a 40^3 rule agrees to 4e-10)
        def im_m(a, b, c):
            a, b, c = (v / math.sqrt(2.0) for v in (a, b, c))
            return ((a + c - 4j) / (2.0 * ((a - 2j) * (c - 2j) - b * b))).imag

        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3))).T
        nodes, weights = hermegauss(20)
        weights = weights / weights.sum()
        grid = np.meshgrid(nodes, nodes, nodes, indexing="ij")
        tensor = np.einsum("i,j,k->ijk", weights, weights, weights)
        exact = im_m(*signs).mean() - np.sum(tensor * im_m(*grid))
        assert exact == pytest.approx(-0.0093598120, abs=1e-9)
        gap = semicircle_experiment(RADEMACHER, GAUSSIAN, 2, 2j, IDENTITY,
                                    replicates=20_000,
                                    master_seed=20240).report_im
        assert abs(gap.mean_gap - exact) <= 3.0 * gap.std_error

    def test_identical_laws_within_noise(self):
        report = semicircle_experiment(GAUSSIAN, GAUSSIAN, 12, 1j, IDENTITY,
                                       replicates=120, master_seed=9)
        assert report.report_re.mc_gap <= 3.0 * report.report_re.std_error
        assert report.report_im.mc_gap <= 3.0 * report.report_im.std_error

