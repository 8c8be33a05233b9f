"""The batched paired-replicate engine: block contract and determinism.

Every suite hands ``core.gap_experiment`` a functional, which the engine
``core.paired_functional_values`` runs on each (B, n) block of replicate
draws for its (B,) values.  A row's value must not depend on the block it
lands in, its position there, or ``--threads``.  The block functionals are
taken from the suites themselves (by recording what they hand the engine),
evaluated on blocks of 1, 7 and the default number of rows, and must give
the bits of one-row evaluation.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lindeberg_lab import cli, core, sk, walks, wigner
from lindeberg_lab.cli import THREAD_LIMIT, ConfigError, build_config, main
from lindeberg_lab.core import (
    block_rows,
    clt_experiment,
    mean_function,
    paired_functional_values,
)
from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.distributions import (
    GAUSSIAN,
    RADEMACHER,
    make_vector_sampler,
    pareto,
)
from lindeberg_lab.rng import RandomStream
from oracles import mc_gap

ROOT = Path(__file__).resolve().parent.parent
SIN = named_g("sin")
TANH = named_g("tanh")
IDENTITY = named_g("identity")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b, dtype=np.asarray(a).dtype)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def draws(n: int, rows: int, spec=GAUSSIAN, label: str = "engine"):
    """``rows`` replicate draws of n coordinates, filled as one block."""
    return make_vector_sampler([spec] * n)(RandomStream(7, label), 0,
                                           np.empty((rows, n)))


def recorded_functionals(monkeypatch) -> list:
    """The block functionals handed to the engine, in call order, recorded
    at ``core``, the one module that calls it: ``core.gap_experiment``
    runs every suite's paired experiment."""
    seen = []
    engine = core.paired_functional_values

    def record(eval_x, eval_y, *args, **kwargs):
        seen.extend((eval_x, eval_y))
        return engine(eval_x, eval_y, *args, **kwargs)

    monkeypatch.setattr(core, "paired_functional_values", record)
    return seen


def assert_rows_match_one_row(functional, one_row, block,
                              stack: int = 0) -> None:
    """``functional`` over consecutive blocks of 1 and 7 rows (the first 70)
    and of ``block_rows(n)`` rows (all of them) gives, row for row, the bits
    of ``one_row`` on that row alone; checked on the first 70 rows and on 50
    rows spread over the whole block.  A kernel that enumerates ``stack``
    rows at a time is also run on blocks of stack + 1 and 2 stack - 1 rows
    (all of them), each of which ends in a partial stack."""
    picked = sorted(set(range(70)) |
                    set(np.linspace(0, len(block) - 1, 50).astype(int)))
    expect = [one_row(block[r].copy()) for r in picked]
    spans = [(1, 70), (7, 70), (block_rows(block.shape[1]), len(block))]
    if stack:
        spans += [(stack + 1, len(block)), (2 * stack - 1, len(block))]
    for rows, span in spans:
        got = np.concatenate([functional(block[k:min(k + rows, span)].copy())
                              for k in range(0, span, rows)])
        assert same_bits(got[[r for r in picked if r < span]],
                         [v for r, v in zip(picked, expect) if r < span]), rows


def rows_for(n: int) -> int:
    """Enough rows for two full default blocks and a remainder."""
    return 2 * max(block_rows(n), 35) + 3


class TestBlockContract:
    def test_clt_mean(self, monkeypatch):
        seen = recorded_functionals(monkeypatch)
        n = 64
        clt_experiment(RADEMACHER, GAUSSIAN, n, SIN, 100, 3)
        assert_rows_match_one_row(seen[0], mean_function(n).value,
                                  draws(n, rows_for(n)))

    def test_running_max(self, monkeypatch):
        seen = recorded_functionals(monkeypatch)
        n = 300
        walks.erdos_kac_experiment(pareto(4.0), GAUSSIAN, n, SIN, 100, 3)
        assert seen[0] is walks.max_partial_sums
        assert_rows_match_one_row(walks.max_partial_sums,
                                  walks.max_partial_sums,
                                  draws(n, rows_for(n), pareto(4.0)))

    # LAPACK reduces N <= 32 unblocked, N = 40 in panels
    @pytest.mark.parametrize("N", [12, 40])
    def test_wigner_transform(self, monkeypatch, N):
        seen = recorded_functionals(monkeypatch)
        z = 0.5 + 1.5j
        wigner.semicircle_experiment(RADEMACHER, GAUSSIAN, N, z, IDENTITY,
                                     100, 3)
        layout = wigner.WignerLayout(N)
        n = layout.coordinate_count
        assert_rows_match_one_row(
            seen[0], lambda x: wigner.stieltjes(layout, x, z),
            draws(n, rows_for(n), RADEMACHER))

    @pytest.mark.parametrize("N", [2, 7, 12, 14, 15, 16])
    @pytest.mark.parametrize("h", [0.0, 0.3])
    def test_sk_free_energy(self, monkeypatch, N, h):
        # at beta = 100, rows scaled by 1e-2 stay within the shift limit
        # and rows scaled by 10 mostly pass it, so a block mixes the B / 2
        # shift with the exact-max one, and the suite's own values at that
        # beta keep their bits over --threads
        seen = recorded_functionals(monkeypatch)
        layout = sk.CouplingLayout(N)
        n = layout.coordinate_count
        block = draws(n, rows_for(n), label=f"sk{N}")
        for beta in (1.2, 100.0):
            if beta == 100.0:
                block[::2] *= 1e-2
                block[1::2] *= 10.0
                bound = beta * (np.abs(block).sum(axis=1) / math.sqrt(N)
                                + h * N)
                assert (bound <= sk._SHIFT_LIMIT).any()
                assert (bound > sk._SHIFT_LIMIT).any()
            params = sk.SKParams(beta=beta, h=h)
            seen.clear()
            sk.sk_experiment("free_energy", RADEMACHER, GAUSSIAN, params, N,
                             100, TANH, 3)
            assert_rows_match_one_row(
                seen[0], lambda x: sk.free_energy(layout, params, x),
                block, sk._stack_size(N))
        # blocks of seven rows, so both threads take blocks
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 7 * n)
        serial, threaded = (
            paired_functional_values(*seen, RADEMACHER, GAUSSIAN, n, 100, 3,
                                     "sk-threads", threads=threads)
            for threads in (1, 2))
        assert same_bits(serial, threaded)

    @pytest.mark.parametrize("N", [2, 7, 12, 14, 15, 16])
    def test_sk_ground_state(self, monkeypatch, N):
        seen = recorded_functionals(monkeypatch)
        sk.sk_experiment("ground_state", RADEMACHER, GAUSSIAN, sk.SKParams(),
                         N, 100, TANH, 3)
        layout = sk.CouplingLayout(N)
        n = layout.coordinate_count
        scale = N**-1.5
        assert_rows_match_one_row(
            seen[0], lambda x: scale * sk.ground_state(layout, x)[0],
            draws(n, rows_for(n), label=f"gs{N}"), sk._stack_size(N))

    @pytest.mark.parametrize("functional, n", [
        (walks.max_partial_sums, 10),
        (lambda b: wigner.stieltjes(wigner.WignerLayout(4), b, 2j), 10),
        (lambda b: sk.free_energy(sk.CouplingLayout(5), sk.SKParams(), b),
         10),
        (lambda b: sk.free_energy(sk.CouplingLayout(5),
                                  sk.SKParams(h=0.3), b), 10),
        (lambda b: sk.ground_state(sk.CouplingLayout(5), b)[0], 10),
    ], ids=["max_partial_sums", "stieltjes", "free_energy",
            "free_energy_field", "ground_state"])
    def test_empty_block_gives_no_values(self, functional, n):
        assert functional(np.empty((0, n))).shape == (0,)

    def test_ground_state_block_maximizers(self):
        N = 9
        layout = sk.CouplingLayout(N)
        block = draws(layout.coordinate_count, 20, RADEMACHER)
        values, sigmas = sk.ground_state(layout, block)
        for x, value, sigma in zip(block, values, sigmas):
            one_value, one_sigma = sk.ground_state(layout, x)
            assert value == one_value
            assert np.array_equal(sigma, one_sigma)

    def test_mc_gap_maps_value_over_rows(self, monkeypatch):
        # the oracle the Wigner twin test compares the suite with
        seen = recorded_functionals(monkeypatch)
        f = mean_function(16)
        mc_gap(f, SIN, RADEMACHER, GAUSSIAN, 100, 3)
        assert_rows_match_one_row(seen[0], f.value, draws(16, rows_for(16)))


class TestOneExperimentPath:
    """Every suite's paired run is one ``core.gap_experiment`` call."""

    @pytest.mark.parametrize("experiment", [
        lambda: clt_experiment(RADEMACHER, GAUSSIAN, 8, SIN, 100, 3),
        lambda: walks.erdos_kac_experiment(RADEMACHER, GAUSSIAN, 8, SIN, 100,
                                           3),
        lambda: sk.sk_experiment("free_energy", RADEMACHER, GAUSSIAN,
                                 sk.SKParams(), 4, 100, TANH, 3),
        lambda: sk.sk_experiment("ground_state", RADEMACHER, GAUSSIAN,
                                 sk.SKParams(), 4, 100, TANH, 3),
        lambda: wigner.semicircle_experiment(RADEMACHER, GAUSSIAN, 4, 2j,
                                             IDENTITY, 100, 3),
    ], ids=["clt", "erdos_kac", "sk_free_energy", "sk_ground_state",
            "wigner"])
    def test_each_experiment_makes_one_engine_call(self, monkeypatch,
                                                   experiment):
        seen = recorded_functionals(monkeypatch)
        experiment()
        assert len(seen) == 2 and seen[0] is seen[1]

    @pytest.mark.parametrize("module", [walks, sk, wigner],
                             ids=lambda module: module.__name__)
    def test_no_suite_module_binds_an_engine_step(self, module):
        # each step is looked up in core, where perfbench's tracer and the
        # recorder above rebind it
        for name in ("paired_functional_values", "summarize_gap",
                     "evaluate_bound"):
            assert name not in vars(module), name


class TestEngineDeterminism:
    @staticmethod
    def _values(threads, n=24):
        walk = walks.max_partial_sums
        return paired_functional_values(walk, walk, pareto(4.0), GAUSSIAN, n,
                                        333, 21, "engine-threads",
                                        threads=threads)

    def test_threads_and_block_sizes_give_the_same_bits(self, monkeypatch):
        # 333 replicates are no multiple of any block size below
        serial = self._values(1)
        for elements in (24, 7 * 24, core.BLOCK_ELEMENTS):
            monkeypatch.setattr(core, "BLOCK_ELEMENTS", elements)
            for threads in (1, 2, 3):
                vx, vy = self._values(threads)
                assert same_bits(vx, serial[0]), (elements, threads)
                assert same_bits(vy, serial[1]), (elements, threads)

    def test_workers_never_exceed_chunks(self, monkeypatch):
        # a stand-in pool that records its size and runs the chunks inline,
        # so no thread is ever started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor",
                            InlinePool)
        n = 400
        serial = self._values(1, n)
        chunks = -(-333 // block_rows(n))
        assert chunks < 100
        for threads, workers in ((2, 2), (100_000, chunks)):
            vx, vy = self._values(threads, n)
            assert sizes.pop() == workers
            assert same_bits(vx, serial[0]) and same_bits(vy, serial[1])
        assert not sizes

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError):
            self._values(0)


class TestThreadCeiling:
    def test_build_config_rejects_threads_above_the_ceiling(self):
        assert build_config("clt", None, {"threads": THREAD_LIMIT}).threads \
            == THREAD_LIMIT
        with pytest.raises(ConfigError, match="threads"):
            build_config("clt", None, {"threads": THREAD_LIMIT + 1})

    def test_huge_thread_count_exits_2_before_running(self, monkeypatch,
                                                      capsys):
        def refuse(config):
            raise AssertionError("the run must not start")

        monkeypatch.setattr(cli, "run", refuse)
        assert main(["clt", "--threads", "100000",
                     "--replicates", "10000000"]) == 2
        assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sk_free_energy", "--size", "14"],
                                  ["wigner", "--size", "40"]],
                         ids=lambda argv: argv[0])
def test_blas_thread_count_leaves_output_bytes(argv, tmp_path):
    outputs = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / f"blas{blas}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "lindeberg_lab.cli", *argv, "--out",
             str(out)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("N", [20, 40])
def test_worker_threads_leave_wigner_bytes(tmp_path, N):
    # the LAPACK binding releases the GIL, so three workers, one per chunk
    # of 1000 replicates in blocks of 156 (N = 20) or 39 (N = 40, past
    # LAPACK's crossover to the blocked reduction), run dsytrd concurrently
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads{threads}.csv"
        assert main(["wigner", "--size", str(N), "--replicates", "1000",
                     "--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
