"""The batched paired-replicate engine: block contract and determinism.

Every suite hands ``core.paired_functional_values`` a functional that maps a
(B, n) block of replicate draws to its (B,) values.  A row's value must not
depend on the block it lands in, its position there, or ``--threads``.  The
block functionals are taken from the suites themselves (by recording what
they hand the engine), evaluated on blocks of 1, 7 and the default number of
rows, and must give the bits of one-row evaluation.
"""

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


def recorded_functionals(monkeypatch, module) -> list:
    """The block functionals ``module`` hands the engine, in call order."""
    seen = []
    engine = module.paired_functional_values

    def record(eval_x, eval_y, *args, **kwargs):
        seen.extend((eval_x, eval_y))
        return engine(eval_x, eval_y, *args, **kwargs)

    monkeypatch.setattr(module, "paired_functional_values", record)
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
        seen = recorded_functionals(monkeypatch, core)
        n = 64
        clt_experiment(RADEMACHER, GAUSSIAN, n, SIN, 100, 3)
        assert_rows_match_one_row(seen[0], mean_function(n).value,
                                  draws(n, rows_for(n)))

    def test_running_max(self, monkeypatch):
        seen = recorded_functionals(monkeypatch, walks)
        n = 300
        walks.erdos_kac_experiment(pareto(4.0), GAUSSIAN, n, SIN, 100, 3)
        assert seen[0] is walks.max_partial_sums
        assert_rows_match_one_row(walks.max_partial_sums,
                                  walks.max_partial_sums,
                                  draws(n, rows_for(n), pareto(4.0)))

    def test_wigner_transform(self, monkeypatch):
        seen = recorded_functionals(monkeypatch, wigner)
        N, z = 12, 0.5 + 1.5j
        wigner.semicircle_experiment(RADEMACHER, GAUSSIAN, N, z, IDENTITY,
                                     100, 3)
        layout = wigner.WignerLayout(N)
        n = layout.coordinate_count
        assert_rows_match_one_row(
            seen[0], lambda x: wigner.stieltjes(layout, x, z),
            draws(n, rows_for(n), RADEMACHER))

    @pytest.mark.parametrize("N", [2, 7, 12, 14, 15])
    @pytest.mark.parametrize("h", [0.0, 0.3])
    def test_sk_free_energy(self, monkeypatch, N, h):
        seen = recorded_functionals(monkeypatch, sk)
        params = sk.SKParams(beta=1.2, h=h)
        sk.sk_experiment("free_energy", RADEMACHER, GAUSSIAN, params, N,
                         100, TANH, 3)
        layout = sk.CouplingLayout(N)
        n = layout.coordinate_count
        assert_rows_match_one_row(
            seen[0], lambda x: sk.free_energy(layout, params, x),
            draws(n, rows_for(n), label=f"sk{N}"), sk._stack_size(N))

    @pytest.mark.parametrize("N", [2, 7, 12, 14, 15])
    def test_sk_ground_state(self, monkeypatch, N):
        seen = recorded_functionals(monkeypatch, sk)
        sk.sk_experiment("ground_state", RADEMACHER, GAUSSIAN, sk.SKParams(),
                         N, 100, TANH, 3)
        layout = sk.CouplingLayout(N)
        n = layout.coordinate_count
        scale = N**-1.5
        assert_rows_match_one_row(
            seen[0], lambda x: scale * sk.ground_state(layout, x)[0],
            draws(n, rows_for(n), label=f"gs{N}"), sk._stack_size(N))

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
        seen = recorded_functionals(monkeypatch, core)
        f = mean_function(16)
        mc_gap(f, SIN, RADEMACHER, GAUSSIAN, 100, 3)
        assert_rows_match_one_row(seen[0], f.value, draws(16, rows_for(16)))


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
