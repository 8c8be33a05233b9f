"""The benchmark's span tracer still binds the package.

``perfbench/tracing.py`` rebinds named package functions by identity, and
pytest's test paths do not reach ``perfbench/``: a source change that drops
or reshapes a traced name would pass these tests yet break every traced
benchmark run.  This module loads the tracer by path, unchanged, and runs
seven suites at tiny sizes under it.  Every Monte Carlo run reaches the
engine and the gap reduction through ``core.gap_experiment``, so the tracer
sees one engine span per run and one reduction span per gap report.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lindeberg_lab import cli, core, rng, sk
from lindeberg_lab.distributions import GAUSSIAN

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def bindings() -> dict:
    """Every global of every package module, and the two traced methods."""
    found = {(name, attr): id(value)
             for name, module in list(sys.modules.items())
             if name == "lindeberg_lab" or name.startswith("lindeberg_lab.")
             for attr, value in vars(module).items()}
    found["RandomStream.replicate"] = id(vars(rng.RandomStream)["replicate"])
    found["CouplingLayout.coupling_matrix"] = \
        id(vars(sk.CouplingLayout)["coupling_matrix"])
    return found


# the last field is the run's number of gap reports: a Monte Carlo run makes
# one engine call and one gap reduction per report (wigner's re and im)
@pytest.mark.parametrize("args, layer, gaps", [
    (["clt", "--size", "40", "--replicates", "100", "--seed", "3"],
     "rng.replicate", 1),
    (["erdos_kac", "--size", "50", "--replicates", "100", "--seed", "3"],
     "walks.max_partial_sums", 1),
    (["sk_free_energy", "--size", "5", "--replicates", "100", "--seed", "3"],
     "sk.free_energy", 1),
    # its kernel reaches the coupling matrix only through ground_state
    (["sk_ground_state", "--size", "5", "--replicates", "100", "--seed", "3"],
     "sk.coupling_matrix", 1),
    (["wigner", "--size", "6", "--replicates", "100", "--seed", "3"],
     "wigner.stieltjes", 2),
    # the one suite whose run calls lu_factor and lu_solve
    (["lambda_audit", "--size", "3", "--seed", "3"], "wigner.linalg", 0),
    # the one run that builds every suite's bound record inside cli.run; it
    # draws nothing, so it takes no seed
    (["bound_table", "--sizes", "8"], "walks.walk_family", 0),
], ids=["clt", "erdos_kac", "sk_free_energy", "sk_ground_state", "wigner",
        "lambda_audit", "bound_table"])
def test_traced_run_keeps_output_and_records_its_layer(tmp_path, tracing,
                                                       args, layer, gaps):
    def output(tag: str) -> bytes:
        out = tmp_path / f"{tag}.csv"
        assert cli.main([*args, "--out", str(out)]) == 0
        return out.read_bytes()

    plain = output("plain")
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = output("traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert bindings() == before
    assert output("after") == plain
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("cli.run") == 1
    assert layer in names
    assert names.count("core.paired_functional_values") == min(gaps, 1)
    assert names.count("core.summarize_gap") == gaps


def test_traced_draw_passes_the_workspace(tracing):
    # the engine hands every draw its worker's workspace as a fourth
    # argument: the traced sampler passes it on and records one span per
    # draw, with the vector's n values as its work
    n, replicates = 1000, 100

    def fingerprint(block):
        return block.view(np.uint64).sum(axis=1, dtype=np.uint64)

    def run():
        return core.paired_functional_values(
            fingerprint, fingerprint, GAUSSIAN, GAUSSIAN, n, replicates, 3,
            "traced-draw", dtype=np.uint64)

    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert [v.tolist() for v in traced] == [v.tolist() for v in plain]
    draws = [span for span in tracer.spans
             if span[tracing.NAME] == "distributions.draw"]
    blocks = -(-replicates // core.block_rows(n))
    assert [span[tracing.WORK] for span in draws] == [n] * (2 * blocks)
