"""The benchmark's span tracer still binds the package.

``perfbench/tracing.py`` rebinds named package functions by identity, and
pytest's test paths do not reach ``perfbench/``: a source change that drops
or reshapes a traced name would pass these tests yet break every traced
benchmark run.  This module loads the tracer by path, unchanged, and runs
four suites at tiny sizes under it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from lindeberg_lab import cli, rng, sk

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


@pytest.mark.parametrize("args, layer", [
    (["clt", "--size", "40"], "rng.replicate"),
    (["erdos_kac", "--size", "50"], "walks.max_partial_sums"),
    (["sk_free_energy", "--size", "5"], "sk.free_energy"),
    (["wigner", "--size", "6"], "wigner.stieltjes"),
], ids=["clt", "erdos_kac", "sk_free_energy", "wigner"])
def test_traced_run_keeps_output_and_records_its_layer(tmp_path, tracing,
                                                       args, layer):
    def output(tag: str) -> bytes:
        out = tmp_path / f"{tag}.csv"
        assert cli.main([*args, "--replicates", "100", "--seed", "3",
                         "--out", str(out)]) == 0
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
