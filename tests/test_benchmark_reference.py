"""Every benchmark workload still meets the benchmark's stored reference.

A benchmark run first runs each workload at its reference seed and compares
the gap reports with ``perfbench/reference.json``: a draw or a functional
that moves a gap by more than ``GAP_TOLERANCE`` standard errors fails every
run.  pytest's test paths do not reach ``perfbench/``, so this module loads
``run.py`` and ``child.py`` by path, unchanged, runs each workload of
``BENCHMARK.json`` at its ``reference_argv`` in this process, and compares
the gap reports with the same ``compare_reports``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lindeberg_lab import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def perfbench():
    """``run.py`` and ``child.py``, which both ``import tracing``."""
    names = {"tracing": "tracing.py", "perfbench_run": "run.py",
             "perfbench_child": "child.py"}
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name, file in names.items():
            spec = importlib.util.spec_from_file_location(name,
                                                          PERFBENCH / file)
            module = importlib.util.module_from_spec(spec)
            # dataclasses resolve annotations through sys.modules
            sys.modules[name] = module
            spec.loader.exec_module(module)
        yield sys.modules["perfbench_run"], sys.modules["perfbench_child"]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_run_matches_stored_reference(name, perfbench, tmp_path,
                                                monkeypatch):
    run, child = perfbench
    argv = run.reference_argv(run.WORKLOADS[name])
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))[name]
    assert reference["argv"] == argv
    reports, suite_run = [], cli.run

    def recording(config):
        result = suite_run(config)
        reports.extend(child.gap_numbers(result.reports))
        return result

    monkeypatch.setattr(cli, "run", recording)
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert run.compare_reports(reports, reference["reports"]) == []
