"""Tests of the benchmark itself: span arithmetic, output checks, patching.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402


def test_self_time_of_nested_calls():
    # outer [0, 10] calls inner [1, 3] and inner [4, 6]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    stats = tracing.summarize(tracer.spans)
    assert stats["outer"].calls == 1
    assert stats["outer"].self_s == 6.0
    assert stats["outer"].total_s == 10.0
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == 4.0
    assert stats["inner"].total_s == 4.0
    outer_id = next(s[tracing.ID] for s in tracer.spans
                    if s[tracing.NAME] == "outer")
    assert {s[tracing.PARENT] for s in tracer.spans
            if s[tracing.NAME] == "inner"} == {outer_id}


def test_overlapping_children_on_two_threads_count_once():
    spans = [
        (1, 0, "parent", 0.0, 10.0, 1, 0),
        (2, 1, "child", 1.0, 5.0, 1, 3),
        (3, 1, "child", 3.0, 8.0, 2, 4),
        (4, 3, "leaf", 4.0, 20.0, 2, 0),   # clipped to its parent for self
    ]
    stats = tracing.summarize(spans)
    assert stats["parent"].self_s == 3.0     # 10 - |[1, 8]|
    assert stats["child"].self_s == 4.0 + 1.0
    assert stats["child"].total_s == 7.0
    assert stats["child"].work == 7
    assert stats["leaf"].self_s == 16.0


def test_worker_thread_spans_take_the_dispatching_span_as_parent():
    tracer = tracing.Tracer()
    work = tracer.wrap("work", lambda k: k * k)

    def dispatch():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(8)))

    assert tracer.wrap("dispatch", dispatch)() == [k * k for k in range(8)]
    dispatch_id = next(s[tracing.ID] for s in tracer.spans
                       if s[tracing.NAME] == "dispatch")
    parents = {s[tracing.PARENT] for s in tracer.spans
               if s[tracing.NAME] == "work"}
    assert parents == {dispatch_id}


def _passing_run(name: str) -> tuple[bench.RunResult, dict]:
    reference = json.loads(bench.REFERENCE.read_text())[name]
    run = bench.RunResult(status=0, spawn=0.0, exit=2.0, start=0.5, end=1.5,
                          rss_mb=60.0, cpu_s=1.9, output=b"a,b\n1,2\n",
                          reports=copy.deepcopy(reference["reports"]))
    return run, reference


def test_check_accepts_a_run_that_matches_its_set_and_reference():
    run, reference = _passing_run("clt-short")
    argv = bench.reference_argv(bench.WORKLOADS["clt-short"])
    assert bench.check_run(run, run.output, reference, argv) == []
    # last-bit reassociation of the mean passes
    run.reports[0]["mc_gap"] *= 1.0 + 4e-16
    assert bench.check_run(run, run.output, reference, argv) == []


def test_check_rejects_tampered_output_and_nonzero_exit():
    run, _ = _passing_run("clt-short")
    expected = run.output
    run.output = expected.replace(b"1", b"3")
    assert bench.check_run(run, expected)
    run.output, run.status = expected, 3
    assert bench.check_run(run, expected)


@pytest.mark.parametrize("key, shift", [("mc_gap", 0.01), ("std_error", 0.01),
                                        ("bound", 1e-6)])
def test_check_rejects_gap_numbers_off_the_reference(key, shift):
    run, reference = _passing_run("wigner-n100")
    argv = bench.reference_argv(bench.WORKLOADS["wigner-n100"])
    report = run.reports[-1]
    report[key] += shift * (report["std_error"] if key != "bound"
                            else report["bound"])
    assert bench.check_run(run, run.output, reference, argv)


def test_check_rejects_a_failed_gap_report():
    run, _ = _passing_run("sk-threads2")
    run.reports[0]["passed"] = False
    assert bench.check_run(run)


def _bindings() -> dict:
    """Every global of every lindeberg_lab module, and the traced methods."""
    from lindeberg_lab import rng, sk

    found = {(name, attr): id(value)
             for name, module in sys.modules.items()
             if name == "lindeberg_lab" or name.startswith("lindeberg_lab.")
             for attr, value in vars(module).items()}
    found["RandomStream.replicate"] = id(vars(rng.RandomStream)["replicate"])
    found["CouplingLayout.coupling_matrix"] = \
        id(vars(sk.CouplingLayout)["coupling_matrix"])
    return found


@pytest.mark.parametrize("args, layer", [
    (["clt", "--size", "40", "--threads", "1"], "rng.replicate"),
    (["erdos_kac", "--size", "300", "--dist-x", "pareto:4"],
     "walks.max_partial_sums"),
    (["wigner", "--size", "8"], "wigner.linalg"),
    (["sk_free_energy", "--size", "6", "--threads", "2"], "sk.free_energy"),
])
def test_wrapping_then_unwrapping_keeps_cli_output(tmp_path, args, layer):
    from lindeberg_lab import cli

    def output(tag: str) -> bytes:
        out = tmp_path / f"{tag}.csv"
        assert cli.main([*args, "--replicates", "200", "--seed", "5",
                         "--out", str(out)]) == 0
        return out.read_bytes()

    before = _bindings()
    plain = output("plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = output("traced")
    finally:
        tracer.uninstall()
    after = output("after")
    assert plain == traced == after
    assert _bindings() == before
    stats = tracing.summarize(tracer.spans)
    assert stats["cli.run"].calls == 1
    assert stats[layer].calls > 0
    assert stats["core.g"].calls > 0
    # every span but cli.run hangs below another span
    ids = {s[tracing.ID] for s in tracer.spans}
    assert all(s[tracing.PARENT] in ids for s in tracer.spans
               if s[tracing.NAME] != "cli.run")
