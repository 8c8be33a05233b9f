"""Benchmark of the lindeberg-lab paired-Monte-Carlo engine.

One benchmark run::

    python3 perfbench/run.py --workload walk-long --seed 3 --seconds 35

drives the workload's ``lindeberg-lab`` command in a closed loop with one
client: one CLI process at a time, each started after the previous one exits,
with the benchmark's ``--seed`` passed as the CLI's ``--seed``.  It first runs
the workload once at REFERENCE_SEED and compares the gap reports with
perfbench/reference.json, then repeats the workload at ``--seed`` for
``--seconds`` seconds.  Every run's output is checked (see ``check_run``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds sample counts, failed_share and the machine facts.

``--trace 0`` reports the end-to-end metrics, medians over the untraced runs.
``--trace 1`` reports per-layer metrics: set-up split in fresh interpreters,
then pairs of untraced and traced runs, where the traced run wraps the
package's layer boundaries from outside (tracing.py), and one run at the
other ``--threads`` value.

``python3 perfbench/run.py`` with no ``--workload`` runs every workload both
ways and prints one report.  ``--write-reference`` records
perfbench/reference.json from the current program; do that only when a
change to the program's output is intended, and say so in CHANGES.md.

Every CLI process runs with BLAS pinned to one thread, so at most the
``--threads`` Python threads of the suite run at once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

REFERENCE_SEED = 20240
# Gap numbers may move by last-bit reassociation, never by a changed draw or
# functional: that would move them by about one standard error.
GAP_TOLERANCE = 1e-6      # in units of the reference's standard error
BOUND_TOLERANCE = 1e-9    # relative
RUN_TIMEOUT_S = 90.0
SETUP_PROBES = 5

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    """A fixed CLI shape; ``replicates`` sets how long one CLI run takes."""

    suite_args: tuple[str, ...]
    threads: int
    replicates: int

    def argv(self, seed: int, out: Path, threads: int | None = None) -> list:
        return [*self.suite_args, "--threads", str(threads or self.threads),
                "--replicates", str(self.replicates), "--seed", str(seed),
                "--out", str(out)]


# Why each workload is here, and which layer it stresses: BENCHMARK.json.
# clt-short and sk-threads2 run in the full report and by name, but
# BENCHMARK.json leaves them out: on a shared 2-vCPU host their run medians
# spread wider than any allowed bound.  Every layer clt-short stresses is
# also traced on walk-long.  sk-n14 is sk-threads2 at --threads 1: two
# suite threads on two vCPUs time the host's scheduler, one leaves a vCPU
# spare; its traced pass still times --threads 2 (core.threads_speedup).
SK_N14 = ("sk_free_energy", "--beta", "1", "--h", "0", "--dist-x",
          "rademacher", "--dist-y", "gaussian", "--g", "tanh", "--size", "14")
WORKLOADS = {
    "clt-short": Workload(
        ("clt", "--dist-x", "rademacher", "--dist-y", "gaussian",
         "--g", "sin", "--size", "400"), threads=1, replicates=30000),
    "walk-long": Workload(
        ("erdos_kac", "--dist-x", "pareto:4", "--dist-y", "gaussian",
         "--g", "sin", "--size", "20000"), threads=1, replicates=800),
    "wigner-n100": Workload(
        ("wigner", "--z-re", "0", "--z-im", "2", "--dist-x", "rademacher",
         "--dist-y", "gaussian", "--g", "identity", "--size", "100"),
        threads=1, replicates=800),
    "sk-threads2": Workload(SK_N14, threads=2, replicates=500),
    "sk-n14": Workload(SK_N14, threads=1, replicates=500),
}


# ---------------------------------------------------------------------------
# one CLI process
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    status: int
    spawn: float            # monotonic time before the process was started
    exit: float             # monotonic time after it was reaped
    start: float | None     # cli.run entered
    end: float | None       # cli.run returned, output file written
    rss_mb: float
    cpu_s: float
    output: bytes | None
    reports: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    stderr: str = ""

    @property
    def setup_s(self) -> float:
        return self.start - self.spawn

    @property
    def suite_s(self) -> float:
        return self.end - self.start


def _env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    return env


def _wait(proc: subprocess.Popen) -> tuple[int, object]:
    """Reap ``proc`` with its resource usage; kill it after RUN_TIMEOUT_S."""
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_cli(workdir: Path, workload: Workload, seed: int, *,
            threads: int | None = None, trace: bool = False,
            facts: bool = False) -> RunResult:
    out, record, err = (workdir / "out.csv", workdir / "record.json",
                        workdir / "stderr.txt")
    for path in (out, record):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(record), str(int(trace)),
           str(int(facts)), "--", *workload.argv(seed, out, threads)]
    with open(err, "wb") as err_file:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL, stderr=err_file)
        status, usage = _wait(proc)
        exited = time.monotonic()
    data = (json.loads(record.read_text(encoding="utf-8"))
            if record.exists() else {})
    return RunResult(
        status=status, spawn=spawn, exit=exited,
        start=data.get("start"), end=data.get("end"),
        rss_mb=data.get("peak_rss_mb", 0.0),
        cpu_s=usage.ru_utime + usage.ru_stime,
        output=out.read_bytes() if out.exists() else None,
        reports=data.get("reports", []), spans=data.get("spans", []),
        versions=data.get("versions", {}),
        stderr=err.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def compare_reports(reports: list, reference: list) -> list[str]:
    """Differences of gap numbers from the reference beyond the tolerances."""
    if [r["id"] for r in reports] != [r["id"] for r in reference]:
        return ["gap reports differ from the reference in number or id"]
    problems = []
    for got, ref in zip(reports, reference):
        tol = GAP_TOLERANCE * ref["std_error"]
        for key in ("mc_gap", "std_error"):
            if not abs(got[key] - ref[key]) <= tol:
                problems.append(f"{ref['id']}: {key} {got[key]!r} differs "
                                f"from reference {ref[key]!r}")
        if not abs(got["bound"] - ref["bound"]) <= \
                BOUND_TOLERANCE * abs(ref["bound"]):
            problems.append(f"{ref['id']}: bound {got['bound']!r} differs "
                            f"from reference {ref['bound']!r}")
    return problems


def check_run(run: RunResult, expected_output: bytes | None = None,
              reference: dict | None = None,
              argv: list | None = None) -> list[str]:
    """Reasons the run failed; empty when it passed.

    A run fails on a nonzero exit, a missing output file or gap report, a
    report with passed=false, output bytes that differ from the first run of
    the same set, or gap numbers off the stored reference.
    """
    if run.status != 0:
        return [f"exit status {run.status}: {run.stderr.strip()[-300:]}"]
    problems = []
    if run.output is None or run.start is None or run.end is None:
        problems.append("no output file or no cli.run timing")
    if not run.reports:
        problems.append("no gap report")
    if any(not r["passed"] for r in run.reports):
        problems.append("a gap report has passed=false")
    if expected_output is not None and run.output != expected_output:
        problems.append("output bytes differ from the first run of the set")
    if reference is not None:
        if reference["argv"] != argv:
            problems.append("reference was recorded for other arguments")
        else:
            problems.extend(compare_reports(run.reports, reference["reports"]))
    return problems


def reference_argv(workload: Workload) -> list:
    """Arguments of the reference run: REFERENCE_SEED and --threads 1."""
    return workload.argv(REFERENCE_SEED, Path("out.csv"), threads=1)[:-2]


class Session:
    """The CLI runs of one benchmark run and their check results."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.workload = name, WORKLOADS[name]
        self.seed, self.workdir = seed, workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_output: bytes | None = None
        self.versions: dict = {}

    def _count(self, run: RunResult, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def reference_run(self) -> None:
        """Run at REFERENCE_SEED and compare with the stored reference."""
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        run = run_cli(self.workdir, self.workload, REFERENCE_SEED, facts=True)
        self.versions = run.versions
        self._count(run, check_run(run, reference=references[self.name],
                                   argv=reference_argv(self.workload)))

    def run(self, **kwargs) -> RunResult | None:
        """A run at the session seed; None if it failed its checks."""
        run = run_cli(self.workdir, self.workload, self.seed, **kwargs)
        ok = self._count(run, check_run(run, self.first_output))
        if ok and self.first_output is None:
            self.first_output = run.output
        return run if ok else None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(session: Session, seconds: float) -> tuple[dict, int]:
    """Median end-to-end metrics over untraced runs, and the sample count."""
    session.reference_run()
    runs = []
    stop = time.monotonic() + seconds
    while time.monotonic() < stop:
        run = session.run()
        if run is not None:
            runs.append(run)
    if not runs:
        return {}, 0
    per_s = [session.workload.replicates / r.suite_s for r in runs]
    values = {"replicates_per_s": statistics.median(per_s),
              "setup_s": statistics.median(r.setup_s for r in runs),
              "peak_rss_mb": statistics.median(r.rss_mb for r in runs)}
    return values, len(runs)


SETUP_PROBE = """\
import sys, time
t0 = time.monotonic()
import numpy
t1 = time.monotonic()
import scipy.special, scipy.linalg
t2 = time.monotonic()
sys.path.insert(0, 'src')
import lindeberg_lab.cli
t3 = time.monotonic()
print(t0, t1, t2, t3)
"""


def setup_split() -> dict:
    """Set-up time split into interpreter and import steps, fresh each time."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawn = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=True)
        t0, t1, t2, t3 = map(float, done.stdout.split())
        samples.append((t0 - spawn, t1 - t0, t2 - t1, t3 - t2))
    names = ("setup.interpreter_s", "setup.import_numpy_s",
             "setup.import_scipy_s", "setup.import_lindeberg_lab_s")
    return {name: statistics.median(s[k] for s in samples)
            for k, name in enumerate(names)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, workload_name: str) -> dict:
    """Per-layer metrics of one traced run from its span statistics."""
    get = lambda name: stats.get(name, tracing.NameStats())
    total = get("cli.run").total_s

    def self_of(*layers):
        return sum(s.self_s for name, s in stats.items()
                   if name.split(".")[0] in layers)

    replicate, draw = get("rng.replicate"), get("distributions.draw")
    pfv, linalg = get("core.paired_functional_values"), get("wigner.linalg")
    stieltjes, energy = get("wigner.stieltjes"), get("sk.free_energy")
    coupling = get("sk.coupling_matrix")
    m = {
        "rng.replicate.calls": replicate.calls,
        "rng.replicate.self_s": replicate.self_s,
        "rng.replicate.us_per_call": 1e6 * _ratio(replicate.self_s,
                                                  replicate.calls),
        "distributions.draw.calls": draw.calls,
        "distributions.draw.values": draw.work,
        "distributions.draw.self_s": draw.self_s,
        "distributions.draw.ns_per_value": 1e9 * _ratio(draw.self_s,
                                                        draw.work),
        "core.paired_functional_values.self_s": pfv.self_s,
        "core.functional.total_s": get("core.functional").total_s,
        "core.g.calls": get("core.g").calls,
        "core.g.self_s": get("core.g").self_s,
        "core.summarize_gap.self_s": get("core.summarize_gap").self_s,
        "core.bound.self_s": get("core.bound").self_s,
        "core.per_call_share": _ratio(replicate.self_s + pfv.self_s, total),
        "walks.max_partial_sums.self_s": get("walks.max_partial_sums").self_s,
        "walks.walk_family.self_s": get("walks.walk_family").self_s,
        "walks.ks_to_half_normal.self_s":
            get("walks.ks_to_half_normal").self_s,
        "smoothmax.optimized_max_bound.self_s":
            get("smoothmax.optimized_max_bound").self_s,
        "wigner.stieltjes.calls": stieltjes.calls,
        "wigner.build_matrix.self_s": get("wigner.build_matrix").self_s,
        "wigner.resolvent.self_s": get("wigner.resolvent").self_s,
        "wigner.linalg.self_s": linalg.self_s,
        "wigner.matrices": linalg.work,
        "wigner.ms_per_matrix": 1e3 * _ratio(stieltjes.total_s, linalg.work),
        "sk.free_energy.calls": energy.calls,
        "sk.free_energy.self_s": energy.self_s,
        "sk.free_energy.total_s": energy.total_s,
        "sk.coupling_matrix.calls": coupling.calls,
        "sk.coupling_matrix.self_s": coupling.self_s,
        "sk.configs": energy.work,
        "sk.ns_per_config": 1e9 * _ratio(energy.self_s, energy.work),
        "cli.run.total_s": total,
        "cli.render.self_s": get("cli.render").self_s,
        "cli.untraced_s": get("cli.run").self_s,
    }
    share = STRESS[workload_name][0]
    m["stress.share"] = _ratio(share(get, self_of), total)
    return m


# The layer each workload is chosen to stress: its share of cli.run time,
# and the floor the share must clear for the workload to do its job.
STRESS = {
    "clt-short": (lambda get, self_of: self_of("rng", "distributions", "core"),
                  0.80, "rng + distributions + core self time"),
    "walk-long": (lambda get, self_of: get("distributions.draw").self_s,
                  0.50, "distributions.draw self time"),
    "wigner-n100": (lambda get, self_of: self_of("wigner"),
                    0.70, "wigner.* self time"),
    "sk-threads2": (lambda get, self_of: get("sk.free_energy").total_s,
                    0.80, "sk.free_energy total time"),
}
STRESS["sk-n14"] = STRESS["sk-threads2"]
PER_CALL_CEILING = {"walk-long": 0.10}   # rng.replicate + driver self time
# Counts of work done, not timings: they repeat exactly from run to run and
# are the bases of the per-unit rates.
COMPUTED = {"distributions.draw.values", "wigner.matrices", "sk.configs",
            "trace.spans"}


def per_layer(session: Session, seconds: float) -> tuple[dict, int]:
    """Medians of the per-layer metrics over pairs of untraced/traced runs."""
    session.reference_run()
    values = setup_split()
    untraced, traced = [], []
    stop = time.monotonic() + seconds
    while True:
        plain = session.run()
        run = session.run(trace=True) if plain is not None else None
        if run is not None:
            untraced.append(plain)
            traced.append((run.suite_s, len(run.spans),
                           tracing.summarize(run.spans)))
        if time.monotonic() >= stop:
            break
    if not traced:
        return {}, 0
    other = 1 if session.workload.threads > 1 else 2
    toggled = session.run(threads=other)
    layers = [layer_metrics(stats, session.name) for _, _, stats in traced]
    for name in layers[0]:
        values[name] = statistics.median(m[name] for m in layers)
    suite = statistics.median(r.suite_s for r in untraced)
    values["process.cpu_s"] = statistics.median(r.cpu_s for r in untraced)
    values["process.cpu_per_wall"] = statistics.median(
        r.cpu_s / (r.exit - r.spawn) for r in untraced)
    if toggled is not None:
        by_threads = {session.workload.threads: suite, other: toggled.suite_s}
        values["core.threads_speedup"] = by_threads[1] / by_threads[2]
    values["trace.spans"] = statistics.median(n for _, n, _ in traced)
    values["trace.overhead_s"] = statistics.median(
        s for s, _, _ in traced) - suite
    return values, len(traced)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(ROOT / ".git" / ref))
    if commit:
        return commit
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_facts(versions: dict) -> dict:
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(base + "/level"), _read(base + "/size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches_per_cpu0": caches,
            "platform": platform.platform(), **versions,
            "blas_threads": BLAS_THREADS, "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def benchmark_run(name: str, seed: int, seconds: int, trace: bool) -> int:
    with tempfile.TemporaryDirectory(dir=_workroot()) as tmp:
        session = Session(name, seed, Path(tmp))
        if trace:
            values, count = per_layer(session, seconds)
            samples = {"traced_runs": count}
        else:
            values, count = end_to_end(session, seconds)
            samples = {"untraced_runs": count}
    if not values:
        print(f"{name}: no run passed its checks: {session.problems[:3]}",
              file=sys.stderr)
        return 1
    units = metric_units("per_layer" if trace else "end_to_end")
    print(json.dumps({"workload": name, "seed": seed, "samples": samples,
                      "failed_share": session.failed / session.attempted,
                      "problems": session.problems[:5],
                      "machine": machine_facts(session.versions)}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": unit}
                    for k, unit in units.items()},
    }))
    return 0


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _workroot() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def report(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, as one printed report."""
    e2e, layers, failed_share, versions = {}, {}, {}, {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=_workroot()) as tmp:
            session = Session(name, seed, Path(tmp))
            e2e[name] = end_to_end(session, seconds)
            layers[name], _ = per_layer(session, seconds)
        failed_share[name] = (session.failed, session.attempted)
        versions = versions or session.versions
        for problem in session.problems[:3]:
            print(f"  {name}: FAILED CHECK: {problem}")
    print(json.dumps(machine_facts(versions), indent=1))
    print(f"\nend-to-end (untraced, median over n CLI runs, seed {seed}, "
          f"{seconds} s per workload)")
    for name, (values, count) in e2e.items():
        cells = "  ".join(f"{k} {values.get(k, float('nan')):.6g} {unit}"
                          for k, unit in metric_units("end_to_end").items())
        failed, attempted = failed_share[name]
        print(f"  {name:<12} {cells}  n={count}  failed_share "
              f"{failed / attempted:.3g} ({failed}/{attempted} runs)")
    units = metric_units("per_layer")
    print("\nper-layer (traced pass; counts are exact, times are medians)")
    print(f"  {'metric':<38}{'unit':>7}" +
          "".join(f"{n:>14}" for n in WORKLOADS))
    for metric, unit in units.items():
        label = metric + (" (computed)" if metric in COMPUTED else "")
        print(f"  {label:<38}{unit:>7}" + "".join(
            f"{layers[n].get(metric, 0.0):>14.6g}" for n in WORKLOADS))
    print("\nstress checks (share of cli.run.total_s)")
    ok = all(f == 0 for f, _ in failed_share.values())
    for name, (_, floor, label) in STRESS.items():
        share = layers[name].get("stress.share", 0.0)
        verdict = "ok" if share >= floor else "LOW"
        ok &= share >= floor
        print(f"  {name:<12} {label}: {share:.3f} (floor {floor}) {verdict}")
    for name, ceiling in PER_CALL_CEILING.items():
        share = layers[name].get("core.per_call_share", 1.0)
        verdict = "ok" if share < ceiling else "HIGH"
        ok &= share < ceiling
        print(f"  {name:<12} rng.replicate + driver self time: {share:.3f} "
              f"(ceiling {ceiling}) {verdict}")
    return 0 if ok else 1


def write_reference() -> int:
    references = {}
    with tempfile.TemporaryDirectory(dir=_workroot()) as tmp:
        for name, workload in WORKLOADS.items():
            run = run_cli(Path(tmp), workload, REFERENCE_SEED, threads=1)
            problems = check_run(run)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            references[name] = {"argv": reference_argv(workload),
                                "reports": run.reports}
    REFERENCE.write_text(json.dumps(references, indent=1) + "\n",
                         encoding="utf-8")
    return 0


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonnegative, default=1)
    parser.add_argument("--seconds", type=int, choices=range(1, 61),
                        default=10, metavar="1..60")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lindeberg_lab" / "cli.py").is_file():
        print(f"no lindeberg_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            return report(args.seed, args.seconds)
        return benchmark_run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        try:
            WORK.rmdir()    # only once empty: another run may still use it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
