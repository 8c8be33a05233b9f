"""Run one lindeberg-lab CLI invocation and record what the benchmark needs.

    python perfbench/child.py RECORD TRACE FACTS -- <lindeberg-lab arguments>

Imports ``lindeberg_lab`` from the checkout's ``src/`` directory, wraps
``cli.run`` to note, on the system-wide monotonic clock, when the suite
starts and when it returns after writing its output file, and calls
``cli.main``.  With TRACE=1 the package's layer boundaries are traced for
that call (see tracing.py) and restored afterwards.  RECORD receives JSON:
cli.main's exit status, the two times, the numbers of every gap report, the
peak resident memory, the spans (TRACE=1) and library versions (FACTS=1).
The process exits with cli.main's status.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def gap_numbers(reports) -> list[dict]:
    """The gap reports inside a run's reports, flattened in order."""
    found = []
    for report in reports:
        if hasattr(report, "mc_gap"):
            parts = [report]
        else:
            parts = [v for v in vars(report).values() if hasattr(v, "mc_gap")]
        found.extend({"id": r.experiment_id, "mc_gap": r.mc_gap,
                      "std_error": r.std_error,
                      "bound": r.theoretical_bound,
                      "passed": bool(r.passed)} for r in parts)
    return found


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec.

    getrusage's ru_maxrss would also count the parent's memory that the
    process held between fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise LookupError("no VmHWM line in /proc/self/status")


def versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str]) -> int:
    record_path, trace, facts, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: child.py RECORD TRACE FACTS -- ARGS...")
    sys.path.insert(0, str(SRC))
    from lindeberg_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lindeberg_lab was imported from {cli.__file__}, "
                         f"not from {SRC}")
    record: dict = {"start": None, "end": None, "reports": []}
    run = cli.run

    def timed_run(config):
        record["start"] = time.monotonic()
        manifest = run(config)
        record["end"] = time.monotonic()
        record["reports"] = gap_numbers(manifest.reports)
        return manifest

    cli.run = timed_run
    tracer = tracing.Tracer() if trace == "1" else None
    try:
        if tracer:
            tracer.install()
        status = cli.main(cli_args)
    except SystemExit as exc:   # argparse rejected the arguments
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        if tracer:
            tracer.uninstall()
        cli.run = run
    record["status"] = status
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        record["spans"] = tracer.spans
    if facts == "1":
        record["versions"] = versions()
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
