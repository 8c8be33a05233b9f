"""Reproducible experiment runner.

Usage::

    lindeberg-lab <suite> [--flag value]...

Suites: clt, wigner, sk_free_energy, sk_ground_state, erdos_kac,
lambda_audit, bound_table.  Every flag can also be set in a config file
(``--config``): flat key = value text with one section per suite, read as
UTF-8 and without interpolation (``%`` is a plain character); command-line
flags override file values, file values override suite defaults.

Output files (``--out``, ``--format csv|json``) contain only deterministic
content: identical configs reproduce them byte for byte.  Floats are printed
with 17 significant digits (JSON writes inf and nan as the strings "inf",
"-inf" and "nan").  A Monte Carlo row is built in one place,
``_report_table``: the suite's labels (its keys, ``g`` included), its gap
report's columns and the report's diagnostics.  Every row carries its
labels, master seed and replicate count, so it can be reproduced standalone.

Each suite declares its keys and their defaults once, in ``_SUITE_DEFAULTS``:
the parser has one ``--key`` flag per declared key, and flag and file values
both take the type of the key's default.

``--threads`` (1 to THREAD_LIMIT = 256) splits the replicates into contiguous
chunks of whole replicate blocks, one worker per chunk; the output does not
depend on it.  Replicate counts, the coordinate count n of a drawn vector and
``bound_table`` sizes stop at COUNT_LIMIT = 2**53.

Exit status: 0 on success, 1 if any gap report failed its bound, 2 on invalid
configuration (a malformed config file and an ``--out`` the check can see
cannot be written included), 3 on a runtime fault.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .core import GapReport, LindebergError, clt_experiment, \
    clt_swap_terms, estimate_lambda, evaluate_bound, test_function
from .distributions import parse_spec
from .rng import RandomStream
from .sk import (
    CouplingLayout,
    SKParams,
    check_enumerable,
    free_energy_function,
    free_energy_lambda,
    sk_experiment,
    sk_family,
    sk_terms,
)
from .smoothmax import estimate_family_lambda
from .walks import erdos_kac_domain, erdos_kac_experiment, erdos_kac_terms, \
    walk_family
from .wigner import (
    WignerLayout,
    derivative_bounds,
    lapack,
    semicircle_experiment,
    semicircle_swap_terms,
    stieltjes_function,
)


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


_COMMON_DEFAULTS = {"out": "", "format": "csv"}
_LAWS = {"dist_x": "rademacher", "dist_y": "gaussian", "g": "sin"}
_MONTE_CARLO = {**_LAWS, "replicates": 1000, "seed": 20240, "threads": 1}

# every key a suite declares is one it reads
_SUITE_DEFAULTS = {
    "clt": {**_MONTE_CARLO, "size": 400},
    "wigner": {**_MONTE_CARLO, "size": 100, "z_re": 0.0, "z_im": 2.0,
               "epsilon": 0.2, "g": "identity", "replicates": 500},
    "sk_free_energy": {**_MONTE_CARLO, "size": 12, "beta": 1.0, "h": 0.0,
                       "g": "tanh"},
    "sk_ground_state": {**_MONTE_CARLO, "size": 10, "g": "tanh",
                        "replicates": 500},
    "erdos_kac": {**_MONTE_CARLO, "size": 400, "replicates": 10000},
    "lambda_audit": {"size": 6, "z_re": 0.0, "z_im": 1.0, "seed": 20240},
    "bound_table": {**_LAWS, "sizes": "8,12,16", "z_re": 0.0, "z_im": 2.0,
                    "epsilon": 0.2, "beta": 1.0, "g": "tanh"},
}

SUITES = tuple(_SUITE_DEFAULTS)

# keys that control how a run is done or written, not what it measures: a
# Monte Carlo row's labels are its suite's other keys (the GapReport columns
# carry replicates and seed)
_RUN_KEYS = {"out", "format", "replicates", "seed", "threads"}

# keys for which inf or nan reaches the arithmetic (the truncated moments
# check epsilon, where inf is a well-defined limit; SKParams checks beta and
# h)
_FINITE_KEYS = {"z_re", "z_im"}
_SEED_LIMIT = 1 << 64   # the Philox key holds 64 bits of the master seed
# --threads ceiling: every worker is an OS thread, and no desk machine runs
# more than this many at once
THREAD_LIMIT = 256
# ceiling of replicate and coordinate counts and of bound_table sizes: above
# 2^53, n and n - 1 round to the same float, and numpy indexes a float64 or
# complex128 array of every count up to it (whether memory holds one is a
# runtime matter)
COUNT_LIMIT = 1 << 53


@dataclass
class ExperimentConfig:
    """A suite's values and the inputs its check built (``_bound_inputs``;
    None for lambda_audit), which its run uses."""

    suite: str
    values: dict = field(default_factory=dict)
    inputs: SimpleNamespace | None = None

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None


def build_config(suite: str, file_path: str | None,
                 overrides: dict) -> ExperimentConfig:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    defaults = {**_COMMON_DEFAULTS, **_SUITE_DEFAULTS[suite]}
    values = dict(defaults)
    if file_path:
        import configparser

        # no interpolation: a value is its text, '%' included
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(file_path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {file_path!r}: {exc}") from None
        if not read:
            raise ConfigError(f"config file {file_path!r} not readable")
        if parser.has_section(suite):
            for key, raw in parser.items(suite):
                if key not in values:
                    raise ConfigError(f"unknown config key {key!r} for {suite}")
                values[key] = raw
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in values:
            raise ConfigError(f"flag --{key} does not apply to suite {suite}")
        values[key] = val
    # flag and file values arrive as strings: each takes its default's type
    for key, default in defaults.items():
        try:
            values[key] = type(default)(values[key])
        except ValueError:
            raise ConfigError(f"{key} must be of type "
                              f"{type(default).__name__}, not "
                              f"{values[key]!r}") from None
    if values["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    # refuse an --out that cannot be written before the suite runs
    out = Path(values["out"])
    if "\0" in values["out"]:
        raise ConfigError(f"out {values['out']!r} holds a NUL character")
    try:
        if values["out"] and out.is_dir():
            raise ConfigError(f"out {str(out)!r} is a directory")
        if values["out"] and not out.parent.is_dir():
            raise ConfigError(f"out {str(out)!r}: no directory "
                              f"{str(out.parent)!r}")
    except OSError as exc:  # e.g. a name too long to look up
        raise ConfigError(f"out {str(out)!r}: {exc.strerror}") from None
    if not 100 <= values.get("replicates", 100) <= COUNT_LIMIT:
        raise ConfigError("replicates must lie in 100..2**53")
    if values.get("size", 1) < 1:
        raise ConfigError("size must be positive")
    if not 0 <= values.get("seed", 0) < _SEED_LIMIT:
        raise ConfigError("seed must lie in 0..2**64 - 1")
    for key in sorted(_FINITE_KEYS & values.keys()):
        if not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be a finite number")
    if not 1 <= values.get("threads", 1) <= THREAD_LIMIT:
        raise ConfigError(f"threads must lie in 1..{THREAD_LIMIT}")
    config = ExperimentConfig(suite=suite, values=values)
    config.inputs = _validate_suite_inputs(config)
    return config


def _validate_suite_inputs(config: ExperimentConfig):
    values = config.values
    try:
        if "sizes" in values:
            sizes = [int(tok) for tok in str(values["sizes"]).split(",") if tok]
            if not sizes:
                raise ValueError("empty size grid")
            if max(sizes) > COUNT_LIMIT:
                raise ValueError("bound_table sizes stop at 2**53")
            values["sizes"] = sizes
        if "replicates" in values:
            n = (WignerLayout(values["size"]).coordinate_count
                 if config.suite == "wigner" else values["size"])
            if n > COUNT_LIMIT:
                raise ValueError(f"a {config.suite} vector of size "
                                 f"{values['size']} has {n} coordinates; "
                                 f"at most 2**53 are supported")
        if config.suite in ("sk_free_energy", "sk_ground_state"):
            check_enumerable(values["size"])
        if config.suite in ("wigner", "lambda_audit"):
            # the suites that evaluate the transform call LAPACK: bind it
            # here, at set-up, and no other suite binds it at all
            try:
                lapack()
            except ImportError as exc:
                raise ConfigError(str(exc)) from None
        if config.suite == "lambda_audit":
            # no bound function: probe the derivative bounds, which fall as
            # N grows, so order 1 covers every size
            derivative_bounds(1, values["z_im"])
            return None
        inputs = _bound_inputs(values)
        table = config.suite == "bound_table"
        for n in values["sizes"] if table else (values["size"],):
            for suite in _BOUNDS if table else (config.suite,):
                _check_bound(suite, inputs, n)
        return inputs
    except (ValueError, LindebergError) as exc:
        raise ConfigError(str(exc)) from None


class RunResult(NamedTuple):
    """What a suite's run returns: its output table, whether every check
    passed, and its reports (empty for the table suites)."""

    columns: tuple
    rows: list
    ok: bool
    reports: list


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(suite: str, columns, rows) -> str:
    import json

    payload = {
        "suite": suite,
        "rows": [dict(zip(columns, [_json_cell(v) for v in row]))
                 for row in rows],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _json_cell(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        # JSON has no inf or nan: write the CSV's text for them
        return float(v) if math.isfinite(v) else _fmt_cell(v)
    return v


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _report_table(config, a):
    """A Monte Carlo suite's run: its ``_EXPERIMENTS`` call on the config
    and the inputs its check built, as (columns, rows, ok, reports).

    Each gap report gives one row: the suite's labels (its declared keys
    less ``_RUN_KEYS``), then ``GapReport.CSV_COLUMNS``, then the report's
    diagnostics (its other fields; a complex one as ``_re``, ``_im``).
    """
    report = _EXPERIMENTS[config.suite](config, a)
    labels = [key for key in _SUITE_DEFAULTS[config.suite]
              if key not in _RUN_KEYS]
    fields = ({"report": report} if isinstance(report, GapReport)
              else vars(report))
    gaps, names, cells = [], [], []
    for name, value in fields.items():
        if isinstance(value, GapReport):
            gaps.append(value)
        elif isinstance(value, complex):
            names += [name + "_re", name + "_im"]
            cells += [value.real, value.imag]
        else:
            names.append(name)
            cells.append(value)
    head = [config.values[key] for key in labels]
    rows = [(*head, *gap.csv_row(), *cells) for gap in gaps]
    return ((*labels, *GapReport.CSV_COLUMNS, *names), rows, report.passed,
            [report])


def _audit_points(seed: int, label: str, n: int, count: int = 5):
    gen = RandomStream(seed, f"lambda-audit/{label}").replicate(0)
    return [gen.standard_normal(n) for _ in range(count)]


def _run_lambda_audit(config, _):
    """Analytic vs empirical influence for every registered family.

    Every family is audited at N = size clamped to 2..8: the empirical sups
    loop over coordinates and points in Python.
    """
    columns = ("family", "size", "r", "analytic", "empirical", "ok", "seed")
    seed = config.seed
    N = max(2, min(config.size, 8))
    rows = []

    def add(name, size, analytic2, analytic3, empirical2, empirical3):
        tol = 1.0 + 1e-9
        rows.append((name, size, 2, analytic2, empirical2,
                     empirical2 <= analytic2 * tol, seed))
        rows.append((name, size, 3, analytic3, empirical3,
                     empirical3 <= analytic3 * tol, seed))

    fam = walk_family(N)
    est = estimate_family_lambda(fam, _audit_points(seed, "walk", N))
    add("walk", N, fam.lambda2, fam.lambda3, est.lambda2, est.lambda3)

    layout = CouplingLayout(N)
    params = SKParams(beta=1.0, h=0.0)
    fam = sk_family(layout, params)
    pts = _audit_points(seed, "sk", layout.coordinate_count)
    est = estimate_family_lambda(fam, pts)
    add("sk_family", N, fam.lambda2, fam.lambda3, est.lambda2, est.lambda3)

    fe_bounds = free_energy_lambda(params, N)
    est = estimate_lambda(free_energy_function(layout, params), pts[:3])
    add("sk_free_energy", N, fe_bounds[0], fe_bounds[1],
        est.lambda2, est.lambda3)

    wl = WignerLayout(N)
    z = complex(config.z_re, config.z_im)
    bounds = derivative_bounds(N, z.imag)
    est = estimate_lambda(stieltjes_function(wl, z),
                          _audit_points(seed, "wigner", wl.coordinate_count))
    add("wigner_stieltjes", N, bounds.lambda2, bounds.lambda3,
        est.lambda2, est.lambda3)
    return columns, rows, all(row[5] for row in rows), []


def _bound_inputs(values) -> SimpleNamespace:
    """What a config hands ``_BOUNDS`` and its run, parsed once; a suite
    that declares no beta or h sits at beta = 1, h = 0 (so bound_table's
    sk_free_energy row sits at h = 0)."""
    return SimpleNamespace(spec_x=parse_spec(values["dist_x"]),
                           spec_y=parse_spec(values["dist_y"]),
                           g=test_function(values["g"]),
                           z=complex(values.get("z_re", 0.0),
                                     values.get("z_im", 0.0)),
                           epsilon=values.get("epsilon"),
                           params=SKParams(beta=values.get("beta", 1.0),
                                           h=values.get("h", 0.0)))


# the ground-state experiment is defined at beta = 1, h = 0, whatever beta
# bound_table sets for the free energy
_GROUND_STATE = SKParams()


# suite -> its experiment, called with the config and the inputs its check
# built
_EXPERIMENTS = {
    "clt": lambda c, a: clt_experiment(
        a.spec_x, a.spec_y, c.size, a.g, c.replicates, c.seed,
        threads=c.threads),
    "wigner": lambda c, a: semicircle_experiment(
        a.spec_x, a.spec_y, c.size, a.z, a.g, c.replicates, c.seed,
        epsilon=a.epsilon, threads=c.threads),
    "sk_free_energy": lambda c, a: sk_experiment(
        "free_energy", a.spec_x, a.spec_y, a.params, c.size, c.replicates,
        a.g, c.seed, threads=c.threads),
    "sk_ground_state": lambda c, a: sk_experiment(
        "ground_state", a.spec_x, a.spec_y, _GROUND_STATE, c.size,
        c.replicates, a.g, c.seed, threads=c.threads),
    "erdos_kac": lambda c, a: erdos_kac_experiment(
        a.spec_x, a.spec_y, c.size, a.g, c.replicates, c.seed,
        threads=c.threads),
}

# suite -> its terms function at size n, which builds the ``BoundTerms``
# record its run evaluates; bound_table writes every suite's row, in this
# order
_BOUNDS = {
    "clt": lambda a, n: clt_swap_terms(a.spec_x, a.spec_y, n),
    "erdos_kac": lambda a, n: erdos_kac_terms(a.spec_x, a.spec_y, n),
    "sk_free_energy": lambda a, n: sk_terms(
        "free_energy", a.spec_x, a.spec_y, a.params, n),
    "sk_ground_state": lambda a, n: sk_terms(
        "ground_state", a.spec_x, a.spec_y, _GROUND_STATE, n),
    "wigner": lambda a, n: semicircle_swap_terms(a.spec_x, a.spec_y, n, a.z,
                                                 a.epsilon),
}


def _check_bound(suite: str, a, n: int) -> None:
    """Raise where ``_BOUNDS[suite]`` raises at size n, calling no name
    perfbench traces, so checking a config leaves all of a process's bound
    arithmetic inside ``run``: erdos_kac's terms function reads
    ``walk_family``, so its check is ``erdos_kac_domain``."""
    if suite == "erdos_kac":
        erdos_kac_domain(a.spec_x, a.spec_y, n)
    else:
        _BOUNDS[suite](a, n)


def _run_bound_table(config, a):
    """Every suite's bound and the influence it read, over a size grid;
    pure arithmetic."""
    rows = []
    for n in config.sizes:
        for suite, terms_of in _BOUNDS.items():
            terms = terms_of(a, n)
            rows.append((suite, n, evaluate_bound(terms, a.g), terms.lambda2,
                         terms.lambda3))
    return (("setup", "size", "bound", "lambda2", "lambda3"), rows, True, [])


# a runner takes the config and the inputs its check built
_RUNNERS = {**dict.fromkeys(_EXPERIMENTS, _report_table),
            "lambda_audit": _run_lambda_audit,
            "bound_table": _run_bound_table}


def run(config: ExperimentConfig) -> RunResult:
    """Execute a suite, write its output file, return its result."""
    result = RunResult(*_RUNNERS[config.suite](config, config.inputs))
    columns, rows = result.columns, result.rows
    if config.out:
        text = (render_csv(columns, rows) if config.format == "csv"
                else render_json(config.suite, columns, rows))
        Path(config.out).write_text(text, encoding="utf-8")
    return result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindeberg-lab",
        description="swap-bound experiment suites with reproducible streams",
    )
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--config", default=None, help="config file path")
    keys = dict.fromkeys(_COMMON_DEFAULTS)
    for defaults in _SUITE_DEFAULTS.values():
        keys.update(dict.fromkeys(defaults))
    for key in keys:
        suites = ("every suite" if key in _COMMON_DEFAULTS else "suites: "
                  + ", ".join(suite for suite, defaults
                              in _SUITE_DEFAULTS.items() if key in defaults))
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=suites)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("suite", "config")}
    try:
        config = build_config(args.suite, args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        result = run(config)
    except Exception as exc:  # runtime fault contract
        # the type names faults whose message is empty, e.g. MemoryError
        detail = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"runtime fault: {detail}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    print(f"lindeberg-lab {__version__} suite={config.suite} "
          f"rows={len(result.rows)} ok={str(result.ok).lower()} "
          f"wall={wall:.3f}s")
    for row in result.rows:
        print("  " + " ".join(_fmt_cell(v) for v in row))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
