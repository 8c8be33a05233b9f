"""Config resolution, output schemas, determinism, and exit-code contract."""

import functools
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lindeberg_lab
from lindeberg_lab import cli, core, sk, smoothmax, wigner
from lindeberg_lab.cli import ConfigError, build_config, main, run
from lindeberg_lab.core import GapReport, LindebergError, swap_bound, \
    third_moment_bound
from lindeberg_lab.core import c_constants
from lindeberg_lab.core import test_function as named_g
from lindeberg_lab.distributions import parse_spec, third_abs_moment
from lindeberg_lab.sk import CouplingLayout, SKParams, free_energy_lambda, \
    sk_family
from lindeberg_lab.smoothmax import k_constant
from lindeberg_lab.walks import erdos_kac_terms
from lindeberg_lab.wigner import SemicircleReport


ROOT = Path(__file__).resolve().parent.parent


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigResolution:
    def test_defaults(self):
        cfg = build_config("clt", None, {})
        assert cfg.size == 400
        assert cfg.dist_x == "rademacher"
        assert cfg.values["format"] == "csv"

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            build_config("percolation", None, {})

    def test_file_then_flag_precedence(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("[clt]\nsize = 64\nreplicates = 256\nseed = 9\n")
        cfg = build_config("clt", str(conf), {})
        assert (cfg.size, cfg.replicates, cfg.seed) == (64, 256, 9)
        cfg = build_config("clt", str(conf), {"size": 128})
        assert (cfg.size, cfg.replicates) == (128, 256)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            build_config("clt", "/nonexistent/exp.conf", {})

    def test_unknown_key_in_file(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("[clt]\nwidth = 3\n")
        with pytest.raises(ConfigError):
            build_config("clt", str(conf), {})

    def test_replicate_floor(self):
        with pytest.raises(ConfigError):
            build_config("clt", None, {"replicates": 10})

    def test_bad_distribution(self):
        with pytest.raises(ConfigError):
            build_config("clt", None, {"dist_x": "cauchy"})

    def test_bad_test_function(self):
        with pytest.raises(ConfigError):
            build_config("clt", None, {"g": "heaviside"})

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            build_config("clt", None, {"format": "xml"})

    def test_flag_scoping(self):
        with pytest.raises(ConfigError):
            build_config("clt", None, {"beta": 2.0})

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            build_config("bound_table", None, {"sizes": ""})

    # a non-default value for every key a suite can declare
    SETTINGS = {"out": "r.json", "format": "json", "dist_x": "cexp",
                "dist_y": "uniform", "g": "sin", "replicates": "200",
                "seed": "3", "threads": "2", "size": "7", "z_re": "0.5",
                "z_im": "1.5", "epsilon": "0.3", "beta": "0.7", "h": "0.3",
                "sizes": "8,9"}

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_flag_and_file_give_the_same_values(self, tmp_path, suite):
        keys = {**cli._COMMON_DEFAULTS, **cli._SUITE_DEFAULTS[suite]}
        settings = {key: self.SETTINGS[key] for key in keys}
        argv = [suite]
        for key, text in settings.items():
            argv += ["--" + key.replace("_", "-"), text]
        args = cli._build_parser().parse_args(argv)
        flags = build_config(suite, None, {
            k: v for k, v in vars(args).items() if k not in ("suite",
                                                             "config")})
        conf = tmp_path / "exp.conf"
        conf.write_text(f"[{suite}]\n" + "".join(
            f"{key} = {text}\n" for key, text in settings.items()))
        from_file = build_config(suite, str(conf), {})
        assert flags.values == from_file.values
        for key, default in keys.items():
            if key != "sizes":
                assert type(flags.values[key]) is type(default), key
                assert flags.values[key] == type(default)(settings[key])

    def test_value_of_the_wrong_type(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("[clt]\nsize = abc\n")
        for file_path, over in ((str(conf), {}), (None, {"size": "abc"}),
                                (None, {"beta": "x"}),
                                (None, {"replicates": "1e3"})):
            suite = "sk_free_energy" if "beta" in over else "clt"
            with pytest.raises(ConfigError):
                build_config(suite, file_path, over)

    def test_every_flag_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        keys = set(cli._COMMON_DEFAULTS).union(*cli._SUITE_DEFAULTS.values())
        for key in keys:
            assert "--" + key.replace("_", "-") + " " in text, key

    def test_readme_flag_table_matches_the_suites(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## CLI", 1)[1].split("\n## ")[0]
        table = {}
        for line in section.splitlines():
            cells = line.split("|")
            if len(cells) == 4 and "`" in cells[1]:
                flags = set(re.findall(r"--[a-z-]+", cells[2]))
                for suite in re.findall(r"`(\w+)`", cells[1]):
                    table[suite] = flags
        assert table == {
            suite: {"--" + key.replace("_", "-") for key in defaults}
            for suite, defaults in cli._SUITE_DEFAULTS.items()}

    def test_numeric_domain_checks(self):
        for suite, over in (("wigner", {"epsilon": -1.0}),
                            ("wigner", {"z_im": 0.0}),
                            ("wigner", {"size": 0}),
                            ("sk_free_energy", {"beta": 0.0}),
                            ("sk_free_energy", {"size": 1}),
                            ("sk_ground_state", {"size": 25})):
            with pytest.raises(ConfigError):
                build_config(suite, None, over)


def small_clt(tmp_path, name, **over):
    out = tmp_path / name
    overrides = {"size": 32, "replicates": 200, "seed": 11,
                 "out": str(out)}
    overrides.update(over)
    result = run(build_config("clt", None, overrides))
    return result, out


class TestDeterminism:
    def test_csv_byte_identical(self, tmp_path):
        _, out1 = small_clt(tmp_path, "a.csv")
        _, out2 = small_clt(tmp_path, "b.csv")
        assert digest(out1) == digest(out2)

    def test_json_byte_identical(self, tmp_path):
        _, out1 = small_clt(tmp_path, "a.json", format="json")
        _, out2 = small_clt(tmp_path, "b.json", format="json")
        assert digest(out1) == digest(out2)

    def test_seed_changes_output(self, tmp_path):
        _, out1 = small_clt(tmp_path, "a.csv")
        _, out2 = small_clt(tmp_path, "b.csv", seed=12)
        assert digest(out1) != digest(out2)

    def test_bound_table_byte_identical(self, tmp_path):
        outs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            run(build_config("bound_table", None,
                             {"sizes": "8,12", "out": str(out)}))
            outs.append(out)
        assert digest(outs[0]) == digest(outs[1])

    def test_threads_do_not_change_output(self, tmp_path):
        _, out1 = small_clt(tmp_path, "a.csv", threads=1)
        _, out2 = small_clt(tmp_path, "b.csv", threads=4)
        assert digest(out1) == digest(out2)
        # a rerun and a second thread leave the bytes unchanged; erdos_kac
        # also checks that each worker draws into buffers of its own
        for suite, over in (("wigner", {"size": 20, "replicates": 100}),
                            ("erdos_kac", {"size": 64, "replicates": 400,
                                           "dist_x": "pareto:4"})):
            digests = []
            for k, threads in enumerate((1, 2, 1)):
                out = tmp_path / f"{suite}{k}.csv"
                run(build_config(suite, None,
                                 {**over, "seed": 11, "threads": threads,
                                  "out": str(out)}))
                digests.append(digest(out))
            assert len(set(digests)) == 1, suite


class TestOutputs:
    def test_csv_header_and_17_digit_floats(self, tmp_path):
        result, out = small_clt(tmp_path, "r.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(("dist_x", "dist_y", "g", "size",
                                     *GapReport.CSV_COLUMNS))
        gap_field = lines[1].split(",")[result.columns.index("mc_gap")]
        assert float(gap_field) == result.reports[0].mc_gap
        # 17 significant digits survive a round trip
        assert f"{float(gap_field):.17g}" == gap_field

    def test_json_payload(self, tmp_path):
        result, out = small_clt(tmp_path, "r.json", format="json")
        payload = json.loads(out.read_text())
        assert payload["suite"] == "clt"
        row = payload["rows"][0]
        assert row["passed"] is True
        assert row["seed"] == 11

    def test_suite_csv_schemas(self, tmp_path):
        # a Monte Carlo row: the suite's keys less the run keys, then the
        # gap columns, then the report's diagnostics
        run_keys = {"out", "format", "replicates", "seed", "threads"}
        diagnostics = {
            "clt": (),
            "wigner": ("mean_m_re", "mean_m_im", "m_reference_re",
                       "m_reference_im"),
            "sk_free_energy": (),
            "sk_ground_state": (),
            "erdos_kac": ("ks_distance",),
        }
        cases = {
            "clt": {"size": 8, "replicates": 100, "seed": 3},
            "wigner": {"size": 8, "replicates": 100, "seed": 3},
            "sk_free_energy": {"size": 5, "replicates": 100, "seed": 3},
            "sk_ground_state": {"size": 5, "replicates": 100, "seed": 3},
            "erdos_kac": {"size": 32, "replicates": 100, "seed": 3},
        }
        headers = {
            suite: ",".join((*(key for key in cli._SUITE_DEFAULTS[suite]
                               if key not in run_keys),
                             *GapReport.CSV_COLUMNS, *diagnostics[suite]))
            for suite in cases}
        cases.update({"lambda_audit": {"size": 5, "seed": 3},
                      "bound_table": {"sizes": "8"}})
        headers.update({
            "lambda_audit": "family,size,r,analytic,empirical,ok,seed",
            "bound_table": "setup,size,bound,lambda2,lambda3"})
        assert headers["sk_free_energy"] == (
            "dist_x,dist_y,g,size,beta,h,experiment_id,n,replicates,mc_gap,"
            "std_error,bound,passed,seed")
        for suite, over in cases.items():
            out = tmp_path / f"{suite}.csv"
            over["out"] = str(out)
            result = run(build_config(suite, None, over))
            assert out.read_text().splitlines()[0] == headers[suite], suite
            assert result.ok, suite

    def test_lambda_audit_clamps_every_family(self):
        start = time.perf_counter()
        result = run(build_config("lambda_audit", None, {"size": 20000}))
        assert time.perf_counter() - start < 2.0
        assert {row[1] for row in result.rows} == {8}
        assert result.ok

    def test_lambda_audit_free_energy_row_is_analytic(self, monkeypatch):
        # one energy grid per free-energy audit point, for its Gibbs state;
        # finite differences took 15 per coordinate and point
        calls = []
        blocks = sk._energy_blocks

        def counting(*args):
            calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(sk, "_energy_blocks", counting)
        result = run(build_config("lambda_audit", None, {"size": 8}))
        assert result.ok
        assert len(calls) == 3

    def test_lambda_audit_all_rows_ok(self, tmp_path):
        result = run(build_config("lambda_audit", None, {"size": 6}))
        assert all(row[5] for row in result.rows)
        families = {row[0] for row in result.rows}
        assert families == {"walk", "sk_family", "sk_free_energy",
                            "wigner_stieltjes"}


class TestBoundTable:
    def test_single_point_matches_direct_calls(self):
        cfg = build_config("bound_table", None, {"sizes": "12"})
        result = run(cfg)
        table = {row[0]: row for row in result.rows}
        g = named_g(cfg.g)
        gx = third_abs_moment(parse_spec(cfg.dist_x))
        gy = third_abs_moment(parse_spec(cfg.dist_y))
        c1, c2 = c_constants(g)
        n = 12
        assert table["clt"][2] == pytest.approx(
            swap_bound(c1, c2, 1 / n, n**-1.5, 0.0, n * (gx + gy)),
            rel=1e-14)
        assert table["erdos_kac"][2] == pytest.approx(
            core.evaluate_bound(erdos_kac_terms(parse_spec(cfg.dist_x),
                                                parse_spec(cfg.dist_y), n),
                                g), rel=1e-14)

    def test_sk_rows_reproduce_influence_bounds(self):
        result = run(build_config("bound_table", None, {"sizes": "12"}))
        row = next(r for r in result.rows if r[0] == "sk_free_energy")
        l2, l3 = free_energy_lambda(SKParams(beta=1.0), 12)
        assert row[3] == pytest.approx(l2, rel=1e-14)
        assert row[4] == pytest.approx(l3, rel=1e-14)

    def test_rows_print_the_lambda_their_bound_read(self, monkeypatch):
        # record the influence each bound's arithmetic receives, where
        # core.evaluate_bound looks it up: the record of
        # optimized_max_bound, the lambdas of swap_bound and the lambda3 of
        # third_moment_bound; a row must print those very floats
        read = []

        def spy(module, name, influence):
            original = getattr(module, name)

            def wrapped(*args):
                read.append(influence(*args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapped)

        spy(smoothmax, "optimized_max_bound",
            lambda g, terms: (terms.lambda2, terms.lambda3))
        spy(core, "swap_bound", lambda c1, c2, l2, l3, *sums: (l2, l3))
        spy(core, "third_moment_bound", lambda c2, gamma, n, l3: (None, l3))
        sizes = ",".join(map(str, range(2, 41)))
        result = run(build_config("bound_table", None, {"sizes": sizes}))
        assert len(read) == len(result.rows) == 5 * 39
        for row, (lam2, lam3) in zip(result.rows, read):
            assert row[4] == lam3, row[:2]
            assert lam2 is None or row[3] == lam2, row[:2]

    def test_large_size_is_arithmetic_only(self):
        # no row may enumerate pairs or members, which at n = 4000 costs
        # seconds and a gigabyte
        start = time.perf_counter()
        cfg = build_config("bound_table", None, {"sizes": "4000"})
        result = run(cfg)
        assert time.perf_counter() - start < 1.0
        table = {row[0]: row for row in result.rows}
        g = named_g(cfg.g)
        gamma = max(third_abs_moment(parse_spec(cfg.dist_x)),
                    third_abs_moment(parse_spec(cfg.dist_y)))
        _, c2 = c_constants(g)
        n, pairs = 4000, 4000 * 3999 // 2
        l2f, l3f = free_energy_lambda(SKParams(beta=1.0), n)
        assert table["sk_free_energy"][2:] == (
            third_moment_bound(c2, gamma, pairs, l3f), l2f, l3f)
        fam = sk_family(CouplingLayout(n), SKParams(beta=1.0))
        gnl = gamma * pairs * fam.lambda3
        assert table["sk_ground_state"][2] == pytest.approx(
            k_constant(g) * (gnl ** (1 / 3) * fam.log_size ** (2 / 3) + gnl),
            rel=1e-14)
        assert table["sk_ground_state"][3:] == (fam.lambda2, fam.lambda3)
        assert table["erdos_kac"][2] == pytest.approx(
            core.evaluate_bound(erdos_kac_terms(parse_spec(cfg.dist_x),
                                                parse_spec(cfg.dist_y), n),
                                g), rel=1e-14)

    def test_largest_size_is_arithmetic_only(self):
        # 2^53 is the largest size whose n and n - 1 are distinct floats
        start = time.perf_counter()
        result = run(build_config("bound_table", None,
                                    {"sizes": str(1 << 53)}))
        assert time.perf_counter() - start < 1.0
        assert [row[1] for row in result.rows] == [1 << 53] * 5

    def test_erdos_kac_rows_decrease(self):
        result = run(build_config("bound_table", None,
                                    {"sizes": "8,16,32,64"}))
        vals = [r[2] for r in result.rows if r[0] == "erdos_kac"]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestOneBoundPerSuite:
    LAWS = {"dist_x": "cexp", "dist_y": "gaussian", "g": "tanh"}

    @pytest.mark.parametrize("suite, over", [
        ("clt", {}),
        ("erdos_kac", {}),
        ("wigner", {"z_re": 0.3, "z_im": 1.5, "epsilon": 0.4}),
        ("sk_free_energy", {"beta": 1.0}),
        ("sk_free_energy", {"beta": 0.7}),
        ("sk_ground_state", {}),
    ])
    def test_run_bound_is_its_bound_table_row(self, suite, over,
                                              monkeypatch):
        # the free-energy run once computed 13 beta^3 N^-2.5 itself, which
        # differs from free_energy_lambda in the last bit at N = 12; the
        # row is (bound, lambda2, lambda3) of the one record the run
        # evaluates
        evaluated = []
        evaluate = core.evaluate_bound

        def recording(terms, g):
            evaluated.append((terms, evaluate(terms, g)))
            return evaluated[-1][1]

        for name, module in list(sys.modules.items()):
            if name.startswith("lindeberg_lab") and \
                    vars(module).get("evaluate_bound") is evaluate:
                monkeypatch.setattr(module, "evaluate_bound", recording)
        result = run(build_config(suite, None,
                                    {**self.LAWS, **over, "size": 12,
                                     "replicates": 100}))
        [(terms, bound)] = evaluated
        table = run(build_config("bound_table", None,
                                 {**self.LAWS, **over, "sizes": "12"}))
        [row] = [row for row in table.rows if row[0] == suite]
        assert result.rows[0][result.columns.index("bound")].hex() == \
            bound.hex()
        assert [v.hex() for v in row[2:]] == \
            [v.hex() for v in (bound, terms.lambda2, terms.lambda3)]


class TestBoundRowsAsValidator:
    """A config is checked by ``cli._check_bound``, the domain of the
    record of ``cli._BOUNDS`` that its run evaluates: over the
    whole input space the check must refuse exactly what the row (the
    record's bound and influence) refuses, and every row must answer a
    bound or a domain error, never nan or a stray exception."""

    LAWS = ["rademacher", "gaussian", "uniform", "cexp", "pareto:4",
            "pareto:2.5", "pareto:3.5"]
    TEST_FUNCTIONS = ["sin", "cos", "tanh", "identity", "clipped_square"]
    SIZES = [1, 2, 100, 1 << 53]
    # the keys each row reads beyond the laws and g
    GRIDS = {
        "wigner": [{"z_re": 0.0, "z_im": v, "epsilon": eps}
                   for eps in (1e-300, 0.2, 1e300, math.inf)
                   for v in (1e-3, 2.0, 1e300)],
        "sk_free_energy": [{"beta": beta, "h": h}
                           for beta in (1e-300, 1.0, 1e100)
                           for h in (0.0, 1e-300, 1e300)],
    }

    @staticmethod
    def _outcome(call, inputs, n):
        try:
            return call(inputs, n), None
        except (ValueError, LindebergError) as exc:
            return None, type(exc)

    @staticmethod
    def _row(terms_of):
        def row(inputs, n):
            terms = terms_of(inputs, n)
            return (core.evaluate_bound(terms, inputs.g), terms.lambda2,
                    terms.lambda3)

        return row

    def test_check_refuses_what_the_row_refuses(self):
        answered = refused = 0
        for suite, terms_of in cli._BOUNDS.items():
            check = functools.partial(cli._check_bound, suite)
            row = self._row(terms_of)
            for x, y, g, params in itertools.product(
                    self.LAWS, self.LAWS, self.TEST_FUNCTIONS,
                    self.GRIDS.get(suite, [{}])):
                inputs = cli._bound_inputs(
                    {"dist_x": x, "dist_y": y, "g": g, **params})
                for n in self.SIZES:
                    point = (suite, x, y, g, params, n)
                    _, check_error = self._outcome(check, inputs, n)
                    values, row_error = self._outcome(row, inputs, n)
                    assert check_error is row_error, point
                    if row_error:
                        refused += 1
                        continue
                    answered += 1
                    for v in values:
                        assert isinstance(v, float) and v >= 0.0, \
                            (point, values)
        assert answered and refused

    def test_config_check_does_no_bound_arithmetic(self, monkeypatch):
        # every layer-boundary call of a process happens inside run: a
        # config check that reached the bound arithmetic would hand the
        # benchmark's tracer spans that no run span holds
        from lindeberg_lab import core, smoothmax, walks

        def refuse(*args, **kwargs):
            raise AssertionError("bound arithmetic at config time")

        arithmetic = {id(f) for f in (
            core.c_constants, core.swap_bound, core.third_moment_bound,
            smoothmax.optimized_max_bound, walks.walk_family)}
        for name, module in list(sys.modules.items()):
            if name.startswith("lindeberg_lab"):
                for attr, value in list(vars(module).items()):
                    if id(value) in arithmetic:
                        monkeypatch.setattr(module, attr, refuse)
        for suite in cli.SUITES:
            build_config(suite, None, {})
        with pytest.raises(AssertionError):
            run(build_config("bound_table", None, {}))


class RecordingValues(dict):
    """Config values that record every declared key a check or run reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


class TestRunnerContract:
    @pytest.mark.parametrize("suite, over", [
        ("clt", {"size": 16, "replicates": 100}),
        ("wigner", {"size": 6, "replicates": 100}),
        ("sk_free_energy", {"size": 5, "replicates": 100}),
        ("sk_ground_state", {"size": 5, "replicates": 100}),
        ("erdos_kac", {"size": 16, "replicates": 100}),
        ("lambda_audit", {"size": 3}),
        ("bound_table", {"sizes": "8"}),
    ])
    def test_suite_reads_every_key_it_declares(self, tmp_path, suite, over,
                                               monkeypatch):
        # a declared key that neither the check nor the run reads is a flag
        # that does nothing; the run reads the inputs the check built
        validate = cli._validate_suite_inputs

        def recording(config):
            config.values = RecordingValues(config.values)
            return validate(config)

        monkeypatch.setattr(cli, "_validate_suite_inputs", recording)
        config = build_config(suite, None,
                              {**over, "out": str(tmp_path / "r.csv")})
        run(config)
        assert config.values.read == set(config.values)

    @pytest.mark.parametrize("suite", ["clt", "wigner", "sk_free_energy",
                                       "sk_ground_state", "erdos_kac",
                                       "bound_table"])
    def test_run_uses_the_inputs_its_check_built(self, suite, monkeypatch):
        # a run parses no config string again: it runs the laws, g, z and
        # SK parameters that the config check validated
        over = ({"sizes": "8"} if suite == "bound_table"
                else {"size": 5, "replicates": 100})
        config = build_config(suite, None, over)

        def refuse(*args, **kwargs):
            raise AssertionError("config parsed again at run time")

        for name in ("parse_spec", "test_function", "SKParams",
                     "_bound_inputs"):
            monkeypatch.setattr(cli, name, refuse)
        assert run(config).rows

    @staticmethod
    def _gap_reports(reports):
        # the walk of perfbench/child.py::gap_numbers: a report with an
        # mc_gap, else its GapReport fields in declaration order
        found = []
        for report in reports:
            if hasattr(report, "mc_gap"):
                found.append(report)
            else:
                found.extend(v for v in vars(report).values()
                             if hasattr(v, "mc_gap"))
        return found

    @pytest.mark.parametrize("suite, over", [
        ("clt", {"size": 16}),
        ("wigner", {"size": 6}),
        ("sk_free_energy", {"size": 5}),
        ("sk_ground_state", {"size": 5}),
        ("erdos_kac", {"size": 16}),
    ])
    def test_monte_carlo_suites(self, suite, over):
        result = run(build_config(suite, None,
                                    {**over, "replicates": 100, "seed": 6}))
        [report] = result.reports
        assert result.ok is report.passed
        gaps = self._gap_reports(result.reports)
        if suite == "wigner":
            assert gaps == [report.report_re, report.report_im]
            assert [r.experiment_id[-3:] for r in gaps] == ["/re", "/im"]
        else:
            assert gaps == [getattr(report, "report", report)]
        assert all(isinstance(r, GapReport) for r in gaps)
        # one row per gap report, each with its own gap columns
        first = result.columns.index("experiment_id")
        width = len(GapReport.CSV_COLUMNS)
        assert [row[first:first + width] for row in result.rows] == [
            r.csv_row() for r in gaps]
        assert result.columns[first:first + width] == GapReport.CSV_COLUMNS
        labels = {row[:first] for row in result.rows}
        assert len(labels) == 1

    @pytest.mark.parametrize("suite, over", [
        ("clt", {"size": 16, "dist_x": "uniform", "g": "tanh"}),
        ("wigner", {"size": 6, "z_re": 0.3, "z_im": 1.5, "epsilon": 0.4,
                    "dist_y": "pareto:4"}),
        ("sk_free_energy", {"size": 5, "beta": 0.7, "h": 0.3}),
        ("sk_ground_state", {"size": 5, "dist_x": "cexp"}),
        ("erdos_kac", {"size": 16, "g": "clipped_square"}),
    ])
    def test_a_row_reruns_standalone(self, tmp_path, suite, over):
        # a row's label cells plus its seed and replicates are the whole
        # config: the rerun writes the same bytes
        first = tmp_path / "first.csv"
        run(build_config(suite, None, {**over, "replicates": 100, "seed": 8,
                                       "threads": 2, "out": str(first)}))
        header, row = first.read_text().splitlines()[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        again = tmp_path / "again.csv"
        keys = set(cli._SUITE_DEFAULTS[suite]) - {"threads"}
        run(build_config(suite, None, {**{key: cells[key] for key in keys},
                                       "out": str(again)}))
        assert again.read_bytes() == first.read_bytes()

    def test_a_report_passes_when_every_gap_report_passes(self):
        ok, failing = (GapReport(experiment_id="stub", n=1, replicates=100,
                                 mean_gap=gap, std_error=0.0,
                                 theoretical_bound=0.1, seed=0)
                       for gap in (0.0, 1.0))
        assert SemicircleReport(ok, ok, 0j, 0j).passed is True
        assert SemicircleReport(ok, failing, 0j, 0j).passed is False
        assert SemicircleReport(failing, ok, 0j, 0j).passed is False

    @pytest.mark.parametrize("suite, over", [
        ("lambda_audit", {"size": 5}),
        ("bound_table", {"sizes": "8"}),
    ])
    def test_table_suites_have_no_reports(self, suite, over):
        result = run(build_config(suite, None, over))
        assert result.reports == []
        assert result.ok is True


class TestMainExitCodes:
    def test_success(self, capsys):
        code = main(["clt", "--size", "16", "--replicates", "120",
                     "--seed", "4"])
        assert code == 0
        assert "ok=true" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["clt", "--size", "16", "--replicates", "120", "--seed", "4"],
        ["bound_table", "--sizes", "8,12"],
    ], ids=lambda argv: argv[0])
    def test_stdout_summary(self, argv, tmp_path, capsys):
        # one summary line, then each output row, space-separated
        out = tmp_path / "r.csv"
        start = time.perf_counter()
        code = main([*argv, "--out", str(out)])
        elapsed = time.perf_counter() - start
        head, *lines = capsys.readouterr().out.splitlines()
        match = re.fullmatch(r"lindeberg-lab (\S+) suite=(\w+) rows=(\d+) "
                             r"ok=(true|false) wall=(\d+\.\d{3})s", head)
        assert match, head
        version, suite, rows, ok, wall = match.groups()
        assert (version, suite, ok, code) == (lindeberg_lab.__version__,
                                              argv[0], "true", 0)
        table = out.read_text().splitlines()[1:]
        assert int(rows) == len(table) == len(lines) > 0
        assert lines == ["  " + row.replace(",", " ") for row in table]
        assert 0.0 <= float(wall) <= elapsed + 0.0005

    def test_finite_truncation_level_past_the_pareto_overflow(self, tmp_path):
        # K = epsilon sqrt(N) = 1e308, where K times the pareto:2.5 scale
        # overflows: the body third moment at K, so the bound, is finite
        out = tmp_path / "r.csv"
        assert main(["wigner", "--size", "4", "--replicates", "100",
                     "--dist-x", "pareto:2.5", "--epsilon", "5e307",
                     "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        column = header.split(",").index("bound")
        bounds = [float(row.split(",")[column]) for row in rows]
        assert len(bounds) == 2 and all(map(math.isfinite, bounds))

    def test_invalid_config_exits_2(self, capsys):
        assert main(["clt", "--replicates", "5"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sk_free_energy", "--size", "30"],
        ["sk_free_energy", "--size", "25"],
        ["sk_free_energy", "--size", "1"],
        ["sk_ground_state", "--size", "25"],
        ["sk_ground_state", "--beta", "2"],
        ["sk_ground_state", "--h", "0.5"],
        ["clt", "--threads", "-3"],
        ["clt", "--threads", "0"],
        ["clt", "--threads", "257"],
        ["bound_table", "--sizes", "1"],
        ["bound_table", "--sizes", "0"],
        ["erdos_kac", "--size", "1"],
        ["lambda_audit", "--z-im", "0"],
        ["clt", "--dist-x", "pareto:2.5"],
        ["wigner", "--z-im", "1e-300"],
        ["clt", "--dist-x", "pareto:nan"],
        ["clt", "--dist-x", "pareto:inf"],
        ["wigner", "--z-re", "nan"],
        ["wigner", "--z-re", "inf"],
        ["wigner", "--z-im", "inf"],
        ["lambda_audit", "--z-re", "nan"],
        ["sk_free_energy", "--beta", "inf"],
        ["sk_free_energy", "--h", "nan"],
        ["sk_free_energy", "--h", "inf"],
        ["sk_free_energy", "--beta", "1e200"],
        ["bound_table", "--beta", "1e200"],
        ["clt", "--seed", "18446744073709551621"],
        ["lambda_audit", "--replicates", "500"],
        ["bound_table", "--seed", "3"],
        ["sk_ground_state", "--epsilon", "0.3"],
        ["sk_ground_state", "--h", "0"],
        ["wigner", "--epsilon", "inf", "--dist-x", "pareto:2.5"],
        ["bound_table", "--sizes", "9007199254740993"],
        ["bound_table", "--sizes", "1" + "0" * 400],
        ["sk_free_energy", "--h", "1e308", "--size", "4",
         "--replicates", "100"],
        ["sk_free_energy", "--beta", "5e102", "--h", "1e206"],
        ["clt", "--size", "1" + "0" * 20],
        ["clt", "--size", "9007199254740993"],
        ["erdos_kac", "--size", "9007199254740993"],
        ["wigner", "--size", "100000000000"],
        ["clt", "--replicates", "1" + "0" * 20],
        ["clt", "--replicates", "9007199254740993"],
        ["clt", "--size", "abc"],
        ["wigner", "--z-im", "2i"],
        ["clt", "--format", "xml"],
        # the log-sum-exp subtracts field energies up to 2 beta |h| N apart:
        # that span overflows here, though beta |h| N = 1.2e308 does not
        ["sk_free_energy", "--h", "1e307", "--size", "12"],
    ])
    def test_out_of_domain_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_exponent_values_in_the_equals_form(self, tmp_path,
                                                         capsys):
        # argparse reads a value such as -5e-1 after a space as a flag; the
        # --key=value form hands it over as a value
        out = tmp_path / "r.csv"
        assert main(["sk_free_energy", "--size", "4", "--replicates", "100",
                     "--h=-1e-1", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("h")]) == -0.1
        assert main(["bound_table", "--sizes", "8", "--z-re=-5e-1"]) == 0

    def test_removed_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sk_ground_state", "--A", "2"])
        assert exc.value.code == 2

    def test_infinite_truncation_with_finite_third_moment_runs(self, capsys):
        assert main(["wigner", "--epsilon", "inf", "--dist-x", "pareto:4",
                     "--size", "6", "--replicates", "100"]) == 0

    @pytest.mark.parametrize("argv", [
        # the field energies span 2 beta |h| N = 1.6e308, still finite
        ["sk_free_energy", "--h", "4e307", "--size", "2"],
        # z * z overflows, the semicircle transform must not
        ["wigner", "--z-re", "1e308", "--size", "4"],
        # a span of 1.68e308 at N = 12, where the row blocks of the
        # log-sum-exp hold energies of both signs
        ["sk_free_energy", "--h", "7e306", "--size", "12"],
    ])
    def test_edge_of_the_domain_runs(self, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*argv, "--replicates", "100", "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("law", ["rademacher", "gaussian", "uniform",
                                     "pareto:4", "cexp"])
    def test_huge_truncation_level_runs(self, law, tmp_path, capsys):
        # K = eps sqrt(N) = 2e300: K * K and K ** 3 overflow, while every
        # exponential factor of the truncated moments is long 0
        out = tmp_path / "r.csv"
        assert main(["wigner", "--size", "4", "--replicates", "100",
                     "--epsilon", "1e300", "--dist-x", law,
                     "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        column = header.split(",").index("bound")
        assert all(math.isfinite(float(row.split(",")[column]))
                   for row in rows)

    def test_fault_without_message_names_its_type(self, capsys,
                                                  monkeypatch):
        def exhausted(cfg, inputs):
            raise MemoryError()

        monkeypatch.setitem(cli._RUNNERS, "clt", exhausted)
        assert main(["clt", "--size", "16", "--replicates", "120"]) == 3
        assert "runtime fault: MemoryError" in capsys.readouterr().err

    def test_runtime_fault_exits_3(self, capsys, monkeypatch):
        # a write that fails once the suite runs; an --out the check can
        # see is bad exits 2 (test_bad_out_exits_2_before_the_suite_runs)
        def full_disk(cfg, inputs):
            raise OSError(28, "No space left on device")

        monkeypatch.setitem(cli._RUNNERS, "clt", full_disk)
        code = main(["clt", "--size", "16", "--replicates", "120"])
        assert code == 3
        assert "runtime fault: OSError" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing-dir/x.csv", ".", "a" * 300,
                                     "a\0b.csv"],
                             ids=["no-dir", "a-dir", "name-too-long",
                                  "nul-byte"])
    def test_bad_out_exits_2_before_the_suite_runs(self, out, tmp_path,
                                                   capsys, monkeypatch):
        def never(cfg, inputs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli._RUNNERS, "clt", never)
        assert main(["clt", "--out", str(tmp_path / out)]) == 2
        assert "config error: out" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"[clt]\nsize = 8\nsize = 9\n",       # duplicate key
        b"size = 8\n",                         # no section header
        b"[clt]\nsize\n",                      # key without '='
        b"[clt]\nsize = 8\xff\n",              # not UTF-8
    ], ids=["duplicate", "no-section", "no-equals", "not-utf8"])
    def test_malformed_config_file_exits_2(self, text, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_bytes(text)
        assert main(["clt", "--config", str(conf)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_percent_in_config_value_is_literal(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"[clt]\nout = {tmp_path / 'run%1.csv'}\n"
                        "size = 8\nreplicates = 100\n")
        assert main(["clt", "--config", str(conf)]) == 0
        assert (tmp_path / "run%1.csv").read_text().startswith("dist_x,")

    def test_failed_bound_exits_1(self, capsys, monkeypatch):
        # no matched-moment configuration can legitimately fail its bound,
        # so fail the wiring with a stubbed report
        failing = GapReport(experiment_id="stub", n=1, replicates=100,
                            mean_gap=1.0, std_error=0.0,
                            theoretical_bound=0.1, seed=0)
        monkeypatch.setitem(
            cli._RUNNERS, "clt",
            lambda cfg, inputs: (GapReport.CSV_COLUMNS,
                                 [failing.csv_row()], failing.passed,
                                 [failing]))
        code = main(["clt", "--size", "16", "--replicates", "120"])
        assert code == 1
        assert "ok=false" in capsys.readouterr().out

    def test_overflowing_bound_fails_the_run(self, tmp_path, capsys):
        # beta^3 is finite, 13 beta^3 N^(-5/2) is not: an infinite bound
        # is no dominance
        out = tmp_path / "r.csv"
        code = main(["sk_free_energy", "--beta", "5e102", "--size", "4",
                     "--replicates", "100", "--out", str(out)])
        assert code == 1
        assert "ok=false" in capsys.readouterr().out
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["bound"], cells["passed"]) == ("inf", "false")

    def test_json_is_standard_when_a_bound_is_not_finite(self, tmp_path,
                                                          capsys):
        out = tmp_path / "r.json"
        code = main(["sk_free_energy", "--beta", "5e102", "--size", "4",
                     "--replicates", "100", "--format", "json",
                     "--out", str(out)])
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        [row] = json.loads(out.read_text(), parse_constant=reject)["rows"]
        assert (row["bound"], row["passed"]) == ("inf", False)
        assert row["beta"] == 5e102

    def test_config_file_flag(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("[clt]\nsize = 24\nreplicates = 150\n")
        assert main(["clt", "--config", str(conf)]) == 0
        assert " 24 " in capsys.readouterr().out


# Runs the CLI in a fresh interpreter with ``cli.run`` wrapped, as the
# benchmark wraps it, and lists the scipy modules and numpy.random loaded, and
# whether the LAPACK binding is resolved, at import, when the suite starts and
# when it returns.  Where /proc/self/maps exists it also lists the OpenBLAS
# files the process maps.
CLI_PROBE = (
    "import json, os, sys\n"
    "def loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'numpy.random'\n"
    "                  or m.partition('.')[0] == 'scipy')\n"
    "import lindeberg_lab\n"
    "from lindeberg_lab import cli, wigner\n"
    "def bound():\n"
    "    return wigner.lapack.cache_info().currsize > 0\n"
    "seen = {'imported': loaded()}\n"
    "lapack = {'imported': bound()}\n"
    "run = cli.run\n"
    "def probed(config):\n"
    "    seen['entered'] = loaded()\n"
    "    lapack['entered'] = bound()\n"
    "    result = run(config)\n"
    "    seen['returned'] = loaded()\n"
    "    lapack['returned'] = bound()\n"
    "    return result\n"
    "cli.run = probed\n"
    "seen['status'] = cli.main(sys.argv[1:])\n"
    "seen['lapack'] = lapack\n"
    "seen['stdlib'] = sorted(m for m in sys.modules if m in\n"
    "                        ('concurrent.futures', 'configparser',\n"
    "                         'logging'))\n"
    "if os.path.exists('/proc/self/maps'):\n"
    "    with open('/proc/self/maps') as maps:\n"
    "        seen['openblas'] = sorted({os.path.basename(line.split()[-1])\n"
    "                                   for line in maps\n"
    "                                   if 'openblas' in line.lower()})\n"
    "print(json.dumps(seen))\n"
)
STAGES = ("imported", "entered", "returned")
OFF_SPECTRUM = [
    ["clt", "--size", "8", "--replicates", "100"],
    ["erdos_kac", "--size", "8", "--replicates", "100"],
    ["sk_free_energy", "--size", "4", "--replicates", "100"],
    ["sk_ground_state", "--size", "4", "--replicates", "100"],
    # takes --z-im, but its rows are arithmetic: it evaluates no transform
    ["bound_table", "--sizes", "8"],
]
SPECTRAL = [
    ["wigner", "--size", "4", "--replicates", "100"],
    ["lambda_audit", "--size", "2"],
]


@functools.cache
def probe_cli(args: tuple[str, ...]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CLI_PROBE, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["status"] == 0
    return seen


class TestLapackLoading:
    """Only the suites that evaluate a Stieltjes transform bind LAPACK, at
    set-up, in the LAPACK numpy already holds: they load no scipy module and
    map no second OpenBLAS."""

    @pytest.mark.parametrize("args", OFF_SPECTRUM, ids=lambda args: args[0])
    def test_suites_off_the_spectrum_never_load_lapack(self, args):
        seen = probe_cli(tuple(args))
        assert [seen["lapack"][stage] for stage in STAGES] == \
            [False, False, False]

    @pytest.mark.parametrize("args", SPECTRAL, ids=lambda args: args[0])
    def test_a_spectral_suite_loads_lapack_before_it_runs(self, args):
        seen = probe_cli(tuple(args))
        assert [seen["lapack"][stage] for stage in STAGES] == \
            [False, True, True]
        assert [[m for m in seen[stage] if m != "numpy.random"]
                for stage in STAGES] == [[], [], []]

    @pytest.mark.parametrize("args", SPECTRAL, ids=lambda args: args[0])
    def test_a_spectral_suite_maps_one_openblas(self, args):
        seen = probe_cli(tuple(args))
        if "openblas" not in seen:
            pytest.skip("no /proc/self/maps to read")
        assert len(seen["openblas"]) == 1, seen["openblas"]

    @pytest.mark.parametrize("args", SPECTRAL, ids=lambda args: args[0])
    def test_missing_lapack_is_a_config_error(self, args, monkeypatch,
                                              capsys):
        def refuse(config):
            raise AssertionError("the run must not start")

        monkeypatch.setattr(wigner, "_SPELLINGS", ("no_such_{}_",))
        monkeypatch.setattr(cli, "run", refuse)
        wigner.lapack.cache_clear()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: LAPACK dsytrd not found in "
                              "numpy's LAPACK as no_such_dsytrd_;")
        assert err.count("\n") == 1


class TestScipyLoading:
    """No suite off the spectrum loads any scipy module, and every suite
    finds numpy.random loaded when it starts: numpy 2 loads it on first
    use, which would otherwise fall inside the suite's run.  A one-thread
    run without a config file loads none of ``concurrent.futures``,
    ``configparser`` and ``logging``."""

    @pytest.mark.parametrize("args", OFF_SPECTRUM, ids=lambda args: args[0])
    def test_suites_off_the_spectrum_never_load_scipy(self, args):
        seen = probe_cli(tuple(args))
        assert [m for stage in STAGES for m in seen[stage]
                if m != "numpy.random"] == []

    @pytest.mark.parametrize("args", OFF_SPECTRUM + SPECTRAL,
                             ids=lambda args: args[0])
    def test_one_thread_without_a_config_file_loads_no_pool_or_parser(
            self, args):
        assert probe_cli(tuple(args))["stdlib"] == []

    @pytest.mark.parametrize("args", OFF_SPECTRUM + SPECTRAL,
                             ids=lambda args: args[0])
    def test_numpy_random_is_loaded_before_a_suite_runs(self, args):
        assert "numpy.random" in probe_cli(tuple(args))["entered"]
