"""Driver behavior: config plumbing, exit codes, deterministic reports."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from holoq import cli, families, holographic
from holoq.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, _parse_n, main
from holoq.conformal import CurvatureBundle
from holoq.families import PoleError
from holoq.grid import TorusChart, load_field, save_field
from holoq.reports import RunConfig
from test_workers import _assert_no_children, _count_forks, _cpus, time_limit  # noqa: F401  (a fixture)


def run(argv):
    return main(argv)


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


class TestParsing:
    def test_n_single(self):
        assert _parse_n("4") == [4]

    def test_n_list(self):
        assert _parse_n("4,6") == [4, 6]

    def test_n_range(self):
        assert _parse_n("3..6") == [3, 4, 5, 6]

    # _parse_n rejects what does not parse, _load_config dimensions below 3
    @pytest.mark.parametrize("bad", ["", "x", "2", "4,2", "6..x"])
    def test_n_rejects(self, bad, tmp_path, capsys):
        assert run(["verify", "sphere", "--n", bad, "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "dimension" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))


class TestRunConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_round_trip_customized(self):
        cfg = RunConfig(suites=["numeric"], n=[4], grid=32, einstein_j="1/2")
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"grids": [64]})

    def test_merge_skips_none(self):
        cfg = RunConfig().merged({"grid": 32, "out": None})
        assert cfg.grid == 32 and cfg.out is None


class TestExitCodes:
    def test_pass(self, tmp_path):
        out = str(tmp_path / "r")
        assert run(["verify", "sphere", "--n", "3", "--out", out,
                    "--format", "json"]) == EXIT_PASS

    def test_fail_still_writes_report(self, tmp_path, monkeypatch):
        # Q4 off by 1/1000 fails crit-a; critical-n4 at 32^2 runs in this process
        original = holographic.holographic_q
        monkeypatch.setattr(holographic, "holographic_q",
                            lambda N, values: original(N, values) * 1.001)
        out = str(tmp_path / "r")
        code = run(["verify", "critical-n4", "--grid", "32", "--out", out, "--format", "json"])
        assert code == EXIT_FAIL
        body = json.loads((tmp_path / "r.json").read_text())
        assert any(not c["passed"] for c in body["checks"])

    def test_usage_bad_grid(self):
        assert run(["verify", "numeric", "--grid", "33"]) == EXIT_USAGE

    def test_usage_bad_suite_argparse(self):
        with pytest.raises(SystemExit) as err:
            run(["verify", "bogus"])
        assert err.value.code == 2

    # A stray option's value would fill the optional suite positional; the
    # message must still name the option, not an invalid suite choice.
    @pytest.mark.parametrize("argv", [["--bogus", "3"], ["--lambda", "0,1"]],
                             ids=["bogus", "lambda"])
    def test_usage_unknown_option_is_named(self, argv, monkeypatch, capsys):
        _forbid_suites(monkeypatch)
        with pytest.raises(SystemExit) as err:
            run(["verify", *argv])
        assert err.value.code == EXIT_USAGE
        stderr = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[0]}" in stderr
        assert "invalid choice" not in stderr

    @pytest.mark.parametrize("nmax", ["0", "-1", "9"])
    def test_usage_bad_nmax(self, nmax, tmp_path, capsys):
        assert run(["verify", "sphere", "--n", "3", "--Nmax", nmax,
                    "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "--Nmax must be an integer in 1..8" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # The dimension bound of the numeric suite, on the grids it has always
    # run and on the small ones it now runs too.
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--n", "3", "--grid", "32"], "numeric suite needs n >= 4"),
        (["verify", "numeric", "--n", "3..5", "--grid", "32"], "numeric suite needs n >= 4"),
        (["verify", "--n", "4,3", "--grid", "16"], "numeric suite needs n >= 4"),
        (["verify", "numeric", "--n", "3,4", "--grid", "30"], "numeric suite needs n >= 4"),
    ], ids=["all", "numeric", "grid16-all", "grid30-numeric"])
    def test_usage_numeric_dimension_before_any_suite(self, argv, message, tmp_path,
                                                      monkeypatch, capsys):
        ran = []
        monkeypatch.setattr("holoq.cli.sphere_suite", lambda *a, **k: ran.append("sphere"))
        monkeypatch.setattr("holoq.cli.numeric_suite", lambda *a, **k: ran.append("numeric"))
        assert run(argv + ["--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert ran == []
        assert not list(tmp_path.glob("r.*"))

    def test_usage_config_dimension_before_any_suite(self, tmp_path, monkeypatch, capsys):
        # the n >= 3 rule serves a config file as it serves --n
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": [2], "suites": ["hypergeom", "sphere"]}))
        ran = []
        monkeypatch.setattr("holoq.cli.hypergeom_suite", lambda *a, **k: ran.append("hypergeom"))
        monkeypatch.setattr("holoq.cli.sphere_suite", lambda *a, **k: ran.append("sphere"))
        assert run(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "dimensions must all be >= 3" in capsys.readouterr().err
        assert ran == []
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("preset", ["flat", "trig1", "trig2", "trig3"])
    def test_torus_suites_pass_on_grid_16(self, preset, tmp_path):
        # the run-grid checks test the algebra, which holds at rounding level
        # on any grid; the geometry checks run on the 32-point spectral chart
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["numeric", "critical-n4", "conformal"]}))
        assert run(["verify", "--config", str(cfg), "--grid", "16", "--preset", preset,
                    "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS
        ids = _check_ids(tmp_path / "r.json")
        assert "gjms-flat-n6-N3" in ids and "conformal-covariance-q4" in ids

    @pytest.mark.parametrize("suite", ["sphere", "hypergeom"])
    def test_grid_16_without_numeric(self, suite, tmp_path):
        assert run(["verify", suite, "--n", "3", "--instances", "2", "--grid", "16",
                    "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS

    def test_usage_bad_einstein_j(self):
        assert run(["verify", "sphere", "--n", "3",
                    "--einstein-j", "x"]) == EXIT_USAGE

    # Exit 2 means a bad configuration found before any suite ran, so every
    # suite raises here. argv(tmp_path) gives the arguments after "verify".
    @pytest.mark.parametrize("argv", [
        lambda tmp: ["--preset", "foo"],
        lambda tmp: ["--seed", "-1"],
        lambda tmp: ["--grid", "33"],
        lambda tmp: ["--n", "2"],
        lambda tmp: ["--Nmax", "0"],
        lambda tmp: ["--config", _written(tmp / "cfg.json", json.dumps({"grid": "64"}))],
        lambda tmp: ["--grid", "64", "--phi-file", _exported(tmp / "phi.hqf", 4, 32)],
    ], ids=["preset", "seed", "grid", "n", "Nmax", "config-field", "phi-file-grid"])
    def test_usage_found_before_any_suite(self, argv, tmp_path, monkeypatch):
        _forbid_suites(monkeypatch)
        assert run(["verify", *argv(tmp_path), "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert not list(tmp_path.glob("r.*"))

    # No value of tol is read any more, a bad one included: the flag is an
    # unrecognized option and the key an unknown config key.
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_usage_bad_tol(self, tol, source, tmp_path, monkeypatch, capsys):
        _forbid_suites(monkeypatch)
        out = str(tmp_path / "r")
        if source == "flag":
            with pytest.raises(SystemExit) as err:
                run(["verify", "numeric", "--n", "4", "--grid", "16", "--tol", tol, "--out", out])
            assert err.value.code == EXIT_USAGE
            assert "unrecognized arguments: --tol" in capsys.readouterr().err
        else:
            cfg = _written(tmp_path / "cfg.json", json.dumps({"tol": float(tol)}))
            assert run(["verify", "numeric", "--n", "4", "--grid", "16", "--config", cfg,
                        "--out", out]) == EXIT_USAGE
            assert "unknown config keys: ['tol']" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    def test_tol_is_unknown(self, tmp_path, monkeypatch, capsys):
        # each check class has its stated bound: no option or key sets a
        # run-level tolerance, and a stored run that names one is refused
        _forbid_suites(monkeypatch)
        out = str(tmp_path / "r")
        with pytest.raises(SystemExit) as err:
            run(["verify", "--tol", "1e-6", "--out", out])
        assert err.value.code == EXIT_USAGE
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        cfg = _written(tmp_path / "cfg.json", json.dumps({"tol": 1e-6}))
        assert run(["verify", "numeric", "--config", cfg, "--out", out]) == EXIT_USAGE
        assert "unknown config keys: ['tol']" in capsys.readouterr().err
        stored = _written(tmp_path / "run.json", json.dumps(
            {"meta": {"timestamp": ""}, "config": dict(RunConfig().to_dict(), tol=None),
             "checks": []}))
        assert run(["report", "--from", stored, "--out", out + ".md"]) == EXIT_USAGE
        assert "unknown config keys: ['tol']" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    # A repeated dimension would report each of its checks twice, and the
    # stored run would then not re-render.
    @pytest.mark.parametrize("argv", [
        lambda tmp: ["numeric", "--n", "4,4", "--grid", "16"],
        lambda tmp: ["sphere", "--n", "3,3"],
        lambda tmp: ["--config", _written(tmp / "cfg.json", json.dumps({"n": [6, 4, 6]}))],
    ], ids=["numeric-flag", "sphere-flag", "config"])
    def test_usage_repeated_dimension(self, argv, tmp_path, monkeypatch, capsys):
        _forbid_suites(monkeypatch)
        assert run(["verify", *argv(tmp_path), "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "each dimension may be listed once" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_usage_missing_out_directory(self, source, tmp_path, monkeypatch, capsys):
        _forbid_suites(monkeypatch)
        out = str(tmp_path / "missing" / "r")
        if source == "flag":
            argv = ["--out", out]
        else:
            argv = ["--config", _written(tmp_path / "cfg.json", json.dumps({"out": out}))]
        assert run(["verify", "hypergeom", "--instances", "2", *argv]) == EXIT_USAGE
        assert "is not a writable directory" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_lambdas_are_unknown(self, tmp_path, monkeypatch, capsys):
        # the spectral parameter is decided coefficientwise: no option or
        # key selects sample points, and neither is read as one
        _forbid_suites(monkeypatch)
        out = str(tmp_path / "r")
        with pytest.raises(SystemExit) as err:
            run(["verify", "numeric", "--lambda", "1", "--out", out])
        assert err.value.code == EXIT_USAGE
        cfg = _written(tmp_path / "cfg.json", json.dumps({"lambdas": ["1"]}))
        assert run(["verify", "numeric", "--config", cfg, "--out", out]) == EXIT_USAGE
        assert "unknown config keys: ['lambdas']" in capsys.readouterr().err
        stored = _written(tmp_path / "run.json", json.dumps(
            {"meta": {"timestamp": ""}, "config": {"lambdas": ["1"]}, "checks": []}))
        assert run(["report", "--from", stored, "--out", out + ".md"]) == EXIT_USAGE
        assert "unknown config keys: ['lambdas']" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    def test_negative_seed_without_a_torus_suite(self, tmp_path):
        # only the numpy generators of the torus suites need a seed >= 0
        assert run(["verify", "hypergeom", "--seed", "-1", "--instances", "2",
                    "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS


def _forbid_suites(monkeypatch):
    """Make every suite function imported into cli raise if it is called."""
    def suite(*args, **kwargs):
        raise AssertionError("a suite ran")
    for name in ("sphere_suite", "hypergeom_suite", "numeric_suite", "critical_n4_suite",
                 "conformal_suite", "einstein_checks"):
        monkeypatch.setattr(cli, name, suite)


def _written(path, text):
    path.write_text(text)
    return str(path)


def _exported(path, n, grid):
    ch = TorusChart(n, (grid, grid))
    save_field(str(path), ch, np.zeros(ch.shape))
    return str(path)


class TestPoles:
    """A genuine pole where a run-grid check evaluates a family fails that
    check, with the pole in its details, and the run still writes its report."""

    @pytest.mark.parametrize("suite,owner,name,failed", [
        ("numeric", holographic, "torus_q", {"q4-dual-n4"}),
        ("critical-n4", holographic, "torus_q", {"crit-a"}),
        ("critical-n4", families.LambdaOperator, "derivative_at", {"crit-b", "crit-c"}),
        ("critical-n4", holographic, "pair_derivative", {"crit-e"}),
        ("conformal", families.LambdaOperator, "apply_at", {"conformal-const"}),
    ], ids=["q4-dual", "crit-a", "crit-b-c", "crit-e", "conformal"])
    def test_pole_fails_its_checks(self, suite, owner, name, failed, tmp_path, monkeypatch):
        original = getattr(owner, name)

        def with_pole(*args):
            # the spectral chart's checks are not on the run's grid
            bundle = next((a for a in args if isinstance(a, CurvatureBundle)), None)
            if bundle is None or bundle.chart.derivative == "stencil":
                raise PoleError(Fraction(0), 1.0)
            return original(*args)

        monkeypatch.setattr(owner, name, with_pole)
        assert run(["verify", suite, "--n", "4", "--grid", "32", "--out", str(tmp_path / "r"),
                    "--format", "json"]) == EXIT_FAIL
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        assert {c["id"] for c in checks if not c["passed"]} == failed
        assert all("non-removable pole at 0" in c["details"]["pole"]
                   for c in checks if c["id"] in failed)


class TestDeterminism:
    def test_json_reports_byte_identical(self, tmp_path):
        out = str(tmp_path / "same")
        argv = ["verify", "numeric", "--n", "4", "--grid", "32",
                "--out", out, "--format", "json"]
        assert run(argv) == EXIT_PASS
        first = strip_timestamp((tmp_path / "same.json").read_text())
        assert run(argv) == EXIT_PASS
        second = strip_timestamp((tmp_path / "same.json").read_text())
        assert first == second

    # sha256 of the canonical JSON with meta.timestamp blanked. Both configs
    # are exact-only, so the digests depend on neither numpy nor libm; any
    # change to a check id, equation, parameter, detail or verdict moves them.
    @pytest.mark.parametrize("argv,digest", [
        (["verify", "sphere", "--n", "3..8", "--Nmax", "4"],
         "c538ea0efc84fdbcf92e0183476a4b94f7f8948a7197a10b14229ba95e8fce97"),
        (["verify", "hypergeom", "--instances", "20", "--seed", "3"],
         "96f358faeee9bc44e19434e58a85a59e4b223c315a7a50e3f2597ab20965cf71"),
    ], ids=["sphere", "hypergeom"])
    def test_canonical_json_digest(self, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--out", "report", "--format", "json"]) == EXIT_PASS
        raw = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""',
                     (tmp_path / "report.json").read_bytes(), count=1)
        assert hashlib.sha256(raw).hexdigest() == digest


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"suites": ["sphere"], "n": [3], "out": str(tmp_path / "a")}))
        assert run(["verify", "--config", str(cfg_path),
                    "--out", str(tmp_path / "b"), "--format", "json"]) == EXIT_PASS
        assert (tmp_path / "b.json").exists()
        body = json.loads((tmp_path / "b.json").read_text())
        assert body["config"]["suites"] == ["sphere"]
        assert body["config"]["n"] == [3]

    def test_nmax_of_wrong_type(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["sphere"], "n": [3], "nmax": "3"}))
        assert run(["verify", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == EXIT_USAGE

    @pytest.mark.parametrize("field", [{"grid": "64"}, {"instances": "5"}])
    def test_grid_or_instances_of_wrong_type(self, tmp_path, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict({"suites": ["sphere"], "n": [3]}, **field)))
        out = tmp_path / "r"
        assert run(["verify", "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field,config", [
        ("n", {"suites": ["sphere"], "n": "4"}),
        ("seed", {"suites": ["hypergeom"], "seed": "7"}),
        ("seed", {"suites": ["sphere"], "n": [3], "seed": "7"}),
        ("suites", {"suites": "sphere", "n": [3]}),
    ], ids=["n-sphere", "seed-hypergeom", "seed-sphere", "suites-string"])
    def test_field_of_wrong_type(self, tmp_path, capsys, field, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["verify", "--config", str(cfg_path),
                    "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert f"config field {field!r}" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("body", [
        {"meta": {"timestamp": ""}, "config": {"grids": [64]}, "checks": []},
        {"meta": {"timestamp": ""}, "config": None, "checks": [{"passed": True}]},
        [{"id": "sphere-radial[n=3]", "passed": True}],
        {"meta": {"timestamp": ""}, "config": None,
         "checks": [{"id": "sphere-radial[n=3]", "passed": True, "tol": "x"}]},
        {"meta": {"timestamp": ""}, "config": None, "checks": [],
         "quantities": [{"id": "phi-input", "values": 3}]},
        {"meta": {"timestamp": ""}, "config": None, "checks": [], "quantities": "phi-input"},
    ], ids=["unknown-config-key", "check-without-id", "top-level-list", "check-tol-string",
            "quantities-values-number", "quantities-string"])
    def test_malformed_run_file(self, tmp_path, body):
        source = tmp_path / "run.json"
        source.write_text(json.dumps(body))
        out = tmp_path / "again.md"
        assert run(["report", "--from", str(source), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_bad_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run(["verify", "--config", str(cfg_path)]) == EXIT_USAGE


class TestReportCommand:
    def test_empty_skeleton(self, capsys):
        assert run(["report", "--format", "json"]) == EXIT_PASS
        body = json.loads(capsys.readouterr().out)
        assert body["checks"] == [] and body["config"] is None

    def test_rerender_markdown(self, tmp_path):
        out = str(tmp_path / "r")
        run(["verify", "sphere", "--n", "3", "--out", out, "--format", "json"])
        md_path = tmp_path / "again.md"
        assert run(["report", "--from", out + ".json", "--format", "md",
                    "--out", str(md_path)]) == EXIT_PASS
        text = md_path.read_text()
        assert "| sphere-master3[n=3,N=1] |" in text
        assert "checks passed" in text

    def test_missing_source(self):
        assert run(["report", "--from", "/nonexistent.json"]) == EXIT_USAGE

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.md"
        assert run(["report", "--out", str(out)]) == EXIT_USAGE
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_repeated_id_rejected(self, tmp_path, capsys):
        source = tmp_path / "run.json"
        source.write_text(json.dumps({"meta": {"timestamp": ""}, "config": None,
                                      "checks": [{"id": "crit-a", "passed": True}] * 2}))
        assert run(["report", "--from", str(source)]) == EXIT_USAGE
        assert "'crit-a'" in capsys.readouterr().err


class TestFieldCommand:
    def test_export_info_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "phi.hqf")
        assert run(["field", "export", "--n", "6", "--grid", "32",
                    "--preset", "trig2", "--seed", "3", "--out", path]) == EXIT_PASS
        assert run(["field", "info", path]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "n=6 grid=32x32" in out
        chart, phi = load_field(path)
        assert chart.n == 6 and phi.shape == (32, 32)

    @pytest.mark.parametrize("bad", [["--preset", "foo"], ["--grid", "4"], ["--n", "2"],
                                     ["--seed", "-1"]], ids=lambda bad: bad[0])
    def test_export_rejects_bad_input(self, bad, tmp_path, capsys):
        path = tmp_path / "phi.hqf"
        assert run(["field", "export", *bad, "--out", str(path)]) == EXIT_USAGE
        assert "cannot export preset" in capsys.readouterr().err
        assert not path.exists()

    def test_export_out_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "phi.hqf"
        assert run(["field", "export", "--out", str(path)]) == EXIT_USAGE
        assert f"cannot write field file {path}" in capsys.readouterr().err

    def test_info_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope")
        assert run(["field", "info", str(path)]) == EXIT_USAGE

    def test_verify_with_custom_phi(self, tmp_path):
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "32", "--out", path])
        out = str(tmp_path / "r")
        assert run(["verify", "numeric", "--n", "4", "--grid", "32",
                    "--phi-file", path, "--out", out,
                    "--format", "json"]) == EXIT_PASS
        body = json.loads((tmp_path / "r.json").read_text())
        notes = {q["id"]: q for q in body["quantities"]}
        assert "warning" in notes["phi-input"]["values"]

    def test_rerender_keeps_quantities(self, tmp_path):
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "32", "--out", path])
        out = str(tmp_path / "r")
        assert run(["verify", "numeric", "--n", "4", "--grid", "32", "--phi-file", path,
                    "--out", out, "--format", "json"]) == EXIT_PASS
        again = tmp_path / "again.json"
        assert run(["report", "--from", out + ".json", "--format", "json",
                    "--out", str(again)]) == EXIT_PASS
        assert again.read_bytes() == (tmp_path / "r.json").read_bytes()

    @pytest.mark.parametrize("argv,dims", [
        (["verify", "numeric", "--n", "4,6"], "[4, 6]"),
        (["verify", "numeric", "--n", "6"], "[6]"),
        (["verify", "--n", "6"], "[4, 6]"),
    ], ids=["numeric-4,6", "numeric-6", "all-6"])
    def test_dimension_mismatch_rejected(self, argv, dims, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "32", "--out", path])
        ran = []
        monkeypatch.setattr("holoq.cli.sphere_suite", lambda *a, **k: ran.append("sphere"))
        monkeypatch.setattr("holoq.cli.numeric_suite", lambda *a, **k: ran.append("numeric"))
        assert run(argv + ["--grid", "32", "--phi-file", path,
                           "--out", str(tmp_path / "r")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n=4" in err and f"n={dims}" in err
        assert ran == []
        assert not list(tmp_path.glob("r.*"))

    def test_overflowing_phi_fails_checks(self, tmp_path):
        # e^{4 phi} overflows: the checks that read the resulting inf or NaN
        # fields fail with the reason, and the run exits 1, not 0
        ch = TorusChart(4, (32, 32))
        x, y = ch.mesh()
        path = tmp_path / "phi.hqf"
        save_field(path, ch, 200.0 * np.sin(x) * np.cos(y))
        with np.errstate(all="ignore"):
            code = run(["verify", "numeric", "--n", "4", "--grid", "32", "--phi-file", str(path),
                        "--out", str(tmp_path / "r"), "--format", "json"])
        assert code == EXIT_FAIL
        checks = {c["id"]: c for c in json.loads((tmp_path / "r.json").read_text())["checks"]}
        for check_id in ("gjms-flat-n4-N2", "q-flat-n4-N1", "master3-n4-N2", "ex23-i-n4",
                         "master1-n4-N2"):
            assert not checks[check_id]["passed"], check_id
            assert checks[check_id]["details"]["reason"].startswith("non-finite"), check_id

    def test_phi_subsampled_onto_spectral_chart(self, tmp_path):
        # a 64-point field is read on the spectral chart at stride 2: the
        # geometry checks equal those of the preset run
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "64", "--out", path])
        runs = {}
        for name, extra in (("file", ["--phi-file", path]), ("preset", [])):
            assert run(["verify", "critical-n4", "--grid", "64", "--out", str(tmp_path / name),
                        "--format", "json"] + extra) == EXIT_PASS
            body = json.loads((tmp_path / f"{name}.json").read_text())
            runs[name] = {c["id"]: c for c in body["checks"]}
        assert runs["file"]["conformal-covariance-q4"] == runs["preset"]["conformal-covariance-q4"]

    def test_phi_off_the_spectral_chart_skips_geometry(self, tmp_path):
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "48", "--out", path])
        assert run(["verify", "--n", "4", "--grid", "48", "--phi-file", path,
                    "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS
        body = json.loads((tmp_path / "r.json").read_text())
        ids = {c["id"] for c in body["checks"]}
        assert "q4-dual-n4" in ids and "conformal-const" in ids
        assert not {i for i in ids if "flat" in i or i == "conformal-covariance-q4"}
        skipped = body["quantities"][0]["values"]["skipped"]
        assert "grid 48 is not a multiple of the 32-point spectral chart" in skipped

    def test_grid_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "32", "--out", path])
        assert run(["verify", "numeric", "--n", "4", "--grid", "64",
                    "--phi-file", path]) == EXIT_USAGE


TORUS_SUITES = ("numeric", "critical-n4", "conformal")


def _check_ids(path):
    return [c["id"] for c in json.loads(path.read_text())["checks"]]


class TestSharedChecks:
    """A check that several torus suites share is run and reported once."""

    @pytest.mark.parametrize("suites", [
        list(combo) for r in (1, 2, 3) for combo in itertools.combinations(TORUS_SUITES, r)
    ] + [None], ids=lambda s: "+".join(s) if s else "all")
    def test_no_id_repeats(self, tmp_path, suites):
        argv = ["verify", "--grid", "32", "--out", str(tmp_path / "r"), "--format", "json"]
        if suites:
            # listed last-first: suites still run in their fixed order
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"suites": suites[::-1]}))
            argv += ["--config", str(cfg)]
        assert run(argv) == EXIT_PASS
        ids = _check_ids(tmp_path / "r.json")
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("suite,expected", [
        ("critical-n4", {"crit-a", "crit-b", "crit-c", "crit-d", "crit-e", "qres-den-n4-N2",
                         "qres-van-n4-N2", "vdeg-n4-N2", "vcrit-n4-N2", "master1-n4-N2",
                         "conformal-covariance-q4"}),
        ("conformal", {"conformal-const", "conformal-covariance-q4"}),
    ])
    def test_suite_alone_keeps_its_checks(self, tmp_path, suite, expected):
        out = tmp_path / "r"
        assert run(["verify", suite, "--grid", "32", "--out", str(out),
                    "--format", "json"]) == EXIT_PASS
        assert set(_check_ids(tmp_path / "r.json")) == expected

    @pytest.mark.parametrize("suites,n", [
        (list(combo), None) for r in (1, 2, 3) for combo in itertools.combinations(TORUS_SUITES, r)
        if {"critical-n4", "conformal"} & set(combo)
    ] + [(["numeric", "critical-n4"], "6"), (["numeric", "critical-n4", "conformal"], "6")],
        ids=lambda v: "+".join(v) if isinstance(v, list) else f"n{v or '-default'}")
    def test_ids_as_in_suite_order(self, tmp_path, suites, n):
        # A shared check's id is known from the selection: the ids are those of
        # the suites run alone, in SUITES order, each kept where it first appears.
        argv = ["--grid", "32", "--out", str(tmp_path / "r"), "--format", "json"]
        argv += ["--n", n] if n else []
        cfg = _written(tmp_path / "cfg.json", json.dumps({"suites": suites}))
        assert run(["verify", "--config", cfg, *argv]) == EXIT_PASS
        ids = _check_ids(tmp_path / "r.json")
        serial = []
        for suite in suites:
            assert run(["verify", suite, *argv]) == EXIT_PASS
            serial += [i for i in _check_ids(tmp_path / "r.json") if i not in serial]
        assert sorted(ids) == sorted(serial)

    def test_each_metric_built_once_per_suite(self, tmp_path, monkeypatch):
        built, current = [], [None]
        post_init = CurvatureBundle.__post_init__

        def spy(self):
            post_init(self)
            built.append((current[0], self.n, self.phi.shape,
                          hashlib.sha256(self.phi.tobytes()).hexdigest()))

        monkeypatch.setattr(CurvatureBundle, "__post_init__", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the spy sees one process
        for name in ("numeric_suite", "critical_n4_suite", "conformal_suite"):
            def tagged(*args, _suite=getattr(cli, name), _name=name, **kwargs):
                current[0] = _name
                return _suite(*args, **kwargs)
            monkeypatch.setattr(cli, name, tagged)
        assert run(["verify", "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS
        assert len(built) <= 10
        assert len(set(built)) == len(built)


def _assert_same_report_forking_once(tmp_path, monkeypatch, argv):
    """argv writes the same JSON report with 2 CPUs as with 1, forking once."""
    # JSON floats are written by repr, so equal text means equal residual bits
    forks = _count_forks(monkeypatch)
    texts = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        assert run([*argv, "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS
        _assert_no_children()
        texts.append(strip_timestamp((tmp_path / "r.json").read_text()))
    assert forks == [1]
    assert texts[0] == texts[1]


class TestConcurrentSuites:
    """The suites of one run share the usable CPUs through forked workers."""

    def test_same_report_as_one_cpu(self, tmp_path, monkeypatch, time_limit):
        _assert_same_report_forking_once(tmp_path, monkeypatch, ["verify"])

    @pytest.mark.parametrize("n", ["4,6", "4,5,6"])
    def test_numeric_dimensions_same_report_as_one_cpu(self, tmp_path, monkeypatch,
                                                        time_limit, n):
        # the smallest grid whose dimensions run concurrently
        grid = math.isqrt(cli.MIN_CONCURRENT_CELLS)
        _assert_same_report_forking_once(
            tmp_path, monkeypatch, ["verify", "numeric", "--n", n, "--grid", str(grid)])

    def test_einstein_checks_are_a_task_of_the_plan(self, tmp_path, monkeypatch, time_limit):
        # sphere runs here and the --einstein-j checks, the second task, in the child
        argv = ["verify", "sphere", "--n", "4,6", "--einstein-j", "7/3"]
        _assert_same_report_forking_once(tmp_path, monkeypatch, argv)
        ids = [i for i in _check_ids(tmp_path / "r.json") if i.startswith("einstein-")]
        assert len(ids) == 11

    def test_error_in_a_child_suite_reaches_the_caller(self, tmp_path, monkeypatch, time_limit):
        # sphere runs here and hypergeom, the second task, in the child
        def broken(**kwargs):
            raise ValueError("hypergeom failed")

        monkeypatch.setattr(cli, "hypergeom_suite", broken)
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        cfg = _written(tmp_path / "cfg.json", json.dumps({"suites": ["sphere", "hypergeom"]}))
        with pytest.raises(ValueError, match="hypergeom failed"):
            run(["verify", "--config", cfg, "--n", "3", "--out", str(tmp_path / "r")])
        assert forks == [1]
        _assert_no_children()

    def test_numeric_at_64_never_forks(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        _cpus(monkeypatch, 2)
        assert run(["verify", "numeric", "--grid", "64", "--out", str(tmp_path / "r"),
                    "--format", "json"]) == EXIT_PASS

    def test_numeric_dimensions_below_the_gate_never_fork(self, tmp_path, monkeypatch):
        # two torus tasks on 2 CPUs, but half the gate grid: they run in turn
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        _cpus(monkeypatch, 2)
        grid = math.isqrt(cli.MIN_CONCURRENT_CELLS) // 2
        assert run(["verify", "numeric", "--n", "4,6", "--grid", str(grid),
                    "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS


def test_tracer_installs():
    """The benchmark tracer finds every holoq function it wraps."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c",
                           "import tracer; tracer.install(tracer.Tracer())"],
                          cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _has_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _python(code, *args):
    """Run code in a fresh interpreter with holoq importable from src."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not _has_glibc(), reason="the heap policy applies on glibc only")
class TestHeapPolicy:
    def test_freed_fields_reused_without_faults(self):
        # a warm-up round grows the heap once; later rounds must reuse it
        code = """
            import resource
            import numpy as np
            from holoq import cli
            cli.main(["report"])
            def churn():
                fields = [np.ones((512, 512)) for _ in range(4)]
                del fields
            churn()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(50):
                churn()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        faults = int(_python(code).split()[-1])
        assert faults < 1000

    def test_report_independent_of_heap_policy(self, tmp_path):
        code = """
            import sys
            from holoq import cli
            if sys.argv[1] == "default":
                cli._keep_freed_memory = lambda: None
            sys.exit(cli.main(["verify", "numeric", "--n", "4", "--grid", "64",
                               "--format", "json", "--out", sys.argv[2]]))
        """
        reports = []
        for policy in ("kept", "default"):
            out = str(tmp_path / policy)
            _python(code, policy, out)
            report = json.loads((tmp_path / f"{policy}.json").read_text())
            report["meta"]["timestamp"] = ""
            report["config"]["out"] = ""
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]
