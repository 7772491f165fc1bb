"""Driver behavior: config plumbing, exit codes, deterministic reports."""

import json
import re

import numpy as np
import pytest

from holoq.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, UsageError, _parse_lambdas, _parse_n, main
from holoq.grid import load_field
from holoq.reports import RunConfig


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

    @pytest.mark.parametrize("bad", ["", "x", "2", "4,2", "6..x"])
    def test_n_rejects(self, bad):
        with pytest.raises(UsageError):
            _parse_n(bad)

    def test_lambdas(self):
        assert _parse_lambdas("0, 1/3,-2") == ["0", "1/3", "-2"]

    def test_lambdas_reject(self):
        with pytest.raises(UsageError):
            _parse_lambdas("3/0")


class TestRunConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_round_trip_customized(self):
        cfg = RunConfig(suites=["numeric"], n=[4], grid=32, tol=1e-4,
                        lambdas=["2", "3"], einstein_j="1/2")
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"grids": [64]})

    def test_merge_skips_none(self):
        cfg = RunConfig().merged({"grid": 32, "tol": None})
        assert cfg.grid == 32 and cfg.tol is None


class TestExitCodes:
    def test_pass(self, tmp_path):
        out = str(tmp_path / "r")
        assert run(["verify", "sphere", "--n", "3", "--out", out,
                    "--format", "json"]) == EXIT_PASS

    def test_fail_still_writes_report(self, tmp_path):
        out = str(tmp_path / "r")
        code = run(["verify", "conformal", "--grid", "32", "--tol", "1e-18",
                    "--out", out, "--format", "json"])
        assert code == EXIT_FAIL
        body = json.loads((tmp_path / "r.json").read_text())
        assert any(not c["passed"] for c in body["checks"])

    def test_usage_bad_grid(self):
        assert run(["verify", "numeric", "--grid", "33"]) == EXIT_USAGE

    def test_usage_bad_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOLOQ_THREADS", "zero")
        assert run(["verify", "sphere", "--n", "3",
                    "--out", str(tmp_path / "r")]) == EXIT_USAGE

    def test_usage_bad_suite_argparse(self):
        with pytest.raises(SystemExit) as err:
            run(["verify", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("nmax", ["0", "-1", "9"])
    def test_usage_bad_nmax(self, nmax, tmp_path, capsys):
        assert run(["verify", "sphere", "--n", "3", "--Nmax", nmax,
                    "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "--Nmax must be an integer in 1..8" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_usage_bad_einstein_j(self):
        assert run(["verify", "sphere", "--n", "3",
                    "--einstein-j", "x"]) == EXIT_USAGE


class TestDeterminism:
    def test_json_reports_byte_identical(self, tmp_path, monkeypatch):
        out = str(tmp_path / "same")
        argv = ["verify", "numeric", "--n", "4", "--grid", "32",
                "--out", out, "--format", "json"]
        assert run(argv) == EXIT_PASS
        first = strip_timestamp((tmp_path / "same.json").read_text())
        monkeypatch.setenv("HOLOQ_THREADS", "1")
        assert run(argv) == EXIT_PASS
        second = strip_timestamp((tmp_path / "same.json").read_text())
        assert first == second


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

    def test_grid_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "phi.hqf")
        run(["field", "export", "--n", "4", "--grid", "32", "--out", path])
        assert run(["verify", "numeric", "--n", "4", "--grid", "64",
                    "--phi-file", path]) == EXIT_USAGE
