"""Driver behavior: config plumbing, exit codes, deterministic reports."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from holoq import cli
from holoq.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, UsageError, _parse_lambdas, _parse_n, main
from holoq.conformal import CurvatureBundle
from holoq.grid import TorusChart, load_field, save_field
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

    # The dimension bound and the grid floor of the numeric suite (its
    # refinement gate needs a half grid of at least 16).
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--n", "3", "--grid", "32"], "numeric suite needs n >= 4"),
        (["verify", "numeric", "--n", "3..5", "--grid", "32"], "numeric suite needs n >= 4"),
        (["verify", "--grid", "16"], "numeric suite needs --grid >= 32"),
        (["verify", "numeric", "--n", "4", "--grid", "30"], "numeric suite needs --grid >= 32"),
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

    @pytest.mark.parametrize("suite", ["sphere", "hypergeom"])
    def test_grid_16_without_numeric(self, suite, tmp_path):
        assert run(["verify", suite, "--n", "3", "--instances", "2", "--grid", "16",
                    "--out", str(tmp_path / "r"), "--format", "json"]) == EXIT_PASS

    def test_usage_bad_einstein_j(self):
        assert run(["verify", "sphere", "--n", "3",
                    "--einstein-j", "x"]) == EXIT_USAGE


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
         "2434adb67fcf869e02b4e306f218f440c96ebf5fb61f88f0c318d9fd4d3df993"),
        (["verify", "hypergeom", "--instances", "20", "--seed", "3"],
         "8da992287f0cbfaaf0227aed09307985c799cfa335f2aabe005ef7ae7d223705"),
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
        ("tol", {"suites": ["critical-n4"], "tol": "x"}),
        ("seed", {"suites": ["sphere"], "n": [3], "seed": "7"}),
        ("suites", {"suites": "sphere", "n": [3]}),
        ("lambdas", {"suites": ["numeric"], "n": [4], "grid": 16, "lambdas": ["1/0"]}),
    ], ids=["n-sphere", "seed-hypergeom", "tol-critical", "seed-sphere", "suites-string",
            "lambda-unparsable"])
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
        for check_id in ("curv-oracle-n4", "curv-refine-n4", "master3-n4-N2", "ex23-i-n4",
                         "master1-n4-N2"):
            assert not checks[check_id]["passed"], check_id
            assert checks[check_id]["details"]["reason"].startswith("non-finite"), check_id

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
        ("conformal", {"conformal-zero", "conformal-const", "conformal-covariance-q4"}),
    ])
    def test_suite_alone_keeps_its_checks(self, tmp_path, suite, expected):
        out = tmp_path / "r"
        assert run(["verify", suite, "--grid", "32", "--out", str(out),
                    "--format", "json"]) == EXIT_PASS
        assert set(_check_ids(tmp_path / "r.json")) == expected

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
