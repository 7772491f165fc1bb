"""holoq benchmark: cold `holoq verify` processes on fixed workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Every measurement is a fresh process that imports
holoq.cli and calls ``holoq.cli.main(argv)``, the console script's entry
point, so import, suite and report-writing costs are all included.

--trace 0 (timing): a few set-up probes (import holoq.cli, then exit), then
cold verify processes back to back until --seconds have passed. Reports the
medians of
  verify_s     spawn to exit of one verify process
  setup_s      spawn until holoq.cli is imported and ready to parse
               arguments (probes and verify processes)
  peak_rss_mb  peak resident memory of that one process (os.wait4), MiB
fail_frac, the failed share of verify processes, is printed with them and
carried by the `attempted` and `failed` fields of the result line.

--trace 1 (layers): pairs of one plain and one traced verify process (see
tracer.py) until --seconds have passed. Reports every per-layer metric, the
traced wall time and the tracing overhead (traced minus plain verify_s).

Every verify process is gated: exit code 0, a JSON report exists, every
check in it passed. Its check count and the sha256 of the report with
meta.timestamp blanked are recorded. Differing digests within one run (same
code, same seed) are flagged as nondeterminism, and in --trace 1 a traced
digest that differs from the plain one fails the tracer self-test; either
makes the run incorrect.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# name -> (holoq argument list, HOLOQ_THREADS or None for unset, why it is a
# workload). verify-serial caps the suite pool at one worker: with the default
# two workers, a pure-Python suite stalls whenever the host preempts the CPU
# holding the GIL, and its wall time moved by up to 37% between two sets of
# runs of the same code on a shared 2-CPU host, beyond the 0.25 bound.
WORKLOADS = {
    "torus-512": (
        ["verify", "numeric", "--n", "4,6", "--grid", "512"], None,
        "numeric torus suite on 512x512 grids: d1 stencils, curvature, field_poly "
        "and the oracle dominate; the memory-heavy workload; exact core negligible"),
    "verify-serial": (
        ["verify"], "1",
        "the run users make, all five suites at small sizes, one suite at a time: "
        "per-call overhead, import and report writing dominate"),
}

PROBES_PER_RUN = 3   # set-up probes before each timed verify process
RUN_LIMIT_S = 170.0  # a whole run, last processes included, must end by then
MAX_SECONDS = 100    # largest --seconds that leaves the last processes time to end

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a result about holoq)."""


def _env(threads):
    env = dict(os.environ)
    env.pop("HOLOQ_THREADS", None)
    if threads is not None:
        env["HOLOQ_THREADS"] = threads
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode: str, deadline: float, holoq_args=(), threads=None) -> dict:
    """Run child.py once and wait for it with os.wait4, which gives the
    resource use of that one child (RUSAGE_CHILDREN would keep the maximum
    over every earlier child). Times use perf_counter, which is
    CLOCK_MONOTONIC on Linux and so is shared with the child. A child still
    running at `deadline` is killed and the run stops with a BenchError: the
    run limit was hit, which says nothing about holoq's verdict."""
    for p in WORK.iterdir():
        if p.is_file():
            p.unlink()
    sidecar = WORK / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), mode]
    if mode != "probe":
        cmd += ["--", *holoq_args]
    limit = deadline - time.perf_counter()
    if limit <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached before a {mode} process")
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    with open(WORK / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=_env(threads), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(limit, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        finally:
            killer.cancel()
    if killed.is_set():
        raise BenchError(f"{mode} process killed at the run limit of {RUN_LIMIT_S:.0f} s "
                         f"after {t1 - t0:.1f} s")
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"mode": mode, "rc": proc.returncode, "wall_s": t1 - t0,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    try:
        info = json.loads(sidecar.read_text())
    except (OSError, ValueError):
        info = None
    if info is None:
        out["errors"].append("no sidecar written")
    else:
        out["setup_s"] = info["ready"] - t0
        out["numpy"] = info["numpy"]
        if Path(info["holoq"]).resolve() != (SRC / "holoq").resolve():
            raise BenchError(f"imported holoq from {info['holoq']}, not {SRC / 'holoq'}")
    if proc.returncode != 0:
        stderr = (WORK / "stderr.txt").read_text(errors="replace").strip().splitlines()
        out["errors"].append(f"exit code {proc.returncode}: {' | '.join(stderr[-3:])}")
    if mode != "probe":
        _gate_report(out)
    if mode == "traced" and info is not None:
        trace_path = Path(str(sidecar) + ".trace")
        if trace_path.is_file():
            trace = json.loads(trace_path.read_text())
            out["spans"] = len(trace["spans"])
            out["self_times"] = self_times(trace["spans"])
            out["layers"] = layer_metrics(trace, out["self_times"])
        else:
            out["errors"].append("no trace written")
    return out


def _gate_report(out: dict) -> None:
    """Correctness gate on the JSON report of one verify process."""
    path = WORK / "report.json"
    try:
        raw = path.read_bytes()
        body = json.loads(raw)
    except (OSError, ValueError) as exc:
        out["errors"].append(f"no JSON report: {exc}")
        return
    checks = body.get("checks") or []
    failed = [c.get("id") for c in checks if c.get("passed") is not True]
    out["checks"] = len(checks)
    out["digest"] = hashlib.sha256(_TIMESTAMP.sub(b'"timestamp": ""', raw, count=1)).hexdigest()
    if not checks:
        out["errors"].append("report holds no checks")
    if failed:
        out["errors"].append(f"{len(failed)} checks failed, first {failed[:3]}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _probe(deadline):
    p = spawn("probe", deadline)
    if p["errors"]:
        raise BenchError(f"set-up probe failed: {p['errors']}")
    return p


def _run_timing(holoq_args, threads, seconds, deadline):
    # Untimed warm-up: the first import in a fresh checkout compiles the
    # bytecode caches, a cost users pay once, not on every run.
    _probe(deadline)
    start = time.perf_counter()
    probes, runs = [], []
    while not runs or time.perf_counter() - start < seconds:
        # Probes between verify processes sample set-up across the whole run.
        probes += [_probe(deadline) for _ in range(PROBES_PER_RUN)]
        runs.append(spawn("plain", deadline, holoq_args, threads))
        _print_run(runs[-1])
    setups = [p["setup_s"] for p in probes] + [r["setup_s"] for r in runs if "setup_s" in r]
    ok = [r for r in runs if not r["errors"]]
    metrics = {}
    if ok:
        metrics["verify_s"] = (statistics.median(r["wall_s"] for r in ok), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in ok), "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    for name, values in (("verify_s", [r["wall_s"] for r in ok]), ("setup_s", setups),
                         ("peak_rss_mb", [r["peak_rss_mb"] for r in ok])):
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"{name:<12} median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    return runs, metrics, probes[0]["numpy"]


def _run_traced(holoq_args, threads, seconds, deadline):
    start = time.perf_counter()
    runs, pairs = [], []
    while not pairs or time.perf_counter() - start < seconds:
        plain = spawn("plain", deadline, holoq_args, threads)
        traced = spawn("traced", deadline, holoq_args, threads)
        for r in (plain, traced):
            _print_run(r)
        runs += [plain, traced]
        pairs.append((plain, traced))
    good = [(p, t) for p, t in pairs if not p["errors"] and not t["errors"]]
    selftest_ok = all(p["digest"] == t["digest"] for p, t in good)
    print(f"tracer self-test (traced digest == plain digest): {'pass' if selftest_ok else 'FAIL'}")
    metrics = {}
    if good:
        for name, unit in LAYER_METRICS:
            metrics[name] = (statistics.median(t["layers"][name] for _, t in good), unit)
        traced_s = statistics.median(t["wall_s"] for _, t in good)
        plain_s = statistics.median(p["wall_s"] for p, _ in good)
        metrics["trace.verify_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        print(f"tracing overhead: traced {traced_s:.4f} s - plain {plain_s:.4f} s "
              f"= {traced_s - plain_s:.4f} s")
        last = good[-1][1]
        stats = sorted(last["self_times"].items(), key=lambda kv: -kv[1][2])
        print(f"self time by span (last traced run, {last['spans']} spans):")
        for name, (calls, total, own) in stats:
            print(f"  {name:<40} calls {calls:>7}  total {total:9.4f} s  self {own:9.4f} s")
    return runs, metrics, selftest_ok, runs[0].get("numpy", "?")


def _print_run(r):
    status = "ok" if not r["errors"] else "FAILED " + "; ".join(r["errors"])
    print(f"  {r['mode']:<6} wall {r['wall_s']:.4f} s  setup {r.get('setup_s', float('nan')):.4f} s"
          f"  rss {r['peak_rss_mb']:.1f} MB  checks {r.get('checks', '-')}  "
          f"digest {r.get('digest', '-')[:16]}  {status}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="passed to holoq verify --seed (default 7)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="start new processes until this much time has passed "
                             f"(default 45, at most {MAX_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    if not (SRC / "holoq" / "cli.py").is_file():
        raise BenchError(f"no holoq sources at {SRC / 'holoq'}; run from a holoq checkout")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    holoq_args = WORKLOADS[args.workload][0] + ["--out", "report", "--seed", str(args.seed)]
    threads = WORKLOADS[args.workload][1]
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(f"workload {args.workload}: HOLOQ_THREADS={threads or '(unset)'} "
          f"holoq {' '.join(holoq_args)}")

    if args.trace:
        runs, metrics, selftest, numpy_version = _run_traced(holoq_args, threads, args.seconds,
                                                                deadline)
    else:
        runs, metrics, numpy_version = _run_timing(holoq_args, threads, args.seconds, deadline)
        selftest = None
    failed = sum(1 for r in runs if r["errors"])
    digests = {r["digest"] for r in runs if "digest" in r and not r["errors"]}
    counts = {r["checks"] for r in runs if "checks" in r and not r["errors"]}
    deterministic = len(digests) <= 1
    if not deterministic:
        print(f"NONDETERMINISM: {len(digests)} different report digests for one code and seed")
    print(f"fail_frac {failed / len(runs):.4f} ratio ({failed}/{len(runs)} processes)")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    print("evidence " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": numpy_version, "nproc": os.cpu_count(),
        "checks": sorted(counts), "digest": sorted(digests), "deterministic": deterministic,
        "selftest": selftest}))
    correct = failed == 0 and deterministic and selftest is not False
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
