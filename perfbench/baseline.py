"""Run the benchmark on every workload and record the baseline.

    python3 perfbench/baseline.py

For each workload, runs ``run.py --trace 0`` once per seed in SEEDS and
``run.py --trace 1`` once on the first seed, each as its own process for
BENCHMARK.json's run_seconds, then prints every end-to-end metric per
workload (median, quartiles and the spread (q3 - q1) / median across seeds,
with fail_frac) and writes them to perfbench/baseline.json together with the
environment, each workload's argument list and reason, its check counts and
report digests per seed, and the per-layer metrics of the traced run.
README.md maps each layer metric to the end-to-end metric it should move.
Run from the root of a holoq checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402

SEEDS = list(range(7, 17))
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
OUT = HERE / "baseline.json"


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    evidence = json.loads(next(ln for ln in lines if ln.startswith("evidence "))[len("evidence "):])
    return json.loads(lines[-1]), evidence


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main():
    record = {"seconds": SECONDS, "seeds": SEEDS, "workloads": {}}
    for name in WORKLOADS:
        results = []
        for seed in SEEDS:
            results.append(bench(name, seed, SECONDS, 0))
            values = {m: round(v["value"], 4) for m, v in results[-1][0]["metrics"].items()}
            print(f"  {name} seed {seed}: {values}", flush=True)
        traced, traced_ev = bench(name, SEEDS[0], SECONDS, 1)
        first_ev = results[0][1]
        record["environment"] = {k: first_ev[k] for k in ("python", "numpy", "nproc")}
        attempted = sum(r["attempted"] for r, _ in results)
        failed = sum(r["failed"] for r, _ in results)
        e2e = {m: summary([r["metrics"][m]["value"] for r, _ in results])
               for m in results[0][0]["metrics"]}
        record["workloads"][name] = {
            "args": WORKLOADS[name][0],
            "holoq_threads": WORKLOADS[name][1],
            "why": WORKLOADS[name][2],
            "correct": all(r["correct"] for r, _ in results) and traced["correct"],
            "fail_frac": failed / attempted,
            "processes": attempted,
            "end_to_end": e2e,
            "checks": {str(ev["seed"]): ev["checks"] for _, ev in results},
            "report_sha256": {str(ev["seed"]): ev["digest"] for _, ev in results},
            "traced_seed": SEEDS[0],
            "tracer_selftest": traced_ev["selftest"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{name}: fail_frac {failed / attempted:.4f} ratio ({failed}/{attempted})  "
              f"tracer self-test {'pass' if traced_ev['selftest'] else 'FAIL'}", flush=True)
        for m, s in e2e.items():
            unit = results[0][0]["metrics"][m]["unit"]
            print(f"  {m:<12} median {s['median']:.4f} {unit}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.4f}", flush=True)
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
