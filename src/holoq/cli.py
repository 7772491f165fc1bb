"""Command-line driver for the verification suites.

Subcommands:
  verify [suite]   run one of sphere | hypergeom | numeric | critical-n4 |
                   conformal, or all of them, and write JSON / markdown
                   reports
  report           re-render a stored JSON run, or emit an empty skeleton
  field            export a preset conformal factor to a binary file, or
                   inspect such a file

Exit codes: 0 every check passed, 1 at least one check failed, 2 usage or
configuration error. A failing run still writes its reports.

Suites run in a thread pool; HOLOQ_THREADS caps the worker count. Report
assembly is single-threaded and sorted by check id, so reruns with the same
configuration and seed produce byte-identical JSON apart from the timestamp.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .grid import TorusChart, load_field, save_field
from .holographic import (
    conformal_suite,
    critical_n4_suite,
    einstein_checks,
    numeric_suite,
)
from .hypergeom import hypergeom_suite
from .presets import preset_phi
from .reports import (
    QuantitiesReport,
    RunConfig,
    all_passed,
    render_json,
    render_markdown,
)
from .sphere import MAX_RADIAL_ORDER, sphere_suite

SUITES = ("sphere", "hypergeom", "numeric", "critical-n4", "conformal")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_n(text: str):
    """Dimension list: '4', '4,6', or a range '3..12'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"cannot parse dimension list {text!r}")
    if not values or any(v < 3 for v in values):
        raise UsageError(f"dimensions must all be >= 3, got {text!r}")
    return values


def _parse_lambdas(text: str):
    """Comma-separated exact rationals, e.g. '0,1/3,5,-2,7/2'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("empty lambda list")
    for p in parts:
        try:
            Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse lambda value {p!r}")
    return parts


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("HOLOQ_THREADS")
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            raise UsageError(f"HOLOQ_THREADS must be an integer, got {cap!r}")
        if cap < 1:
            raise UsageError("HOLOQ_THREADS must be >= 1")
        return min(cap, max(1, n_tasks))
    return max(1, min(n_tasks, os.cpu_count() or 1))


def _load_config(args) -> RunConfig:
    base = RunConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                base = RunConfig.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            raise UsageError(f"bad config file {args.config}: {exc}")
    overrides = {
        "suites": [args.suite] if args.suite else None,
        "n": _parse_n(args.n) if args.n else None,
        "nmax": args.nmax,
        "grid": args.grid,
        "preset": args.preset,
        "seed": args.seed,
        "lambdas": _parse_lambdas(args.lambdas) if args.lambdas else None,
        "tol": args.tol,
        "out": args.out,
        "format": args.format,
        "instances": args.instances,
        "einstein_j": args.einstein_j,
        "phi_file": args.phi_file,
    }
    try:
        config = base.merged(overrides)
    except ValueError as exc:
        raise UsageError(str(exc))
    unknown = [s for s in config.suites if s != "all" and s not in SUITES]
    if unknown:
        raise UsageError(f"unknown suites {unknown}; choose from {list(SUITES)} or all")
    if config.format not in ("json", "md", "both"):
        raise UsageError(f"format must be json, md or both, got {config.format!r}")
    if not isinstance(config.nmax, int) or not 1 <= config.nmax <= MAX_RADIAL_ORDER:
        raise UsageError(
            f"--Nmax must be an integer in 1..{MAX_RADIAL_ORDER}, got {config.nmax!r}")
    if config.grid < 16 or config.grid % 2:
        raise UsageError("grid size must be an even number >= 16")
    if config.instances < 1:
        raise UsageError("instances must be >= 1")
    if config.einstein_j is not None:
        try:
            Fraction(config.einstein_j)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse --einstein-j value {config.einstein_j!r}")
    return config


def _load_phi(config: RunConfig):
    """Returns (phi array or None, quantities reports). A custom field is
    accepted as-is but flagged, since its band limit and amplitude are not
    checked the way preset factors are."""
    if not config.phi_file:
        return None, []
    try:
        chart, phi = load_field(config.phi_file)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load field file {config.phi_file}: {exc}")
    if chart.shape[0] != chart.shape[1]:
        raise UsageError("verify needs a square field file")
    if chart.shape[0] != config.grid:
        raise UsageError(
            f"field file grid {chart.shape[0]} does not match --grid {config.grid}")
    note = QuantitiesReport("phi-input", {
        "path": config.phi_file,
        "n": chart.n,
        "grid": list(chart.shape),
        "max_abs": float(np.max(np.abs(phi))),
        "warning": "custom conformal factor: band limit and amplitude unchecked",
    })
    return phi, [note]


def _suite_jobs(config: RunConfig, phi):
    names = list(SUITES) if "all" in config.suites else []
    for s in config.suites:
        if s != "all" and s not in names:
            names.append(s)
    num_tol = config.tol if config.tol is not None else 1e-6
    crit_tol = config.tol if config.tol is not None else 1e-5
    jobs = []
    for name in names:
        if name == "sphere":
            n_values = config.n or range(3, 13)
            jobs.append((name, lambda nv=n_values: sphere_suite(nv, nmax=config.nmax)))
        elif name == "hypergeom":
            jobs.append((name, lambda: hypergeom_suite(
                instances=config.instances, seed=config.seed)))
        elif name == "numeric":
            n_values = config.n or (4, 6)
            jobs.append((name, lambda nv=n_values: numeric_suite(
                n_values=nv, size=config.grid, preset=config.preset,
                seed=config.seed, lambdas=config.lambda_values(),
                tol=num_tol, phi=phi)))
        elif name == "critical-n4":
            jobs.append((name, lambda: critical_n4_suite(
                size=config.grid, preset=config.preset, seed=config.seed,
                tol=crit_tol, phi=phi)))
        elif name == "conformal":
            jobs.append((name, lambda: conformal_suite(
                size=config.grid, preset=config.preset, seed=config.seed,
                tol=crit_tol, phi=phi)))
    return jobs


def _run_suites(config: RunConfig, phi):
    jobs = _suite_jobs(config, phi)
    checks = []
    with ThreadPoolExecutor(max_workers=_worker_count(len(jobs))) as pool:
        futures = [(name, pool.submit(thunk)) for name, thunk in jobs]
        for name, fut in futures:
            try:
                checks.extend(fut.result())
            except ValueError as exc:
                raise UsageError(f"suite {name}: {exc}")
    if config.einstein_j is not None:
        J = Fraction(config.einstein_j)
        for n in config.n or (4, 6, 8):
            checks.extend(einstein_checks(n, J))
    return checks


def _write_reports(checks, quantities, config: RunConfig):
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    base = config.out or "holoq-report"
    paths = []
    if config.format in ("json", "both"):
        path = base + ".json"
        with open(path, "w") as fh:
            fh.write(render_json(checks, config, timestamp, quantities))
        paths.append(path)
    if config.format in ("md", "both"):
        path = base + ".md"
        with open(path, "w") as fh:
            fh.write(render_markdown(checks, config, timestamp, quantities))
        paths.append(path)
    return paths


def _print_summary(checks, paths):
    width = max([len(c.id) for c in checks], default=4)
    for c in sorted(checks, key=lambda c: c.id):
        if c.exact:
            res = "exact"
        elif c.residual is not None:
            res = f"{c.residual:.3e}"
        else:
            res = ""
        status = "pass" if c.passed else "FAIL"
        print(f"{c.id:<{width}}  {res:>10}  {status}")
    npass = sum(1 for c in checks if c.passed)
    print(f"{npass}/{len(checks)} checks passed")
    for p in paths:
        print(f"wrote {p}")


def cmd_verify(args) -> int:
    config = _load_config(args)
    phi, quantities = _load_phi(config)
    checks = _run_suites(config, phi)
    paths = _write_reports(checks, quantities, config)
    _print_summary(checks, paths)
    return EXIT_PASS if all_passed(checks) else EXIT_FAIL


def _checks_from_body(body: dict):
    from .reports import CheckReport

    checks = []
    for c in body.get("checks", []):
        checks.append(CheckReport(
            id=c["id"], equation=c.get("equation", ""),
            params=c.get("params", {}), passed=c["passed"],
            exact=c.get("exact"), residual=c.get("residual"),
            tol=c.get("tol"), scale=c.get("scale"),
            details=c.get("details", {})))
    return checks


def cmd_report(args) -> int:
    if args.source:
        try:
            with open(args.source) as fh:
                body = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read run file {args.source}: {exc}")
        checks = _checks_from_body(body)
        config = None
        if body.get("config"):
            cfg = dict(body["config"])
            cfg["n"] = cfg.get("n") or None
            config = RunConfig.from_dict(cfg)
        timestamp = body.get("meta", {}).get("timestamp", "")
    else:
        checks, config, timestamp = [], None, \
            datetime.now(timezone.utc).isoformat(timespec="seconds")
    render = render_json if args.format == "json" else render_markdown
    text = render(checks, config, timestamp)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_field(args) -> int:
    if args.field_action == "export":
        chart = TorusChart(args.dim, (args.grid, args.grid))
        phi = preset_phi(chart, args.preset, seed=args.seed)
        save_field(args.out, chart, phi)
        print(f"wrote {args.out} ({args.grid}x{args.grid}, n={args.dim})")
        return EXIT_PASS
    try:
        chart, phi = load_field(args.path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load field file {args.path}: {exc}")
    print(f"n={chart.n} grid={chart.shape[0]}x{chart.shape[1]}")
    print(f"min={phi.min():.6g} max={phi.max():.6g} max_abs={np.max(np.abs(phi)):.6g}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoq",
        description="Exact and numerical verification of Q-curvature "
                    "operator-family identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suite", nargs="?", choices=SUITES + ("all",),
                   help="suite to run (default: from config file, else all)")
    v.add_argument("--config", help="JSON config file; flags override its values")
    v.add_argument("--n", help="dimensions: '4', '4,6' or '3..12'")
    v.add_argument("--Nmax", dest="nmax", type=int, help="largest operator order /2")
    v.add_argument("--grid", type=int, help="grid points per axis (default 64)")
    v.add_argument("--preset", help="conformal factor preset name")
    v.add_argument("--seed", type=int, help="seed for presets and random batches")
    v.add_argument("--lambda", dest="lambdas",
                   help="comma-separated rational spectral parameters")
    v.add_argument("--tol", type=float, help="override residual tolerance")
    v.add_argument("--out", help="report path base (default holoq-report)")
    v.add_argument("--format", choices=("json", "md", "both"),
                   help="report formats to write (default both)")
    v.add_argument("--instances", type=int,
                   help="random instances per hypergeometric batch")
    v.add_argument("--einstein-j", dest="einstein_j", metavar="J",
                   help="also run the constant-curvature extension with this "
                        "rational Schouten trace")
    v.add_argument("--phi-file", dest="phi_file",
                   help="binary field file replacing the preset factor")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="re-render a stored JSON run")
    r.add_argument("--from", dest="source", help="stored JSON run file")
    r.add_argument("--format", choices=("json", "md"), default="md")
    r.add_argument("--out", help="output path (default stdout)")
    r.set_defaults(func=cmd_report)

    f = sub.add_parser("field", help="field file utilities")
    fsub = f.add_subparsers(dest="field_action", required=True)
    fe = fsub.add_parser("export", help="write a preset factor to a file")
    fe.add_argument("--n", dest="dim", type=int, default=4)
    fe.add_argument("--grid", type=int, default=64)
    fe.add_argument("--preset", default="trig1")
    fe.add_argument("--seed", type=int, default=7)
    fe.add_argument("--out", required=True)
    fe.set_defaults(func=cmd_field)
    fi = fsub.add_parser("info", help="print a field file's header and range")
    fi.add_argument("path")
    fi.set_defaults(func=cmd_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
