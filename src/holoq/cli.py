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

Suites run one after another; from a 128-point grid on, the numeric suite
runs its dimensions concurrently on the usable CPUs. Reports are sorted by
check id, so reruns with the same configuration and seed produce
byte-identical JSON, whatever the number of CPUs, apart from the timestamp.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .grid import TorusChart, load_field, save_field
from .holographic import (
    MIN_NUMERIC_GRID,
    MIN_NUMERIC_N,
    conformal_suite,
    critical_n4_suite,
    einstein_checks,
    numeric_suite,
)
from .hypergeom import hypergeom_suite
from .presets import preset_phi
from .reports import (
    CheckReport,
    QuantitiesReport,
    RunConfig,
    all_passed,
    render_json,
    render_markdown,
)
from .sphere import MAX_RADIAL_ORDER, sphere_suite

SUITES = ("sphere", "hypergeom", "numeric", "critical-n4", "conformal")
# Dimensions of the numeric suite when --n is not given.
NUMERIC_N = (4, 6)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# glibc's mallopt parameters, and the values main pins them to. 32 MiB is the
# ceiling glibc's own adaptive mmap threshold reaches on 64-bit; 64 MiB keeps
# the trim threshold at twice it, the ratio glibc keeps while it adapts.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


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
    if not 1 <= config.nmax <= MAX_RADIAL_ORDER:
        raise UsageError(
            f"--Nmax must be an integer in 1..{MAX_RADIAL_ORDER}, got {config.nmax!r}")
    if config.grid < 16 or config.grid % 2:
        raise UsageError(f"grid size must be an even integer >= 16, got {config.grid!r}")
    if config.instances < 1:
        raise UsageError(f"instances must be an integer >= 1, got {config.instances!r}")
    if "numeric" in _selected(config):
        if config.n and min(config.n) < MIN_NUMERIC_N:
            raise UsageError(f"the numeric suite needs n >= {MIN_NUMERIC_N}, got {config.n}")
        if config.grid < MIN_NUMERIC_GRID:
            raise UsageError(
                f"the numeric suite needs --grid >= {MIN_NUMERIC_GRID}, got {config.grid}")
    return config


def _selected(config: RunConfig):
    """The suites a run selects, in SUITES order."""
    return [s for s in SUITES if s in config.suites or "all" in config.suites]


def _torus_dimensions(config: RunConfig):
    """The dimensions the selected torus suites run a field at."""
    names = _selected(config)
    dims = set(config.n or NUMERIC_N) if "numeric" in names else set()
    if "critical-n4" in names or "conformal" in names:
        dims.add(4)
    return sorted(dims)


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
    dims = _torus_dimensions(config)
    if any(n != chart.n for n in dims):
        raise UsageError(
            f"field file dimension n={chart.n} does not match the torus suites' n={dims}")
    note = QuantitiesReport("phi-input", {
        "path": config.phi_file,
        "n": chart.n,
        "grid": list(chart.shape),
        "max_abs": float(np.max(np.abs(phi))),
        "warning": "custom conformal factor: band limit and amplitude unchecked",
    })
    return phi, [note]


def _run_suites(config: RunConfig, phi):
    # SUITES order, so a check that suites share is decided by the first one
    names = _selected(config)
    num_tol = config.tol if config.tol is not None else 1e-6
    crit_tol = config.tol if config.tol is not None else 1e-5
    checks = []
    for name in names:
        try:
            if name == "sphere":
                checks.extend(sphere_suite(config.n or range(3, 13), nmax=config.nmax))
            elif name == "hypergeom":
                checks.extend(hypergeom_suite(instances=config.instances, seed=config.seed))
            elif name == "numeric":
                checks.extend(numeric_suite(
                    n_values=config.n or NUMERIC_N, size=config.grid, preset=config.preset,
                    seed=config.seed, lambdas=config.lambda_values(), tol=num_tol, phi=phi))
            elif name == "critical-n4":
                checks.extend(critical_n4_suite(
                    size=config.grid, preset=config.preset, seed=config.seed,
                    tol=crit_tol, phi=phi, reported={c.id for c in checks}))
            elif name == "conformal":
                checks.extend(conformal_suite(
                    size=config.grid, preset=config.preset, seed=config.seed,
                    tol=crit_tol, phi=phi, reported={c.id for c in checks}))
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


def _read_run(path):
    """(checks, config, timestamp, quantities) of a stored JSON run."""
    try:
        with open(path) as fh:
            body = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read run file {path}: {exc}")
    if not isinstance(body, dict):
        raise UsageError(f"malformed run file {path}: not a JSON object")
    try:
        checks = [CheckReport.from_dict(c) for c in body.get("checks", [])]
        cfg = body.get("config")
        config = RunConfig.from_dict(dict(cfg, n=cfg.get("n") or None)) if cfg else None
        timestamp = body.get("meta", {}).get("timestamp", "")
        quantities = [QuantitiesReport.from_dict(q) for q in body.get("quantities", [])]
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed run file {path}: {exc}")
    ids = [c.id for c in checks]
    if len(set(ids)) < len(ids):
        repeated = next(i for i in ids if ids.count(i) > 1)
        raise UsageError(f"malformed run file {path}: check id {repeated!r} repeats")
    return checks, config, timestamp, quantities


def cmd_report(args) -> int:
    if args.source:
        checks, config, timestamp, quantities = _read_run(args.source)
    else:
        checks, config, timestamp, quantities = [], None, \
            datetime.now(timezone.utc).isoformat(timespec="seconds"), []
    render = render_json if args.format == "json" else render_markdown
    text = render(checks, config, timestamp, quantities)
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


def _keep_freed_memory():
    """Keep freed grid fields in the process for reuse. With glibc's default
    policy each freed 2 MiB field at the heap top goes back to the kernel, and
    the next field faults its pages in again. Setting either threshold turns
    off glibc's adaptive mmap threshold, so both are set. On another libc, or
    without mallopt, nothing changes."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if glibc else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
