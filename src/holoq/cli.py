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

One run plan (_suite_tasks) holds the selected suites, the numeric suite as
one task per dimension. Its tasks run concurrently on the usable CPUs
through one fork helper (holoq.workers) when an exact suite (sphere,
hypergeom) is among them or the grid has at least 128^2 points; otherwise
they run one after another. Reports are sorted by check id, so reruns with
the same configuration and seed produce byte-identical JSON, whatever the
number of CPUs, apart from the timestamp.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import gc
import json
import os
import sys
from datetime import datetime, timezone
from functools import partial

from .grid import TorusChart, load_field, save_field
from .holographic import (
    MIN_NUMERIC_N,
    SPECTRAL_GRID,
    conformal_suite,
    critical_n4_suite,
    numeric_suite,
)
from .hypergeom import hypergeom_suite
from .presets import PRESETS, preset_phi
from .reports import (
    CheckReport,
    QuantitiesReport,
    RunConfig,
    all_passed,
    max_abs,
    render_json,
    render_markdown,
    write_json,
)
from .sphere import MAX_RADIAL_ORDER, sphere_suite
from .workers import run_tasks, usable_cpus

SUITES = ("sphere", "hypergeom", "numeric", "critical-n4", "conformal")
# Dimensions of the numeric suite when --n is not given.
NUMERIC_N = (4, 6)

# A forked worker costs a cold process about 25 ms of system time (page
# tables, copy-on-write faults, teardown) whatever the grid, while one
# dimension's checks take about 15 ms at 64^2 and 30 ms at 128^2 (2-CPU VM).
# Cold `verify numeric --n 4,6` with a worker lost 12 of 16 pairs at 64^2 and
# won 12 of 16 at 128^2, so smaller grids run their torus tasks in turn.
# Each exact suite takes at least 90 ms, so a run with one forks at any grid.
MIN_CONCURRENT_CELLS = 128 * 128

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
    if not values:
        raise UsageError(f"empty dimension list {text!r}")
    return values


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
        "n": _parse_n(args.n) if args.n is not None else None,
        "nmax": args.nmax,
        "grid": args.grid,
        "preset": args.preset,
        "seed": args.seed,
        "out": args.out,
        "format": args.format,
        "instances": args.instances,
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
    out_dir = os.path.dirname(config.out or "") or "."
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        raise UsageError(f"the directory {out_dir!r} of the report path {config.out!r} "
                         f"is not a writable directory")
    if config.preset not in PRESETS:
        raise UsageError(f"unknown preset {config.preset!r}; choose from {sorted(PRESETS)}")
    if config.seed < 0 and _torus_dimensions(config):
        raise UsageError(f"the torus suites need a seed >= 0, got {config.seed}")
    if config.n and len(set(config.n)) < len(config.n):
        raise UsageError(f"each dimension may be listed once, got {config.n}")
    if config.n and min(config.n) < 3:
        raise UsageError(f"dimensions must all be >= 3, got {config.n}")
    if "numeric" in _selected(config) and config.n and min(config.n) < MIN_NUMERIC_N:
        raise UsageError(f"the numeric suite needs n >= {MIN_NUMERIC_N}, got {config.n}")
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
    checked the way preset factors are, and where it has no subsample on the
    spectral chart the note says so."""
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
        "max_abs": max_abs(phi),
        "warning": "custom conformal factor: band limit and amplitude unchecked",
    })
    if config.grid % SPECTRAL_GRID:
        note.values["skipped"] = (
            f"gjms-flat, q-flat and conformal-covariance-q4: the field's grid {config.grid} "
            f"is not a multiple of the {SPECTRAL_GRID}-point spectral chart")
    return phi, [note]


def _suite_tasks(config: RunConfig, phi):
    """The run plan: (label, task) pairs of the selected suites in SUITES
    order, the numeric suite one task per dimension. A check that suites
    share is decided by the first of them; the later ones leave it out, as
    the selection tells them."""
    names = _selected(config)
    torus = {"size": config.grid, "preset": config.preset, "seed": config.seed, "phi": phi}
    numeric_n = (config.n or NUMERIC_N) if "numeric" in names else ()
    tasks = []
    for name in names:
        if name == "sphere":
            tasks.append((name, partial(sphere_suite, config.n or range(3, 13),
                                        nmax=config.nmax)))
        elif name == "hypergeom":
            tasks.append((name, partial(hypergeom_suite, instances=config.instances,
                                        seed=config.seed)))
        elif name == "numeric":
            tasks.extend((f"numeric n = [{n}]", partial(numeric_suite, (n,), **torus))
                         for n in numeric_n)
        elif name == "critical-n4":
            tasks.append((name, partial(critical_n4_suite, with_poly_checks=4 not in numeric_n,
                                        **torus)))
        elif name == "conformal":
            tasks.append((name, partial(conformal_suite,
                                        with_generic_shift="critical-n4" not in names, **torus)))
    return tasks


def _run_suites(config: RunConfig, phi):
    """The checks of the run plan, in task order. The tasks share the usable
    CPUs when an exact suite runs or the grid has at least
    MIN_CONCURRENT_CELLS cells; the checks are those of running them in turn."""
    concurrent = (config.grid ** 2 >= MIN_CONCURRENT_CELLS
                  or {"sphere", "hypergeom"} & set(_selected(config)))
    results = run_tasks(_suite_tasks(config, phi), usable_cpus() if concurrent else 1)
    return [c for task_checks in results for c in task_checks]


def _write_reports(checks, quantities, config: RunConfig):
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    base = config.out or "holoq-report"
    paths = []
    if config.format in ("json", "both"):
        path = base + ".json"
        # written one check at a time: the whole text is never held
        with open(path, "w") as fh:
            write_json(fh, checks, config, timestamp, quantities)
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
    _return_free_pages()
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_field(args) -> int:
    if args.field_action == "export":
        try:
            chart = TorusChart(args.dim, (args.grid, args.grid))
            phi = preset_phi(chart, args.preset, seed=args.seed)
        except ValueError as exc:
            raise UsageError(f"cannot export preset {args.preset!r} (--seed {args.seed}) "
                             f"on a {args.grid}-point grid at n={args.dim}: {exc}")
        try:
            save_field(args.out, chart, phi)
        except OSError as exc:
            raise UsageError(f"cannot write field file {args.out}: {exc}")
        print(f"wrote {args.out} ({args.grid}x{args.grid}, n={args.dim})")
        return EXIT_PASS
    try:
        chart, phi = load_field(args.path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load field file {args.path}: {exc}")
    print(f"n={chart.n} grid={chart.shape[0]}x{chart.shape[1]}")
    print(f"min={phi.min():.6g} max={phi.max():.6g} max_abs={max_abs(phi):.6g}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoq",
        description="Exact and numerical verification of Q-curvature "
                    "operator-family identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    # No choices here: argparse would check them while parsing, and a stray
    # option's value that fills this slot would hide the unrecognized option.
    # main checks the name once parsing is done.
    v.add_argument("suite", nargs="?", metavar="{" + ",".join(SUITES + ("all",)) + "}",
                   help="suite to run (default: from config file, else all)")
    v.add_argument("--config", help="JSON config file; flags override its values")
    v.add_argument("--n", help="dimensions: '4', '4,6' or '3..12'")
    v.add_argument("--Nmax", dest="nmax", type=int, help="largest operator order /2")
    v.add_argument("--grid", type=int, help="grid points per axis (default 64)")
    v.add_argument("--preset", help="conformal factor preset name")
    v.add_argument("--seed", type=int, help="seed for presets and random batches")
    v.add_argument("--out", help="report path base (default holoq-report)")
    v.add_argument("--format", choices=("json", "md", "both"),
                   help="report formats to write (default both)")
    v.add_argument("--instances", type=int,
                   help="random instances per hypergeometric batch")
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


def _glibc():
    """The C library, where it is glibc, else None."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None
    return ctypes.CDLL(None) if glibc else None


def _return_free_pages():
    """Give the heap's free pages back to the kernel (glibc's malloc_trim).
    main does it before it pins the thresholds, for the pages that
    compiling holoq's modules left inside the heap, and verify once the
    suites have run, before the report is written: where those pages lie
    follows the source text and the suites' fields, and the report would
    otherwise be written above them."""
    trim = getattr(_glibc(), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _keep_freed_memory():
    """Keep freed grid fields in the process for reuse. With glibc's default
    policy each freed 2 MiB field at the heap top goes back to the kernel, and
    the next field faults its pages in again. Setting either threshold turns
    off glibc's adaptive mmap threshold, so both are set. On another libc, or
    without mallopt, nothing changes."""
    mallopt = getattr(_glibc(), "mallopt", None)
    if mallopt is not None:
        _return_free_pages()
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _skip_exit_collection():
    """Freeze the heap when the interpreter exits (gc.freeze as an atexit
    handler), so that the collections of its shutdown skip every object
    alive then, whose memory the operating system takes back anyway.
    Reference counting still frees what it frees, so files flush as
    before. Registered once, however often main runs in a process."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _keep_freed_memory()
    _skip_exit_collection()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", None) not in (None, "all", *SUITES):
        parser.error(f"argument suite: invalid choice: {args.suite!r} "
                     f"(choose from {', '.join(SUITES + ('all',))})")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
