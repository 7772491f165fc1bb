"""Span tracer that observes holoq from outside the package.

`install()` replaces chosen holoq functions with wrappers that record one
span per call: id, name, parent span id, thread, start and end. It patches
every binding of each function object in every loaded ``holoq.*`` module and
class, because the package imports functions by name across modules (for
example ``holographic`` imports ``curvature`` and ``conformal`` imports
``d1``). Spans stay in memory until `dump()` writes them at the end of the
run. Nothing in ``src/`` changes, so a traced run must produce the same
report as an untraced one; the benchmark checks that.

`self_times()` and `layer_metrics()` turn a dumped trace into per-span
times and the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import sys
import threading
import time

clock = time.perf_counter

# (module, attribute, span name). An attribute "Class.method" wraps a
# method; every alias of the same function object in that class (such as
# ``__rmul__ = __mul__``) gets the same wrapper.
TRACED = (
    ("cli", "sphere_suite", "cli.suite.sphere"),
    ("cli", "hypergeom_suite", "cli.suite.hypergeom"),
    ("cli", "numeric_suite", "cli.suite.numeric"),
    ("cli", "critical_n4_suite", "cli.suite.critical-n4"),
    ("cli", "conformal_suite", "cli.suite.conformal"),
    ("reports", "render_json", "reports.render"),
    ("reports", "render_markdown", "reports.render"),
    ("sphere", "radial_oracle", "sphere.radial_oracle"),
    ("sphere", "sphere_checks", "sphere.checks"),
    ("lambda_algebra", "LambdaPoly.__mul__", "lambda_algebra.poly_mul"),
    ("lambda_algebra", "LambdaPoly.divmod", "lambda_algebra.poly_divmod"),
    ("lambda_algebra", "poly_gcd", "lambda_algebra.poly_gcd"),
    ("lambda_algebra", "LambdaRat.__init__", "lambda_algebra.rat_new"),
    ("lambda_algebra", "pochhammer", "lambda_algebra.pochhammer"),
    ("series", "FormalSeries.compose", "series.compose"),
    ("series", "FormalSeries.__mul__", "series.mul"),
    ("series", "FormalSeries.__rmul__", "series.mul"),
    # The span name is picked per call: see _hyper_kind.
    ("hypergeom", "hyper_terminating", "hypergeom.hyper_terminating"),
    ("hypergeom", "check_quadratic_transform", "hypergeom.quadratic"),
    ("hypergeom", "check_pfaff_saalschutz", "hypergeom.batch"),
    ("hypergeom", "check_sheppard", "hypergeom.batch"),
    ("hypergeom", "check_connection_terminating", "hypergeom.batch"),
    ("grid", "d1", "grid.d1"),
    ("conformal", "curvature", "conformal.curvature"),
    ("conformal", "oracle_curvature", "conformal.oracle"),
    ("conformal", "apply_primitive", "conformal.apply_primitive"),
    ("families", "LambdaOperator.field_poly", "families.field_poly"),
    ("holographic", "master_check_numeric", "holographic.master"),
    ("holographic", "poly_checks", "holographic.poly_checks"),
    ("holographic", "example_2_3_checks", "holographic.example_2_3"),
    ("holographic", "critical_suite_n4", "holographic.critical"),
    ("holographic", "conformal_covariance_q4", "holographic.conformal_cov"),
    ("presets", "preset_phi", "presets.preset_phi"),
)

SUITES = ("sphere", "hypergeom", "numeric", "critical-n4", "conformal")

# Per-layer metrics in output order, with units. The layer is the prefix.
LAYER_METRICS = (
    [(f"cli.suite_s.{s}", "s") for s in SUITES]
    + [("cli.suite_busy_s", "s"), ("cli.suite_wall_s", "s"), ("cli.suite_overlap", "ratio"),
       ("reports.render_s", "s"), ("reports.checks", "count"), ("reports.json_bytes", "bytes"),
       ("sphere.radial_oracle_s", "s"), ("sphere.checks_s", "s")]
    + [(f"lambda_algebra.{op}_calls", "count")
       for op in ("poly_mul", "poly_divmod", "poly_gcd", "rat_new", "pochhammer")]
    + [(f"lambda_algebra.{op}_s", "s") for op in ("poly_mul", "poly_divmod", "poly_gcd")]
    + [("series.compose_calls", "count"), ("series.compose_s", "s"), ("series.mul_s", "s"),
       ("hypergeom.hyper_terminating_calls", "count"),
       ("hypergeom.hyper_terminating_sym_s", "s"), ("hypergeom.hyper_terminating_rat_s", "s"),
       ("hypergeom.quadratic_s", "s"), ("hypergeom.batch_s", "s"),
       ("grid.d1_calls", "count"), ("grid.d1_cells", "count"), ("grid.d1_s", "s"),
       ("grid.d1_cells_per_s", "1/s"),
       ("conformal.curvature_calls", "count"), ("conformal.curvature_s", "s"),
       ("conformal.oracle_s", "s"), ("conformal.apply_primitive_calls", "count"),
       ("families.field_poly_calls", "count"), ("families.field_poly_distinct", "count"),
       ("families.field_poly_useful_ratio", "ratio"), ("families.field_poly_s", "s"),
       ("holographic.master_s", "s"), ("holographic.poly_checks_s", "s"),
       ("holographic.example_2_3_s", "s"), ("holographic.critical_s", "s"),
       ("holographic.conformal_cov_s", "s"),
       ("presets.preset_phi_calls", "count"), ("presets.preset_phi_s", "s")]
)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []      # open span ids, innermost last
        self.depth = {}      # span name -> open spans of that name
        self.spans = None    # registered with the tracer on first use


class Tracer:
    """Holds every thread's spans and counters until the run ends."""

    def __init__(self):
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._threads = []   # (thread name, span list, counters)
        self.distinct_field_poly = set()

    def _state(self):
        st = self._local
        if st.spans is None:
            st.spans, st.counters = [], {}
            with self._lock:
                st.index = len(self._threads)
                self._threads.append((threading.current_thread().name, st.spans, st.counters))
        return st

    def count(self, key, amount):
        counters = self._state().counters
        counters[key] = counters.get(key, 0) + amount

    def wrap(self, fn, name, kind=None, before=None, after=None):
        """Wrapper recording a span per call. `kind(args)` picks the span
        name per call; `before(args)` and `after(args, result)` update
        counters outside the timed interval."""
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            span = kind(args) if kind else name
            if before:
                before(args)
            sid = next(ids)
            parent = st.stack[-1] if st.stack else -1
            depth = st.depth.get(span, 0)
            st.stack.append(sid)
            st.depth[span] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
                st.depth[span] = depth
                # The last field marks the outermost span of its name in this
                # thread, so recursive or re-entrant calls are not counted twice.
                st.spans.append((sid, span, parent, st.index, t0, t1, depth == 0))
            if after:
                after(args, result)
            return result

        return traced

    def dump(self, path):
        threads, spans = [], []
        counters = {}
        for tname, tspans, tcounters in self._threads:
            threads.append(tname)
            spans.extend(tspans)
            for k, v in tcounters.items():
                counters[k] = counters.get(k, 0) + v
        counters["families.field_poly_distinct"] = len(self.distinct_field_poly)
        with open(path, "w") as fh:
            json.dump({"threads": threads, "counters": counters, "spans": spans}, fh)


def _digest(array) -> bytes:
    return hashlib.blake2b(memoryview(array).cast("B"), digest_size=16).digest()


def _is_symbolic(x) -> bool:
    return type(x).__name__ in ("LambdaPoly", "LambdaRat")


def _hyper_kind(args):
    spec = args[0]
    params = (*spec.upper, *spec.lower, spec.argument)
    sym = any(_is_symbolic(p) for p in params)
    return "hypergeom.hyper_terminating_sym" if sym else "hypergeom.hyper_terminating_rat"


def _resolve(owner, attr):
    obj = owner
    for part in attr.split("."):
        obj = getattr(obj, part) if not isinstance(obj, type) else obj.__dict__[part]
    return obj


def install(tracer: Tracer):
    """Wrap every function in TRACED at all of its holoq bindings."""
    import numpy as np

    import holoq.cli  # noqa: F401  loads every holoq module the CLI uses

    def field_poly_key(args):
        op, bundle, f = args[0], args[1], np.ascontiguousarray(args[2], dtype=float)
        phi = np.ascontiguousarray(bundle.phi)
        tracer.distinct_field_poly.add(
            (tuple(op.terms), bundle.n, phi.shape, _digest(phi), f.shape, _digest(f)))

    def render_counts(args, result):
        tracer.count("reports.checks", len(args[0]))
        tracer.count("reports.json_bytes", len(result.encode()))

    hooks = {
        "hypergeom.hyper_terminating": {"kind": _hyper_kind},
        "grid.d1": {"before": lambda args: tracer.count("grid.d1_cells", np.size(args[1]))},
        "families.field_poly": {"before": field_poly_key},
    }
    modules = {m: importlib.import_module(f"holoq.{m}") for m, _, _ in TRACED}
    reports = modules["reports"]
    wrappers = {}
    for mod_name, attr, span in TRACED:
        fn = _resolve(modules[mod_name], attr)
        if fn in wrappers:
            continue
        extra = dict(hooks.get(span, {}))
        if fn is reports.render_json:
            extra["after"] = render_counts
        wrappers[fn] = tracer.wrap(fn, span, **extra)

    holoq_modules = [m for k, m in sys.modules.items()
                     if (k == "holoq" or k.startswith("holoq.")) and m is not None]
    patched = set()
    for mod in holoq_modules:
        namespaces = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__.startswith("holoq")]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:    # unhashable attribute values
                    continue
                if wrapper is not None:
                    setattr(ns, key, wrapper)
                    patched.add(value)
    missing = [fn.__qualname__ for fn in wrappers if fn not in patched]
    if missing:
        raise RuntimeError(f"no holoq binding found for {missing}")


def self_times(spans):
    """Span name -> (calls, total s, self s). Self time is a span's duration
    minus the time its direct child spans cover."""
    child = {}
    for _, _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, name, _, _, t0, t1, outer in spans:
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + ((t1 - t0) if outer else 0.0),
                     own + (t1 - t0) - child.get(sid, 0.0))
    return out


def layer_metrics(trace: dict, stats: dict) -> dict:
    """Per-layer metric name -> value, for every metric in LAYER_METRICS,
    from a dumped trace and its self_times()."""
    spans = trace["spans"]
    counters = trace["counters"]

    def seconds(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    # A "<span>_calls" metric counts that span's calls and a "<span>_s" metric
    # sums its outermost spans; the rest are set below.
    m = {}
    for name, _ in LAYER_METRICS:
        if name.endswith("_calls"):
            m[name] = calls(name[:-len("_calls")])
        elif name.endswith("_s"):
            m[name] = seconds(name[:-len("_s")])
    suite_spans = [s for s in spans if s[1].startswith("cli.suite.")]
    for suite in SUITES:
        m[f"cli.suite_s.{suite}"] = seconds(f"cli.suite.{suite}")
    busy = sum(t1 - t0 for *_, t0, t1, _ in suite_spans)
    wall = (max(s[5] for s in suite_spans) - min(s[4] for s in suite_spans)) if suite_spans else 0.0
    m["cli.suite_busy_s"] = busy
    m["cli.suite_wall_s"] = wall
    m["cli.suite_overlap"] = busy / wall if wall > 0 else 0.0
    m["reports.checks"] = counters.get("reports.checks", 0)
    m["reports.json_bytes"] = counters.get("reports.json_bytes", 0)
    m["hypergeom.hyper_terminating_calls"] = (
        calls("hypergeom.hyper_terminating_sym") + calls("hypergeom.hyper_terminating_rat"))
    m["grid.d1_cells"] = counters.get("grid.d1_cells", 0)
    m["grid.d1_cells_per_s"] = m["grid.d1_cells"] / m["grid.d1_s"] if m["grid.d1_s"] > 0 else 0.0
    fp_calls = m["families.field_poly_calls"]
    m["families.field_poly_distinct"] = counters.get("families.field_poly_distinct", 0)
    m["families.field_poly_useful_ratio"] = (
        m["families.field_poly_distinct"] / fp_calls if fp_calls else 0.0)
    return {name: m[name] for name, _ in LAYER_METRICS}
