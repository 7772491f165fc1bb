"""Check reports, run configuration and deterministic output.

JSON output is canonical: keys sorted, checks sorted by id, timings kept out
of the body so reruns with the same config and seed are byte-identical except
for the timestamp in the meta block. Markdown output is for humans and does
include per-check wall-clock times.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def jsonable(x):
    """Render parameters and values into JSON-stable primitives."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return x
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return repr(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _of(kind):
    return lambda x: isinstance(x, kind)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _list_of(ok):
    return lambda x: isinstance(x, list) and all(ok(v) for v in x)


def _or_null(ok):
    return lambda x: x is None or ok(x)


# Field -> (type test, what the test accepts) for RunConfig, a stored
# CheckReport and a stored QuantitiesReport. Config files, command-line
# overrides and stored runs all pass through these tables.
_CONFIG_TYPES = {
    "suites": (_list_of(_of(str)), "a list of strings"),
    "n": (_or_null(_list_of(_is_int)), "null or a list of integers"),
    "nmax": (_is_int, "an integer"),
    "grid": (_is_int, "an integer"),
    "preset": (_of(str), "a string"),
    "seed": (_is_int, "an integer"),
    "out": (_or_null(_of(str)), "null or a string"),
    "format": (_of(str), "a string"),
    "instances": (_is_int, "an integer"),
    "phi_file": (_or_null(_of(str)), "null or a string"),
}

_CHECK_TYPES = {
    "id": (_of(str), "a string"),
    "equation": (_of(str), "a string"),
    "params": (_of(dict), "an object"),
    "passed": (_of(bool), "a boolean"),
    "exact": (_or_null(_of(bool)), "null or a boolean"),
    "residual": (_or_null(_is_number), "null or a number"),
    "tol": (_or_null(_is_number), "null or a number"),
    "scale": (_or_null(_is_number), "null or a number"),
    "details": (_of(dict), "an object"),
}

_QUANTITY_TYPES = {
    "id": (_of(str), "a string"),
    "values": (_of(dict), "an object"),
}


def _check_fields(d, table: dict, what: str):
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {type(d).__name__}")
    bad = set(d) - set(table)
    if bad:
        raise ValueError(f"unknown {what} keys: {sorted(bad)}")
    for name, value in d.items():
        ok, expected = table[name]
        if not ok(value):
            raise ValueError(f"{what} field {name!r} must be {expected}, got {value!r}")


@dataclass
class CheckReport:
    """Outcome of one identity check.

    residual is None for exact (rational-arithmetic) checks; exact is None
    for purely numerical ones. scale records the normalization max(1, size
    of the largest intermediate) that the tolerance was applied against.
    """

    id: str
    equation: str
    params: dict = field(default_factory=dict)
    passed: bool = False
    exact: bool | None = None
    residual: float | None = None
    tol: float | None = None
    scale: float | None = None
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    @staticmethod
    def from_dict(d: dict) -> "CheckReport":
        """Inverse of body(), for a check read back from a stored run."""
        _check_fields(d, _CHECK_TYPES, "check")
        missing = {"id", "passed"} - set(d)
        if missing:
            raise ValueError(f"check without {sorted(missing)}")
        return CheckReport(**{"equation": "", **d})

    def body(self) -> dict:
        d = {
            "id": self.id,
            "equation": self.equation,
            "params": jsonable(self.params),
            "passed": self.passed,
        }
        if self.exact is not None:
            d["exact"] = self.exact
        if self.residual is not None:
            d["residual"] = self.residual
        if self.tol is not None:
            d["tol"] = self.tol
        if self.scale is not None:
            d["scale"] = self.scale
        if self.details:
            d["details"] = jsonable(self.details)
        return d


class IdentityError(Exception):
    """An identity that a value is built on does not hold, so the value is
    not returned. The checks that read the value fail with the reason as
    their details; the run goes on."""


def attempt(build, *args):
    """(build(*args), None), or (None, the reason) if an identity the value
    is built on does not hold."""
    try:
        return build(*args), None
    except IdentityError as err:
        return None, str(err)


def max_abs(a) -> float:
    """max |a| over an array or a sequence of numbers, 0.0 when empty.

    A NaN anywhere gives NaN: Python's max skips a NaN that is not its
    first argument. Read from the extremes, without an |a| temporary.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.maximum(a.max(), -a.min())) + 0.0  # + 0.0 turns -0.0 into 0.0


def _non_finite(**values):
    """Why a check with these values fails, if one of them is not finite."""
    bad = [f"{name} {value}" for name, value in values.items() if not math.isfinite(value)]
    return "non-finite " + ", ".join(bad) if bad else None


def exact_report(check_id, equation, params, passed, details=None,
                 seconds=0.0) -> CheckReport:
    """Verdict of an exact (rational-arithmetic) check."""
    return CheckReport(id=check_id, equation=equation, params=params,
                       passed=bool(passed), exact=True, details=details or {},
                       seconds=seconds)


def tolerance_report(check_id, equation, params, residual, base_tol, scale,
                     details=None, seconds=0.0) -> CheckReport:
    """Verdict of a numerical check: tol = base_tol * max(1, scale), and the
    check passes when residual <= tol. A residual or scale that is not finite
    fails it, with the reason in details."""
    residual, scale = float(residual), float(scale)
    reason = _non_finite(residual=residual, scale=scale)
    scale = scale if math.isnan(scale) else max(1.0, scale)
    tol = base_tol * scale
    details = details or {}
    if reason:
        details = {**details, "reason": reason}
    return CheckReport(id=check_id, equation=equation, params=params,
                       passed=reason is None and residual <= tol, residual=residual,
                       tol=tol, scale=scale, details=details, seconds=seconds)


@dataclass
class QuantitiesReport:
    """Named computed quantities (coefficients, curvatures) for emission."""

    id: str
    values: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(d: dict) -> "QuantitiesReport":
        """Inverse of body(), for quantities read back from a stored run."""
        _check_fields(d, _QUANTITY_TYPES, "quantities")
        if "id" not in d:
            raise ValueError("quantities entry without 'id'")
        return QuantitiesReport(**d)

    def body(self) -> dict:
        return {"id": self.id, "values": jsonable(self.values)}


@dataclass
class RunConfig:
    """Driver configuration; flags override file values field by field.

    n = None means each suite uses its own default range (3..12 for the
    exact sphere checks, {4, 6} for the torus grids).
    """

    suites: list = field(default_factory=lambda: ["all"])
    n: list | None = None
    nmax: int = 6
    grid: int = 64
    preset: str = "trig1"
    seed: int = 7
    out: str | None = None
    format: str = "both"
    instances: int = 200
    phi_file: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        _check_fields(d, _CONFIG_TYPES, "config")
        return RunConfig(**d)

    def merged(self, overrides: dict) -> "RunConfig":
        d = self.to_dict()
        for k, v in overrides.items():
            if v is not None:
                d[k] = v
        return RunConfig.from_dict(d)


def write_json(fh, checks, config: RunConfig | None, timestamp: str,
               quantities=()) -> None:
    """Write the JSON report of a run: the checks sorted by id, the config,
    the timestamp and the quantities, if any, sorted by id. The text is that
    of json.dump(body, fh, sort_keys=True, indent=2) and a newline for the
    body holding them all, but each check is turned into JSON values and
    written on its own, so the checks' values are never all held. The
    checks come first, as "checks" sorts first among the body's keys, and a
    check's text sits two levels deep, each of its lines indented by four
    more spaces."""
    rest = {"meta": {"timestamp": timestamp},
            "config": jsonable(config.to_dict()) if config is not None else None}
    if quantities:
        rest["quantities"] = [q.body() for q in sorted(quantities, key=lambda q: q.id)]
    nested = "\n    "
    fh.write('{\n  "checks": [')
    for i, check in enumerate(sorted(checks, key=lambda c: c.id)):
        text = json.dumps(check.body(), sort_keys=True, indent=2)
        fh.write(("," if i else "") + nested + text.replace("\n", nested))
    fh.write("\n  ],\n" if checks else "],\n")
    # the rest of the body, without its opening brace and line
    fh.write(json.dumps(rest, sort_keys=True, indent=2)[2:] + "\n")


def render_json(checks, config: RunConfig | None, timestamp: str,
                quantities=()) -> str:
    """The text of write_json's file as one string."""
    buf = io.StringIO()
    write_json(buf, checks, config, timestamp, quantities)
    return buf.getvalue()


def _fmt_float(x):
    if x is None:
        return ""
    return f"{x:.3e}"


def render_markdown(checks, config: RunConfig | None, timestamp: str,
                    quantities=()) -> str:
    lines = ["# Verification report", "", f"Generated: {timestamp}", ""]
    if config is not None:
        lines += ["```json", json.dumps(jsonable(config.to_dict()), sort_keys=True), "```", ""]
    lines += [
        "| id | equation | residual | tol | status | seconds |",
        "|----|----------|----------|-----|--------|---------|",
    ]
    for c in sorted(checks, key=lambda c: c.id):
        status = "pass" if c.passed else "FAIL"
        res = "exact" if c.exact else _fmt_float(c.residual)
        lines.append(
            f"| {c.id} | {c.equation} | {res} | {_fmt_float(c.tol)} | {status} | {c.seconds:.3f} |"
        )
    if quantities:
        lines += ["", "## Quantities", ""]
        for q in sorted(quantities, key=lambda q: q.id):
            vals = ", ".join(f"{k} = {v}" for k, v in jsonable(q.values).items())
            lines.append(f"- {q.id}: {vals}")
    npass = sum(1 for c in checks if c.passed)
    lines += ["", f"{npass}/{len(checks)} checks passed", ""]
    return "\n".join(lines)


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
