"""Terminating hypergeometric sums and the classical identities used here:
Pfaff-Saalschutz, Sheppard's transformation, the terminating connection
formula, and the quadratic transformation as a formal series identity.

Parameters may be exact rationals or lambda-affine symbols (LambdaPoly /
LambdaRat), so identities can be verified as rational-function identities
rather than only pointwise.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .lambda_algebra import LAMBDA, LambdaPoly, LambdaRat, binomial, pochhammer
from .reports import CheckReport, exact_report
from .series import FormalSeries, binomial_series


class NonTerminatingError(ValueError):
    """No upper parameter is a nonpositive integer."""


class LowerPochhammerZeroError(ValueError):
    """A lower-parameter Pochhammer vanishes at or before the termination index."""

    def __init__(self, parameter, index):
        self.parameter = parameter
        self.index = index
        super().__init__(
            f"lower parameter {parameter} gives a vanishing Pochhammer at term {index}"
        )


@dataclass(frozen=True)
class HyperSpec:
    """Generalized hypergeometric data pFq(upper; lower; argument)."""

    upper: tuple
    lower: tuple
    argument: object = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(_demote(u) for u in self.upper))
        object.__setattr__(self, "lower", tuple(_demote(l) for l in self.lower))
        object.__setattr__(self, "argument", _demote(self.argument))


def _demote(x):
    """Collapse constant symbolic values back to Fractions."""
    if isinstance(x, LambdaRat) and x.is_polynomial():
        x = x.as_poly()
    if isinstance(x, LambdaPoly) and x.degree <= 0:
        return x.coeffs[0] if x.coeffs else Fraction(0)
    if isinstance(x, int):
        return Fraction(x)
    return x


def _is_nonpos_int(x) -> bool:
    if isinstance(x, int):
        return x <= 0
    return isinstance(x, Fraction) and x.denominator == 1 and x <= 0


def _poch_ok(x, m) -> bool:
    """True if (x)_j is nonzero for every j <= m."""
    return not (_is_nonpos_int(x) and x > -m)


def termination_index(spec: HyperSpec) -> int:
    """Smallest m with an upper parameter equal to -m."""
    ms = [-int(u) for u in spec.upper if _is_nonpos_int(u)]
    if not ms:
        raise NonTerminatingError(f"no nonpositive integer upper parameter in {spec.upper}")
    return min(ms)


def hyper_terminating(spec: HyperSpec):
    """Exact sum of a terminating hypergeometric series.

    Returns a Fraction for all-rational data (and for m = 0), a LambdaPoly
    when only upper parameters or the argument are polynomials in lambda, and
    a LambdaRat otherwise.

    The sum 1 + r_0 (1 + r_1 (... (1 + r_{m-1}))), with r_j the ratio of
    terms j+1 and j, is built as one numerator/denominator pair of ints or
    polynomials and reduced once.
    """
    m = termination_index(spec)
    for l in spec.lower:
        if not _poch_ok(l, m):
            raise LowerPochhammerZeroError(l, int(-l) + 1)
    upper = [_split(u) for u in spec.upper]
    lower = [_split(l) for l in spec.lower]
    # r_j = cn prod_u (un + j ud) / (cd (j+1) prod_l (ln + j ld))
    cn, cd = _split(spec.argument)
    for ln, ld in lower:
        cn = cn * ld
    for un, ud in upper:
        cd = cd * ud
    num = den = 1
    for j in range(m - 1, -1, -1):
        a = cn
        for un, ud in upper:
            a = a * (un + j * ud)
        b = cd * (j + 1)
        for ln, ld in lower:
            b = b * (ln + j * ld)
        num, den = den * b + a * num, den * b
    if not isinstance(den, int):
        return LambdaRat(num, den)
    return Fraction(num, den) if isinstance(num, int) else num / den


def _split(x):
    """x as a (numerator, denominator) pair of ints or of polynomials."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, LambdaRat):
        return x.num, x.den
    return x, 1


def hyper_2f1_series(a, b, c, order: int) -> FormalSeries:
    """Gauss series for 2F1(a, b; c; s) through the given order."""
    if not _poch_ok(c, order):
        raise LowerPochhammerZeroError(c, int(-c) + 1)
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(order):
        term = term * (a + k) * (b + k)
        term = term / ((c + k) * (k + 1))
        coeffs.append(term)
    return FormalSeries(coeffs, order)


def _pair(x):
    if isinstance(x, (LambdaPoly, LambdaRat)):
        return repr(x)
    return str(x)


def _report(check_id, equation, params, lhs, rhs):
    return exact_report(check_id, equation, {k: _pair(v) for k, v in params.items()},
                        lhs == rhs, {"lhs": _pair(lhs), "rhs": _pair(rhs)})


def check_pfaff_saalschutz(m: int, a, b, c) -> CheckReport:
    """3F2(-m, a, b; c, 1+a+b-c-m; 1) against the closed product form."""
    d2 = 1 + a + b - c - m
    lhs = hyper_terminating(HyperSpec((Fraction(-m), a, b), (c, d2)))
    rhs = (pochhammer(c - a, m) * pochhammer(c - b, m)) / \
          (pochhammer(c, m) * pochhammer(c - a - b, m))
    return _report(
        f"pfaff-saalschutz[m={m},a={_pair(a)},b={_pair(b)},c={_pair(c)}]",
        "pfaff-saalschutz",
        {"m": m, "a": a, "b": b, "c": c},
        lhs, rhs,
    )


def check_sheppard(m: int, a, b, d, e) -> CheckReport:
    """Sheppard's transformation of a terminating 3F2 at unit argument."""
    lhs = hyper_terminating(HyperSpec((Fraction(-m), a, b), (d, e)))
    pref = (pochhammer(d - a, m) * pochhammer(e - a, m)) / \
           (pochhammer(d, m) * pochhammer(e, m))
    inner = hyper_terminating(HyperSpec(
        (Fraction(-m), a, a + b - m - d - e + 1),
        (a - m - d + 1, a - m - e + 1),
    ))
    rhs = pref * inner
    return _report(
        f"sheppard[m={m},a={_pair(a)},b={_pair(b)},d={_pair(d)},e={_pair(e)}]",
        "sheppard",
        {"m": m, "a": a, "b": b, "d": d, "e": e},
        lhs, rhs,
    )


def check_connection_terminating(m: int, b, c, x) -> CheckReport:
    """Terminating connection formula relating values at x and 1 - x."""
    lhs = hyper_terminating(HyperSpec((Fraction(-m), b), (c,), x))
    pref = pochhammer(c - b, m) / pochhammer(c, m)
    rhs = pref * hyper_terminating(HyperSpec((Fraction(-m), b), (-m + b - c + 1,), 1 - x))
    return _report(
        f"connection[m={m},b={_pair(b)},c={_pair(c)},x={_pair(x)}]",
        "connection-terminating",
        {"m": m, "b": b, "c": c, "x": x},
        lhs, rhs,
    )


def check_quadratic_transform(a, b, order: int) -> CheckReport:
    """2F1(a, b; 2b; 4x/(1+x)^2) == (1+x)^{2a} 2F1(a, a+1/2-b; b+1/2; x^2).

    Verified as an exact equality of truncated formal series in x; a may be
    symbolic (LambdaPoly), b must be rational with valid lower parameters.
    """
    # u(x) = 4x/(1+x)^2 = sum_k 4(-1)^k (k+1) x^{k+1}
    u = FormalSeries([0] + [Fraction(4 * (-1) ** k * (k + 1)) for k in range(order)], order)
    lhs = hyper_2f1_series(a, b, 2 * b, order).compose(u)
    rhs_f = hyper_2f1_series(a, a + Fraction(1, 2) - b, b + Fraction(1, 2),
                             order // 2 + 1).compose_monomial(2).truncate(order)
    rhs = binomial_series(2 * a, order) * rhs_f
    ok = lhs.agrees_with(rhs, order)
    mismatch = None
    if not ok:
        for k in range(order + 1):
            if not (lhs.coeffs[k] - rhs.coeffs[k]) == 0:
                mismatch = k
                break
    return exact_report(f"quadratic-transform[a={_pair(a)},b={_pair(b)},order={order}]",
                        "quadratic-transform", {"a": _pair(a), "b": _pair(b), "order": order},
                        ok, {} if ok else {"first_mismatch_power": mismatch})


def _rand_fraction(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


def random_ps_instances(count: int, seed: int, mmax: int = 10):
    """Seeded Pfaff-Saalschutz parameter tuples with valid denominators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, mmax)
        a, b, c = (_rand_fraction(rng) for _ in range(3))
        d2 = 1 + a + b - c - m
        if not (_poch_ok(c, m) and _poch_ok(d2, m) and _poch_ok(c - a - b, m)):
            continue
        out.append((m, a, b, c))
    return out


def random_sheppard_instances(count: int, seed: int, mmax: int = 10):
    """Seeded Sheppard parameter tuples with valid denominators on both sides."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, mmax)
        a, b, d, e = (_rand_fraction(rng) for _ in range(4))
        if not (_poch_ok(d, m) and _poch_ok(e, m)):
            continue
        if not (_poch_ok(a - m - d + 1, m) and _poch_ok(a - m - e + 1, m)):
            continue
        out.append((m, a, b, d, e))
    return out


def random_connection_instances(count: int, seed: int, mmax: int = 10):
    """Seeded terminating connection-formula instances."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, mmax)
        b = _rand_fraction(rng)
        c = _rand_fraction(rng)
        x = _rand_fraction(rng)
        if not (_poch_ok(c, m) and _poch_ok(-m + b - c + 1, m)):
            continue
        out.append((m, b, c, x))
    return out


def _tally_report(check_id, equation, instances, runner, params) -> CheckReport:
    t0 = time.perf_counter()
    failures = []
    for inst in instances:
        rep = runner(*inst)
        if not rep.passed:
            failures.append(rep.params)
    return exact_report(check_id, equation, dict(params, count=len(instances)),
                        not failures, {"failures": failures or 0},
                        seconds=time.perf_counter() - t0)


def section4_instances():
    """The named instances behind the sphere closed forms, checked exactly."""
    reports = []

    t0 = time.perf_counter()
    val = hyper_terminating(HyperSpec((-2, 3, -1), (3, -3)))
    reports.append(exact_report(
        "hg-eval-3f2", "T-star eval", {"upper": ["-2", "3", "-1"], "lower": ["3", "-3"]},
        val == Fraction(1, 3), {"value": str(val)}, seconds=time.perf_counter() - t0))

    # Reduced-sum identity specialized at n=4, N=2, lambda=7: the weighted
    # binomial sum equals the closed product with corrected leading factor
    # (n/2-N+1)_N, here (1)_2 = 2.
    t0 = time.perf_counter()
    n, N, lam = 4, 2, Fraction(7)
    f = Fraction(n, 2)
    lhs = binomial(n, N) * hyper_terminating(
        HyperSpec((-N, f, lam), (lam - f + 1, n - N + 1)))
    rhs = pochhammer(f - N + 1, N) / math.factorial(N) \
        * (lam - n + 2 * N) * pochhammer(lam - n + 1, N - 1) \
        / pochhammer(lam - f + 1, N)
    reports.append(exact_report(
        "hg-claim-red", "claim-red", {"n": n, "N": N, "lambda": str(lam)},
        lhs == rhs, {"lhs": str(lhs), "rhs": str(rhs)}, seconds=time.perf_counter() - t0))

    rep = check_pfaff_saalschutz(1, Fraction(3), Fraction(6), Fraction(5))
    rep.id = "hg-ps-named"
    rep.details["expected_value"] = "1/10"
    rep.passed = rep.passed and hyper_terminating(
        HyperSpec((3, 6, -1), (5, 4))) == Fraction(1, 10)
    reports.append(rep)

    # Upper parameters ordered (4, 3) so the transformed side's lower
    # Pochhammers stay nonzero through the termination index.
    rep = check_sheppard(2, Fraction(4), Fraction(3), Fraction(2), Fraction(5))
    rep.id = "hg-shep-named"
    reports.append(rep)

    rep = check_connection_terminating(1, Fraction(2), Fraction(5), Fraction(1, 3))
    rep.id = "hg-conn-named"
    rep.details["expected_value"] = "13/15"
    rep.passed = rep.passed and hyper_terminating(
        HyperSpec((-1, 2), (5,), Fraction(1, 3))) == Fraction(13, 15)
    reports.append(rep)

    return reports


def hypergeom_suite(instances: int = 200, seed: int = 1, order: int = 20):
    """Full exact identity suite: named instances, quadratic transformation
    to the given series order (numeric and symbolic-lambda), and seeded
    random batches (Pfaff-Saalschutz and Sheppard at the full count, the
    connection formula at a quarter of it)."""
    reports = section4_instances()

    rep = check_quadratic_transform(Fraction(3, 2), Fraction(5, 2), order=order)
    rep.id = "hg-quadratic"
    reports.append(rep)
    rep = check_quadratic_transform(LAMBDA, Fraction(2), order=order)
    rep.id = "hg-quadratic-symbolic"
    reports.append(rep)

    reports.append(_tally_report(
        "hg-ps-batch", "pfaff-saalschutz",
        random_ps_instances(instances, seed), check_pfaff_saalschutz,
        {"seed": seed, "mmax": 10}))
    reports.append(_tally_report(
        "hg-shep-batch", "sheppard",
        random_sheppard_instances(instances, seed + 1), check_sheppard,
        {"seed": seed + 1, "mmax": 10}))
    reports.append(_tally_report(
        "hg-conn-batch", "connection-terminating",
        random_connection_instances(max(1, instances // 4), seed + 2),
        check_connection_terminating,
        {"seed": seed + 2, "mmax": 10}))
    return reports
