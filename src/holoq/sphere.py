"""Exact model of the round unit sphere in background dimension n.

Everything is rational arithmetic: holographic coefficients v_{2j}, the
values of the operator families T_{2N}(lambda) and P_{2N}(lambda) on
constants, the residue polynomial Qres_{2N}(lambda), the V-polynomial, and
the master relations tying them together. The terms T*_{2j}(v_{2N-2j}), the
master-3 weights and the holographic formula for Q_{2N} (which sphere-holoQ
checks against Branson's closed form) are families.constant_terms,
master3_weights and constant_q, shared with the constant-curvature model.
The T-values on constants are also derived from the Poincare-Einstein metric
of the sphere,

    r^{-2} (dr^2 + (1 - r^2/4)^2 g_round),

by the recursion that generates every family (families.values_on_one), so
the closed forms are cross-checked rather than assumed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .families import constant_q, constant_terms, master3_weights, values_on_one
from .hypergeom import HyperSpec, _poch_ok, hyper_terminating
from .lambda_algebra import (
    LAMBDA,
    LambdaPoly,
    LambdaRat,
    binomial,
    pochhammer,
)
from .reports import IdentityError, attempt, exact_report

MAX_RADIAL_ORDER = 8


@dataclass(frozen=True)
class SphereContext:
    """Round unit sphere S^n; J = n/2, |P|^2 = n/4, scal = n(n-1)."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("background dimension must be at least 3")

    @property
    def f(self) -> Fraction:
        return Fraction(self.n, 2)


def master_constant(N: int) -> Fraction:
    """c_N = (-1)^N / (2^{2N} N! (N-1)!)."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return Fraction((-1) ** N, 4 ** N * math.factorial(N) * math.factorial(N - 1))


def sphere_v(ctx: SphereContext, N: int) -> Fraction:
    """Holographic coefficient v_{2N} = (-1)^N binom(n, N) / 2^{2N}."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return Fraction((-1) ** N) * binomial(ctx.n, N) / 4 ** N


def sphere_T_on_one(ctx: SphereContext, N: int) -> LambdaRat:
    """T_{2N}(lambda)(1) = (n/2)_N (lambda)_N / (2^{2N} N! (lambda-n/2+1)_N)."""
    if N == 0:
        return LambdaRat.const(1)
    f = ctx.f
    num = pochhammer(f, N) * pochhammer(LAMBDA, N)
    den = Fraction(4 ** N * math.factorial(N)) * pochhammer(LAMBDA - f + 1, N)
    return LambdaRat(num, den)


def sphere_P_on_one(ctx: SphereContext, N: int) -> LambdaPoly:
    """P_{2N}(lambda)(1) = (-1)^N (n/2)_N (lambda)_N, a polynomial."""
    if N == 0:
        return LambdaPoly([1])
    return Fraction((-1) ** N) * pochhammer(ctx.f, N) * pochhammer(LAMBDA, N)


def closed_table(ctx: SphereContext, cap: int):
    """The closed forms every check of one dimension reads, each built once:
    ([T_{2j}(lambda)(1) for j = 0..cap], [v_{2k} for k = 0..cap])."""
    return ([sphere_T_on_one(ctx, j) for j in range(cap + 1)],
            [sphere_v(ctx, k) for k in range(cap + 1)])


def radial_oracle(ctx: SphereContext, v):
    """T_{2k}(lambda)(1), k < len(v), by the family recursion on the sphere's
    v = [v_0, v_2, ...]: independent of the closed form sphere_T_on_one."""
    if not 1 <= len(v) <= MAX_RADIAL_ORDER + 1:
        raise ValueError(f"radial order must lie in 0..{MAX_RADIAL_ORDER}")
    return values_on_one(ctx.n, v)


def _sum_closed(ctx: SphereContext, N: int) -> LambdaRat:
    """Closed form of S0: (-1/4)^N times the claim-red right side."""
    return Fraction(-1, 4) ** N * claim_red_rhs(ctx, N)


def _weighted_closed(ctx: SphereContext, N: int) -> LambdaRat:
    """Closed form of S1."""
    f, n = ctx.f, ctx.n
    pref = Fraction((-1) ** (N - 1)) * pochhammer(f - N + 1, N) / \
        (4 ** N * math.factorial(N - 1))
    num = LAMBDA * pochhammer(LAMBDA - n + 1, N - 1)
    return LambdaRat(pref * num, pochhammer(LAMBDA - f + 1, N))


def _shift_factor(ctx: SphereContext, N: int) -> LambdaPoly:
    """(lambda + n/2 - 2N + 1)_N as a polynomial."""
    return pochhammer(LAMBDA + ctx.f - 2 * N + 1, N)


def _qres(ctx: SphereContext, N: int, S0: LambdaRat) -> LambdaPoly:
    """Residue polynomial Qres_{2N}(lambda) on the sphere in product form,
    (-1)^{N-1} (n/2-N+1)_N lambda (lambda-2N+1)_{N-1}, cross-checked against
    its assembly -2^{2N} N! (lambda+n/2-2N+1)_N S0(lambda+n-2N) from the
    closed S0; IdentityError if they differ."""
    f, n = ctx.f, ctx.n
    closed = Fraction((-1) ** (N - 1)) * pochhammer(f - N + 1, N) * LAMBDA * \
        pochhammer(LAMBDA - 2 * N + 1, N - 1)
    assembly = Fraction(-(4 ** N) * math.factorial(N)) * _shift_factor(ctx, N) * \
        S0.shift(n - 2 * N)
    if not assembly.is_polynomial():
        raise IdentityError(f"qres assembly is not polynomial (n={n}, N={N})")
    if assembly.as_poly() != closed:
        raise IdentityError(f"qres product form disagrees with assembly (n={n}, N={N})")
    return closed


def _v_poly(ctx: SphereContext, N: int, S0: LambdaRat, S1: LambdaRat) -> LambdaPoly:
    """V_{2N}(lambda) = (lambda+n/2-2N+1)_N sum_j (2N+2j) T*_{2j}(lambda+n-2N)(v),
    assembled from the closed S0 and S1; IdentityError if the assembly is not
    polynomial. Its degree is at most N-1, and it vanishes when 2N = n."""
    n = ctx.n
    v = _shift_factor(ctx, N) * (2 * N * S0.shift(n - 2 * N) + 2 * S1.shift(n - 2 * N))
    if not v.is_polynomial():
        raise IdentityError(f"V-polynomial assembly is not polynomial (n={n}, N={N})")
    return v.as_poly()


def claim_red_rhs(ctx: SphereContext, N: int) -> LambdaRat:
    """(n/2-N+1)_N / N! * (lambda-n+2N)(lambda-n+1)_{N-1} / (lambda-n/2+1)_N."""
    f, n = ctx.f, ctx.n
    pref = pochhammer(f - N + 1, N) / math.factorial(N)
    num = (LAMBDA - n + 2 * N) * pochhammer(LAMBDA - n + 1, N - 1)
    return LambdaRat(pref * num, pochhammer(LAMBDA - f + 1, N))


def sphere_Q(ctx: SphereContext, N: int) -> Fraction:
    """Q-curvature Q_{2N}(S^n), exact.

    Subcritical closed form (n/2)_N (n/2-N+1)_{N-1}; in the critical case
    2N = n the value is derived through the holographic route
    n v_n = 2n c_{n/2} Q_n and checked against the continuation
    (IdentityError if they differ).
    """
    f = ctx.f
    if N < 1:
        raise ValueError("N must be at least 1")
    closed = pochhammer(f, N) * pochhammer(f - N + 1, N - 1)
    if 2 * N == ctx.n:
        crit = sphere_v(ctx, N) / (2 * master_constant(N))
        if crit != closed:
            raise IdentityError(f"critical sphere Q disagrees with continuation (n={ctx.n})")
        return crit
    return closed


def _lap_clock():
    """A clock whose every call returns the seconds since its previous call,
    or since it was made."""
    last = time.perf_counter()

    def lap():
        nonlocal last
        now = time.perf_counter()
        seconds, last = now - last, now
        return seconds
    return lap


def sphere_checks(ctx: SphereContext, N: int, table):
    """All exact identity checks for one (n, N) pair, reading the closed
    T-values on 1 and v_{2k} from table = closed_table(ctx, cap), cap >= N.
    A check's seconds run from the end of the one before, so work shared by
    several checks counts for the first of them."""
    n, f = ctx.n, ctx.f
    T, v = table
    tag = {"n": n, "N": N}
    out = []
    lap = _lap_clock()

    # S0 = sum_j T*_{2j}(v_{2N-2j}) and S1 = sum_j j T*_{2j}(v_{2N-2j}) from
    # the closed T-values on 1, against their closed forms
    terms = constant_terms(T, v, N)
    S0d = sum(terms, LambdaRat.const(0))
    S1d = sum((j * t for j, t in enumerate(terms)), LambdaRat.const(0))
    S0c, S1c = _sum_closed(ctx, N), _weighted_closed(ctx, N)
    out.append(exact_report(f"sphere-sum1[n={n},N={N}]", "sum-1", tag,
                            S0d == S0c, seconds=lap()))
    out.append(exact_report(f"sphere-weighted[n={n},N={N}]", "weighted-sum", tag,
                            S1d == S1c, seconds=lap()))

    m3 = sum(w * t for w, t in zip(master3_weights(n, N), terms))
    out.append(exact_report(f"sphere-master3[n={n},N={N}]", "master-3", tag,
                            m3.is_zero(), seconds=lap()))

    # master-2: (lambda-n+2N)(2N S0 + 2 S1) = -2N(n-2N) S0
    m2l = LambdaRat(LAMBDA - n + 2 * N) * (2 * N * S0d + 2 * S1d)
    m2r = Fraction(-2 * N * (n - 2 * N)) * S0d
    out.append(exact_report(f"sphere-master2[n={n},N={N}]", "master-2", tag,
                            m2l == m2r, seconds=lap()))

    qres, qres_fault = attempt(_qres, ctx, N, S0c)
    vpoly, v_fault = attempt(_v_poly, ctx, N, S0c, S1c)
    q, q_fault = attempt(sphere_Q, ctx, N)

    def reading(name, equation, decide, *faults):
        """exact_report of decide(), which returns (passed, details), or a
        failed one with the reason where a value it reads was not built."""
        reasons = [fault for fault in faults if fault]
        passed, details = (False, {"reason": "; ".join(reasons)}) if reasons else decide()
        return exact_report(f"{name}[n={n},N={N}]", equation, tag, passed, details,
                            seconds=lap())

    # master-1: 2^{2N-2} (N-1)! lambda V(lambda) = (n/2 - N) Qres(lambda)
    out.append(reading("sphere-master1", "master-1", lambda: (
        Fraction(4 ** (N - 1) * math.factorial(N - 1)) * LAMBDA * vpoly
        == (f - N) * qres, None), v_fault, qres_fault))
    out.append(reading("sphere-qres0", "qres-vanishes-at-0",
                       lambda: (qres(Fraction(0)) == 0, None), qres_fault))
    out.append(reading("sphere-vdeg", "v-poly-degree",
                       lambda: (vpoly.degree <= N - 1, {"degree": vpoly.degree}), v_fault))
    if 2 * N == n:
        out.append(reading("sphere-vcrit", "v-poly-critical-zero",
                           lambda: (vpoly.is_zero(), None), v_fault))
    # the holographic formula against Branson's closed form of Q_{2N}(S^n)
    out.append(reading("sphere-holoQ", "holo-Q", lambda: (constant_q(n, T, v, N) == q, None),
                       q_fault))

    # claim-red in its 3F2 form, binom(n, N) 3F2(n/2, lambda, -N;
    # lambda-n/2+1, n-N+1; 1) = (-4)^N S0, where no lower Pochhammer vanishes
    # (sphere-sum1 decides S0 against the closed form)
    spec = HyperSpec((f, LAMBDA, Fraction(-N)), (LAMBDA - f + 1, Fraction(n - N + 1)))
    if all(_poch_ok(low, N) for low in spec.lower):
        ok = binomial(n, N) * hyper_terminating(spec) == Fraction(-4) ** N * S0d
        out.append(exact_report(f"sphere-claimred[n={n},N={N}]", "claim-red", tag, ok,
                                seconds=lap()))

    # P on 1 versus T on 1 through the prefactor relation
    pref = Fraction(4 ** N * math.factorial(N) * (-1) ** N) * pochhammer(LAMBDA - f + 1, N)
    ok = T[N] * pref == sphere_P_on_one(ctx, N)
    out.append(exact_report(f"sphere-TP[n={n},N={N}]", "T-P-prefactor", tag, ok,
                            seconds=lap()))
    return out


def sphere_suite(n_values, nmax: int = 6):
    """Exact sphere verification across dimensions; returns CheckReports."""
    reports = []
    for n in n_values:
        ctx = SphereContext(n)
        cap = min(n // 2, nmax) if n % 2 == 0 else nmax
        cap = min(cap, MAX_RADIAL_ORDER)
        t0 = time.perf_counter()
        T, v = table = closed_table(ctx, cap)
        ok = radial_oracle(ctx, v) == T
        reports.append(exact_report(f"sphere-radial[n={n}]", "claim",
                                    {"n": n, "orders": cap}, ok,
                                    seconds=time.perf_counter() - t0))
        for N in range(1, cap + 1):
            reports.extend(sphere_checks(ctx, N, table))
    return reports
