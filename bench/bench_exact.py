"""Micro-benchmarks of the exact layers, on inputs the size the sphere and
hypergeom suites use by default (n up to 12, N up to 6, series order 20-40),
of the family recursion on constants at the stress sphere run's sizes
(n up to 24, N up to 8), and of the holographic formula on the round sphere
(n up to 14, N up to 6).

    python -m pytest bench -q
    python -m pytest bench -q --benchmark-json=bench.json

Each benchmark also asserts its result, so a fast wrong answer fails.
"""

from fractions import Fraction

import pytest

from holoq.families import constant_q, constant_terms, values_on_one
from holoq.hypergeom import HyperSpec, hyper_2f1_series, hyper_terminating
from holoq.lambda_algebra import LAMBDA, LambdaPoly, LambdaRat, pochhammer, poly_gcd
from holoq.series import FormalSeries
from holoq.sphere import (SphereContext, claim_red_rhs, closed_table, sphere_Q,
                          sphere_T_on_one, sphere_v)

# Sphere n = 12, N = 6: f = n/2 = 6 and factors like (lambda - f + 1)_N,
# (lambda - n + 1)_{N-1} and rational prefactors.
P = Fraction(-35, 1536) * pochhammer(LAMBDA - 5, 6) * (LAMBDA - Fraction(1, 2))
Q = Fraction(7, 16) * pochhammer(LAMBDA - 11, 5) * (LAMBDA + Fraction(3, 4))
COMMON = pochhammer(LAMBDA - Fraction(5, 2), 4)


def test_poly_mul(benchmark):
    prod = benchmark(lambda: P * Q)
    assert prod.degree == P.degree + Q.degree


def test_poly_divmod_exact(benchmark):
    prod = P * Q
    quot, rem = benchmark(prod.divmod, Q)
    assert quot == P and rem.is_zero()


def test_poly_divmod_remainder(benchmark):
    quot, rem = benchmark(P.divmod, Q)
    assert quot * Q + rem == P


def test_poly_gcd(benchmark):
    a, b = P * COMMON, Q * COMMON
    assert benchmark(poly_gcd, a, b) == COMMON.monic()


def test_rat_normal_form(benchmark):
    num, den = P * COMMON, Q * COMMON
    r = benchmark(LambdaRat, num, den)
    assert r.den.coeffs[-1] == 1 and r.den.degree == Q.degree


def test_hyper_terminating_symbolic(benchmark):
    # the 3F2 of the sphere claim-red check at n = 12, N = 6
    f = Fraction(6)
    spec = HyperSpec((f, LAMBDA, Fraction(-6)), (LAMBDA - f + 1, Fraction(7)))
    value = benchmark(hyper_terminating, spec)
    assert isinstance(value, (LambdaPoly, LambdaRat))


def test_hyper_terminating_rational(benchmark):
    # a Pfaff-Saalschutz 3F2(-10, a, b; c, 1 + a + b - c - 10; 1), the size
    # of the largest instances of the hypergeom suite's batches
    m, a, b, c = 10, Fraction(-7, 3), Fraction(11, 4), Fraction(13, 6)
    spec = HyperSpec((Fraction(-m), a, b), (c, 1 + a + b - c - m))
    value = benchmark(hyper_terminating, spec)
    assert value == (pochhammer(c - a, m) * pochhammer(c - b, m)
                     / (pochhammer(c, m) * pochhammer(c - a - b, m)))


def test_sphere_sum_of_terms(benchmark):
    # S0 = sum_j T*_{2j}(v_{2N-2j}) at n = 12, N = 6: rational functions over
    # nested Pochhammer denominators (lambda - 5)_j
    ctx, N = SphereContext(12), 6
    terms = constant_terms([sphere_T_on_one(ctx, j) for j in range(N + 1)],
                           [sphere_v(ctx, k) for k in range(N + 1)], N)
    total = benchmark(sum, terms, LambdaRat.const(0))
    assert total == Fraction(-1, 4) ** N * claim_red_rhs(ctx, N)


def test_pochhammer_rational(benchmark):
    x = Fraction(-17, 6)
    value = benchmark(pochhammer, x, 10)
    ref = Fraction(1)
    for k in range(10):
        ref *= x + k
    assert value == ref


@pytest.mark.parametrize("order", [20, 40])
def test_compose_symbolic(benchmark, order):
    # the symbolic-lambda quadratic transform's left side
    u = FormalSeries([0] + [Fraction(4 * (-1) ** k * (k + 1)) for k in range(order)], order)
    f = hyper_2f1_series(LAMBDA, Fraction(2), Fraction(4), order)
    out = benchmark(f.compose, u)
    assert out.order == order and out.coeffs[0] == 1


def test_values_on_one_sphere(benchmark):
    # the family recursion on constants, T_{2N}(lambda)(1) for n = 3..24 and
    # N <= 8, the stress sphere run's range
    contexts = [SphereContext(n) for n in range(3, 25)]
    vs = [[sphere_v(ctx, k) for k in range(9)] for ctx in contexts]
    values = benchmark(lambda: [values_on_one(ctx.n, v) for ctx, v in zip(contexts, vs)])
    for ctx, row in zip(contexts, values):
        assert row == [sphere_T_on_one(ctx, N) for N in range(9)], ctx.n


def test_holographic_q_sphere(benchmark):
    # Q_{2N}(S^n) by the holographic formula on the closed T-values on 1 for
    # n = 3..14 and N <= 6 (2N <= n for even n): 62 cases, each Branson's
    # closed form
    caps = {n: min(6, n // 2) if n % 2 == 0 else 6 for n in range(3, 15)}
    tables = {n: closed_table(SphereContext(n), cap) for n, cap in caps.items()}

    def sweep():
        return {(n, N): constant_q(n, *tables[n], N)
                for n, cap in caps.items() for N in range(1, cap + 1)}

    qs = benchmark(sweep)
    assert len(qs) == 62
    for (n, N), q in qs.items():
        assert q == sphere_Q(SphereContext(n), N), (n, N)
