"""Micro-benchmarks of the exact layers, on inputs the size the sphere and
hypergeom suites use by default (n up to 12, N up to 6, series order 20-40).

    python -m pytest bench -q
    python -m pytest bench -q --benchmark-json=bench.json

Each benchmark also asserts its result, so a fast wrong answer fails.
"""

from fractions import Fraction

import pytest

from holoq.hypergeom import HyperSpec, hyper_2f1_series, hyper_terminating
from holoq.lambda_algebra import LAMBDA, LambdaPoly, LambdaRat, pochhammer, poly_gcd
from holoq.series import FormalSeries

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
    assert r.den.leading() == 1 and r.den.degree == Q.degree


def test_hyper_terminating_symbolic(benchmark):
    # the 3F2 of the sphere claim-red check at n = 12, N = 6
    f = Fraction(6)
    spec = HyperSpec((f, LAMBDA, Fraction(-6)), (LAMBDA - f + 1, Fraction(7)))
    value = benchmark(hyper_terminating, spec)
    assert isinstance(value, (LambdaPoly, LambdaRat))


@pytest.mark.parametrize("order", [20, 40])
def test_compose_symbolic(benchmark, order):
    # the symbolic-lambda quadratic transform's left side
    u = FormalSeries([0] + [Fraction(4 * (-1) ** k * (k + 1)) for k in range(order)], order)
    f = hyper_2f1_series(LAMBDA, Fraction(2), Fraction(4), order)
    out = benchmark(f.compose, u)
    assert out.order == order and out.coeffs[0] == 1
