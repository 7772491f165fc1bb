import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holoq.lambda_algebra import (
    LAMBDA,
    LambdaPoly,
    LambdaRat,
    binomial,
    divides,
    falling,
    interpolate,
    pochhammer,
    poly_gcd,
)

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.lists(fracs, max_size=5).map(LambdaPoly)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        """Zero padding never changes identity."""
        assert LambdaPoly([1, 2, 0, 0]) == LambdaPoly([1, 2])
        assert LambdaPoly([0]).is_zero()

    def test_degree_convention(self):
        assert LambdaPoly().degree == -1
        assert LambdaPoly([3]).degree == 0
        assert (LAMBDA ** 4).degree == 4

    def test_arithmetic_against_evaluation(self):
        """Ring ops commute with evaluation at sample points."""
        p = LambdaPoly([1, -2, 3])
        q = LambdaPoly([Fraction(1, 2), 5])
        for x in [Fraction(0), Fraction(2, 3), Fraction(-7)]:
            assert (p + q)(x) == p(x) + q(x)
            assert (p - q)(x) == p(x) - q(x)
            assert (p * q)(x) == p(x) * q(x)
            assert (p ** 3)(x) == p(x) ** 3

    def test_scalar_mixing(self):
        p = LAMBDA + 1
        assert (2 * p)(Fraction(1)) == 4
        assert (p * Fraction(1, 2))(1) == 1
        assert (3 - p)(0) == 2

    def test_divmod_exact(self):
        p = (LAMBDA - 1) * (LAMBDA + 2) * (LAMBDA - Fraction(1, 3))
        q, r = p.divmod(LAMBDA - 1)
        assert r.is_zero()
        assert q == (LAMBDA + 2) * (LAMBDA - Fraction(1, 3))

    def test_divmod_remainder(self):
        p = LAMBDA ** 2 + 1
        q, r = p.divmod(LAMBDA - 2)
        assert q * (LAMBDA - 2) + r == p
        assert r == LambdaPoly([5])

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            (LAMBDA + 1).divmod(LambdaPoly())

    def test_shift(self):
        p = LAMBDA ** 2 - 3 * LAMBDA
        s = p.shift(Fraction(5, 2))
        for x in [Fraction(0), Fraction(1), Fraction(-3, 4)]:
            assert s(x) == p(x + Fraction(5, 2))

    def test_derivative(self):
        p = LAMBDA ** 3 - 2 * LAMBDA + 7
        assert p.derivative() == 3 * LAMBDA ** 2 - 2

    def test_float_eval(self):
        p = LAMBDA ** 2 + LambdaPoly([Fraction(1, 4)])
        assert p(0.5) == pytest.approx(0.5)

    @given(small_polys, small_polys, fracs)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_pointwise(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_division_invariant(self, p, q):
        """p == q * quot + rem with deg rem < deg q."""
        if q.is_zero():
            return
        quot, rem = p.divmod(q)
        assert quot * q + rem == p
        assert rem.degree < q.degree or rem.is_zero()


class TestGcd:
    def test_common_factor_found(self):
        g = LAMBDA - Fraction(3, 2)
        a = g * (LAMBDA + 1)
        b = g * (LAMBDA ** 2 + 4)
        assert poly_gcd(a, b) == g.monic()

    def test_coprime(self):
        assert poly_gcd(LAMBDA + 1, LAMBDA + 2) == LambdaPoly([1])

    def test_divides(self):
        assert divides(LAMBDA, LAMBDA ** 3)
        assert not divides(LAMBDA - 1, LAMBDA ** 2 + 1)


class TestRat:
    def test_reduction_to_normal_form(self):
        """(L^2-1)/(L-1) reduces to L+1 with monic denominator."""
        r = LambdaRat(LAMBDA ** 2 - 1, LAMBDA - 1)
        assert r.is_polynomial()
        assert r.as_poly() == LAMBDA + 1

    def test_monic_denominator(self):
        r = LambdaRat(LAMBDA, 2 * LAMBDA + 4)
        assert r.den.leading() == 1
        assert r(Fraction(1)) == Fraction(1, 6)

    def test_equality_cross_forms(self):
        a = LambdaRat(LAMBDA * (LAMBDA + 1), (LAMBDA + 1) * (LAMBDA - 2))
        b = LambdaRat(LAMBDA, LAMBDA - 2)
        assert a == b

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LambdaRat(LAMBDA, LambdaPoly())

    def test_pole_evaluation_raises(self):
        r = LambdaRat(1, LAMBDA - 1)
        with pytest.raises(ZeroDivisionError):
            r(Fraction(1))

    def test_field_ops(self):
        a = LambdaRat(1, LAMBDA)
        b = LambdaRat(LAMBDA, LAMBDA + 1)
        x = Fraction(3, 2)
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)
        assert (a - b)(x) == a(x) - b(x)
        assert (a / b)(x) == a(x) / b(x)

    def test_derivative_quotient_rule(self):
        r = LambdaRat(LAMBDA ** 2, LAMBDA - 1)
        # d/dL [L^2/(L-1)] = (L^2 - 2L)/(L-1)^2
        expect = LambdaRat(LAMBDA ** 2 - 2 * LAMBDA, (LAMBDA - 1) ** 2)
        assert r.derivative() == expect

    def test_shift(self):
        r = LambdaRat(1, LAMBDA)
        assert r.shift(2) == LambdaRat(1, LAMBDA + 2)

    def test_pow_negative(self):
        r = LambdaRat(LAMBDA, LAMBDA + 1)
        assert r ** -1 == LambdaRat(LAMBDA + 1, LAMBDA)

    @given(st.fractions(min_value=-8, max_value=8, max_denominator=5),
           st.fractions(min_value=-8, max_value=8, max_denominator=5))
    @settings(max_examples=40, deadline=None)
    def test_reduce_idempotent(self, a, b):
        """Building from an already reduced pair is a no-op."""
        num = LAMBDA + a
        den = LAMBDA ** 2 + b + 1  # no common linear factor generically
        r = LambdaRat(num, den)
        again = LambdaRat(r.num, r.den)
        assert again == r


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(Fraction(5), 0) == 1
        assert pochhammer(Fraction(3), 1) == 3

    def test_known_values(self):
        assert pochhammer(Fraction(2), 3) == 24
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
        assert pochhammer(Fraction(-3), 3) == -6
        assert pochhammer(Fraction(-3), 4) == 0

    def test_recurrence(self):
        x = Fraction(7, 3)
        for m in range(1, 8):
            assert pochhammer(x, m) == pochhammer(x, m - 1) * (x + m - 1)

    def test_polynomial_argument(self):
        p = pochhammer(LAMBDA, 3)
        assert p == LAMBDA * (LAMBDA + 1) * (LAMBDA + 2)

    def test_rat_argument(self):
        r = pochhammer(LambdaRat(1, LAMBDA), 2)
        assert r(Fraction(2)) == Fraction(1, 2) * Fraction(3, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(Fraction(1), -1)

    def test_falling_and_binomial(self):
        assert falling(Fraction(5), 2) == 20
        assert binomial(6, 2) == 15
        assert binomial(4, 7) == 0


class TestInterpolate:
    def test_line_through_two_points(self):
        p = interpolate([(0, 1), (1, 3)])
        assert p == 2 * LAMBDA + 1

    def test_recovers_cubic(self):
        target = LAMBDA ** 3 - Fraction(1, 2) * LAMBDA + 4
        pts = [(Fraction(x), target(Fraction(x))) for x in (-2, -1, 0, 1)]
        assert interpolate(pts) == target

    def test_duplicate_abscissae_raise(self):
        with pytest.raises(ValueError):
            interpolate([(1, 2), (1, 3)])

    def test_random_round_trip(self):
        """100 seeded instances: interpolation then evaluation is identity."""
        rng = random.Random(20240817)
        for _ in range(100):
            deg = rng.randrange(0, 5)
            target = LambdaPoly([Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
                                 for _ in range(deg + 1)])
            xs = rng.sample(range(-12, 13), deg + 1)
            pts = [(Fraction(x), target(Fraction(x))) for x in xs]
            got = interpolate(pts)
            assert got == target
            for x in xs:
                assert got(Fraction(x)) == target(Fraction(x))


# Plain Fraction-list reference for the integer-content core: lists of
# Fractions in ascending order with no trailing zeros.

def ref_strip(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return ref_strip(out)


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def ref_divmod(a, b):
    rem = list(a)
    d = len(b) - 1
    q = [Fraction(0)] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        f = rem[i] / b[-1]
        q[i - d] = f
        for j, c in enumerate(b):
            rem[i - d + j] -= f * c
    return ref_strip(q), ref_strip(rem)


def ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_eval_float(a, x):
    acc = 0.0
    for c in reversed(a):
        acc = acc * x + float(c)
    return acc


wide_fracs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
coeff_lists = st.lists(wide_fracs, max_size=6).map(ref_strip)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestAgainstFractionReference:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_add_mul_divmod(self, a, b):
        p, q = LambdaPoly(a), LambdaPoly(b)
        assert list(p.coeffs) == a
        assert list((p + q).coeffs) == ref_add(a, b)
        assert list((p - q).coeffs) == ref_add(a, [-c for c in b])
        assert list((p * q).coeffs) == ref_mul(a, b)
        if b:
            quot, rem = p.divmod(q)
            ref_q, ref_r = ref_divmod(a, b)
            assert list(quot.coeffs) == ref_q
            assert list(rem.coeffs) == ref_r

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_gcd_with_planted_factor(self, a, b, g):
        p, q = ref_mul(a, g), ref_mul(b, g)
        assert list(poly_gcd(LambdaPoly(p), LambdaPoly(q)).coeffs) == ref_gcd(p, q)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_rat_normal_form(self, a, b, g):
        num, den = ref_mul(a, g), ref_mul(b, g)
        if not den:
            return
        r = LambdaRat(LambdaPoly(num), LambdaPoly(den))
        common = ref_gcd(num, den)
        ref_num, ref_den = ref_divmod(num, common)[0], ref_divmod(den, common)[0]
        lead = ref_den[-1]
        ref_num, ref_den = [c / lead for c in ref_num], [c / lead for c in ref_den]
        if not ref_num:
            ref_den = [Fraction(1)]
        assert list(r.num.coeffs) == ref_num
        assert list(r.den.coeffs) == ref_den

    @given(coeff_lists, st.floats(min_value=-1e3, max_value=1e3))
    @settings(max_examples=120, deadline=None)
    def test_float_eval_bitwise(self, a, x):
        assert bits(LambdaPoly(a)(x)) == bits(ref_eval_float(a, x))

    @given(coeff_lists, wide_fracs)
    @settings(max_examples=60, deadline=None)
    def test_exact_eval_and_shift(self, a, x):
        p = LambdaPoly(a)
        ref = Fraction(0)
        for c in reversed(a):
            ref = ref * x + c
        assert p(x) == ref
        assert p.shift(x)(Fraction(0)) == ref
        assert p.shift(x).shift(-x) == p

    def test_canonical_form(self):
        """Unreduced input gives the same structure, hash and coeffs."""
        p = LambdaPoly([Fraction(2, 4), 0])
        q = LambdaPoly([Fraction(1, 2)])
        assert p == q and hash(p) == hash(q)
        assert p.coeffs == q.coeffs == (Fraction(1, 2),)
        assert all(type(c) is Fraction for c in p.coeffs)
        assert p == Fraction(1, 2) and Fraction(1, 2) == p
        assert LambdaPoly([3, 0]) == 3 and 3 == LambdaPoly([3])
        assert LambdaPoly([Fraction(6, 4), 3]) == LambdaPoly([Fraction(1, 2), 1]) * 3
        assert LambdaPoly([Fraction(1, 3), Fraction(1, 6)]).leading() == Fraction(1, 6)

    def test_coeffs_read_only(self):
        p = LambdaPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(0),)
