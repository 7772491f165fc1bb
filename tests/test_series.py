from fractions import Fraction

import pytest

from holoq.lambda_algebra import LAMBDA, LambdaPoly
from holoq.series import FormalSeries, binomial_series


class TestBasics:
    def test_truncation_and_padding(self):
        s = FormalSeries([1, 2], order=4)
        assert s.coeffs == [1, 2, 0, 0, 0]
        assert s.truncate(1).coeffs == [1, 2]

    def test_extend_raises(self):
        with pytest.raises(ValueError):
            FormalSeries([1], order=0).truncate(3)

    def test_add_mul_orders(self):
        a = FormalSeries([1, 1], order=5)
        b = FormalSeries([1, -1], order=3)
        assert (a + b).order == 3
        assert (a * b).coeffs == [1, 0, -1, 0]

    def test_geometric_times_complement(self):
        """(1 - s/4) * 1/(1 - s/4) == 1 through the truncation."""
        g = FormalSeries([Fraction(1, 4) ** k for k in range(9)], order=8)
        lhs = FormalSeries([1, Fraction(-1, 4)], order=8) * g
        assert lhs.agrees_with(FormalSeries.one(8))

    def test_valuation(self):
        assert FormalSeries([0, 0, 3], order=5).valuation() == 2
        assert FormalSeries.zero(3).valuation() is None


class TestCompose:
    def test_monomial_substitution(self):
        s = FormalSeries([1, 2, 3], order=2)
        t = s.compose_monomial(2)
        assert t.coeffs[0] == 1 and t.coeffs[2] == 2 and t.coeffs[4] == 3
        assert t.coeffs[1] == 0 and t.coeffs[3] == 0

    def test_compose_matches_manual(self):
        # f(s) = 1 + s + s^2 composed with u = s + s^2
        f = FormalSeries([1, 1, 1], order=4)
        u = FormalSeries([0, 1, 1], order=4)
        got = f.compose(u)
        # 1 + (s+s^2) + (s+s^2)^2 = 1 + s + 2s^2 + 2s^3 + s^4
        assert got.coeffs == [1, 1, 2, 2, 1]

    def test_zero_valuation_rejected(self):
        f = FormalSeries([1, 1], order=3)
        with pytest.raises(ValueError):
            f.compose(FormalSeries([1, 1], order=3))

    def test_compose_with_zero_series_allowed(self):
        f = FormalSeries([5, 1], order=3)
        assert f.compose(FormalSeries.zero(3)).coeffs[0] == 5


class TestBinomialSeries:
    def test_integer_exponent(self):
        s = binomial_series(Fraction(3), 5)
        assert s.coeffs[:4] == [1, 3, 3, 1] and s.coeffs[4] == 0

    def test_half_exponent_square(self):
        s = binomial_series(Fraction(1, 2), 8)
        assert (s * s).agrees_with(FormalSeries([1, 1], order=8))

    def test_lambda_exponent_additivity(self):
        """(1+s)^(2L) == ((1+s)^L)^2 with polynomial coefficients."""
        a = binomial_series(2 * LAMBDA, 6)
        b = binomial_series(LAMBDA, 6)
        assert a.agrees_with(b * b)


class TestLambdaCoefficients:
    def test_mixed_ring_arithmetic(self):
        s = FormalSeries([1, LAMBDA, LambdaPoly([0, 0, 1])], order=2)
        t = s * s
        assert t.coeffs[1] == 2 * LAMBDA
        assert t.coeffs[2] == LAMBDA ** 2 + 2 * LAMBDA ** 2  # cross + square term
