import itertools
from fractions import Fraction

import pytest

from holoq.lambda_algebra import LAMBDA, LambdaPoly, LambdaRat
from holoq.hypergeom import (
    HyperSpec,
    LowerPochhammerZeroError,
    NonTerminatingError,
    check_connection_terminating,
    check_pfaff_saalschutz,
    check_quadratic_transform,
    check_sheppard,
    hyper_2f1_series,
    hyper_terminating,
    random_instances,
    termination_index,
)

F = Fraction


def ref_hyper_terminating(spec):
    """Term-by-term sum: each term is the previous one times the term ratio."""
    term = total = F(1)
    for j in range(termination_index(spec)):
        for u in spec.upper:
            term = term * (u + j)
        term = term * spec.argument
        for l in spec.lower:
            term = term / (l + j)
        term = term / (j + 1)
        total = total + term
    return total


# one rational, one polynomial and one rational-function choice per slot
UPPERS = (F(5, 2), LAMBDA + F(1, 3), LambdaRat(LAMBDA, LAMBDA + 2))
LOWERS = (F(7, 3), LAMBDA - F(1, 2), LambdaRat(1, LAMBDA + 1))
ARGUMENTS = (F(-2, 3), 3 * LAMBDA, LambdaRat(LAMBDA, LAMBDA - 3))


class TestTerminatingSum:
    def test_vandermonde_special_case(self):
        """2F1(-m, b; c; 1) = (c-b)_m/(c)_m, checked at m=3."""
        val = hyper_terminating(HyperSpec((F(-3), F(2)), (F(5),)))
        # (5-2)_3/(5)_3 = 60/210 = 2/7
        assert val == F(2, 7)

    def test_multiple_negative_uppers_terminate_earliest(self):
        """Upper -1 wins over -2: a two-term sum."""
        val = hyper_terminating(HyperSpec((F(-2), F(3), F(-1)), (F(3), F(-3))))
        assert val == F(1, 3)

    def test_negative_lower_beyond_termination_allowed(self):
        val = hyper_terminating(HyperSpec((F(-1), F(2)), (F(-3),), F(2, 3)))
        assert val == 1 + F(-1) * 2 / F(-3) * F(2, 3)

    def test_non_terminating_rejected(self):
        with pytest.raises(NonTerminatingError):
            hyper_terminating(HyperSpec((F(1, 2), F(2)), (F(3),)))

    def test_lower_pochhammer_zero_reported(self):
        with pytest.raises(LowerPochhammerZeroError) as exc:
            hyper_terminating(HyperSpec((F(-4), F(1)), (F(-2),)))
        assert exc.value.index == 3

    def test_termination_index(self):
        assert termination_index(HyperSpec((F(-5), F(-2), F(7)), (F(1),))) == 2

    def test_symbolic_argument(self):
        val = hyper_terminating(HyperSpec((F(-1), F(2)), (F(4),), LAMBDA))
        assert val == 1 - LAMBDA / 2

    def test_symbolic_parameter(self):
        val = hyper_terminating(HyperSpec((F(-2), LAMBDA), (F(1),)))
        expect = 1 - 2 * LAMBDA + LAMBDA * (LAMBDA + 1) / 2
        assert (val - LambdaRat(expect)).is_zero()

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("u,l,z", itertools.product(UPPERS, LOWERS, ARGUMENTS))
    def test_against_term_by_term_reference(self, u, l, z, m):
        """Value and type: a Fraction for rational data and for m = 0, a
        LambdaPoly when only upper parameters or the argument are
        polynomials, a LambdaRat otherwise."""
        spec = HyperSpec((F(-m), u, F(-1, 4)), (l, F(3)), z)
        val, ref = hyper_terminating(spec), ref_hyper_terminating(spec)
        assert type(val) is type(ref) and val == ref
        if m == 0:
            expect = Fraction
        elif isinstance(l, (LambdaPoly, LambdaRat)) or LambdaRat in (type(u), type(z)):
            expect = LambdaRat
        elif LambdaPoly in (type(u), type(z)):
            expect = LambdaPoly
        else:
            expect = Fraction
        assert type(val) is expect

    def test_constant_symbolic_demoted(self):
        """A degree-0 symbolic upper still drives termination."""
        spec = HyperSpec(((LAMBDA - LAMBDA) - 1, F(5)), (F(3),))
        assert termination_index(spec) == 1


class TestPfaffSaalschutz:
    def test_named_instance(self):
        """m=1, a=3, b=6, c=5 evaluates to 1/10 on both sides."""
        rep = check_pfaff_saalschutz(1, F(3), F(6), F(5))
        assert rep.passed and rep.exact
        assert rep.details["lhs"] == "1/10"

    def test_small_sweep(self):
        for m, a, b, c in random_instances("pfaff-saalschutz", 30, seed=11):
            rep = check_pfaff_saalschutz(m, a, b, c)
            assert rep.passed, rep.details

    def test_symbolic_lambda_parameter(self):
        """PS with b = lambda + 1 symbolic holds as a rational identity."""
        rep = check_pfaff_saalschutz(2, F(7, 2), LAMBDA + 1, LAMBDA - F(1, 2))
        assert rep.passed


class TestSheppard:
    def test_small_sweep(self):
        for m, a, b, d, e in random_instances("sheppard", 30, seed=5):
            rep = check_sheppard(m, a, b, d, e)
            assert rep.passed, rep.details

    def test_symbolic_instance_with_degenerate_point(self):
        """b = lambda, d = lambda - 2: prefactor and inner degenerate at
        lambda = 4 pointwise, but the rational-function identity holds and
        its value there matches the direct sum."""
        rep = check_sheppard(2, F(3), LAMBDA, LAMBDA - 2, F(5))
        assert rep.passed
        direct = hyper_terminating(HyperSpec((F(-2), F(3), F(4)), (F(2), F(5))))
        assert direct == F(-1, 15)
        lhs = hyper_terminating(HyperSpec((F(-2), F(3), LAMBDA), (LAMBDA - 2, F(5))))
        assert lhs(F(4)) == F(-1, 15)


class TestConnection:
    def test_named_instance(self):
        """m=1, b=2, c=5, x=1/3: both sides equal 13/15."""
        rep = check_connection_terminating(1, F(2), F(5), F(1, 3))
        assert rep.passed
        assert rep.details["lhs"] == "13/15"

    def test_small_sweep(self):
        for m, b, c, x in random_instances("connection-terminating", 25, seed=3):
            rep = check_connection_terminating(m, b, c, x)
            assert rep.passed, rep.details


def test_batch_draws_are_pinned():
    # the batches report an instance only when it fails, so the first
    # draws of a default run's batches (seeds 7, 8 and 9) are pinned here
    assert random_instances("pfaff-saalschutz", 3, seed=7) == [
        (6, F(-11, 13), F(-17, 3), F(7, 2)), (6, F(17, 2), F(12, 7), F(-6)),
        (7, F(2), F(-5, 3), F(15, 14))]
    assert random_instances("sheppard", 3, seed=8) == [
        (4, F(3, 13), F(-12, 7), F(-6), F(-3, 2)), (9, F(-7, 13), F(-19, 15), F(11, 15), F(1, 4)),
        (7, F(10, 13), F(-13, 9), F(-14, 3), F(1, 5))]
    assert random_instances("connection-terminating", 3, seed=9) == [
        (8, F(19, 12), F(-3, 5), F(-9)), (6, F(4, 5), F(6), F(1, 18)),
        (10, F(-18, 13), F(-2, 3), F(7, 6))]


class TestQuadraticTransform:
    def test_rational_parameters(self):
        rep = check_quadratic_transform(F(3, 2), F(5, 2), order=12)
        assert rep.passed

    def test_symbolic_a(self):
        """a = lambda, b = 2 (the (n-1)/2 instance at n=5), order 10."""
        rep = check_quadratic_transform(LAMBDA, F(2), order=10)
        assert rep.passed

    def test_gauss_series_guard(self):
        with pytest.raises(LowerPochhammerZeroError):
            hyper_2f1_series(F(1), F(1), F(-3), order=5)

    def test_gauss_series_values(self):
        s = hyper_2f1_series(F(1), F(1), F(2), order=6)
        # 2F1(1,1;2;x) = -log(1-x)/x has coefficients 1/(k+1)
        for k in range(7):
            assert s.coeffs[k] == F(1, k + 1)
