"""One-parameter operator families rational in the spectral parameter.

An operator is a sum of terms, each a rational coefficient times a word of
first-order stages; a stage is an affine combination of the named grid
primitives with constant or polynomial coefficients. Evaluation turns the
action on a fixed input field into a polynomial with field coefficients over
a scalar denominator, the lcm of the term denominators, so removable
singularities can be divided out exactly and parameter derivatives read off
by the quotient rule. That (numerator, denominator) pair does not depend on
the parameter: build it once with field_poly and evaluate it at any number
of points with pair_value and pair_derivative, or combine pairs over their
common denominator with over_lcm.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .conformal import CurvatureBundle, apply_primitive
from .lambda_algebra import LAMBDA, LambdaPoly, LambdaRat, pochhammer, poly_gcd

ADJOINT_RULES = {
    "id": ((1, "id"),),
    "lap": ((1, "lap"),),
    "mJ": ((1, "mJ"),),
    "mPsq": ((1, "mPsq"),),
    "mLapJ": ((1, "mLapJ"),),
    "pdiv": ((1, "pdiv"),),
    "gJ": ((-1, "gJ"), (-1, "mLapJ")),
}


class PoleError(ValueError):
    """Raised when an evaluation point is a genuine (non-removable) pole."""

    def __init__(self, lam, residue_norm):
        super().__init__(f"non-removable pole at {lam} (residue norm {residue_norm:.3e})")
        self.lam = lam
        self.residue_norm = residue_norm


class FieldPoly:
    """Polynomial in the parameter whose coefficients are grid fields."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = list(coeffs)

    def __add__(self, other):
        long, short = (self.coeffs, other.coeffs) if len(self.coeffs) >= len(other.coeffs) \
            else (other.coeffs, self.coeffs)
        out = list(long)
        for k, c in enumerate(short):
            out[k] = out[k] + c
        return FieldPoly(out)

    def mul_poly(self, p: LambdaPoly):
        if not self.coeffs:
            return FieldPoly()
        out = [np.zeros_like(self.coeffs[0]) for _ in range(len(self.coeffs) + p.degree)]
        for k, pk in enumerate(p.coeffs):
            fk = float(pk)
            if fk == 0.0:
                continue
            for i, arr in enumerate(self.coeffs):
                out[i + k] = out[i + k] + fk * arr
        return FieldPoly(out)

    def eval(self, lam):
        lam = float(lam)
        acc = 0.0
        for arr in reversed(self.coeffs):
            acc = acc * lam + arr
        return acc

    def derivative(self):
        return FieldPoly([k * arr for k, arr in enumerate(self.coeffs) if k >= 1])

    def shift(self, c):
        """Taylor shift: the polynomial p(parameter + c)."""
        c = float(c)
        out = list(self.coeffs)
        for i in range(len(out) - 1):
            for k in range(len(out) - 2, i - 1, -1):
                out[k] = out[k] + c * out[k + 1]
        return FieldPoly(out)

    def divide_linear(self, root):
        """Synthetic division by (parameter - root); returns (quotient, remainder)."""
        root = float(root)
        if not self.coeffs:
            return FieldPoly(), 0.0
        quot = [None] * (len(self.coeffs) - 1)
        carry = self.coeffs[-1]
        for k in range(len(self.coeffs) - 2, -1, -1):
            quot[k] = carry
            carry = self.coeffs[k] + root * carry
        return FieldPoly(quot), carry

    def norms(self):
        """Max norm of each coefficient field, in ascending order."""
        return [float(np.max(np.abs(arr))) for arr in self.coeffs]

    def max_norm(self):
        return max(self.norms(), default=0.0)


def _coeff_poly(c):
    if isinstance(c, LambdaPoly):
        return c
    return LambdaPoly((Fraction(c),))


def _apply_word(bundle: CurvatureBundle, word, fp: FieldPoly) -> FieldPoly:
    for stage in reversed(word):
        acc = FieldPoly()
        for coeff, name in stage:
            applied = FieldPoly([apply_primitive(bundle, name, arr) for arr in fp.coeffs])
            acc = acc + applied.mul_poly(_coeff_poly(coeff))
        fp = acc
    return fp


def _stage_adjoint(stage):
    out = []
    for coeff, name in stage:
        for sign, adj_name in ADJOINT_RULES[name]:
            out.append((_coeff_poly(coeff) * Fraction(sign), adj_name))
    return tuple(out)


class LambdaOperator:
    """Sum of rational-coefficient words of grid-primitive stages."""

    def __init__(self, n: int, terms):
        self.n = n
        self.terms = [(rat if isinstance(rat, LambdaRat) else LambdaRat(_coeff_poly(rat)),
                       tuple(tuple(stage) for stage in word))
                      for rat, word in terms]

    def adjoint(self) -> "LambdaOperator":
        terms = [(rat, tuple(_stage_adjoint(stage) for stage in reversed(word)))
                 for rat, word in self.terms]
        return LambdaOperator(self.n, terms)

    def scale(self, factor) -> "LambdaOperator":
        if not isinstance(factor, LambdaRat):
            factor = LambdaRat(_coeff_poly(factor))
        return LambdaOperator(self.n, [(rat * factor, word) for rat, word in self.terms])

    def is_polynomial(self) -> bool:
        return all(rat.is_polynomial() for rat, _ in self.terms)

    def field_poly(self, bundle: CurvatureBundle, f):
        """Action on f as (numerator FieldPoly, scalar denominator poly)."""
        f = FieldPoly([np.asarray(f, dtype=float)])
        parts, den = over_lcm([(rat.num, (_apply_word(bundle, word, f), rat.den))
                               for rat, word in self.terms])
        return sum(parts, FieldPoly()), den

    def apply_at(self, bundle: CurvatureBundle, f, lam):
        """Evaluate at a rational parameter value, dividing out removable poles."""
        return pair_value(self.field_poly(bundle, f), lam)

    def derivative_at(self, bundle: CurvatureBundle, f, lam):
        """Parameter derivative at a rational value via the quotient rule."""
        return pair_derivative(self.field_poly(bundle, f), lam)


def over_lcm(terms):
    """Bring (weight, (num, den)) terms, each standing for weight * num / den,
    to the lcm of their denominators. Returns ([weight * cofactor * num], lcm)
    with each cofactor lcm / den exact; the sum of the list over the lcm is
    the sum of the terms."""
    lcm = LambdaPoly((1,))
    for _, (_, den) in terms:
        lcm = (lcm * den).divmod(poly_gcd(lcm, den))[0]
    return [num.mul_poly(_coeff_poly(w) * lcm.divmod(den)[0]) for w, (num, den) in terms], lcm


# A pole is removable when the numerator's residue there is below this
# fraction of the reduced numerator's size.
RESIDUE_TOL = 1e-9


def _reduced(pair, lam):
    """Divide the removable poles at lam out of a (num, den) pair."""
    num, den = pair
    lam = Fraction(lam)
    info = {"reduced": 0, "residue_norm": 0.0}
    while den(lam) == 0:
        linear = LambdaPoly((-lam, Fraction(1)))
        den, rem = den.divmod(linear)
        if not rem.is_zero():
            raise AssertionError("exact scalar division left a remainder")
        num, residue = num.divide_linear(lam)
        res_norm = float(np.max(np.abs(residue))) if not isinstance(residue, float) else 0.0
        scale = max(num.max_norm(), 1.0)
        if res_norm > RESIDUE_TOL * scale:
            raise PoleError(lam, res_norm)
        info["reduced"] += 1
        info["residue_norm"] = max(info["residue_norm"], res_norm)
    return num, den, lam, info


def pair_value(pair, lam):
    """Value of a field_poly (num, den) pair at a rational parameter value."""
    num, den, lam, info = _reduced(pair, lam)
    return num.eval(lam) / float(den(lam)), info


def pair_derivative(pair, lam):
    """Parameter derivative of a field_poly (num, den) pair, by the quotient rule."""
    num, den, lam, info = _reduced(pair, lam)
    d = float(den(lam))
    dprime = float(den.derivative()(lam))
    n_val = num.eval(lam)
    nprime = num.derivative().eval(lam)
    return (nprime * d - n_val * dprime) / (d * d), info


def build_T(n: int, N: int) -> LambdaOperator:
    """The order-2N family member, rational in the parameter; N in {1, 2}."""
    lam = LAMBDA
    if N == 1:
        den = LambdaPoly((Fraction(2 * (n - 2)), Fraction(-4)))
        word = (((Fraction(1), "lap"), (-lam, "mJ")),)
        return LambdaOperator(n, [(LambdaRat(LambdaPoly((Fraction(1),)), den), word)])
    if N == 2:
        p1 = LambdaPoly((Fraction(n - 2), Fraction(-2)))
        p2 = LambdaPoly((Fraction(n - 4), Fraction(-2)))
        den = p1 * p2 * Fraction(8)
        c = LambdaPoly((Fraction(2 - n), Fraction(2)))
        one = LambdaPoly((Fraction(1),))
        stage_hi = ((Fraction(1), "lap"), (-lam - 2, "mJ"))
        stage_lo = ((Fraction(1), "lap"), (-lam, "mJ"))
        return LambdaOperator(n, [
            (LambdaRat(one, den), (stage_hi, stage_lo)),
            (LambdaRat(lam * c, den), (((Fraction(1), "mPsq"),),)),
            (LambdaRat(c * Fraction(2), den), (((Fraction(1), "pdiv"),),)),
            (LambdaRat(c, den), (((Fraction(1), "gJ"),),)),
        ])
    raise NotImplementedError(
        f"operator family is only constructed for orders 2 and 4 (got N={N}); "
        "higher orders are covered by the exact sphere closed forms")


def build_P(n: int, N: int) -> LambdaOperator:
    """Polynomial normalization of the order-2N family.

    Multiplying by (-4)^N N! (lam - n/2 + 1)_N clears every denominator; the
    result is asserted polynomial in the parameter.
    """
    f = Fraction(n, 2)
    factor = pochhammer(LAMBDA - f + 1, N) * (Fraction(-4) ** N * factorial(N))
    op = build_T(n, N).scale(factor)
    if not op.is_polynomial():
        raise AssertionError("normalized family failed to clear denominators")
    return op

