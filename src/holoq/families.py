"""One-parameter operator families rational in the spectral parameter.

One recursion generates every T_{2N}(lambda). A conformally flat metric g has
the exact Poincare-Einstein metric r^{-2}(dr^2 + g(1 - r^2 A/2)^2), A = g^{-1} P
(Fefferman-Graham, The Ambient Metric, section 7). Its eigenvalue equation
times the volume factor v(r) = det(1 - r^2 A/2), solved for
u = sum_j r^{lambda+2j} T_{2j}(lambda) f, gives

    T_{2N} = -[2N(2 lambda + 2N - n)]^{-1}
             sum_{k=1..N} (c_{Nk}(lambda) v_{2k} + D_{k-1}) T_{2N-2k},

D_k the conservative r^{2k} part of the tangential Laplacian. On tori an
operator is a sum of words of these self-adjoint primitives with rational
coefficients, so its adjoint reverses each word; on constants every D_k
vanishes. field_poly gives the action on an input field as a polynomial in
the parameter with field coefficients over one scalar denominator. Evaluate
that pair with pair_value and pair_derivative, which divide removable poles
out exactly, or combine pairs with over_lcm.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isfinite

import numpy as np

from .conformal import CurvatureBundle, apply_primitive
from .lambda_algebra import LAMBDA, LambdaPoly, LambdaRat, pochhammer, poly_gcd
from .reports import max_abs


class PoleError(ValueError):
    """Raised when an evaluation point is a genuine (non-removable) pole."""

    def __init__(self, lam, residue_norm):
        super().__init__(f"non-removable pole at {lam} (residue norm {residue_norm:.3e})")
        self.lam = lam
        self.residue_norm = residue_norm

    def __reduce__(self):
        # pickle rebuilds from args, which hold only the message
        return PoleError, (self.lam, self.residue_norm)


class FieldPoly:
    """Polynomial in the parameter whose coefficients are grid fields."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = list(coeffs)

    def __iadd__(self, other):
        """Add other into this polynomial's arrays, which the caller owns.
        Coefficients past this polynomial's length are taken from other by
        reference, so other must be owned by the caller too (a fresh product)
        and not used after. acc += x is bitwise acc + x, and addition is
        commutative, so a sum accumulated in term order has the bits of one
        built out of place in that order."""
        for k, c in enumerate(other.coeffs):
            if k < len(self.coeffs):
                self.coeffs[k] += c
            else:
                self.coeffs.append(c)
        return self

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
        return [max_abs(arr) for arr in self.coeffs]

    def max_norm(self):
        """The largest coefficient norm, NaN if a coefficient holds a NaN."""
        return max_abs(self.norms())


class LambdaOperator:
    """Sum of words of self-adjoint grid primitives (see apply_primitive),
    each with a coefficient rational in the parameter: terms maps a word,
    its primitive names outermost first, to that coefficient."""

    def __init__(self, terms):
        self.terms = {word: rat for word, rat in terms.items() if not rat.is_zero()}

    def __add__(self, other):
        terms = dict(self.terms)
        for word, rat in other.terms.items():
            terms[word] = terms[word] + rat if word in terms else rat
        return LambdaOperator(terms)

    def adjoint(self) -> "LambdaOperator":
        return LambdaOperator({word[::-1]: rat for word, rat in self.terms.items()})

    def scale(self, factor) -> "LambdaOperator":
        return LambdaOperator({word: rat * factor for word, rat in self.terms.items()})

    def field_poly(self, bundle: CurvatureBundle, f):
        """Action on f as (numerator FieldPoly, scalar denominator poly).

        Each word is applied to f once, words sharing a suffix share its
        application, and the coefficients enter only at the end, over the
        lcm of their denominators. Every D_k kills constants, so on the ones
        field the words whose innermost primitive is a D_k are skipped; the
        denominator is still the lcm over all words."""
        applied = {(): np.asarray(f, dtype=float)}
        terms = self.terms
        if np.all(applied[()] == 1.0):
            terms = {word: rat for word, rat in terms.items() if not word or word[-1][0] != "D"}
        for word in terms:
            for i in range(len(word) - 1, -1, -1):
                if word[i:] not in applied:
                    applied[word[i:]] = apply_primitive(bundle, word[i], applied[word[i + 1:]])
        den = _lcm(rat.den for rat in self.terms.values())
        num = FieldPoly()
        for word, rat in terms.items():
            num += FieldPoly([applied[word]]).mul_poly(rat.num * den.divmod(rat.den)[0])
        return num, den

    def apply_at(self, bundle: CurvatureBundle, f, lam):
        """Evaluate at a rational parameter value, dividing out removable poles."""
        return pair_value(self.field_poly(bundle, f), lam)

    def derivative_at(self, bundle: CurvatureBundle, f, lam):
        """Parameter derivative at a rational value via the quotient rule."""
        return pair_derivative(self.field_poly(bundle, f), lam)


def _lcm(dens):
    lcm = LambdaPoly((1,))
    for den in dens:
        lcm = (lcm * den).divmod(poly_gcd(lcm, den))[0]
    return lcm


def over_lcm(terms):
    """Bring (weight, (num, den)) terms, each standing for weight * num / den,
    to the lcm of their denominators. Returns (parts, lcm): parts yields
    weight * cofactor * num for each term in order, with each cofactor
    lcm / den exact, and builds each part only when it is consumed, so a
    caller that sums them holds one at a time. The sum of the parts over the
    lcm is the sum of the terms."""
    lcm = _lcm(den for _, (_, den) in terms)
    return (num.mul_poly(lcm.divmod(den)[0] * w) for w, (num, den) in terms), lcm


# A pole is removable when the numerator's residue there is below this
# fraction of the reduced numerator's size.
RESIDUE_TOL = 1e-9


def _reduced(pair, lam):
    """Divide the removable poles at lam out of a (num, den) pair."""
    num, den = pair
    lam = Fraction(lam)
    info = {"reduced": 0, "residue_norm": 0.0}
    while den(lam) == 0:
        den = den.divmod(LambdaPoly((-lam, Fraction(1))))[0]  # exact: den(lam) == 0
        num, residue = num.divide_linear(lam)
        res_norm = max_abs(residue)
        scale = max(num.max_norm(), 1.0)
        if res_norm > RESIDUE_TOL * scale:
            raise PoleError(lam, res_norm)
        if not isfinite(res_norm):
            # A removable pole cannot absorb a NaN: carry it into the value.
            # np.where builds a new array; the quotient's may be cached fields.
            c0 = num.coeffs[0] if num.coeffs else 0.0
            num = FieldPoly([np.where(np.isfinite(residue), c0, np.nan)] + num.coeffs[1:])
        info["reduced"] += 1
        info["residue_norm"] = max_abs((info["residue_norm"], res_norm))
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


def recursion_coefficients(n: int, N: int):
    """The order-2N step of the recursion: the indicial factor
    2N(2 lambda + 2N - n) and c_{Nk}(lambda) = 2(N-k)(2 lambda + 2N - 2k - n)
    + 2k(lambda + 2N - 2k) for k = 1..N."""
    indicial = (2 * LAMBDA + (2 * N - n)) * (2 * N)
    cs = [(2 * LAMBDA + (2 * N - 2 * k - n)) * (2 * (N - k)) + (LAMBDA + (2 * N - 2 * k)) * (2 * k)
          for k in range(1, N + 1)]
    return indicial, cs


def _recursion(n: int, N: int, one, step):
    """[T_0, T_2, ..., T_{2N}] from T_0 = one and
    T_{2M} = sum_k step(k, T_{2M-2k}, -c_{Mk}/indicial, -1/indicial), where
    step(k, t, a, b) stands for (a v_{2k} + b D_{k-1}) composed with t."""
    out = [one]
    for M in range(1, N + 1):
        indicial, cs = recursion_coefficients(n, M)
        terms = [step(k, out[M - k], LambdaRat(-c, indicial), LambdaRat(-1, indicial))
                 for k, c in enumerate(cs, 1)]
        out.append(sum(terms[1:], terms[0]))
    return out


def build_T(n: int, N: int) -> LambdaOperator:
    """The order-2N family member on torus metrics, rational in the parameter."""
    def step(k, t, a, b):
        terms = {}
        for word, rat in t.terms.items():
            terms[(f"v{2 * k}",) + word] = a * rat
            terms[(f"D{k - 1}",) + word] = b * rat
        return LambdaOperator(terms)

    return _recursion(n, N, LambdaOperator({(): LambdaRat.const(1)}), step)[N]


def values_on_one(n: int, v) -> list:
    """[T_{2j}(lambda)(1) for j = 0..len(v) - 1] on a metric whose holographic
    coefficients v = [v_0, v_2, ...] are constants, so that every D_k kills
    constants: the sphere and the constant-curvature model."""
    return _recursion(n, len(v) - 1, LambdaRat.const(1), lambda k, t, a, b: t * (a * v[k]))


def constant_terms(ts, v, N: int) -> list:
    """[T*_{2j}(v_{2N-2j}) for j = 0..N] on a metric of constant curvature,
    where T* = T and each family acts on a constant by its value
    ts[j] = T_{2j}(lambda)(1) (values_on_one); v = [v_0, v_2, ...]."""
    return [ts[j] * v[N - j] for j in range(N + 1)]


def master3_weights(n: int, N: int) -> list:
    """Weights of master-3, lam N S0 + (lam - n + 2N) S1 = 0, on the terms
    T*_{2j}(lam)(v_{2N-2j}), j = 0..N, of S0 = sum_j and S1 = sum_j j."""
    return [(N + j) * LAMBDA - j * (n - 2 * N) for j in range(N + 1)]


def build_P(n: int, N: int) -> LambdaOperator:
    """Polynomial normalization of the order-2N family: multiplying by
    (-4)^N N! (lam - n/2 + 1)_N clears every denominator of a right family.
    A wrong one keeps some, and the checks that use it fail."""
    factor = pochhammer(LAMBDA - Fraction(n, 2) + 1, N) * (Fraction(-4) ** N * factorial(N))
    return build_T(n, N).scale(factor)

