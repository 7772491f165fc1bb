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
out exactly, or combine pairs with over_lcm. A torus bundle caches the
families T*_{2j}(lambda)(v_{2k}) as their operators (family), and their
numerators are formed on the bundle or a block of its cells (family_poly).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isfinite

import numpy as np

from .conformal import HALO, LAP_V2, Cells, CurvatureBundle, apply_primitive, assembled, holo_coeffs
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
        """The product with p. Each output coefficient starts from its first
        term and takes the later ones in place, in ascending order of p's
        coefficients, through one scratch buffer; a coefficient no term
        reaches is zero."""
        if not self.coeffs:
            return FieldPoly()
        out = [None] * (len(self.coeffs) + p.degree)
        scratch = None
        for k, pk in enumerate(p.coeffs):
            fk = float(pk)
            if fk == 0.0:
                continue
            for i, arr in enumerate(self.coeffs):
                if out[i + k] is None:
                    out[i + k] = fk * arr
                else:
                    if scratch is None:
                        scratch = np.empty_like(arr)
                    out[i + k] += np.multiply(fk, arr, out=scratch)
        return FieldPoly([np.zeros_like(self.coeffs[0]) if c is None else c for c in out])

    def eval(self, lam):
        """Horner's rule, acc * lam + arr from the top coefficient down, in
        one owned field after the first step."""
        lam = float(lam)
        acc = 0.0
        for arr in reversed(self.coeffs):
            if isinstance(acc, np.ndarray):
                acc *= lam
                acc += arr
            else:
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
        self._over_den = None  # see _cleared

    def __add__(self, other):
        terms = dict(self.terms)
        for word, rat in other.terms.items():
            terms[word] = terms[word] + rat if word in terms else rat
        return LambdaOperator(terms)

    def adjoint(self) -> "LambdaOperator":
        return LambdaOperator({word[::-1]: rat for word, rat in self.terms.items()})

    def scale(self, factor) -> "LambdaOperator":
        return LambdaOperator({word: rat * factor for word, rat in self.terms.items()})

    def field_poly(self, bundle, f):
        """Action on f as (numerator FieldPoly, scalar denominator poly), on a
        bundle, or on a block of its cells (conformal.Cells) for f the ones
        field there.

        Each word is applied to f once, words sharing a suffix share its
        application, and the coefficients enter over the lcm of their
        denominators. The terms are taken in order: a term applies the
        suffixes of its word not yet applied, adds its field times its
        cleared coefficient into the numerator, through one scratch
        buffer, and drops the applied fields no later term reads. Every D_k
        kills constants, so on the ones field the words whose innermost
        primitive is a D_k are skipped; the denominator is still the lcm
        over all words."""
        f = np.asarray(f, dtype=float)
        den, cleared = self._cleared()
        word_list = list(self.terms)
        if any(word and word[-1][0] == "D" for word in word_list) and np.all(f == 1.0):
            word_list = [word for word in word_list if not word or word[-1][0] != "D"]
        # suffix -> index of the last word that ends in it
        last_read = {word[i:]: t for t, word in enumerate(word_list) for i in range(len(word) + 1)}
        applied, num, scratch = {(): f}, [], None
        for t, word in enumerate(word_list):
            arr = _applied(bundle, word, applied)
            # as FieldPoly([arr]).mul_poly(p) added into num: a vanishing
            # coefficient of p contributes a zero field
            for k, fk in enumerate(cleared[word]):
                if k == len(num):
                    num.append(fk * arr if fk != 0.0 else np.zeros_like(arr))
                elif fk != 0.0:
                    if scratch is None:
                        scratch = np.empty_like(arr)
                    num[k] += np.multiply(fk, arr, out=scratch)
                else:
                    num[k] += 0.0
            del arr  # before the fields no later term reads are dropped
            for suffix in [s for s, u in last_read.items() if u == t]:
                applied.pop(suffix, None)
        return FieldPoly(num), den

    def denominator(self):
        """The lcm of the denominators of the coefficients."""
        return self._cleared()[0]

    def _cleared(self):
        """(lcm of the denominators, {word: its coefficient over the lcm, as
        the floats of its numerator's coefficients}), built on first use:
        the terms are not changed after that."""
        if self._over_den is None:
            den = _lcm(rat.den for rat in self.terms.values())
            self._over_den = den, {
                word: [float(pk) for pk in (rat.num * den.divmod(rat.den)[0]).coeffs]
                for word, rat in self.terms.items()}
        return self._over_den

    def apply_at(self, bundle: CurvatureBundle, f, lam):
        """Evaluate at a rational parameter value, dividing out removable poles."""
        return pair_value(self.field_poly(bundle, f), lam)

    def derivative_at(self, bundle: CurvatureBundle, f, lam):
        """Parameter derivative at a rational value via the quotient rule."""
        return pair_derivative(self.field_poly(bundle, f), lam)


def _applied(c, word, applied):
    """The application of word, its outermost primitive applied to the
    rest's, on a bundle or a block of its cells (Cells), from and into
    applied, the applications of its suffixes. On a block, where applied
    holds them on the ones field, the word D0(v2) is the block's lap_v2
    (LAP_V2), and a D_k reads its operand on the window's rows: the rest of
    word applied there, or on the block's own cells (a grid of one block)
    the rest's application in applied. A word whose nested D_k read past
    the window's HALO rows raises ValueError."""
    if word in applied:
        return applied[word]
    if not isinstance(c, Cells) or word[0][0] != "D":
        out = apply_primitive(c, word[0], _applied(c, word[1:], applied))
    elif word == LAP_V2:
        out = c.lap_v2
    else:
        reach = 4 * sum(name[0] == "D" for name in word)  # rows beyond the block
        if c.window is not None and reach > HALO:
            raise ValueError(f"the word {word} reads its innermost operand {reach} rows "
                             f"beyond its block, past the window's HALO = {HALO} rows")

        def operand(rows):  # the rest of word applied to the ones field on rows
            if rows == c.cells:
                return _applied(c, word[1:], applied)
            r = c.on(rows)
            return _applied(r, word[1:], {(): holo_coeffs(r, 0)})

        out = apply_primitive(c, word[0], operand)
    applied[word] = out
    return out


def _lcm(dens):
    lcm = LambdaPoly((1,))
    for den in dens:
        lcm = (lcm * den).divmod(poly_gcd(lcm, den))[0]
    return lcm


def over_lcm(terms):
    """The scalars that bring (weight, den) terms, each standing for
    weight * num / den, to the lcm of their denominators. Returns
    (cofactors, lcm), cofactors[i] = weight_i * lcm / den_i exactly: the sum
    of cofactors[i] * num_i over the lcm is the sum of the terms."""
    lcm = _lcm(den for _, den in terms)
    return [lcm.divmod(den)[0] * w for w, den in terms], lcm


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
    constants, as on the round sphere."""
    return _recursion(n, len(v) - 1, LambdaRat.const(1), lambda k, t, a, b: t * (a * v[k]))


def constant_terms(ts, v, N: int) -> list:
    """[T*_{2j}(v_{2N-2j}) for j = 0..N] on the round sphere, where T* = T
    and each family acts on a constant by its value
    ts[j] = T_{2j}(lambda)(1) (values_on_one); v = [v_0, v_2, ...]."""
    return [ts[j] * v[N - j] for j in range(N + 1)]


def holographic_q(N: int, values):
    """The holographic formula for every Q-curvature,

        Q_{2N} = (-1)^N 4^{N-1} ((N-1)!)^2 sum_{j<N} (2N - 2j) T*_{2j}(n/2 - N)(v_{2N-2j}),

    from values[j] = T*_{2j}(n/2 - N)(v_{2N-2j}), j = 0..N-1: fields on a
    torus, rationals on the round sphere."""
    return (-1) ** N * 4 ** (N - 1) * factorial(N - 1) ** 2 * sum(
        (2 * N - 2 * j) * values[j] for j in range(N))


def constant_q(n: int, ts, v, N: int) -> Fraction:
    """Q_{2N} of the round sphere by holographic_q, from the family values
    ts[j] = T_{2j}(lambda)(1) and the coefficients v[k] = v_{2k}, j, k <= N."""
    mu = Fraction(n, 2) - N
    return holographic_q(N, [t(mu) for t in constant_terms(ts, v, N)[:N]])


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


def family(b: CurvatureBundle, j: int, k: int):
    """The (operator, den) pair of T*_{2j}(lam)(v_{2k}), cached on the bundle.

    The operator is T*_{2j}(lam) after the multiplication by v_{2k}, so that
    it acts on the ones field, as every family does. That is how
    T*_2(lam)(v2) and T*_4(lam)(1) both read D0(v2), since v2 times 1 is v2
    bit for bit: each block's lap_v2 (LAP_V2), which lap J reads too."""
    pair = b.family_polys.get((j, k))
    if pair is None:
        op = build_T(b.n, j).adjoint()
        if k:
            op = LambdaOperator({word + (f"v{2 * k}",): rat for word, rat in op.terms.items()})
        pair = b.family_polys[(j, k)] = (op, op.denominator())
    return pair


def family_poly(c, j: int, k: int):
    """T*_{2j}(lam)(v_{2k}) as a field_poly (num, den) pair in lam, formed on
    a bundle or on a block of its cells from the family cached on the
    bundle (family); evaluate it with pair_value or pair_derivative. A block
    forms each family once and keeps it. The bundle keeps no numerator
    field: it forms the whole numerator a block at a time, for the readers
    of whole fields."""
    if isinstance(c, Cells):
        pair = c.formed.get((j, k))
        if pair is None:
            op, den = family(c.bundle, j, k)
            pair = c.formed[(j, k)] = (op.field_poly(c, holo_coeffs(c, 0))[0], den)
        return pair
    den = family(c, j, k)[1]
    return FieldPoly(assembled(c, lambda block: family_poly(block, j, k)[0].coeffs)), den
