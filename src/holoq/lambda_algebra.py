"""Exact arithmetic in the spectral parameter lambda.

Everything here is exact. A LambdaPoly is a tuple of Python ints over one
positive int denominator, kept canonical: no trailing zeros and no factor
shared by the denominator and all the ints. Equality and hashing are
therefore structural, and every ring operation works on ints with a single
gcd normalisation of its result. Division is fraction-free pseudo-division
and the gcd runs the primitive polynomial remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1). The public view of the coefficients, `coeffs`, is a tuple of
fractions.Fraction. Rational functions are kept gcd-reduced with monic
denominator, so their equality is structural too. Their operations reduce by
the factors the operands can share only, as fractions.Fraction does for ints
(Henrici; Knuth, TAOCP vol. 2, 4.5.1): a sum a/b + c/d by g = gcd(b, d) and
then by what its numerator shares with g, a product (a/b)(c/d) by gcd(a, d)
and gcd(c, b) across the operands, so no gcd of a whole product is taken.
Pochhammer symbols of rationals are built on ints and reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


def _frac(x):
    # ints and Fractions only; floats are rejected to keep the core exact
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _poly(num, den) -> "LambdaPoly":
    """LambdaPoly from a list of ints over a positive int den, made canonical."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(tuple(num), den)


def _raw(num: tuple, den: int) -> "LambdaPoly":
    """LambdaPoly from a pair already in canonical form."""
    p = object.__new__(LambdaPoly)
    p._num = num
    p._den = den
    return p


def _pdiv(a, b):
    """Fraction-free division of int coefficient lists, b nonzero.

    Returns (q, r, s) with s*a == q*b + r, deg r < deg b and s > 0. Each step
    scales by only the part of |lc(b)| that its quotient digit needs, so s
    stays 1 when lc(b) divides every digit.
    """
    r = list(a)
    d = len(b) - 1
    lc = b[-1]
    alc = abs(lc)
    q = [0] * max(len(r) - d, 0)
    s = 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if not c:
            continue
        g = gcd(c, alc)
        m = alc // g
        f = c // g if lc > 0 else -c // g
        if m != 1:
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
        off = i - d
        q[off] = f
        for j in range(d):
            r[off + j] -= f * b[j]
        r[i] = 0
    return q, r[:d], s


def _primitive(num):
    g = gcd(*num)
    return [c // g for c in num] if g != 1 else list(num)


class LambdaPoly:
    """Polynomial in lambda with rational coefficients, ascending order,
    stored as ints over one common denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        self._num, self._den = p._num, p._den

    @property
    def coeffs(self) -> tuple:
        """Coefficients as Fractions, ascending order, no trailing zeros."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @staticmethod
    def x() -> "LambdaPoly":
        """The polynomial lambda itself."""
        return LambdaPoly([0, 1])

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the denominators."""
        a, da, b, db = self._num, self._den, other._num, other._den
        if da == db:
            den, fa, fb = da, 1, sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            den = da * fa
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [fa * c for c in a]
        for i, c in enumerate(b):
            out[i] += fb * c
        return _poly(out, den)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LambdaRat):
            return NotImplemented  # let LambdaRat handle mixed products
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        if len(b) > len(a):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        return _poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _poly([c * q for c in self._num], self._den * p)
        if isinstance(other, LambdaPoly):
            return LambdaRat(self, other)
        if isinstance(other, LambdaRat):
            return LambdaRat(self, _ONE) / other
        return NotImplemented

    def __rtruediv__(self, other):
        return LambdaRat(_as_poly(other), self)

    def divmod(self, other: "LambdaPoly"):
        """Exact polynomial division over Q, returns (quotient, remainder)."""
        if not isinstance(other, LambdaPoly):
            other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        q, r, s = _pdiv(self._num, other._num)
        # self = num/den and other = onum/oden with s*num == q*onum + r
        den = self._den * s
        return _poly([c * other._den for c in q], den), _poly(r, den)

    def __call__(self, x):
        """Evaluate at a float (Horner over correctly rounded coefficients)
        or exactly at an int or Fraction."""
        num, den = self._num, self._den
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(num):
                acc = acc * x + c / den
            return acc
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot evaluate at {type(x).__name__}")
        if not num:
            return 0
        # sum c_i p^i q^(d-i) over den q^d, for x = p/q
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(num):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, den * (qk // q))

    def derivative(self) -> "LambdaPoly":
        return _poly([i * c for i, c in enumerate(self._num)][1:], self._den)

    def shift(self, c) -> "LambdaPoly":
        """Precompose with lambda -> lambda + c, exactly."""
        c = _frac(c)
        p, q = c.numerator, c.denominator
        num = self._num
        d = len(num) - 1
        if d <= 0 or not p:
            return self
        # Taylor shift of sum_i a_i q^(d-i) (mu + p)^i in mu = q*lambda
        b = [a * q ** (d - i) for i, a in enumerate(num)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                b[j] += p * b[j + 1]
        return _poly([bk * q ** k for k, bk in enumerate(b)], self._den * q ** d)

    def monic(self) -> "LambdaPoly":
        if self.is_zero():
            return self
        num = self._num
        lc = num[-1]
        if lc < 0:
            return _poly([-c for c in num], -lc)
        return _poly(list(num), lc)

    def __repr__(self):
        if self.is_zero():
            return "LambdaPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*L")
            else:
                parts.append(f"{c}*L^{i}")
        return "LambdaPoly(" + " + ".join(parts) + ")"


_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)


def _as_poly(x):
    if isinstance(x, LambdaPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw((x.numerator,), x.denominator) if x else _ZERO
    return NotImplemented


def poly_gcd(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Monic gcd over Q by the primitive polynomial remainder sequence."""
    if a.is_zero() or b.is_zero():
        return b.monic() if a.is_zero() else a.monic()
    if a.degree == 0 or b.degree == 0:
        return _ONE
    u, v = _primitive(a._num), _primitive(b._num)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _pdiv(u, v)[1]
        while r and not r[-1]:
            r.pop()
        u, v = v, (_primitive(r) if r else r)
    # u is primitive, so |lc(u)| shares no factor with its coefficients
    if u[-1] < 0:
        u = [-c for c in u]
    return _raw(tuple(u), u[-1])


class LambdaRat:
    """Rational function in lambda, stored gcd-reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        if num is NotImplemented:
            raise TypeError("numerator must be a polynomial or rational number")
        if den is None:
            den = _ONE
        else:
            den = _as_poly(den)
            if den is NotImplemented:
                raise TypeError("denominator must be a polynomial or rational number")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        self.num, self.den = _monic_pair(num, den)

    @staticmethod
    def const(c) -> "LambdaRat":
        return _rat(LambdaPoly([c]), _ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> LambdaPoly:
        if not self.is_polynomial():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num / self.den.coeffs[0]

    def __eq__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return LambdaRat(a + c, b)
        # num = a (d/g) + c (b/g) is prime to b/g and to d/g, so only the
        # factors it shares with g = gcd(b, d) can cancel
        g = poly_gcd(b, d)
        if g.degree <= 0:
            return _rat(a * d + c * b, b * d)
        b, d = b.divmod(g)[0], d.divmod(g)[0]
        num = a * d + c * b
        h = poly_gcd(num, g)
        if h.degree > 0:
            num, g = num.divmod(h)[0], g.divmod(h)[0]
        return _rat(num, b * d * g)

    __radd__ = __add__

    def __neg__(self):
        return _rat(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return _cross(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _cross(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return _as_rat(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("rational function powers must be integers")
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return _rat(self.den, self.num) ** (-k)
        return _rat(self.num ** k, self.den ** k)

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"evaluation at pole lambda = {x}")
        return self.num(x) / d

    def shift(self, c) -> "LambdaRat":
        # a shift keeps both the coprimality and the leading coefficients
        return _rat(self.num.shift(c), self.den.shift(c))

    def __repr__(self):
        if self.is_polynomial():
            return f"LambdaRat({self.num!r})"
        return f"LambdaRat({self.num!r} / {self.den!r})"


def _monic_pair(num: LambdaPoly, den: LambdaPoly):
    """(num, den) scaled so den is monic; zero becomes 0/1."""
    if not num._num:
        return _ZERO, _ONE
    lc = den._num[-1]
    if lc != den._den:
        lead = Fraction(lc, den._den)
        num, den = num / lead, den / lead
    return num, den


def _rat(num: LambdaPoly, den: LambdaPoly) -> LambdaRat:
    """LambdaRat from polynomials already prime to each other, den nonzero."""
    r = object.__new__(LambdaRat)
    r.num, r.den = _monic_pair(num, den)
    return r


def _cross(a, b, c, d) -> LambdaRat:
    """(a/b) (c/d) for coprime pairs a/b and c/d: only a and d, and c and b,
    can share a factor, so cancel those before multiplying."""
    g = poly_gcd(a, d)
    if g.degree > 0:
        a, d = a.divmod(g)[0], d.divmod(g)[0]
    g = poly_gcd(c, b)
    if g.degree > 0:
        c, b = c.divmod(g)[0], b.divmod(g)[0]
    return _rat(a * c, b * d)


def _as_rat(x):
    if isinstance(x, LambdaRat):
        return x
    if isinstance(x, (int, Fraction, LambdaPoly)):
        return _rat(_as_poly(x), _ONE)
    return NotImplemented


LAMBDA = LambdaPoly.x()


def pochhammer(x, m: int):
    """Rising factorial (x)_m = x (x+1) ... (x+m-1), with (x)_0 = 1.

    Works for Fraction, int, LambdaPoly and LambdaRat arguments; the result
    lives in the same ring as the input.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("pochhammer index must be a nonnegative integer")
    if isinstance(x, (int, Fraction)):
        # prod (p + k q) / q^m on ints, reduced once
        p, q = x.numerator, x.denominator
        num = 1
        for k in range(m):
            num *= p + k * q
        return Fraction(num, q ** m)
    out = None
    for k in range(m):
        f = x + k
        out = f if out is None else out * f
    if out is None:
        if isinstance(x, LambdaPoly):
            return _ONE
        if isinstance(x, LambdaRat):
            return LambdaRat.const(1)
        return Fraction(1)
    return out


def falling(x, m: int):
    """Falling factorial x (x-1) ... (x-m+1) = (-1)^m (-x)_m, in the ring
    pochhammer gives."""
    return (-1) ** m * pochhammer(-x, m)


def binomial(n: int, k: int) -> Fraction:
    """Exact binomial coefficient of an int n, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))
