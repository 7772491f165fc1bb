"""Truncated formal power series over exact coefficient rings.

Coefficients may be Fraction, LambdaPoly or LambdaRat (mixed freely; the
integer 0 stands for the zero of whatever ring the neighbours live in).
A series carries an explicit truncation order: it is known modulo s^(order+1).
"""

from __future__ import annotations

from fractions import Fraction

from .lambda_algebra import falling, pochhammer


class FormalSeries:
    """Power series sum_k c_k s^k known through s^order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def zero(order):
        return FormalSeries([], order)

    @staticmethod
    def one(order):
        return FormalSeries([Fraction(1)], order)

    def valuation(self):
        """Index of first nonzero known coefficient, None if all vanish."""
        for k, c in enumerate(self.coeffs):
            if not _is_zero(c):
                return k
        return None

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return FormalSeries(self.coeffs[: order + 1], order)

    def __add__(self, other):
        other = _as_series(other, self.order)
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            n = min(self.order, other.order)
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if _is_zero(a):
                    continue
                for j in range(0, n + 1 - i):
                    b = other.coeffs[j]
                    if not _is_zero(b):
                        out[i + j] = out[i + j] + a * b
            return FormalSeries(out, n)
        # scalar
        return FormalSeries([c * other for c in self.coeffs], self.order)

    def __rmul__(self, other):
        return self * other

    def compose(self, inner):
        """Substitute s -> inner(s); inner must have valuation >= 1."""
        if not isinstance(inner, FormalSeries):
            raise TypeError("composition target must be a FormalSeries")
        v = inner.valuation()
        if v is not None and v == 0:
            raise ValueError("composition requires a series of valuation >= 1")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        # sum_k c_k inner^k: the powers stay in inner's ring, so only the
        # scalar products c_k * inner^k touch the coefficient ring of self
        acc = _promote(self.coeffs[0], n)
        power = FormalSeries.one(n)
        for c in self.coeffs[1: n + 1]:
            power = power * inner
            if not _is_zero(c):
                acc = acc + power * c
        return acc

    def compose_monomial(self, k):
        """Substitute s -> s^k for integer k >= 1."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("monomial exponent must be a positive integer")
        n = k * (self.order + 1) - 1
        out = [0] * (n + 1)
        for j, c in enumerate(self.coeffs):
            out[k * j] = c
        return FormalSeries(out, n)

    def agrees_with(self, other, through=None) -> bool:
        """Coefficientwise equality through the given order (default: min)."""
        if through is None:
            through = min(self.order, other.order)
        if through > min(self.order, other.order):
            raise ValueError("comparison order exceeds a truncation order")
        for k in range(through + 1):
            if not _eq(self.coeffs[k], other.coeffs[k]):
                return False
        return True

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"FormalSeries([{head}{tail}], order={self.order})"


def _is_zero(c):
    return c == 0


def _eq(a, b):
    if _is_zero(a) and _is_zero(b):
        return True
    return a == b


def _promote(c, order):
    s = FormalSeries.zero(order)
    s.coeffs[0] = c
    return s


def _as_series(x, order):
    if isinstance(x, FormalSeries):
        return x
    return _promote(x, order)


def binomial_series(alpha, order):
    """(1 + s)^alpha; alpha may be a Fraction or a LambdaPoly."""
    out = []
    for k in range(order + 1):
        out.append(falling(alpha, k) / pochhammer(Fraction(1), k))
    return FormalSeries(out, order)
