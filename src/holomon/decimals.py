"""Working-precision arithmetic in the standard library's ``decimal``.

``decimal`` is C arithmetic (libmpdec) with relative rounding like
mpmath's, several times faster than mpmath's pure-Python numbers.  Its
context runs two digits above the working precision d: the unit
roundoff 5e-(d+2) is below mpmath's 2^-prec, about 1e-(d+1), at d
digits.  An invalid operation gives NaN, as in mpmath; a division of a
nonzero Decimal by zero and an overflow raise.  A ``Complex`` divided by
a zero ``Complex`` has NaN parts (0/0), where mpmath would raise.

Numbers come in through ``to_decimal`` and ``Complex.of``, exactly and
rounded once, and go back to mpmath through ``mp.mpmathify``.  Every
operation rounds to the decimal context current at the time, so each
caller that computes enters ``working`` itself; the caller's own context
is left as it was.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction

import mpmath as mp


def working(digits: int):
    """A local decimal context two digits above ``digits``, to be entered
    with ``with``."""
    return decimal.localcontext(decimal.Context(
        prec=digits + 2, traps=[decimal.DivisionByZero, decimal.Overflow]))


def to_decimal(x) -> Decimal:
    """An int, a Fraction or an mpf as a Decimal, rounded once to the
    current decimal context.  A finite mpf man 2^exp with exp < 0 is
    exactly man 5^-exp 10^exp; NaN and the infinities map to their own
    kind."""
    if isinstance(x, (int, Fraction)):
        return Decimal(x.numerator) / x.denominator
    if mp.isnan(x):
        return Decimal("NaN")
    if mp.isinf(x):
        return Decimal("-Infinity" if x < 0 else "Infinity")
    sign, man, exp, _ = x._mpf_
    man, exp10 = (man * 5 ** -exp, exp) if exp < 0 else (man << exp, 0)
    return Decimal(-man if sign else man).scaleb(exp10)


class Complex:
    """re + i im over two Decimals, rounded to the current decimal context.

    The other operand of +, - and * is a Complex or an int; division
    takes a Complex."""

    __slots__ = ("re", "im")

    def __init__(self, re: Decimal, im: Decimal):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, z) -> "Complex":
        """A Python or mpmath number, taken in exactly and rounded once."""
        z = mp.mpmathify(z)
        return cls(to_decimal(z.real), to_decimal(z.imag))

    def __repr__(self):
        return f"Complex({self.re!r}, {self.im!r})"

    def __add__(self, other):
        if type(other) is Complex:
            return Complex(self.re + other.re, self.im + other.im)
        return Complex(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Complex:
            return Complex(self.re - other.re, self.im - other.im)
        return Complex(self.re - other, self.im)

    def __mul__(self, other):
        if type(other) is Complex:
            a, b, c, d = self.re, self.im, other.re, other.im
            return Complex(a * c - b * d, a * d + b * c)
        return Complex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        return Complex((a * c + b * d) / den, (b * c - a * d) / den)

    def __abs__(self):
        return self.norm2().sqrt()

    def norm2(self) -> Decimal:
        """re^2 + im^2, the squared modulus, with no square root."""
        return self.re * self.re + self.im * self.im

    def sqrt(self) -> "Complex":
        """The principal square root, on mpmath's branch: the negative real
        axis, with either sign of a zero imaginary part, goes to
        +i sqrt|re|; elsewhere the root's imaginary part has the sign of
        im."""
        re, im = self.re, self.im
        if not im:
            if re < 0:
                return Complex(Decimal(0), (-re).sqrt())
            return Complex(re.sqrt(), Decimal(0))
        r = abs(self)
        if re >= 0:
            t = ((r + re) / 2).sqrt()
            return Complex(t, im / (2 * t))
        t = ((r - re) / 2).sqrt()
        return Complex(abs(im) / (2 * t), t.copy_sign(im))
