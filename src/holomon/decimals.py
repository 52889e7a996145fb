"""Working-precision arithmetic in the standard library's ``decimal``.

``decimal`` is C arithmetic (libmpdec) with relative rounding like
mpmath's, several times faster than mpmath's pure-Python numbers.  Its
context runs two digits above the working precision d: the unit
roundoff 5e-(d+2) is below mpmath's 2^-prec, about 1e-(d+1), at d
digits.  An invalid operation gives NaN, as in mpmath; a division of a
nonzero Decimal by zero raises, and a number beyond decimal's range a
ValueError.  A ``Complex`` divided by a zero ``Complex`` has NaN parts (0/0).

Numbers come in through ``to_decimal`` and ``Complex.of``, exactly and
rounded once, and go back to mpmath through ``mp.mpmathify``.  Every
operation rounds to the decimal context current at the time, so each
caller that computes enters ``working`` itself; the caller's own context
is left as it was.
"""

from __future__ import annotations

import decimal
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import mpmath as mp


# products and powers of ints are exact in it
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@contextmanager
def working(digits: int):
    """A local decimal context two digits above ``digits``, to be entered
    with ``with``; an overflow inside it raises ValueError."""
    ctx = decimal.Context(prec=digits + 2, traps=[decimal.DivisionByZero, decimal.Overflow])
    with decimal.localcontext(ctx):
        try:
            yield
        except decimal.Overflow:
            raise ValueError(f"a result is above 10^{ctx.Emax}, outside the range "
                             f"of {ctx.prec}-digit decimal arithmetic") from None


def to_decimal(x) -> Decimal:
    """An int, a Fraction or an mpf as a Decimal, rounded once to the
    current decimal context; NaN and the infinities map to their own kind,
    and an mpf outside the context's range, 10^Etiny to 10^Emax, raises
    ValueError.  Either way one operation rounds the exact value."""
    if isinstance(x, (int, Fraction)):
        return Decimal(x.numerator) / x.denominator
    if mp.isnan(x):
        return Decimal("NaN")
    if mp.isinf(x):
        return Decimal("-Infinity" if x < 0 else "Infinity")
    sign, man, exp, _ = x._mpf_
    # |x| = man 2^exp is about 10^e10, as 30103/100000 is log10(2) to 1e-9
    e10 = (exp + man.bit_length()) * 30103 // 100000
    prec, emax = decimal.getcontext().prec, decimal.getcontext().Emax
    etiny = decimal.getcontext().Etiny()
    if not etiny <= e10 <= emax:
        raise ValueError(f"a number of about 10^{e10} is outside the range of "
                         f"{prec}-digit decimal arithmetic (10^{etiny} to 10^{emax})")
    # 2^|exp| is built exactly in decimal, which multiplies long numbers
    # fast; an int of a million digits converts in quadratic time
    num = Decimal(-man if sign else man)
    return num * _EXACT.power(2, exp) if exp >= 0 else num / _EXACT.power(2, -exp)


class Complex:
    """re + i im over two Decimals, rounded to the current decimal context.

    The other operand of +, - and * is a Complex or an int; a Complex
    divides by a Complex, and an int by a Complex."""

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

    def __rtruediv__(self, other):
        return Complex(Decimal(other), Decimal(0)) / self

    def __abs__(self):
        return self.norm2().sqrt()

    def norm2(self) -> Decimal:
        """re^2 + im^2, the squared modulus, with no square root."""
        return self.re * self.re + self.im * self.im


def norm(values) -> Decimal:
    """The Euclidean norm of ``Complex`` and int values."""
    return sum((v.norm2() if type(v) is Complex else Decimal(v * v) for v in values),
               Decimal(0)).sqrt()
