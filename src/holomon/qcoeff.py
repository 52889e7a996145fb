"""Exact coefficients for the quantum torus: Laurent polynomials in s.

The single formal variable s carries a quarter power of the deformation
parameter, q = s^4; half-integer exponent pairings then land on integer
powers of s.  Every coefficient the Weyl product and quantum mutation
build is a Laurent polynomial in s, so the coefficients form a ring and
nothing divides by them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add

from .sparse import add, convolve


class SPoly:
    """Sparse univariate Laurent polynomial in s.

    Coefficients are kept as given: rationals for coefficients of the
    torus, or SPolys themselves when quantum mutation uses an SPoly as a
    polynomial in X_e over the s-coefficients.  Zero terms are dropped by
    truthiness.  int and Fraction operands act as constants.
    """

    __slots__ = ("c",)

    def __init__(self, c: dict):
        self.c = {int(k): v for k, v in c.items() if v}

    @classmethod
    def const(cls, v) -> "SPoly":
        return cls({0: v})

    @classmethod
    def s_power(cls, k: int) -> "SPoly":
        return cls({k: 1})

    def __bool__(self):
        return bool(self.c)

    @staticmethod
    def coerce(o) -> "SPoly":
        """o itself if an SPoly, the constant o if an int or Fraction."""
        if isinstance(o, SPoly):
            return o
        if isinstance(o, (int, Fraction)):
            return SPoly.const(o)
        raise TypeError(f"cannot coerce {type(o).__name__} to SPoly")

    # any other operand type gets NotImplemented, so that its reflected
    # method runs: a quantum-torus element takes SPolys as scalars
    def __add__(self, o):
        try:
            o = self.coerce(o)
        except TypeError:
            return NotImplemented
        return SPoly(add(self.c, o.c))

    __radd__ = __add__

    def __neg__(self):
        return SPoly({k: -v for k, v in self.c.items()})

    def __mul__(self, o):
        try:
            o = self.coerce(o)
        except TypeError:
            return NotImplemented
        return SPoly(convolve(self.c, o.c, _add))

    __rmul__ = __mul__

    def __eq__(self, o):
        try:
            o = self.coerce(o)
        except TypeError:
            return NotImplemented
        return self.c == o.c

    def conj(self) -> "SPoly":
        """Substitute s -> 1/s."""
        return SPoly({-e: v for e, v in self.c.items()})

    def at_one(self):
        """Classical specialization s -> 1, in the coefficients' own ring
        (an int for int coefficients)."""
        return sum(self.c.values())

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{v}*s^{e}" if e else f"{v}" for e, v in sorted(self.c.items()))

