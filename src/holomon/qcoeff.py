"""Exact coefficients for the quantum torus: Laurent polynomials in s.

The single formal variable s carries a quarter power of the deformation
parameter, q = s^4; half-integer exponent pairings then land on integer
powers of s.  Every coefficient the Weyl product and quantum mutation
build is a Laurent polynomial in s, so the coefficients form a ring and
nothing divides by them.  ``SPoly`` is a one-variable ``LaurentPoly``
whose keys are the int powers of s; it takes its arithmetic from there.
"""

from __future__ import annotations

from operator import add

from .laurent import LaurentPoly


class SPoly(LaurentPoly):
    """Sparse univariate Laurent polynomial in s: ``terms`` maps the int
    power of s to its nonzero coefficient.

    Coefficients are kept as given: rationals for coefficients of the
    torus, or SPolys themselves when quantum mutation uses an SPoly as a
    polynomial in X_e over the s-coefficients.  int and Fraction operands
    act as constants.
    """

    __slots__ = ()

    # plain class attributes (shadowing the nvars slot): read without a call
    nvars = _space = 1
    _keyadd = property(lambda self: add)

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items() if v}

    @staticmethod
    def _new(terms: dict) -> "SPoly":
        """The SPoly of a map that holds no zero, unfiltered."""
        out = object.__new__(SPoly)
        out.terms = terms
        return out

    @classmethod
    def const(cls, v) -> "SPoly":
        return cls({0: v})

    _const = const

    @classmethod
    def s_power(cls, k: int) -> "SPoly":
        return cls({k: 1})

    def conj(self) -> "SPoly":
        """Substitute s -> 1/s."""
        return SPoly._new({-e: v for e, v in self.terms.items()})

    def at_one(self):
        """Classical specialization s -> 1, in the coefficients' own ring
        (an int for int coefficients)."""
        return sum(self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*s^{e}" if e else f"{v}" for e, v in sorted(self.terms.items()))
