"""Sparse multivariate Laurent polynomials with half-integer exponents.

Exponent vectors are stored doubled (units of 1/2), so all bookkeeping is
integer arithmetic.  Coefficients are kept as given, in a ring: trace
polynomials stay over the integers, and a Fraction appears only where a
bracket or a ratio divides.  Zero coefficients are never stored.
``Quotient`` is the one quotient type: classical mutation takes quotients
of Laurent polynomials, quantum mutation quotients of polynomials in X_e.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .sparse import add, convolve, vec_add


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables with exponents in (1/2)Z.

    ``terms`` maps doubled exponent tuples to nonzero coefficients, i.e.
    the key ``(1, -2, 0)`` stands for ``x0^(1/2) * x1^(-1)``.  int and
    Fraction operands act as constants.  A subclass names its own scalars,
    key rule and ring; another ring's element raises ValueError.
    """

    __slots__ = ("nvars", "terms")

    _SCALARS = (int, Fraction)

    def __init__(self, nvars: int, terms: Mapping[tuple, object]):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @property
    def _space(self):
        """What two operands must share to be added or multiplied."""
        return self.nvars

    # the key rule of products: a property, not a method, which the
    # benchmark's tracer would wrap and time at every term pair
    _keyadd = property(lambda self: vec_add)

    def _new(self, terms: dict):
        """The element of this ring with ``terms``, a map that holds no
        zero (one that ``add``, ``convolve`` or negation built), taken
        as it is: the constructor's filter is not run again."""
        out = object.__new__(type(self))
        out.nvars = self.nvars
        out.terms = terms
        return out

    def _const(self, c):
        return type(self).const(self._space, c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exps2: Iterable[int], coeff=1) -> "LaurentPoly":
        """Monomial with doubled exponents ``exps2`` (units of 1/2)."""
        exps = tuple(int(e) for e in exps2)
        if len(exps) != nvars:
            raise ValueError(f"exponent vector {exps} has wrong length (want {nvars})")
        return cls(nvars, {exps: coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        """x_i."""
        exps = [0] * nvars
        exps[i] = 2
        return cls.monomial(nvars, exps)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def all_coefficients_positive(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def leading_coefficient(self):
        """Coefficient of the lexicographically largest exponent vector."""
        if self.is_zero():
            return Fraction(0)
        return self.terms[max(self.terms)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if type(other) is not type(self) or self._space != other._space:
            raise ValueError("operands belong to different rings")

    # Same-type operands go straight to _check.  A non-ring operand, or one
    # whose ring takes self as a scalar, gets NotImplemented, so that its
    # reflected method runs; any other ring raises in _check.
    def __add__(self, other):
        if type(other) is not type(self):
            if isinstance(other, self._SCALARS):
                other = self._const(other)
            elif not isinstance(other, LaurentPoly) or isinstance(self, other._SCALARS):
                return NotImplemented
        self._check(other)
        return self._new(add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            if isinstance(other, self._SCALARS):
                # a zero scalar makes zero products, which are dropped
                return self._new({e: w for e, v in self.terms.items() if (w := other * v)})
            if not isinstance(other, LaurentPoly) or isinstance(self, other._SCALARS):
                return NotImplemented
        self._check(other)
        return self._new(convolve(self.terms, other.terms, self._keyadd))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = self._const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            if isinstance(other, self._SCALARS):
                other = self._const(other)
            elif not isinstance(other, LaurentPoly) or isinstance(self, other._SCALARS):
                return NotImplemented
        return (type(other) is type(self) and self._space == other._space
                and self.terms == other.terms)

    # -- utilities ---------------------------------------------------------

    def normalize_sign(self) -> "LaurentPoly":
        """Flip the overall sign if the lexicographically leading coefficient
        is negative, so that honest trace polynomials come out positive."""
        if self.leading_coefficient() < 0:
            return -self
        return self

    def sorted_terms(self):
        """Deterministic (lexicographic) term order for serialization."""
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if e % 2 == 0:
                    factors.append(f"x{i}^{e // 2}" if e != 2 else f"x{i}")
                else:
                    factors.append(f"x{i}^({e}/2)")
            mono = "*".join(factors) if factors else "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


class Quotient:
    """A quotient num / den over a commutative ring whose zero is falsy;
    equality by cross-multiplication.  Results are built with
    ``type(self)``, and ``**`` uses the ring's own powers."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def _coerce(self, other) -> "Quotient":
        if isinstance(other, Quotient):
            return other
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return type(self)(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        return type(self)(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Quotient":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return type(self)(self.den, self.num)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return type(self)(self.num ** k, self.den ** k)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


class LaurentRational(Quotient):
    """A quotient of Laurent polynomials."""

    __slots__ = ()

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(num.nvars, 1)
        super().__init__(num, den)
        if num.nvars != den.nvars:
            raise ValueError("variable index sets differ")

    @classmethod
    def from_const(cls, nvars: int, c) -> "LaurentRational":
        return cls(LaurentPoly.const(nvars, c))
