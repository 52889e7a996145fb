"""Sparse multivariate Laurent polynomials with half-integer exponents.

Exponent vectors are stored doubled (units of 1/2), so all bookkeeping is
integer arithmetic; coefficients are exact ``fractions.Fraction`` values.
Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .sparse import add, convolve, vec_add


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables with exponents in (1/2)Z.

    ``terms`` maps doubled exponent tuples to nonzero Fractions, i.e. the
    key ``(1, -2, 0)`` stands for ``x0^(1/2) * x1^(-1)``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong length (want {nvars})")
                if c != 0:
                    clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def monomial(cls, nvars: int, exps2: Iterable[int], coeff=1) -> "LaurentPoly":
        """Monomial with doubled exponents ``exps2`` (units of 1/2)."""
        return cls(nvars, {tuple(int(e) for e in exps2): _as_fraction(coeff)})

    @classmethod
    def variable(cls, nvars: int, i: int, half: bool = False) -> "LaurentPoly":
        """x_i, or x_i^(1/2) when ``half`` is set."""
        exps = [0] * nvars
        exps[i] = 1 if half else 2
        return cls.monomial(nvars, exps)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0,) * self.nvars]

    def all_coefficients_positive(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the lexicographically largest exponent vector."""
        if self.is_zero():
            return Fraction(0)
        return self.terms[max(self.terms)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable index sets differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return LaurentPoly(self.nvars, add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return LaurentPoly(self.nvars, convolve(self.terms, other.terms, vec_add))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            inv = self.monomial_inverse()
            return inv ** (-k)
        result = LaurentPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse, defined only when the polynomial is a single monomial."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        ((e, c),) = self.terms.items()
        return LaurentPoly(self.nvars, {tuple(-x for x in e): Fraction(1) / c})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- utilities ---------------------------------------------------------

    def normalize_sign(self) -> "LaurentPoly":
        """Flip the overall sign if the lexicographically leading coefficient
        is negative, so that honest trace polynomials come out positive."""
        if self.leading_coefficient() < 0:
            return -self
        return self

    def exponent_parities(self) -> tuple:
        """Common parity of each doubled exponent across all terms, or raise
        if the terms are not congruent mod 2 (trace polynomials always are)."""
        if self.is_zero():
            return (0,) * self.nvars
        it = iter(self.terms)
        first = tuple(e % 2 for e in next(it))
        for exps in it:
            if tuple(e % 2 for e in exps) != first:
                raise ValueError("terms have inhomogeneous exponent parities")
        return first

    def evaluate(self, values):
        """Numeric evaluation; ``values[i]`` may be float/complex/mpmath.

        Half powers use the principal branch via ``v ** (e/2)``.
        """
        total = 0
        for exps, c in self.terms.items():
            acc = 1
            for v, e in zip(values, exps):
                if e:
                    acc = acc * v ** (Fraction(e, 2))
            total = total + acc * c.numerator / c.denominator
        return total

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


class LaurentRational:
    """A quotient of Laurent polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("variable index sets differ")
        self.num = num
        self.den = den

    @classmethod
    def from_const(cls, nvars: int, c) -> "LaurentRational":
        return cls(LaurentPoly.const(nvars, c))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def _coerce(self, other) -> "LaurentRational":
        if isinstance(other, LaurentRational):
            return other
        if isinstance(other, LaurentPoly):
            return LaurentRational(other)
        if isinstance(other, (int, Fraction)):
            return LaurentRational.from_const(self.nvars, other)
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return LaurentRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        return LaurentRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentRational":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return LaurentRational(self.den, self.num)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = LaurentRational.from_const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        raise TypeError("LaurentRational is unhashable (equality is up to scaling)")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"
