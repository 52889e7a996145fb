"""The quantum torus of an exchange matrix, in the Weyl-ordered basis.

Basis monomials are indexed by half-integer exponent vectors (stored
doubled); the product rule multiplies exponents additively and picks up
q to the symplectic pairing, q = s^4.  Specializing s -> 1 recovers the
commutative Laurent ring.  The deformed relations are read from the
relation table in ``reference``, as they stand.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly
from .qcoeff import SPoly
from .reference import relation_terms, word_sum
from .sparse import convolve, pairing, vec_add


class QuantumTorusElement(LaurentPoly):
    """A LaurentPoly over SPoly coefficients whose product is twisted by
    q^<mu,nu>; sums, negation and equality are the Laurent ones.

    ``context`` is the exchange matrix.  Coefficients must already be
    SPolys: ``const`` wraps its scalar once, and nothing is coerced term
    by term.
    """

    __slots__ = ("context",)

    _SCALARS = (int, Fraction, SPoly)

    def __init__(self, context, terms: dict):
        self.context = tuple(tuple(row) for row in context)
        super().__init__(len(self.context), terms)

    @property
    def _space(self):
        return self.context

    @classmethod
    def const(cls, context, c) -> "QuantumTorusElement":
        E = len(context)
        return cls(context, {(0,) * E: c if isinstance(c, SPoly) else SPoly.const(c)})

    # -- ring operations --------------------------------------------------

    def __mul__(self, other):
        if type(other) is not type(self):
            return super().__mul__(other)
        self._check(other)
        n = self.context
        # Weyl twist: q^<mu,nu> = s^(d1.n.d2)
        return self._new(convolve(
            self.terms, other.terms, vec_add,
            lambda d1, d2: SPoly.s_power(pairing(d1, d2, n))))

    # only scalars, which are central, reach the reflected product
    __rmul__ = __mul__

    # -- structure maps -----------------------------------------------------

    def classical_limit(self) -> LaurentPoly:
        """Specialize s -> 1 (coefficients must be regular there)."""
        return LaurentPoly(self.nvars, {d: c.at_one() for d, c in self.terms.items()})

    def bar(self) -> "QuantumTorusElement":
        """Conjugated coefficients in the opposite-pairing torus.

        The map fixing Weyl monomials and sending s -> 1/s is an algebra
        isomorphism onto the torus with negated exchange matrix.
        """
        neg = tuple(tuple(-v for v in row) for row in self.context)
        return QuantumTorusElement(neg, {d: c.conj() for d, c in self.terms.items()})

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for d, c in self.sorted_terms():
            mono = "*".join(
                (f"X{i}^{e}/2" if e % 2 else f"X{i}^{e // 2}")
                for i, e in enumerate(d) if e)
            bits.append(f"({c!r})" + (f":{mono}:" if mono else ""))
        return " + ".join(bits)


def quantize_trace(p: LaurentPoly, n) -> QuantumTorusElement:
    """Coefficient-preserving Weyl quantization of a classical trace
    polynomial: each monomial goes to its Weyl-ordered counterpart."""
    if p.nvars != len(n):
        raise ValueError("matrix size does not match variable count")
    return QuantumTorusElement(n, {d: SPoly.const(c) for d, c in p.terms.items()})


def q_relation(kind: str, degree: int, operands: dict, conj: bool = False) -> QuantumTorusElement:
    """Evaluate the deformed generator relation ``reference.RELATIONS[(kind,
    degree)]``, preserving its operator ordering.

    ``operands`` maps 's','t','u' plus 'L0' (torus piece) or 'L1'..'L4'
    (sphere piece) to QuantumTorusElements; boundary operands must be
    central.  With ``conj`` the coefficients are conjugated (s -> 1/s),
    which together with bar-transformed operands realizes the coefficient
    involution on the identity.
    """
    scalar = SPoly.conj if conj else (lambda c: c)
    return word_sum(relation_terms(kind, degree, operands, scalar), operands)


def commutator_classical_limit(a: QuantumTorusElement,
                               b: QuantumTorusElement) -> LaurentPoly:
    """(a b - b a) / (q - 1/q) specialized to s -> 1.

    This is the classical bracket the deformation came from.  Each
    commutator coefficient c(s) vanishes at s = 1, where the product is
    commutative, and so does q - 1/q = s^4 - s^-4, whose derivative there
    is 8.  The limit is therefore c'(1)/8 by L'Hopital, exact and without
    any division of polynomials: s^4 - s^-4 need not divide c(s) in the
    Laurent ring (on c11 one coefficient is s^2 - s^-2).
    """
    comm = a * b - b * a
    out = {}
    for d, c in comm.terms.items():
        out[d] = Fraction(sum(k * v for k, v in c.terms.items())) / 8
    return LaurentPoly(a.nvars, out)
