"""Quantum cluster mutation in its restricted normal form.

Images of coordinate mutation are kept as c(s) * (Weyl monomial) * R(X_e)
with R a rational function of the single flipped variable: a ``Quotient`` of
SPolys in X_e whose coefficients are SPolys in s.  Moving R past
a Weyl monomial only rescales its argument by an integer power of q, so
this form is closed under the products needed to verify the flipped
commutation relations and the double-flip identity; no general skew-field
arithmetic is required.
"""

from __future__ import annotations

from .laurent import Quotient
from .qcoeff import SPoly
from .sparse import pairing, vec_add
from .surfaces import mutate_exchange_matrix


# the polynomial 1 in X_e
_X_ONE = SPoly.const(SPoly.one())


def _scale_arg(r: Quotient, s_exp: int) -> Quotient:
    """Substitute X -> s^(s_exp) X in a quotient of polynomials in X."""
    def scale(p):
        return SPoly({k: v * SPoly.s_power(s_exp * k) for k, v in p.c.items()})
    return Quotient(scale(r.num), scale(r.den))


class QMutationImage:
    """Normal form c(s) * :X^d: * R(X_e) over the unflipped torus."""

    __slots__ = ("context", "e", "coeff", "mono", "rat")

    def __init__(self, context, e: int, coeff: SPoly, mono, rat: Quotient):
        self.context = tuple(tuple(row) for row in context)
        self.e = e
        self.coeff = coeff
        self.mono = tuple(int(x) for x in mono)
        self.rat = rat

    def _weight(self, d) -> int:
        """w(d) = sum_a d_a n_{a,e}; X_e^m :X^d: = s^(-4 m w) :X^d: X_e^m."""
        return sum(da * self.context[a][self.e] for a, da in enumerate(d))

    def __mul__(self, other: "QMutationImage") -> "QMutationImage":
        if self.context != other.context or self.e != other.e:
            raise ValueError("images live over different mutations")
        s_pair = pairing(self.mono, other.mono, self.context)
        mono = vec_add(self.mono, other.mono)
        # commute self.rat(X_e) past :X^(other.mono):
        moved = _scale_arg(self.rat, -4 * self._weight(other.mono))
        return QMutationImage(
            self.context, self.e,
            self.coeff * other.coeff * SPoly.s_power(s_pair),
            mono,
            moved * other.rat,
        )

    def scaled(self, c: SPoly) -> "QMutationImage":
        return QMutationImage(self.context, self.e, self.coeff * c, self.mono, self.rat)

    def _dressing(self) -> Quotient:
        """c(s) R(X_e), the coefficient taken as a constant in X_e."""
        return Quotient(self.rat.num * SPoly.const(self.coeff), self.rat.den)

    def __eq__(self, other):
        if not isinstance(other, QMutationImage):
            return NotImplemented
        if self.context != other.context or self.e != other.e or self.mono != other.mono:
            return False
        return self._dressing() == other._dressing()

    def is_generator(self, i: int) -> bool:
        """True when the image is exactly X_i with trivial dressing."""
        want = tuple(2 if a == i else 0 for a in range(len(self.context)))
        if self.mono != want:
            return False
        dressing = self._dressing()
        return dressing.num == dressing.den

    def __repr__(self):
        return f"({self.coeff!r}) * :X^{self.mono}: * {self.rat!r}"


def quantum_mutation(n, e: int, target: int) -> QMutationImage:
    """Image of X_target under the quantum coordinate mutation at e.

    target == e inverts the monomial; otherwise the image is X_target
    times an ordered product of |n_te| one-variable factors
    (1 + q^(2a-1) X_e^(-sgn))^(-sgn).
    """
    one = Quotient(_X_ONE, _X_ONE)
    mono = [0] * len(n)
    if target == e:
        mono[e] = -2
        return QMutationImage(n, e, SPoly.one(), mono, one)
    mono[target] = 2
    k = n[target][e]
    sgn = 1 if k > 0 else -1
    rat = one
    for a in range(1, abs(k) + 1):
        factor = SPoly({0: SPoly.one(), -sgn: SPoly.s_power(4 * (2 * a - 1))})
        rat = rat * (Quotient(_X_ONE, factor) if sgn > 0 else Quotient(factor, _X_ONE))
    return QMutationImage(n, e, SPoly.one(), mono, rat)


def verify_q_mutation_relations(n, e: int) -> dict:
    """Check that all pairs of mutation images satisfy the commutation
    relations of the flipped exchange matrix; returns {(a, b): bool}."""
    E = len(n)
    n2 = mutate_exchange_matrix(n, e)
    images = [quantum_mutation(n, e, t) for t in range(E)]
    report = {}
    for a in range(E):
        for b in range(E):
            lhs = images[a] * images[b]
            rhs = (images[b] * images[a]).scaled(SPoly.s_power(8 * n2[a][b]))
            report[(a, b)] = lhs == rhs
    return report


def double_mutation_is_identity(n, e: int) -> bool:
    """Mutating twice at the same edge composes to the identity
    substitution on every generator."""
    E = len(n)
    n2 = mutate_exchange_matrix(n, e)
    first = [quantum_mutation(n, e, t) for t in range(E)]
    for target in range(E):
        second = quantum_mutation(n2, e, target)
        # X''_t = c'' :X'^d'': R''(X'_e) with X'_e = first[e] = X_e^(-1)
        dressing = Quotient(second.rat.num.conj(), second.rat.den.conj())
        if target == e:
            # :X'^d'': must be a power k of X'_e, which maps to first[e]^k
            k = second.mono[e] // 2
            if second.mono != tuple(2 * k if a == e else 0 for a in range(E)):
                return False
            composed = QMutationImage(
                n, e, second.coeff, tuple(k * x for x in first[e].mono), dressing)
        else:
            # :X'^d'': must be X'_t, which maps to first[target]
            if second.mono != tuple(2 if a == target else 0 for a in range(E)):
                return False
            base = first[target]
            composed = QMutationImage(
                n, e, base.coeff * second.coeff, base.mono, base.rat * dressing)
        if not composed.is_generator(target):
            return False
    return True
