"""Quantum cluster mutation in its restricted normal form.

Images of coordinate mutation are kept as c(s) * (Weyl monomial) * R(X_e)
with R a rational function of the single flipped variable: a quotient of
SPolys in X_e whose coefficients are SPolys in s.  Moving R past
a Weyl monomial only rescales its argument by an integer power of q, so
this form is closed under the products needed to verify the flipped
commutation relations and the double-flip identity; no general skew-field
arithmetic is required.
"""

from __future__ import annotations

from .qcoeff import SPoly
from .sparse import pairing, vec_add
from .surfaces import mutate_exchange_matrix


def _scale_arg(p: SPoly, s_exp: int) -> SPoly:
    """Substitute X -> s^(s_exp) X in a polynomial in X."""
    return SPoly({k: v * SPoly.s_power(s_exp * k) for k, v in p.c.items()})


class XRat:
    """Quotient of polynomials in X_e; equality decided by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: SPoly, den: SPoly | None = None):
        if den is None:
            den = SPoly.const(SPoly.one())
        if not den:
            raise ZeroDivisionError("zero denominator in XRat")
        self.num, self.den = num, den

    @classmethod
    def one(cls) -> "XRat":
        return cls(SPoly.const(SPoly.one()))

    def __mul__(self, o):
        if isinstance(o, SPoly):
            # a coefficient in s, constant in X_e
            return XRat(self.num * SPoly.const(o), self.den)
        return XRat(self.num * o.num, self.den * o.den)

    def inverse(self) -> "XRat":
        if not self.num:
            raise ZeroDivisionError("inverse of zero XRat")
        return XRat(self.den, self.num)

    def __eq__(self, o):
        if not isinstance(o, XRat):
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def scale_arg(self, s_exp: int) -> "XRat":
        """Substitute X -> s^(s_exp) X."""
        return XRat(_scale_arg(self.num, s_exp), _scale_arg(self.den, s_exp))

    def conj(self) -> "XRat":
        """Substitute X -> X^(-1)."""
        return XRat(self.num.conj(), self.den.conj())

    def is_one(self) -> bool:
        return self.num == self.den

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


class QMutationImage:
    """Normal form c(s) * :X^d: * R(X_e) over the unflipped torus."""

    __slots__ = ("context", "e", "coeff", "mono", "rat")

    def __init__(self, context, e: int, coeff: SPoly, mono, rat: XRat):
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
        moved = self.rat.scale_arg(-4 * self._weight(other.mono))
        return QMutationImage(
            self.context, self.e,
            self.coeff * other.coeff * SPoly.s_power(s_pair),
            mono,
            moved * other.rat,
        )

    def scaled(self, c: SPoly) -> "QMutationImage":
        return QMutationImage(self.context, self.e, self.coeff * c, self.mono, self.rat)

    def __eq__(self, other):
        if not isinstance(other, QMutationImage):
            return NotImplemented
        if self.context != other.context or self.e != other.e or self.mono != other.mono:
            return False
        return self.rat * self.coeff == other.rat * other.coeff

    def is_generator(self, i: int) -> bool:
        """True when the image is exactly X_i with trivial dressing."""
        want = tuple(2 if a == i else 0 for a in range(len(self.context)))
        return self.mono == want and (self.rat * self.coeff).is_one()

    def __repr__(self):
        return f"({self.coeff!r}) * :X^{self.mono}: * {self.rat!r}"


def quantum_mutation(n, e: int, target: int) -> QMutationImage:
    """Image of X_target under the quantum coordinate mutation at e.

    target == e inverts the monomial; otherwise the image is X_target
    times an ordered product of |n_te| one-variable factors
    (1 + q^(2a-1) X_e^(-sgn))^(-sgn).
    """
    E = len(n)
    if target == e:
        mono = [0] * E
        mono[e] = -2
        return QMutationImage(n, e, SPoly.one(), mono, XRat.one())
    k = n[target][e]
    mono = [0] * E
    mono[target] = 2
    if k == 0:
        return QMutationImage(n, e, SPoly.one(), mono, XRat.one())
    sgn = 1 if k > 0 else -1
    rat = XRat.one()
    for a in range(1, abs(k) + 1):
        factor = SPoly({0: SPoly.one(), -sgn: SPoly.s_power(4 * (2 * a - 1))})
        fr = XRat(factor)
        rat = rat * (fr.inverse() if sgn > 0 else fr)
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
        dressing = second.rat.conj()
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
