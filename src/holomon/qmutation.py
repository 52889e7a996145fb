"""Quantum cluster mutation in its restricted normal form.

Images of coordinate mutation are kept as (Weyl monomial) * R(X_e) with R
a rational function of the single flipped variable: a ``Quotient`` of
SPolys in X_e whose coefficients are SPolys in s.  A central factor c(s)
is a constant of R.  Moving R past a Weyl monomial only rescales its
argument by an integer power of q, so this form is closed under the
products needed to verify the flipped commutation relations and the
double-flip identity; no general skew-field arithmetic is required.
"""

from __future__ import annotations

from .laurent import Quotient
from .qcoeff import SPoly
from .sparse import pairing, vec_add
from .surfaces import mutate_exchange_matrix


# the polynomial 1 in X_e, and the trivial dressing
_X_ONE = SPoly.const(SPoly.const(1))
_ONE = Quotient(_X_ONE, _X_ONE)


def _scale_arg(r: Quotient, s_exp: int) -> Quotient:
    """Substitute X -> s^(s_exp) X in a quotient of polynomials in X.

    The X^0 term is left as it is, so a central c(s) in r commutes with
    the substitution.  The coefficient of X^k takes the factor s^(s_exp k)
    as a shift of its s-powers."""
    if not s_exp:
        return r

    def scale(p):
        return SPoly._new({k: SPoly._new({e + s_exp * k: c for e, c in v.terms.items()})
                           for k, v in p.terms.items()})
    return Quotient(scale(r.num), scale(r.den))


class QMutationImage:
    """Normal form :X^d: * R(X_e) over the unflipped torus."""

    __slots__ = ("context", "e", "mono", "rat")

    def __init__(self, context, e: int, mono, rat: Quotient):
        self.context = tuple(tuple(row) for row in context)
        self.e = e
        self.mono = tuple(int(x) for x in mono)
        self.rat = rat

    def _weight(self, d) -> int:
        """w(d) = sum_a d_a n_{a,e}; X_e^m :X^d: = s^(-4 m w) :X^d: X_e^m."""
        return sum(da * self.context[a][self.e] for a, da in enumerate(d))

    def __mul__(self, other: "QMutationImage") -> "QMutationImage":
        if self.context != other.context or self.e != other.e:
            raise ValueError("images live over different mutations")
        s_pair = pairing(self.mono, other.mono, self.context)
        # commute self.rat(X_e) past :X^(other.mono):
        moved = _scale_arg(self.rat, -4 * self._weight(other.mono))
        prod = QMutationImage(self.context, self.e, vec_add(self.mono, other.mono),
                              moved * other.rat)
        return prod.scaled(SPoly.s_power(s_pair)) if s_pair else prod

    def scaled(self, c: SPoly) -> "QMutationImage":
        """c(s) times the image, c taken as a constant of the quotient."""
        rat = Quotient(self.rat.num * SPoly.const(c), self.rat.den)
        return QMutationImage(self.context, self.e, self.mono, rat)

    def __eq__(self, other):
        if not isinstance(other, QMutationImage):
            return NotImplemented
        return (self.context == other.context and self.e == other.e
                and self.mono == other.mono and self.rat == other.rat)

    def is_generator(self, i: int) -> bool:
        """True when the image is exactly X_i with trivial dressing."""
        want = tuple(2 if a == i else 0 for a in range(len(self.context)))
        return self.mono == want and self.rat.num == self.rat.den

    def __repr__(self):
        return f":X^{self.mono}: * {self.rat!r}"


def quantum_mutation(n, e: int, target: int) -> QMutationImage:
    """Image of X_target under the quantum coordinate mutation at e.

    target == e inverts the monomial; otherwise the image is X_target
    times an ordered product of |n_te| one-variable factors
    (1 + q^(2a-1) X_e^(-sgn))^(-sgn).
    """
    mono = [0] * len(n)
    if target == e:
        mono[e] = -2
        return QMutationImage(n, e, mono, _ONE)
    mono[target] = 2
    k = n[target][e]
    sgn = 1 if k > 0 else -1
    rat = _ONE
    for a in range(1, abs(k) + 1):
        factor = SPoly({0: SPoly.const(1), -sgn: SPoly.s_power(4 * (2 * a - 1))})
        rat = rat * (Quotient(_X_ONE, factor) if sgn > 0 else Quotient(factor, _X_ONE))
    return QMutationImage(n, e, mono, rat)


def verify_q_mutation_relations(n, e: int) -> dict:
    """Check that all pairs of mutation images satisfy the commutation
    relations of the flipped exchange matrix; returns {(a, b): bool}."""
    E = len(n)
    n2 = mutate_exchange_matrix(n, e)
    images = [quantum_mutation(n, e, t) for t in range(E)]
    # each ordered product once: the one for (b, a) is the right side of (a, b)
    prods = {(a, b): images[a] * images[b] for a in range(E) for b in range(E)}
    return {(a, b): prod == prods[b, a].scaled(SPoly.s_power(8 * n2[a][b]))
            for (a, b), prod in prods.items()}


def double_mutation_is_identity(n, e: int) -> bool:
    """Mutating twice at the same edge composes to the identity
    substitution on every generator."""
    E = len(n)
    n2 = mutate_exchange_matrix(n, e)
    first = [quantum_mutation(n, e, t) for t in range(E)]
    for target in range(E):
        second = quantum_mutation(n2, e, target)
        # X''_t = :X'^d'': R''(X'_e), and :X'^d'': must be a power k of
        # X'_t: k = 1 off e, and X'_t maps to first[t]
        k = second.mono[e] // 2 if target == e else 1
        if second.mono != tuple(2 * k if a == target else 0 for a in range(E)):
            return False
        # first[t]^k is k * first[t].mono with first[t].rat: at e because
        # first[e] = X_e^(-1) is a bare monomial, off e because k = 1;
        # R''(X'_e) = R''(X_e^(-1)) flips the X_e exponents of R''
        dressing = Quotient(second.rat.num.conj(), second.rat.den.conj())
        base = first[target]
        composed = QMutationImage(
            n, e, tuple(k * x for x in base.mono), base.rat * dressing)
        if not composed.is_generator(target):
            return False
    return True
