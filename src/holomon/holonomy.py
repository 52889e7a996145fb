"""Classical algebra of trace functions in shear coordinates.

Holonomies of walks across the triangles are products of per-edge matrices
``[[0, X^(1/2)], [-X^(-1/2), 0]]`` with constant turn matrices
``L = [[1,1],[-1,0]]`` and ``R = [[0,1],[-1,-1]]`` (so ``L^3 = -1``,
matching a triangle's three sides), multiplied out one step, edge times
turn matrix, at a time.  Traces are sign-normalized Laurent
polynomials; the log-canonical bracket and coordinate mutation, written
once as the flip substitution, live here as well, and the cubic/quartic
trace relations as the s = 1 value of the relation table in ``reference``.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly, LaurentRational
from .qcoeff import SPoly
from .reference import relation_terms, word_sum
from .sparse import add_into, convolve, pairing, vec_add
from .surfaces import LEFT, RIGHT, CurvePath, Triangulation, exchange_matrix, flip

# One walk step, E_e T for the edge matrix E_e = [[0, X^(1/2)], [-X^(-1/2), 0]]
# and the turn matrix T: L = [[1,1],[-1,0]] gives [[-X^(1/2), 0],
# [-X^(-1/2), -X^(-1/2)]] and R = [[0,1],[-1,-1]] gives [[-X^(1/2), -X^(1/2)],
# [0, -X^(-1/2)]].  Each nonzero entry maps (row, col) to (sign, doubled
# power of X_e).
_STEP = {
    LEFT: {(0, 0): (-1, 1), (1, 0): (-1, -1), (1, 1): (-1, -1)},
    RIGHT: {(0, 0): (-1, 1), (0, 1): (-1, 1), (1, 1): (-1, -1)},
}


def holonomy_matrix(tri: Triangulation, curve: CurvePath):
    """Product of edge and turn matrices along the (validated) walk: each
    step's entries are signed monomials, so a step shifts one exponent of
    the running entries' terms."""
    curve.resolve(tri)
    nvars = tri.n_edges
    one = {(0,) * nvars: 1}
    acc = [[one, {}], [{}, one]]
    for e, turn in curve.steps:
        out = [[{}, {}], [{}, {}]]
        for (k, j), (sign, p) in _STEP[turn].items():
            for i in range(2):
                add_into(out[i][j], {d[:e] + (d[e] + p,) + d[e + 1:]: c
                                     for d, c in acc[i][k].items()}, sign)
        acc = out
    return tuple(tuple(LaurentPoly(nvars, t) for t in row) for row in acc)


def trace_function(tri: Triangulation, curve: CurvePath, fg=None) -> LaurentPoly:
    """Sign-normalized trace of the walk holonomy.

    The overall sign is fixed so the lexicographically leading coefficient
    is positive; simple-curve walks then have all coefficients positive.
    ``fg`` is unread; it stays while the benchmark harness passes it.
    """
    H = holonomy_matrix(tri, curve)
    return (H[0][0] + H[1][1]).normalize_sign()


# -- Poisson bracket -----------------------------------------------------------

def poisson_bracket(p: LaurentPoly, q: LaurentPoly, n) -> LaurentPoly:
    """Log-canonical bracket {X^mu, X^nu} = <mu, nu> X^(mu+nu), extended
    bilinearly (which is exactly the Leibniz extension)."""
    if p.nvars != q.nvars or len(n) != p.nvars:
        raise ValueError("variable index sets differ")
    # <mu, nu> is a quarter of the pairing of doubled exponent vectors
    return LaurentPoly(p.nvars, convolve(
        p.terms, q.terms, vec_add, lambda d1, d2: Fraction(pairing(d1, d2, n), 4)))


# -- cluster mutation -----------------------------------------------------------

class SubstitutionError(ValueError):
    pass


def substitute_flip(p: LaurentPoly, n, e: int) -> LaurentRational:
    """Rewrite a polynomial in the coordinates of the triangulation flipped
    at edge ``e`` as a rational function of the unflipped ones, by the
    cluster mutation X'_e = 1/X_e and X'_a = X_a X_e^[n_ae]+ (1 + X_e)^(-n_ae).

    Works monomial by monomial: every half-integer power of a mutated
    coordinate contributes a power of u = 1 + X_e times a monomial, and for
    honest trace polynomials the total u-exponent is integral; a
    half-integral power (impossible for curves) raises SubstitutionError.
    """
    E = p.nvars
    terms = []  # (doubled monomial exponents, doubled u exponent, coeff)
    for d, c in p.terms.items():
        mono = list(d)
        u2 = 0  # doubled exponent of u
        mono[e] = -d[e]
        for a, da in enumerate(d):
            if a != e:
                u2 -= n[a][e] * da
                mono[e] += max(n[a][e], 0) * da
        terms.append((tuple(mono), u2, c))
    if any(u2 % 2 for _, u2, _ in terms):
        raise SubstitutionError("substitution produced a half-integer power of 1+X_e")
    j_all = [u2 // 2 for _, u2, _ in terms]
    j0 = min(0, min(j_all))
    u = LaurentPoly.const(E, 1) + LaurentPoly.variable(E, e)
    upows = {}
    num = LaurentPoly.zero(E)
    for (mono, u2, c), j in zip(terms, j_all):
        k = j - j0
        if k not in upows:
            upows[k] = u ** k
        num = num + LaurentPoly.monomial(E, mono, c) * upows[k]
    den = u ** (-j0)
    return LaurentRational(num, den)


def mutate_coordinate(n, e: int, target: int) -> LaurentRational:
    """Flipped-triangulation coordinate X'_target written in the unflipped
    coordinates: the flip substitution applied to that generator."""
    return substitute_flip(LaurentPoly.variable(len(n), target), n, e)


def verify_mutation_covariance(tri: Triangulation, e: int, curve: CurvePath,
                               curve_in_flipped: CurvePath) -> bool:
    """Exact check that the flipped-triangulation trace, pushed through the
    coordinate mutation, reproduces the original trace."""
    n = exchange_matrix(tri)
    orig = trace_function(tri, curve)
    tri2 = flip(tri, e)
    flipped = trace_function(tri2, curve_in_flipped)
    pushed = substitute_flip(flipped, n, e)
    return pushed == LaurentRational(orig)


# -- generator relations ----------------------------------------------------------

def relation_poly(kind: str, values: dict):
    """The trace relation of ``reference.RELATIONS[(kind, 3)]`` at s = 1,
    evaluated on trace data.

    kind 'c11' needs keys s, t, u, L0; kind 'c04' needs s, t, u, L1..L4.
    Exact polynomials give an exact polynomial back; plain numeric inputs
    are evaluated numerically.
    """
    return word_sum(relation_terms(kind, 3, values, SPoly.at_one), values)


def relation_poly_du(kind: str, values: dict):
    """Partial derivative of the relation polynomial in the u-generator:
    each word's u-degree times the word with one u removed."""
    terms = relation_terms(kind, 3, values, SPoly.at_one, keep=lambda w: "u" in w)
    return word_sum([(c * w.count("u"), w.replace("u", "", 1)) for c, w in terms], values)
