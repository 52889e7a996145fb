"""Difference-operator representation of the quantized trace algebra.

The length operator acts by multiplication with 2 cosh(l/2) and the
conjugate shift moves l one step along the lattice l_n = l0 - 2 pi i b^2 n,
so the generators Ls, Lt and Lu are banded operators on the whole lattice
(``BandMatrix``).  In the gauge of ``generator_tables`` every entry is
rational in s = q^(1/4), the base point x0 = e^(l0/2) and the boundary
values, so one builder serves any field.  An entry is computed when it is
first read, and a relation from the table in ``reference`` is applied to a
basis vector one generator at a time, each word suffix once per site (the
vector of ``u`` serves ``u``, ``uu`` and ``stu``).

Two rings run the builder.  Over Fractions, on the seeded points of
``rational_draw``, a relation holds iff every slot of ``exact_slots`` is 0.
Over ``decimals.Complex``, for a complex b2 (``residual_table`` and its
callers), mpmath evaluates only s and site 0; q is s^4, every other site is
one step of q^(-1) from its neighbour toward site 0 (of q below it), and
every entry, product and relative residual runs in ``decimal`` two digits
above the working precision, in a local context that each entry point
opens.  Tables live only as long as the call that builds them, so no value
computed at one precision or deformation parameter is reused at another.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache

import mpmath as mp

from .decimals import Complex, norm, working
from .reference import relation_terms
from .report import worst_residual

# in decimal, a value below this counts as 0 (of 2 sinh(l/2), or u's coefficient)
_SINGULAR = Decimal("1e-12")
# the sites whose basis vectors the relation checks read
SITES = (-2, 0, 3)


@dataclass
class RepParams:
    """Parameters of one representation instance.

    b2 is the deformation parameter, q = exp(i pi b2), with q^(1/4) from
    ``s()``; ``generator_tables`` rejects q^4 = 1 on the sphere piece and
    q^2 = 1 on the torus piece, and no other root of unity.  boundary holds
    L0 (torus piece) or L1..L4 (sphere piece); x0 is the lattice base point
    e^(l0/2).
    """

    b2: complex
    boundary: dict
    x0: complex
    digits: int

    def __post_init__(self):
        if self.b2 == 0:
            raise ValueError("b2 must be nonzero")

    def s(self):
        """s = q^(1/4) = exp(i pi b2 / 4); q^(1/2) is s^2 and q is s^4, so
        every power of q comes from this one exponential on one branch."""
        with mp.workdps(self.digits):
            return mp.exp(1j * mp.pi * mp.mpmathify(self.b2) / 4)

    def site(self, n: int):
        """x at lattice site n: x_n = x0 q^(-n), i.e. l_n = l0 - 2 pi i b2 n."""
        with mp.workdps(self.digits):
            return mp.mpmathify(self.x0) * mp.exp(-1j * n * mp.pi * mp.mpmathify(self.b2))


class BandMatrix:
    """Banded matrix of a shift operator on the lattice of sites.

    ``bands[m]`` is a function of the row n that gives the coefficient of
    the shift by m at row n, i.e. the entry (n, n + m).
    """

    __slots__ = ("bands",)

    def __init__(self, bands: dict):
        self.bands = bands

    def matvec(self, vec: dict) -> dict:
        """Banded product with a vector {site: value}; only rows the
        vector's support reaches appear in the result."""
        out = {}
        for col, v in vec.items():
            for m, band in self.bands.items():
                out[col - m] = out.get(col - m, 0) + band(col - m) * v
        return out


# -- generator tables ----------------------------------------------------------


def c_factor(L, Li, Lj):
    """The boundary-dressed quadratic c_ij(L) = L^2+Li^2+Lj^2+L Li Lj-4."""
    return L * L + Li * Li + Lj * Lj + L * Li * Lj - 4


def generator_tables(kind: str, s, x0, boundary: dict, zero) -> dict:
    """The band tables {"s": Ls, "t": Lt, "u": Lu} over the field of
    s = q^(1/4), the base point x0 and the boundary values; ``zero`` tells
    whether a value of that field is 0.

    The relations are invariant under conjugation by a diagonal, and the one
    with D_(n+m)/D_n = Lt[n, n+m] in the symmetric gauge (whose entries are
    square roots) sends each +shift entry of Lt to 1 and each -shift entry
    to the gauge-invariant P_n = Lt[n, n+m] Lt[n+m, n].  With ch_n, sh_n =
    x_n +- 1/x_n, Ls multiplies by ch_n; on the torus piece T[n+1, n] =
    (L0 + x_n^2/q + q/x_n^2)/(sh_n sh_(n+1)); on the sphere piece
    T[n+2, n] = c12 c34/(sh_n sh_(n+1)^2 sh_(n+2)), both c_ij at ch_(n+1),
    and T[n, n] = ((q + 1/q)(L2 L3 + L1 L4) + ch_n (L1 L3 + L2 L4)) over
    x_n^2 + x_n^-2 - q^2 - q^-2 = sh_(n-1) sh_(n+1).  Every division is by
    sh, and a site where it is zero is rejected when it is first read.  Lu
    is Lt carried by the Dehn twist along s (torus) or the half twist of
    boundaries 1 and 2 (sphere): the move's phase multiplies the entry
    (n, n + m) of a shift band by its ratio x_n^(sign m) q^(-|m|/2) at the
    two sites, and Lu's diagonal is Lt's with L1 and L2 exchanged.  So both
    relations check Lu.  q^4 = 1 (sphere) or q^2 = 1 (torus) is rejected:
    the quadratic relation no longer involves u.  Over ``Complex`` an entry
    rounds in the decimal context current when it is first read, so the
    tables are built and read inside one ``working`` context.
    """
    half = s * s        # q^(1/2)
    q = half * half
    qi = 1 / q
    if kind == "c04":
        vanishing, phase, shift = q * q - qi * qi, qi, 2
    elif kind == "c11":
        vanishing, phase, shift = q - qi, 1 / half, 1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if zero(vanishing):
        raise ValueError("the quadratic relation's coefficient of u vanishes "
                         "(q^4 = 1 on c04, q^2 = 1 on c11)")

    @cache
    def x(n):
        return x0 if n == 0 else x(n - 1) * qi if n > 0 else x(n + 1) * q

    inv = cache(lambda n: 1 / x(n))
    ch = cache(lambda n: x(n) + inv(n))

    @cache
    def sh(n):
        v = x(n) - inv(n)
        if zero(v):
            raise ValueError(f"lattice site {n} hits a zero of 2 sinh(l/2)")
        return v

    if kind == "c04":
        L1, L2, L3, L4 = (boundary[k] for k in ("L1", "L2", "L3", "L4"))
        qsum = q + qi
        a, b = L2 * L3 + L1 * L4, L1 * L3 + L2 * L4     # L1 <-> L2 exchanges them
        den = cache(lambda n: sh(n - 1) * sh(n + 1))
        # T[n, n-2] is P_(n-2)
        t = {0: lambda n: (qsum * a + ch(n) * b) / den(n),
             -2: lambda n: (c_factor(ch(n - 1), L1, L2) * c_factor(ch(n - 1), L3, L4)
                            / (sh(n - 2) * sh(n - 1) * sh(n - 1) * sh(n)))}
        u = {0: lambda n: (qsum * b + ch(n) * a) / den(n)}
    else:
        L0 = boundary["L0"]
        # T[n, n-1] is P_(n-1), and x_(n-1) = q x_n
        t = {-1: lambda n: (L0 + q * x(n) * x(n) + qi * inv(n) * inv(n)) / (sh(n - 1) * sh(n))}
        u = {}
    t = {m: cache(band) for m, band in t.items()}
    t[shift] = lambda n: 1
    # Lu's -shift band reads Lt's cached entries
    u[shift] = lambda n: x(n) * phase
    u[-shift] = lambda n: t[-shift](n) * inv(n) * phase
    return {"s": BandMatrix({0: ch}), "t": BandMatrix(t),
            "u": BandMatrix({m: cache(band) for m, band in u.items()})}


# -- relation checks ---------------------------------------------------------------


def _word_vectors(tables: dict, words, site: int) -> dict:
    """{word: the word applied to the basis vector at ``site``}, with each
    suffix applied once and its vector shared by every word ending in it."""
    vecs = {"": {site: 1}}
    for word in words:
        for i in reversed(range(len(word))):
            if word[i:] not in vecs:
                vecs[word[i:]] = tables[word[i]].matvec(vecs[word[i + 1:]])
    return vecs


def _slots(terms: list, vecs: dict) -> dict:
    """The relation applied to a basis vector, {row: slot}, from the vector
    of each of its words."""
    total: dict = {}
    for coef, word in terms:
        for n, v in vecs[word].items():
            total[n] = total.get(n, 0) + coef * v
    return total


def _rows(kind: str, s, x0, boundary: dict, zero, degrees, sites, measure) -> list:
    """[(site, degree, measure(terms, word vectors)), ...] for each relation
    of ``degrees`` at each of ``sites``, from one build of the tables.  The
    terms are the relation's (coefficient, word) pairs in the field of s,
    the word read as an operator product ("st" is Ls Lt, "" the identity)."""
    s_to = cache(lambda e: 1 / s_to(-e) if e < 0 else s_to(e - 1) * s if e else 1)
    terms = {degree: relation_terms(kind, degree, boundary, lambda poly: sum(
        c * s_to(e) for e, c in poly.terms.items())) for degree in degrees}
    tables = generator_tables(kind, s, x0, boundary, zero)
    words = [w for degree in degrees for _, w in terms[degree]]
    vecs = {site: _word_vectors(tables, words, site) for site in sites}
    return [(site, degree, measure(terms[degree], vecs[site]))
            for degree in degrees for site in sites]


def rational_draw(kind: str, rng) -> tuple:
    """A seeded rational point (s, x0, boundary): s in (0, 1) over a
    denominator below 10, boundary values in (2, 6), and x0 = a/p in (1, 2)
    for a prime p above 10.  p stays in the denominator of every site
    x0 s^(-4n), so no site is +-1, a zero of 2 sinh(l/2)."""
    d = rng.randint(3, 9)
    s = Fraction(rng.randint(1, d - 1), d)
    p = rng.choice((11, 13, 17, 19))
    x0 = Fraction(p + rng.randint(1, p - 1), p)
    names = ("L0",) if kind == "c11" else ("L1", "L2", "L3", "L4")
    return s, x0, {k: Fraction(rng.randint(21, 59), 10) for k in names}


def exact_slots(kind: str, s, x0, boundary: dict, sites) -> list:
    """[(site, degree, {row: slot}), ...] for both relations, with no
    rounding over the field of the arguments: a relation holds at a site
    iff every slot there is 0."""
    return _rows(kind, s, x0, boundary, lambda v: v == 0, (2, 3), sites, _slots)


def _residual(terms: list, vecs: dict):
    """Relative residual of the relation applied to a basis vector: |P delta_n|
    over the sum of the term magnitudes, as an mpmath number."""
    scale = sum((abs(coef) * norm(vecs[word].values()) for coef, word in terms), Decimal(0))
    if scale == 0:
        return mp.inf
    return mp.mpmathify(norm(_slots(terms, vecs).values()) / scale)


def residual_table(p: RepParams, kind: str, degrees, sites) -> list:
    """Rows [(site, degree, relative residual), ...] over ``Complex`` at
    ``p``'s digits, from one build of the tables."""
    with mp.workdps(p.digits), working(p.digits):
        boundary = {k: Complex.of(v) for k, v in p.boundary.items()}
        return _rows(kind, Complex.of(p.s()), Complex.of(p.site(0)), boundary,
                     lambda v: abs(v) < _SINGULAR, degrees, sites, _residual)


def relation_residual(p: RepParams, kind: str, degree: int, site: int):
    """Relative residual of one relation at one site."""
    return residual_table(p, kind, (degree,), (site,))[0][2]


def verify_pants_relations(p: RepParams, kind: str, tol: float, sites: tuple = SITES) -> dict:
    """Residual report for both relations over several interior sites."""
    rows = residual_table(p, kind, (2, 3), sites)
    worst = {degree: worst_residual(r for _, d, r in rows if d == degree) for degree in (2, 3)}
    return {degree: {"residual": w, "pass": bool(w < tol)} for degree, w in worst.items()}


def random_params(kind: str, rng, digits: int = 30) -> RepParams:
    """Generic parameter draw: b2 in a complex annulus around 0.3 + 0.1i,
    boundary constants of hyperbolic size, base point off the real axis."""
    def jitter(scale=0.15):
        return (rng.uniform(-scale, scale) + 1j * rng.uniform(-scale, scale))

    b2 = 0.3 + 0.1j + jitter()
    x0 = 1.3 + 0.2j + jitter(0.3)
    if kind == "c11":
        boundary = {"L0": 2.2 + rng.uniform(0, 2) + 1j * rng.uniform(-0.5, 0.5)}
    else:
        boundary = {f"L{i}": 2.1 + rng.uniform(0, 2) + 1j * rng.uniform(-0.4, 0.4)
                    for i in range(1, 5)}
    return RepParams(b2=b2, boundary=boundary, x0=x0, digits=digits)


# -- flip-move phase and weight dictionary ------------------------------------------


def conformal_weight_of_length(l, b):
    """Delta(l) = Q^2/4 + (l / 4 pi b)^2 with Q = b + 1/b.

    The quarter term uses Q^2, which is what the weight dictionary
    Delta = alpha (Q - alpha) gives at alpha = Q/2 + i l/(4 pi b); the
    variant with a bare Q/4 printed elsewhere is inconsistent with that
    dictionary and is deliberately not used (see the verification report).
    """
    Q = b + 1 / b
    return Q * Q / 4 + (l / (4 * math.pi * b)) ** 2


B_MOVE_WEIGHT_NOTE = (
    "weight exponent uses Q^2/4 + (l/4 pi b)^2; the alternative printed "
    "form (1+b^2)/4b + (l/4 pi b)^2 disagrees with the weight dictionary "
    "Delta = alpha(Q - alpha) and was not used"
)


def b_move_phase(l3, l2, l1, b):
    """Braiding phase exp(i pi (Delta_{l3} - Delta_{l2} - Delta_{l1}))."""
    if b == 0:
        raise ValueError("b must be nonzero")
    d3 = conformal_weight_of_length(l3, b)
    d2 = conformal_weight_of_length(l2, b)
    d1 = conformal_weight_of_length(l1, b)
    return cmath.exp(1j * cmath.pi * (d3 - d2 - d1))
