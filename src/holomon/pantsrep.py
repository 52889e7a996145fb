"""Difference-operator representation of the quantized trace algebra.

The length operator acts by multiplication with 2 cosh(l/2) and the
conjugate shift moves l one step along the lattice l_n = l0 - 2 pi i b^2 n,
so the generators Ls, Lt and Lu are banded operators on the whole lattice.
Each relation check builds them once per parameter draw (``BandMatrix``):
s = q^(1/4) and site 0 are computed once, and each band is a cached
function of the row, a product of cached per-site leaf factors (the site
x_n, 2 cosh, 2 sinh and its square root, the boundary square roots), so
an entry is computed the first time it is read and only the sites a
residual reads are ever computed.  Lu is not solved from a relation: it
is Lt carried by the mapping-class move that takes t to u (the T move,
the Dehn twist along s, on the torus piece; the B move, the half twist
exchanging boundaries 1 and 2, on the sphere piece), so each of its
shift entries is Lt's times the move's phase ratio at the entry's two
sites, and both relations are independent checks of it.  The relations
come from the relation table in ``reference`` at s, each evaluated once
per check, and a relation is checked by applying each of its words in
the generators to a basis vector as banded products, one generator at a
time, with each word suffix applied once per site (the vector of ``u``
serves ``u``, ``uu`` and ``stu``).  Square roots in coefficients are
taken with one fixed principal branch per site and per factor; the
relation residuals double as the branch-consistency check.

Everything here is numeric, at a configurable working precision d.
mpmath evaluates only s = q^(1/4) and site 0, the base point x0; q^(1/2)
is s^2 and q is s^4.  Every other site is one step of q^(-1) from its
neighbour toward site 0 (of q below it), and a site within 1e-12 of a
zero of 2 sinh(l/2) is rejected when it is first read.  Every table
entry, product and residual runs in the standard library's ``decimal``
(``decimals.Complex``) at d + 2 digits, inside a local context that each
entry point opens, and each residual comes back as an mpmath number.
Tables live only as long as the call that builds them, so no value computed
at one precision or deformation parameter is reused at another.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cache

import mpmath as mp

from .decimals import Complex, working
from .reference import relation_terms
from .report import worst_residual

ONE = Complex(Decimal(1), Decimal(0))
# a site closer than this to a zero of 2 sinh(l/2) is rejected
_SINGULAR = Decimal("1e-12")


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


def _relation_terms(p: RepParams, kind: str, degree: int, s: Complex) -> list:
    """The summands of the deformed relation as (coefficient, word) pairs,
    the word read as an operator product ("st" is Ls Lt, "" the identity);
    kept separate so residuals can be normalized by the term-magnitude
    scale.  ``s`` is ``Complex.of(p.s())``, and s^e is taken by products.
    Called inside ``mp.workdps(p.digits), working(p.digits)``."""
    s_to = cache(lambda e: ONE / s_to(-e) if e < 0 else s_to(e - 1) * s if e else ONE)
    boundary = {k: Complex.of(v) for k, v in p.boundary.items()}
    return relation_terms(kind, degree, boundary,
                          lambda poly: sum(c * s_to(e) for e, c in poly.c.items()))


def generator_tables(p: RepParams, kind: str, s: Complex) -> dict:
    """The band tables {"s": Ls, "t": Lt, "u": Lu}.

    Ls multiplies by 2 cosh(l/2).  Lt on the sphere piece is a diagonal part
    plus two double-shift bands whose sandwich factors
    1/sqrt(2sinh) . sqrt(c12 c34)/(2sinh) . 1/sqrt(2sinh) sit at the row, the
    middle and the column site; on the torus piece it is two single-shift
    bands with square-root coefficients of the one-step-displaced length
    function.  Lu is the image of Lt under the mapping-class move that
    carries t to u: the Dehn twist along s on the torus piece, the half
    twist exchanging boundaries 1 and 2 on the sphere piece.  The move's
    phase, e^(2 pi i Delta(l)) or e^(i pi Delta(l)), multiplies the entry
    (n, n + m) of a shift band by its ratio at the two sites,
    x_n^(sign m) q^(-|m|/2); on the sphere piece Lu's diagonal is Lt's with
    L1 and L2 exchanged.  A q with q^4 = 1 (sphere) or q^2 = 1 (torus) is
    rejected: the quadratic relation no longer involves u there.

    ``s`` is ``Complex.of(p.s())``.  Every entry is computed in the decimal
    context current when it is first read, so the tables are built and read
    inside one ``mp.workdps(p.digits), working(p.digits)``, as the entry
    points do.
    """
    half = s * s        # q^(1/2)
    q = half * half
    qi = ONE / q
    if kind == "c04":
        vanishing, phase = q * q - qi * qi, qi
    elif kind == "c11":
        vanishing, phase = q - qi, ONE / half
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if abs(vanishing) < Decimal(1).scaleb(-p.digits // 2):
        raise ValueError("the quadratic relation's coefficient of u vanishes "
                         "(q^4 = 1 on c04, q^2 = 1 on c11)")
    x0 = Complex.of(p.site(0))

    @cache
    def x(n):
        v = x0 if n == 0 else x(n - 1) * qi if n > 0 else x(n + 1) * q
        if abs(v - ONE / v) < _SINGULAR:
            raise ValueError(f"lattice site {n} hits a zero of 2 sinh(l/2)")
        return v

    inv = cache(lambda n: ONE / x(n))
    ch = cache(lambda n: x(n) + inv(n))     # 2 cosh(l/2)
    sh = cache(lambda n: x(n) - inv(n))     # 2 sinh(l/2)
    if kind == "c04":
        L1, L2, L3, L4 = (Complex.of(p.boundary[k]) for k in ("L1", "L2", "L3", "L4"))
        qsum, qq = q + qi, q * q + qi * qi
        a, b = L2 * L3 + L1 * L4, L1 * L3 + L2 * L4     # L1 <-> L2 exchanges them
        den = cache(lambda n: x(n) * x(n) + inv(n) * inv(n) - qq)
        root = cache(lambda n: ONE / sh(n).sqrt())
        mid = cache(lambda n: c_factor(ch(n), L1, L2).sqrt() * c_factor(ch(n), L3, L4).sqrt()
                    / sh(n))
        t = {0: lambda n: (qsum * a + ch(n) * b) / den(n),
             2: lambda n: root(n) * mid(n + 1) * root(n + 2),
             -2: lambda n: root(n) * mid(n - 1) * root(n - 2)}
        u = {0: lambda n: (qsum * b + ch(n) * a) / den(n)}
    else:
        L0 = Complex.of(p.boundary["L0"])

        def entry(a, b):    # sqrt(L0 + a x^2 + b x^-2) / 2 sinh(l/2)
            return lambda n: (L0 + a * x(n) * x(n) + b * inv(n) * inv(n)).sqrt() / sh(n)

        t = {1: entry(qi, q), -1: entry(q, qi)}
        u = {}
    # Lu's shift bands read Lt's cached entries, not Lt's square roots again
    t = {m: cache(band) for m, band in t.items()}
    for m, band in t.items():
        if m:
            u[m] = lambda n, band=band, site=x if m > 0 else inv: band(n) * site(n) * phase
    return {"s": BandMatrix({0: ch}), "t": BandMatrix(t),
            "u": BandMatrix({m: cache(band) for m, band in u.items()})}


# -- relation residuals -----------------------------------------------------------


def _norm(values) -> Decimal:
    """The Euclidean norm of ``Complex`` entries, with one square root."""
    return sum((v.norm2() for v in values), Decimal(0)).sqrt()


def _word_vectors(tables: dict, words, site: int) -> dict:
    """{word: the word applied to the basis vector at ``site``}, with each
    suffix applied once and its vector shared by every word ending in it."""
    vecs = {"": {site: ONE}}
    for word in words:
        for i in reversed(range(len(word))):
            if word[i:] not in vecs:
                vecs[word[i:]] = tables[word[i]].matvec(vecs[word[i + 1:]])
    return vecs


def _residual(terms: list, vecs: dict):
    """Relative residual of the relation applied to a basis vector, from
    the vector of each of its words: |P delta_n| divided by the sum of the
    term magnitudes, as an mpmath number."""
    total: dict = {}
    scale = Decimal(0)
    for coef, word in terms:
        vec = {n: coef * v for n, v in vecs[word].items()}
        scale += _norm(vec.values())
        for n, v in vec.items():
            total[n] = total.get(n, 0) + v
    if scale == 0:
        return mp.inf
    return mp.mpmathify(_norm(total.values()) / scale)


def relation_residual(p: RepParams, kind: str, degree: int, site: int):
    """Relative residual of one relation at one site."""
    with mp.workdps(p.digits), working(p.digits):
        s = Complex.of(p.s())
        terms = _relation_terms(p, kind, degree, s)
        tables = generator_tables(p, kind, s)
        return _residual(terms, _word_vectors(tables, (w for _, w in terms), site))


def residual_table(p: RepParams, kind: str, sites=(-2, -1, 0, 1, 2)) -> list:
    """Per-site residual rows [(site, degree, residual), ...] for both
    relations, from one build of the generator tables, so each entry is
    computed once for every site and both degrees."""
    with mp.workdps(p.digits), working(p.digits):
        s = Complex.of(p.s())
        terms = {degree: _relation_terms(p, kind, degree, s) for degree in (2, 3)}
        tables = generator_tables(p, kind, s)
        words = [w for degree in (2, 3) for _, w in terms[degree]]
        vecs = {site: _word_vectors(tables, words, site) for site in sites}
        return [(site, degree, _residual(terms[degree], vecs[site]))
                for degree in (2, 3) for site in sites]


def verify_pants_relations(p: RepParams, kind: str, tol: float,
                           sites: tuple = (-2, 0, 3)) -> dict:
    """Residual report for both relations over several interior sites."""
    rows = residual_table(p, kind, sites)
    report = {}
    for degree in (2, 3):
        worst = worst_residual(r for _, d, r in rows if d == degree)
        report[degree] = {"residual": worst, "pass": bool(worst < tol)}
    return report


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
