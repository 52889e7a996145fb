"""Isomonodromic tau function as a weighted sum of unit-central-charge
four-point series over integer shifts of the internal momentum.

Series live in a bigraded ring: a term (m, j) stands for
coefficient * t^(E0 + 2 lambda m + j) with E0 = lambda^2 - th0^2 - tht^2;
the shift index m doubles as the power of e^(i kappa).  For generic
lambda the exponents 2 lambda m + j are pairwise distinct, so identities
of functions are checked coefficient-by-coefficient in the bigrading.

Multiplying term (m, j) by chi^m is a ring automorphism of the bigraded
ring: it commutes with products, the grade-wise division, d/dt and
multiplication by t.  So a ``TauSeries`` stores its coefficients without
the kappa phase, real for real data, and holds the phase
chi = e^(i kappa) once; only ``TauSeries.series`` puts chi^m back.  The
deformation-equation residual and the shift-range checks read the
unphased sum: their phased values differ by chi^m, of modulus 1.

lambda and theta are rational, so every shift's block is exact; the
weights (``weight_ratio``) and the residual (``residual_form``, run in
``decimal`` by ``sigma_pvi_residual``) work at the series' own digits,
and nothing here reads mpmath's ambient precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .blocks import sphere4_block
from .decimals import to_decimal, working
from .report import worst_residual
from .sparse import add, add_into, convolve
from .virasoro import GramSingularError

class BiSeries:
    """Truncated series over the (shift, integer-power) bigrading."""

    __slots__ = ("terms", "jmax")

    def __init__(self, terms: dict, jmax: int):
        self.jmax = jmax
        self.terms = {}
        for (m, j), v in terms.items():
            if j <= jmax and v:
                self.terms[(int(m), int(j))] = v

    @classmethod
    def const(cls, v, jmax: int) -> "BiSeries":
        return cls({(0, 0): v}, jmax)

    def __add__(self, o):
        if not isinstance(o, BiSeries):
            o = BiSeries.const(o, self.jmax)
        return BiSeries(add(self.terms, o.terms), min(self.jmax, o.jmax))

    __radd__ = __add__

    def __neg__(self):
        return BiSeries({k: -v for k, v in self.terms.items()}, self.jmax)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not isinstance(o, BiSeries):
            return BiSeries({k: v * o for k, v in self.terms.items()}, self.jmax)
        jmax = min(self.jmax, o.jmax)

        def keyadd(k1, k2):
            j = k1[1] + k2[1]
            return (k1[0] + k2[0], j) if j <= jmax else None

        # right operand by increasing j, so each row stops at the truncation
        right = sorted(o.terms.items(), key=lambda kv: kv[0][1])
        return BiSeries(convolve(self.terms, right, keyadd), jmax)

    __rmul__ = __mul__

    def __truediv__(self, o) -> "BiSeries":
        """Quotient by a scalar, term by term, or by a series, solved grade
        by grade, q_j = (a_j - sum_{i>=1} s_i q_(j-i)) / s_0, with s_i the
        divisor's terms of grade i; s_0 must be a nonzero constant."""
        if not isinstance(o, BiSeries):
            return BiSeries({k: v / o for k, v in self.terms.items()}, self.jmax)
        lead = o.terms.get((0, 0), 0)
        if lead == 0 or any(j < 0 or (j == 0 and m) for (m, j) in o.terms):
            raise ZeroDivisionError("the divisor's grade-0 part is not a "
                                    "nonzero constant")
        rows: dict = {}
        for (m, j), v in o.terms.items():
            if j > 0:
                rows.setdefault(j, []).append((m, v))
        # grade -> {shift: coefficient}: the numerator, solved in place
        quot: dict = {}
        for (m, j), v in self.terms.items():
            quot.setdefault(j, {})[m] = v
        jmax = min(self.jmax, o.jmax)
        for j in range(min(quot, default=0), jmax + 1):
            acc = quot.setdefault(j, {})
            for i, row in rows.items():
                for m2, v2 in quot.get(j - i, {}).items():
                    for m1, v1 in row:
                        acc[m1 + m2] = acc.get(m1 + m2, 0) - v1 * v2
            quot[j] = {m: v / lead for m, v in acc.items()}
        return BiSeries({(m, j): v for j, row in quot.items() for m, v in row.items()},
                        jmax)


@dataclass
class TauSeries:
    """Shift-summed series with its grading data.

    Term (m, j) of the sum is ``unphased.terms[(m, j)] * phase ** m``."""

    lam: object
    theta: tuple             # (th0, tht, th1, thinf)
    unphased: BiSeries       # the coefficients without the kappa phase
    phase: object            # e^(i kappa)
    digits: int

    @property
    def leading_exponent(self):
        th0, tht = self.theta[0], self.theta[1]
        return self.lam * self.lam - th0 * th0 - tht * tht

    @property
    def series(self) -> BiSeries:
        """The sum with its phases, built anew on each read."""
        terms = self.unphased.terms
        with mp.workdps(self.digits):
            powers = {m: self.phase ** m for m in {m for m, _ in terms}}
            return BiSeries({k: v * powers[k[0]] for k, v in terms.items()},
                            self.unphased.jmax)


def _pair_sums(theta) -> tuple:
    th0, tht, th1, thinf = theta
    return (tht + th0, tht - th0, th1 + thinf, th1 - thinf)


# numerator bits of a Gamma argument whose rounding the chain's ten guard
# digits absorb (see _up_chain): a 20-bit loss leaves 13 of their 33 bits
# for the rounding of the steps
_SPARE_BITS = 20


def _gamma(z, reciprocal: bool = False):
    """Gamma(z), or 1/Gamma(z) if ``reciprocal``, for rational z.

    A pole is decided on z itself: there 1/Gamma is 0 and Gamma raises
    ValueError.  Elsewhere Gamma's relative error is about |p| times the
    relative rounding of z = p/q, so z is rounded with as many bits more
    than the working precision as p has beyond ``_SPARE_BITS``; so
    -10^200 + 1/3 is not taken for the pole at -10^200."""
    p, q = z.numerator, z.denominator
    if q == 1 and p <= 0:
        if reciprocal:
            return mp.mpf(0)
        raise ValueError(f"Gamma has a pole at {z}")
    with mp.extraprec(max(0, abs(p).bit_length() - _SPARE_BITS)):
        x = mp.mpf(p) / q
        return mp.rgamma(x) if reciprocal else mp.gamma(x)


def _gamma_step(theta, s):
    """C(s + 1) / C(s) from G(z + 1) = Gamma(z) G(z): twelve Gamma values
    of rational arguments (see ``_gamma``).  A pole of a reciprocal Gamma
    gives 0; a pole of a Gamma raises ValueError."""
    out = (_gamma(-2 * s) * _gamma(-1 - 2 * s)
           * _gamma(1 + 2 * s, True) * _gamma(2 + 2 * s, True))
    for a in _pair_sums(theta):
        out *= _gamma(1 + a + s) * _gamma(a - s, True)
    return out


def _step_factor(theta, u) -> tuple:
    """Numerator and denominator of step(u + 1) / step(u), where step is
    ``_gamma_step``: Gamma(z + 1) = z Gamma(z) on each of its twelve
    Gamma values gives prod_a (a^2 - (u+1)^2) over
    (2u+1)^2 (2u+2)^4 (2u+3)^2, a over the pair sums.  Exact for rational
    data; the denominator is 0 iff 2u is -1, -2 or -3."""
    v = u + 1
    num = 1
    for a in _pair_sums(theta):
        num *= a * a - v * v
    return num, ((2 * u + 1) * (2 * u + 2) ** 2 * (2 * u + 3)) ** 2


@lru_cache(maxsize=256)
def _up_chain(theta: tuple, s, n: int, digits: int) -> tuple:
    """(C(s + n) / C(s), C(s + n) / C(s + n - 1)) for n >= 1.

    Gamma is evaluated once per chain, in its first step, ``_gamma_step``;
    each later step is the step before times the exact ``_step_factor``.
    A zero numerator makes that step, and every later one, exactly 0, as
    a zero first step does.  A zero denominator (2 s an integer) puts a
    Gamma pole between the two steps and raises ValueError.  The chain
    runs ten digits above the working precision, so its rounding errors
    (a few per step) stay below the working ulp."""
    with mp.workdps(digits + 10):
        if n == 1:
            step = _gamma_step(theta, s)
            return step, step
        ratio, step = _up_chain(theta, s, n - 1, digits)
        num, den = _step_factor(theta, s + n - 2)
        if not den:
            raise ValueError(f"a Gamma pole lies between steps {n - 1} and {n} from {s}")
        step = step * mp.mpmathify(num / den)
        return ratio * step, step


def weight_ratio(theta, lam, m: int, digits: int):
    """Weight C(lam + m) / C(lam) of shift m relative to shift 0.

    C is the unit-central-charge three-point weight: the product over
    signs e, e' of G(1 + th_t + e th_0 + e' sigma) G(1 + th_1 + e th_inf
    + e' sigma), over G(1 + 2 sigma) G(1 - 2 sigma), with G the Barnes
    function.  Its ratios never call G: each is one ``_up_chain``.

    theta and lam are rational.  Memoized per (theta, lam, m, digits), so
    growing the shift range extends the chains instead of restarting
    them.  Returns 0 where a zero first step or step factor sends the
    weight to zero; raises ValueError where the weight is infinite or
    undefined (2 lam an integer, or C(lam) = 0)."""
    if m == 0:
        return mp.mpf(1)
    theta = tuple(theta)
    # C(sigma) = C(-sigma), so shifts down are shifts up from -lam
    s, n = (lam, m) if m > 0 else (-lam, -m)
    try:
        return _up_chain(theta, s, n, digits)[0]
    except ValueError:
        raise ValueError(f"the weight of shift m={m} is infinite at "
                         f"lambda={lam} (a Gamma pole)") from None


@lru_cache(maxsize=256)
def _shift_block(theta: tuple, lam, m: int, order: int) -> tuple:
    """Exact coefficients 0..order of the unit-central-charge four-point
    series with internal momentum lam + m, memoized per
    (theta, lam, m, order)."""
    th0, tht, th1, thinf = theta
    blk = sphere4_block(th0 * th0, tht * tht, th1 * th1, thinf * thinf,
                        (lam + m) ** 2, 1, N=order)
    return tuple(blk.coeffs)


def tau_series(theta, lam, kappa, N: int, M: int, digits: int,
               normalization: str = "isomonodromic") -> TauSeries:
    """Sum the four-point series over shifted internal momenta.

    theta = (th0, tht, th1, thinf) are the external momenta (weights are
    their squares, central charge is 1); term m carries weight
    (lam + m)^2 and the phase e^(i kappa m), held apart as
    ``TauSeries.phase``.  theta and lam must be rational (ValueError
    otherwise); kappa may be any real.

    normalization 'isomonodromic' (default) weighs each shift with the
    ratio of unit-central-charge structure constants, which is what makes
    the sum solve the deformation equation; 'plain' drops the weights,
    giving the bare normalized-block sum, whose ``unphased`` coefficients
    stay Fractions.

    Shift m enters at t^(m^2), so its block is computed only to order
    N - m^2, and neither its weight nor its block when m^2 > N.  Shifts
    whose weight vanishes, or whose Gram matrices are singular at a level
    the truncation keeps, are skipped with a warning; an infinite weight,
    or a singular Gram matrix of shift 0, raises ValueError.
    """
    if normalization not in ("isomonodromic", "plain"):
        raise ValueError(f"unknown normalization {normalization!r}")
    for name, x in [("lam", lam), *zip(("th0", "tht", "th1", "thinf"), theta)]:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"{name} must be rational, got {x!r}")
    theta = tuple(theta)
    weighted = normalization == "isomonodromic"
    terms: dict = {}
    skipped = []
    with mp.workdps(digits):
        phase = mp.exp(1j * mp.mpmathify(kappa))
        shifts = [m for m in range(-M, M + 1) if m * m <= N]
        # nearest shifts first, so an infinite weight is reported where
        # its chain first breaks
        weights = {m: weight_ratio(theta, lam, m, digits)
                   for m in sorted(shifts, key=abs)} if weighted else {}
        for m in shifts:
            if weighted and weights[m] == 0:
                skipped.append(m)
                continue
            try:
                coeffs = _shift_block(theta, lam, m, N - m * m)
            except GramSingularError:
                if m == 0:  # the leading term; without it nothing is normalized
                    raise ValueError(f"the block of shift 0 is degenerate at "
                                     f"lambda={lam} (a singular Gram matrix)") from None
                skipped.append(m)
                continue
            # exponent offset relative to the m = 0 block:
            # (lam+m)^2 - lam^2 = 2 lam m + m^2 -> grading (m, m^2 + k);
            # a weight makes each Fraction an mpf, where the two meet
            add_into(terms, {(m, m * m + k): ck for k, ck in enumerate(coeffs)},
                     weights.get(m))
    if skipped:
        warnings.warn(f"skipped degenerate shifts {skipped} (non-generic momentum)")
    return TauSeries(lam=lam, theta=theta, unphased=BiSeries(terms, N), phase=phase,
                     digits=digits)


def coefficient_difference(a: TauSeries, b: TauSeries):
    """Largest change of shared bigraded coefficients, phases included,
    between two truncations (the stability measure for growing the shift
    range); a NaN difference wins."""
    sa, sb = a.series, b.series
    jmax = min(sa.jmax, sb.jmax)
    return worst_residual(
        abs(mp.mpmathify(sa.terms.get(k, 0)) - mp.mpmathify(sb.terms.get(k, 0)))
        for k in set(sa.terms) | set(sb.terms) if k[1] <= jmax)


# -- the scalar deformation equation -------------------------------------------

# The Jimbo-Miwa-Okamoto sigma-form of Painleve VI, as Gamayun, Iorgov and
# Lisovyy write it (arXiv:1207.0787), for sigma = t(t-1) dlog(tau)/dt:
#
#   (t(t-1) sigma'')^2 + 2 det M = 0,
#   M = [[2 q0,             t sigma' - sigma,        sigma' + k      ],
#        [t sigma' - sigma, 2 qt,                    (t-1) sigma' - sigma],
#        [sigma' + k,       (t-1) sigma' - sigma,    2 q1            ]],
#
# with q_i = theta_i^2 and k = q0 + qt + q1 - qinf.  In U = sigma - t sigma',
# Y = sigma' and Z = t(1-t) sigma'', a quarter of the left side is
#
#   Z^2/4 + 4 q0 qt q1 + U (U+Y) (Y+k) - q0 (U+Y)^2 - qt (Y+k)^2 - q1 U^2.
def _sigma_form(U, Y, Z, theta):
    """A quarter of the sigma-form's left side, in any commutative ring
    whose elements take the thetas and ints as scalars and divide by ints."""
    q0, qt, q1, qi = (x * x for x in theta)
    k = q0 + qt + q1 - qi
    UU, UY, YY = U * U, U * Y, Y * Y
    W = UU + UY                     # U (U+Y), so U (U+Y) (Y+k) = W Y + k W
    return (Z * Z / 4 + W * Y + W * k - (UU + UY * 2 + YY) * q0
            - (YY + Y * (2 * k)) * qt - UU * q1 + (4 * q0 * q1 - k * k) * qt)


def residual_form(S: BiSeries, lam2, E0, theta) -> dict:
    """The bigraded terms of the sigma-form above for tau's series S
    without its phase, through the last trustworthy grade, N - 2 for S
    truncated at N; no series is computed past the grade its kept slots
    read.  Written once for any commutative ring that takes ints as
    scalars and divides by ints: lam2 = 2 lambda, the leading exponent E0
    and the thetas are given in S's ring."""
    # sigma'' is exact only through grade N - 2, the last kept slot;
    # every product operand has grades >= 0, so none needs more
    jmax = S.jmax - 2
    if jmax < 0:
        return {}
    # t d/dt log tau (prefactor included), to jmax + 1 for sigma'
    S = BiSeries(S.terms, jmax + 1)
    R = BiSeries({(m, j): v * (E0 + lam2 * m + j) for (m, j), v in S.terms.items()},
                 jmax + 1) / S

    def d_dt(S: BiSeries) -> BiSeries:
        return BiSeries({(m, j - 1): v * (lam2 * m + j)
                         for (m, j), v in S.terms.items()}, jmax)

    def tmul(S: BiSeries, power: int = 1) -> BiSeries:
        return BiSeries({(m, j + power): v for (m, j), v in S.terms.items()
                         if j + power <= S.jmax}, S.jmax)

    sigma = tmul(R) - R                 # t(t-1) dlog(tau)/dt, to jmax + 1
    Y = d_dt(sigma)
    U = sigma - tmul(Y)
    Z0 = d_dt(Y)
    Z = tmul(Z0) - tmul(Z0, 2)          # t(1-t) sigma''
    return _sigma_form(U, Y, Z, theta).terms


def sigma_pvi_residual(tau: TauSeries) -> dict:
    """Residual coefficients of the scalar deformation equation.

    Substitutes sigma(t) = t(t-1) d/dt log tau into the sigma-form above
    (``residual_form``) and returns the bigraded residual terms through
    grade N - 2.  The weighted (isomonodromic) normalization drives every
    coefficient to zero at working precision; the plain sum does not
    satisfy the equation.  It is the residual of the unphased sum, so
    each slot is real for real data; the phased sum's residual term (m, j)
    is this one times phase^m, of modulus 1 (see the module docstring).

    Every coefficient (Fraction or mpf) and rational scalar goes into
    ``decimal`` once, in ``working(tau.digits)``, and each slot comes back
    as an mpf at tau.digits.  A coefficient or a result beyond decimal's
    range raises ValueError; an invalid operation gives NaN.
    """
    with working(tau.digits):
        S = BiSeries({k: to_decimal(v) for k, v in tau.unphased.terms.items()},
                     tau.unphased.jmax)
        form = residual_form(S, to_decimal(2 * tau.lam), to_decimal(tau.leading_exponent),
                             tuple(map(to_decimal, tau.theta)))
    with mp.workdps(tau.digits):
        return {k: mp.mpmathify(v) for k, v in form.items()}
