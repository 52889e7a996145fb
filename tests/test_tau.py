import dataclasses
import decimal
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from holomon import checks
from holomon import tau as tau_module
from holomon.blocks import sphere4_block
from holomon.checks import shift_changes, shrink_ratio
from holomon.tau import (
    BiSeries,
    coefficient_difference,
    residual_form,
    sigma_pvi_residual,
    tau_series,
    weight_ratio,
)

THETA = (F(1, 4), F(2, 9), F(4, 13), F(3, 8))


def structure_constant(theta, sigma, digits: int = 50):
    """Unit-central-charge three-point weight for internal momentum sigma,
    as a product of Barnes double-gamma values (numeric).

    The tau sum never evaluates it: it takes C(lam + m) / C(lam) from
    ``weight_ratio``, and this direct form is the reference that the
    ratios are tested against here."""
    with mp.workdps(digits):
        th0, tht, th1, thinf = [mp.mpmathify(x) for x in theta]
        s = mp.mpmathify(sigma)
        out = mp.mpf(1)
        for e in (1, -1):
            for e2 in (1, -1):
                out *= mp.barnesg(1 + tht + e * th0 + e2 * s)
                out *= mp.barnesg(1 + th1 + e * thinf + e2 * s)
        out /= mp.barnesg(1 + 2 * s) * mp.barnesg(1 - 2 * s)
        return out


def _clear_memo():
    tau_module._shift_block.cache_clear()
    tau_module._up_chain.cache_clear()


def _double_loop(a: BiSeries, b: BiSeries) -> dict:
    jmax = min(a.jmax, b.jmax)
    out: dict = {}
    for (m1, j1), v1 in a.terms.items():
        for (m2, j2), v2 in b.terms.items():
            if j1 + j2 <= jmax:
                k = (m1 + m2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def _series_inverse(s: BiSeries) -> BiSeries:
    """Reference inverse: the geometric series in -(s - s00)/s00."""
    lead = s.terms[(0, 0)]
    rest = BiSeries({k: v for k, v in s.terms.items() if k != (0, 0)}, s.jmax)
    out = power = BiSeries.const(1 / lead, s.jmax)
    for _ in range(s.jmax):
        power = power * rest * (-1 / lead)
        out = out + power
    return out


def _reference_tau(theta, lam, N, M):
    """Exact plain sum from full-order blocks, cut at N afterwards."""
    terms: dict = {}
    for m in range(-M, M + 1):
        beta = lam + m
        blk = sphere4_block(*(x * x for x in theta), beta * beta, F(1), N=N)
        for k, ck in enumerate(blk.coeffs):
            if m * m + k <= N and ck != 0:
                terms[(m, m * m + k)] = ck
    return BiSeries(terms, N)


def _expanded_form(U, Y, Z, theta):
    """The deformation equation expanded in U, Y and Z, its coefficients
    polynomials in the squared thetas; written out independently of the
    library's sigma-form."""
    q0, qt, q1, qi = (x * x for x in theta)
    a = qt - qi
    b = -q0 + qt + q1 - qi
    c = -(q0 + qt)
    d = -2 * qt * (q0 + qt + q1 - qi)
    f = -qt * ((q0 + qt) ** 2 + (q1 - qi) ** 2 - 2 * q0 * (q1 + qi) + 2 * qt * (q1 - qi))
    return (Z * Z * F(1, 4) + Y * U * U + Y * Y * U + U * U * a + (Y * U) * b
            + Y * Y * c + Y * d + f)


def _form(ts, lift=lambda v: v) -> dict:
    """``residual_form`` of a series without its phase, every coefficient
    and scalar lifted into one ring: as given (Fractions, the exact
    reference) or ``mp.mpc`` (``_complex``, the complex reference)."""
    S = BiSeries({k: lift(v) for k, v in ts.unphased.terms.items()}, ts.unphased.jmax)
    return residual_form(S, lift(2 * ts.lam), lift(ts.leading_exponent),
                         tuple(map(lift, ts.theta)))


def _complex(v):
    return mp.mpc(mp.mpmathify(v))


def _reference_residual(ts, order=None):
    """The residual with untruncated products, the series inverse, and the
    untrusted slots dropped only at the end."""
    series, lam2 = ts.series, 2 * ts.lam
    E0 = ts.leading_exponent
    R = BiSeries({(m, j): v * (E0 + lam2 * m + j) for (m, j), v in series.terms.items()},
                 series.jmax) * _series_inverse(series)

    def d_dt(S):
        return BiSeries({(m, j - 1): v * (lam2 * m + j) for (m, j), v in S.terms.items()},
                        S.jmax)

    def tmul(S, p=1):
        return BiSeries({(m, j + p): v for (m, j), v in S.terms.items()}, S.jmax)

    sigma = tmul(R) - R
    Y = d_dt(sigma)
    U = sigma - tmul(Y)
    Z = tmul(d_dt(Y)) - tmul(d_dt(Y), 2)
    resid = _expanded_form(U, Y, Z, ts.theta)
    cutoff = min(series.jmax, series.jmax if order is None else order) - 2
    return {k: v for k, v in resid.terms.items() if k[1] <= cutoff}


class TestBiSeries:
    def test_ring_ops(self):
        a = BiSeries({(0, 0): F(1), (1, 1): F(2)}, jmax=4)
        b = BiSeries({(0, 1): F(3), (-1, 1): F(1)}, jmax=4)
        prod = a * b
        assert prod.terms[(1, 2)] == 6
        assert prod.terms[(0, 2)] == 2
        assert (a + b).terms[(0, 1)] == 3

    def test_truncation(self):
        a = BiSeries({(0, 3): F(1)}, jmax=4)
        b = BiSeries({(0, 2): F(1)}, jmax=4)
        assert not (a * b).terms

    def test_inverse(self):
        a = BiSeries({(0, 0): F(2), (1, 1): F(3), (-1, 2): F(1)}, jmax=5)
        prod = a * (BiSeries.const(1, a.jmax) / a)
        assert prod.terms == {(0, 0): F(1)}

    def test_inverse_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            BiSeries.const(1, 3) / BiSeries({(1, 1): F(1)}, jmax=3)

    def test_division_needs_constant_grade_zero(self):
        a = BiSeries({(0, 0): F(1)}, jmax=3)
        with pytest.raises(ZeroDivisionError):
            a / BiSeries({(0, 0): F(1), (1, 0): F(2)}, jmax=3)

    def test_division_matches_fraction_reference(self):
        rng = random.Random(11)

        def draw(unit):
            terms = {(0, 0): F(rng.randint(1, 5), rng.randint(1, 4))} if unit else {}
            for _ in range(10):
                m = rng.randint(-2, 2)
                # shift m sits at grade >= m^2, as in a tau series
                key = (m, rng.randint(max(m * m, 1 if unit else 0), 6))
                terms[key] = F(rng.randint(-4, 4), rng.randint(1, 3))
            return BiSeries(terms, jmax=rng.randint(3, 6))

        for _ in range(20):
            a, b = draw(False), draw(True)
            q = a / b
            assert q.terms == (a * _series_inverse(b)).terms
            assert (q * b).terms == BiSeries(a.terms, q.jmax).terms

    @pytest.mark.parametrize("numeric", [False, True])
    def test_product_matches_double_loop(self, numeric):
        rng = random.Random(7)

        def draw():
            terms = {}
            for _ in range(12):
                # j down to -1, as after a t-derivative
                key = (rng.randint(-3, 3), rng.randint(-1, 6))
                v = F(rng.randint(-4, 4), rng.randint(1, 3))
                terms[key] = mp.mpc(mp.mpmathify(v), rng.randint(-2, 2)) if numeric else v
            return BiSeries(terms, jmax=rng.randint(3, 6))

        with mp.workdps(30):
            for _ in range(30):
                a, b = draw(), draw()
                assert (a * b).terms == _double_loop(a, b)


class TestTauSeries:
    def test_leading_coefficient_one(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=4, M=2, digits=30)
        assert abs(ts.series.terms[(0, 0)] - 1) < 1e-25

    def test_leading_exponent(self):
        ts = tau_series(THETA, F(3, 8), 0, N=2, M=1, digits=50, normalization="plain")
        th0, tht = THETA[0], THETA[1]
        assert ts.leading_exponent == F(3, 8) ** 2 - th0 ** 2 - tht ** 2

    def test_exact_mode_plain(self):
        # a plain sum keeps exact coefficients apart from its phase, so a
        # unit phase gives an exact series and an exact residual
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=4, M=2, digits=50,
                        normalization="plain")
        assert ts.unphased.terms
        assert all(isinstance(v, F) for v in ts.unphased.terms.values())
        exact = dataclasses.replace(ts, phase=F(1))
        assert all(isinstance(v, F) for v in exact.series.terms.values())
        assert all(isinstance(v, F) for v in _form(exact).values())

    @pytest.mark.parametrize("index,name", [(None, "lam"), (0, "th0"), (3, "thinf")])
    def test_momenta_must_be_rational(self, index, name):
        theta, lam = list(THETA), F(3, 8)
        if index is None:
            lam = 0.375
        else:
            theta[index] = float(theta[index])
        with pytest.raises(ValueError, match=f"^{name} must be rational"):
            tau_series(tuple(theta), lam, F(7, 10), N=2, M=1, digits=50)

    def test_shift_sectors_graded_by_m_squared(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=4, M=2, digits=50,
                        normalization="plain")
        for (m, j) in ts.series.terms:
            assert j >= m * m

    def test_kappa_periodicity(self):
        a = tau_series(THETA, F(3, 8), 1.3, N=4, M=2, digits=30)
        with mp.workdps(30):
            b = tau_series(THETA, F(3, 8), 1.3 + 2 * float(mp.pi), N=4, M=2, digits=30)
        # e^(i kappa m) with integer m has full-turn periodicity; the float
        # 2 pi is inexact, so compare loosely
        assert coefficient_difference(a, b) < 1e-12

    def test_structure_constant_symmetry(self):
        # swapping th0 <-> -th0 leaves the Barnes product unchanged
        a = structure_constant(THETA, F(3, 8), digits=30)
        flipped = (-THETA[0], THETA[1], THETA[2], THETA[3])
        b = structure_constant(flipped, F(3, 8), digits=30)
        with mp.workdps(30):
            assert abs(a - b) < 1e-25


class TestWeightChain:
    def test_matches_barnes_form(self):
        rng = random.Random(31)
        cases = [(THETA, F(3, 8))] + [
            (tuple(F(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(4)),
             F(rng.randint(8, 17), 40)) for _ in range(3)]
        with mp.workdps(50):
            for theta, lam in cases:
                base = structure_constant(theta, lam, digits=50)
                for m in range(-4, 5):
                    want = structure_constant(theta, lam + m, digits=50) / base
                    got = weight_ratio(theta, lam, m, 50)
                    assert abs(got / want - 1) <= 1e-45, (theta, lam, m)

    def test_zero_weight_shift_skipped(self):
        # lam = tht + th0 puts G(0) = 0 into C(lam + m) for every m >= 1
        lam = THETA[1] + THETA[0]
        assert weight_ratio(THETA, lam, 1, 30) == 0
        with pytest.warns(UserWarning, match=r"\[1, 2\]"):
            ts = tau_series(THETA, lam, F(7, 10), N=4, M=2, digits=30)
        assert {m for (m, _) in ts.series.terms} == {-2, -1, 0}

    @pytest.mark.parametrize("lam", [F(0), F(1, 2), F(1), F(-3, 2)])
    def test_infinite_weight_raises(self, lam):
        with pytest.raises(ValueError, match=f"shift m=-?1 .* lambda={lam}"):
            tau_series(THETA, lam, F(7, 10), N=2, M=2, digits=30)


def _gamma_chain(theta, lam, m, digits):
    """C(lam + m) / C(lam) with every step from the twelve Gamma values."""
    s, n = (lam, m) if m >= 0 else (-lam, -m)
    with mp.workdps(digits + 10):
        out = mp.mpf(1)
        for k in range(n):
            out *= tau_module._gamma_step(theta, s + k)
        return out


def _outcome(weight, *args):
    try:
        return weight(*args)
    except ValueError:
        return ValueError


class TestRationalStep:
    def test_matches_gamma_chain(self):
        rng = random.Random(41)
        cases = [(THETA, F(3, 8))] + [
            (tuple(F(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(4)),
             F(rng.randint(8, 17), 40)) for _ in range(4)]
        _clear_memo()
        with mp.workdps(50):
            for theta, lam in cases:
                for m in range(-5, 6):
                    want = _gamma_chain(theta, lam, m, 50)
                    got = weight_ratio(theta, lam, m, 50)
                    assert abs(got / want - 1) <= 1e-45, (theta, lam, m)

    @pytest.mark.parametrize("lam", [
        THETA[1] + THETA[0],         # a zero weight from the first step on
        THETA[1] + THETA[0] - 2,     # a zero numerator at the third step
        F(-3, 2), F(-5, 2),          # a zero step, then a Gamma pole
        F(1, 2), F(0),               # a Gamma pole at the first step
        2 - THETA[1] - THETA[0]])    # a zero numerator at the third step down
    def test_zero_and_pole_outcomes_kept(self, lam):
        _clear_memo()
        for m in range(-5, 6):
            want = _outcome(_gamma_chain, THETA, lam, m, 30)
            got = _outcome(weight_ratio, THETA, lam, m, 30)
            if want is ValueError or not want:
                assert got == want, (lam, m)
            else:
                assert abs(got / want - 1) <= 1e-25, (lam, m)

    def test_huge_argument_next_to_a_pole(self):
        # -10^200 + 1/3 rounds to the pole -10^200 at 60 digits; decided on
        # the rational argument it is no pole, and its Gamma keeps the 50
        # digits that a chain at 60 serves (reference: the reflection
        # formula at 300 digits)
        z = F(-10 ** 200) + F(1, 3)
        with mp.workdps(60):
            got, rgot = tau_module._gamma(z), tau_module._gamma(z, True)
        with mp.workdps(300):
            x = mp.mpf(z.numerator) / z.denominator
            want = mp.pi / (mp.sinpi(x) * mp.gamma(1 - x))
            assert abs(got / want - 1) < 1e-50 and abs(rgot * want - 1) < 1e-50
        assert tau_module._gamma(z - F(1, 3), True) == 0
        with pytest.raises(ValueError, match="pole"):
            tau_module._gamma(z - F(1, 3))

    def test_weight_next_to_a_huge_pole(self):
        theta = (F(10 ** 200), F(1, 3), F(1, 5), F(1, 7))
        _clear_memo()
        for m in (-2, -1, 1, 2):
            low, high = weight_ratio(theta, F(2, 5), m, 30), weight_ratio(theta, F(2, 5), m, 300)
            assert low != 0 and abs(low / high - 1) < 1e-25, m

    def test_two_gamma_steps_per_chain_pair(self, monkeypatch):
        calls = []
        real = tau_module._gamma_step

        def counted(theta, s):
            calls.append((theta, s))
            return real(theta, s)

        monkeypatch.setattr(tau_module, "_gamma_step", counted)
        _clear_memo()
        for digits in (30, 50):
            tau_series(THETA, F(3, 8), F(7, 10), N=6, M=4, digits=digits)
            tau_series(THETA, F(3, 8), F(13, 10), N=6, M=3, digits=digits)
            assert sorted(s for _, s in calls) == [F(-3, 8), F(3, 8)]
            calls.clear()

    @pytest.mark.parametrize("lam", [
        THETA[1] + THETA[0], THETA[1] + THETA[0] - 2, 2 - THETA[1] - THETA[0]])
    def test_one_gamma_step_per_chain_at_zero_weights(self, lam, monkeypatch):
        # a zero step or factor numerator leaves every later step 0, with
        # no Gamma value evaluated past each chain's first step
        calls = []
        real = tau_module._gamma_step

        def counted(theta, s):
            calls.append(s)
            return real(theta, s)

        monkeypatch.setattr(tau_module, "_gamma_step", counted)
        _clear_memo()
        for m in range(-5, 6):
            weight_ratio(THETA, lam, m, 30)
        assert sorted(calls) == sorted([lam, -lam])


class TestPhaseApart:
    def test_real_data_stays_real(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=30)
        assert ts.unphased.terms
        assert all(type(v) is mp.mpf for v in ts.unphased.terms.values())
        assert all(type(v) is mp.mpc for v in ts.series.terms.values())

    def test_residual_is_unphased(self):
        at = {kappa: sigma_pvi_residual(tau_series(THETA, F(3, 8), kappa, N=6, M=3,
                                                   digits=50, normalization="plain"))
              for kappa in (0, F(7, 10))}
        assert at[0] and at[0] == at[F(7, 10)]

    def test_real_data_residual_is_real(self):
        for normalization in ("isomonodromic", "plain"):
            res = sigma_pvi_residual(tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3,
                                                digits=50, normalization=normalization))
            assert res
            assert all(type(v) is mp.mpf for v in res.values())

    def test_residual_matches_folded_phases(self):
        # the phase folded into the coefficients, as one complex series
        # whose residual form runs in mpmath; the character has modulus 1,
        # so each slot's modulus is the unphased residual's
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=50,
                        normalization="plain")
        folded = dataclasses.replace(ts, unphased=ts.series, phase=mp.mpf(1))
        got = sigma_pvi_residual(ts)
        with mp.workdps(50):
            want = _form(folded, _complex)
            # a slot that is rounding noise on one side may be exactly zero,
            # and so absent, on the other: compare over both key sets,
            # relative to the largest slot
            scale = max(abs(v) for v in want.values())
            assert scale > 1
            for k in got.keys() | want.keys():
                assert abs(abs(got.get(k, 0)) - abs(want.get(k, 0))) <= 1e-45 * scale


class TestShiftMemo:
    def test_keyed_by_precision(self):
        args = (THETA, F(3, 8), F(7, 10))
        _clear_memo()
        tau_series(*args, N=4, M=2, digits=30)
        after = tau_series(*args, N=4, M=2, digits=50)
        _clear_memo()
        fresh = tau_series(*args, N=4, M=2, digits=50)
        assert after.series.terms == fresh.series.terms

    def test_more_shifts_reuse_the_smaller_sum(self):
        args = (THETA, F(3, 8), F(7, 10))
        _clear_memo()
        tau_series(*args, N=6, M=3, digits=50)
        grown = tau_series(*args, N=6, M=4, digits=50)
        info = tau_module._shift_block.cache_info()
        # only |m| <= 2 has m^2 <= N = 6: five blocks, reused by M = 4
        assert (info.hits, info.misses) == (5, 5)
        _clear_memo()
        fresh = tau_series(*args, N=6, M=4, digits=50)
        assert grown.series.terms == fresh.series.terms


class TestTruncatedPipeline:
    def test_shift_block_is_prefix_of_full_order(self):
        N = 7
        for m in range(-2, 3):
            full = tau_module._shift_block(THETA, F(3, 8), m, N)
            cut = tau_module._shift_block(THETA, F(3, 8), m, N - m * m)
            assert cut == full[:N - m * m + 1]

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_exact_pipeline_matches_untruncated_reference(self, N):
        # the plain sum's exact coefficients, under a unit phase
        def exact(order):
            ts = tau_series(THETA, F(3, 8), F(7, 10), N=order, M=3, digits=50,
                            normalization="plain")
            return dataclasses.replace(ts, phase=F(1))

        ts = exact(N)
        ref = _reference_tau(THETA, F(3, 8), N, 3)
        assert ts.unphased.terms == ref.terms and ts.series.terms == ref.terms
        res = _form(ts)
        assert res and res == _reference_residual(ts)
        for order in (N - 1, N - 2):
            assert _form(exact(order)) == _reference_residual(ts, order)


def _draw(rng):
    theta = tuple(F(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(4))
    return theta, F(rng.randint(8, 17), 40), F(rng.randint(1, 12), 10)


class TestSigmaEquation:
    def test_coefficients_closed_form(self):
        # the residual's polynomial is the Jimbo-Miwa-Okamoto sigma-form,
        # (t(t-1) sigma'')^2 + 2 det M over 4, and equals the expansion above
        sp = pytest.importorskip("sympy")
        t, s0, s1, s2 = sp.symbols("t sigma sigma1 sigma2")
        theta = sp.symbols("th0 tht th1 thinf")
        q0, qt, q1, qi = (x * x for x in theta)
        U, Y, Z = s0 - t * s1, s1, t * (1 - t) * s2
        M = sp.Matrix([[2 * q0, t * s1 - s0, s1 + q0 + qt + q1 - qi],
                       [t * s1 - s0, 2 * qt, (t - 1) * s1 - s0],
                       [s1 + q0 + qt + q1 - qi, (t - 1) * s1 - s0, 2 * q1]])
        form = tau_module._sigma_form(U, Y, Z, theta)
        assert sp.expand(4 * form - (t * (t - 1) * s2) ** 2 - 2 * M.det()) == 0
        assert sp.expand(form - _expanded_form(U, Y, Z, theta)) == 0

    def test_residual_vanishes_fresh_draw(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=50)
        res = sigma_pvi_residual(ts)
        assert res, "no slots computed"
        assert max(abs(v) for v in res.values()) < 1e-40

    def test_residual_scales_with_precision(self):
        w30, w50, w70 = (max(abs(v) for v in sigma_pvi_residual(
            tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=digits)).values())
            for digits in (30, 50, 70))
        assert w50 < w30 * mp.mpf(10) ** -15
        assert w70 < w50 * mp.mpf(10) ** -15

    def test_random_draws(self):
        rng = random.Random(23)
        for _ in range(3):
            ts = tau_series(*_draw(rng), N=6, M=3, digits=50)
            res = sigma_pvi_residual(ts)
            assert max(abs(v) for v in res.values()) < 1e-10

    def test_plain_sum_fails_equation(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=30,
                        normalization="plain")
        res = sigma_pvi_residual(ts)
        assert max(abs(v) for v in res.values()) > 1e-2

    def test_scale_invariance(self):
        # multiplying tau by a constant leaves the log-derivative unchanged:
        # a real constant through the residual, a complex one through the
        # residual form in mpmath
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=40)
        with mp.workdps(40):
            real, cplx = (dataclasses.replace(ts, unphased=BiSeries(
                {k: c * v for k, v in ts.unphased.terms.items()}, ts.unphased.jmax))
                for c in (mp.mpf("2.7"), mp.mpf("2.7") + mp.mpf("0.4") * 1j))
        pairs = [(sigma_pvi_residual(ts), sigma_pvi_residual(real))]
        with mp.workdps(40):
            pairs.append((_form(ts, _complex), _form(cplx, _complex)))
            # a slot of rounding noise that sums to exactly 0 is dropped
            # from one series, so compare over the union of slots
            for ra, rb in pairs:
                for k in ra.keys() | rb.keys():
                    assert abs(ra.get(k, 0) - rb.get(k, 0)) < 1e-30


class TestResidualRings:
    """The residual runs in ``decimal`` at the series' own digits; the
    residual form over ``mpc`` and over Fractions are its references, and
    they must agree to the working precision."""

    @pytest.mark.parametrize("digits, tol", [(30, 1e-25), (50, 1e-45)])
    def test_decimal_matches_mpmath(self, digits, tol):
        rng = random.Random(31)
        for _ in range(3):
            ts = tau_series(*_draw(rng), N=6, M=3, digits=digits)
            got = sigma_pvi_residual(ts)
            assert got
            with mp.workdps(digits):
                want = _form(ts, _complex)
                scale = max(abs(v) for v in ts.unphased.terms.values())
                for k in got.keys() | want.keys():
                    assert abs(got.get(k, 0) - want.get(k, 0)) <= tol * scale, k

    def test_plain_sum_matches_exact(self):
        # the plain sum's Fractions run in decimal too; the residual form
        # over them is exact
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=30,
                        normalization="plain")
        got = sigma_pvi_residual(ts)
        with mp.workdps(30):
            want = _form(ts)
            scale = max(abs(v) for v in want.values())
            assert scale > 1
            for k in got.keys() | want.keys():
                assert abs(got.get(k, 0) - want.get(k, 0)) <= 1e-25 * scale, k

    def test_ambient_precision_not_read(self):
        # the series' own digits set the precision, not mpmath's
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=50)
        plain = sigma_pvi_residual(ts), ts.series.terms
        with mp.workdps(80):
            assert (sigma_pvi_residual(ts), ts.series.terms) == plain

    def test_nan_slot_gives_nan(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=50)
        nan = BiSeries({**ts.unphased.terms, (1, 2): mp.nan}, ts.unphased.jmax)
        res = sigma_pvi_residual(dataclasses.replace(ts, unphased=nan))
        assert any(mp.isnan(v) for v in res.values())

    def test_nan_slot_fails_the_row(self, monkeypatch):
        real = tau_module.tau_series

        def nan_slot(*args, **kwargs):
            ts = real(*args, **kwargs)
            if "normalization" not in kwargs:   # the weighted draws
                ts.unphased.terms[(1, 2)] = mp.nan
            return ts

        monkeypatch.setattr(tau_module, "tau_series", nan_slot)
        row, = [c for c in checks.tau_checks(seed=0, draws=1).checks
                if c.name.startswith("deformation-equation residual")]
        assert (row.status, row.witness) == ("fail", "worst residual nan")

    def test_infinite_slot_does_not_raise(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=50)
        inf = BiSeries({**ts.unphased.terms, (1, 2): mp.inf}, ts.unphased.jmax)
        assert sigma_pvi_residual(dataclasses.replace(ts, unphased=inf))

    def test_caller_context_kept(self):
        ts = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=50)
        # a divisor with no constant term raises inside the residual
        no_lead = BiSeries({k: v for k, v in ts.unphased.terms.items() if k != (0, 0)},
                           ts.unphased.jmax)
        with decimal.localcontext() as caller:
            caller.prec = 7
            caller.traps[decimal.Inexact] = True
            caller.clear_flags()
            before = (caller.prec, dict(caller.traps), dict(caller.flags))
            assert sigma_pvi_residual(ts)
            assert decimal.getcontext() is caller
            assert (caller.prec, dict(caller.traps), dict(caller.flags)) == before
            with pytest.raises(ZeroDivisionError):
                sigma_pvi_residual(dataclasses.replace(ts, unphased=no_lead))
            assert decimal.getcontext() is caller
            assert (caller.prec, dict(caller.traps), dict(caller.flags)) == before


class TestTruncationStability:
    def test_m_growth_stable(self):
        ts3 = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3, digits=40)
        ts4 = tau_series(THETA, F(3, 8), F(7, 10), N=6, M=4, digits=40)
        assert coefficient_difference(ts3, ts4) < 1e-35

    def test_nan_difference_kept(self):
        a = tau_series(THETA, F(3, 8), F(7, 10), N=4, M=2, digits=30)
        nan = BiSeries({**a.unphased.terms, (0, 1): mp.nan}, a.unphased.jmax)
        assert mp.isnan(coefficient_difference(a, dataclasses.replace(a, unphased=nan)))

    def test_shift_contributions_shrink(self):
        changes = shift_changes(tau_series(THETA, F(3, 8), F(7, 10), N=6, M=3,
                                           digits=40))
        assert len(changes) == 2 and changes[0] > changes[1] > 0
        assert shrink_ratio(changes) < 1

    def test_shift_changes_match_growing_range(self):
        # each change is the difference of the sums at M = k - 1 and k
        def at(M):
            return tau_series(THETA, F(3, 8), F(7, 10), N=6, M=M, digits=40)

        changes = shift_changes(at(3))
        for k, change in enumerate(changes, 1):
            want = coefficient_difference(at(k - 1), at(k))
            assert want > 0 and abs(change - want) <= 1e-14 * want, k

    @pytest.mark.parametrize("normalization", ["isomonodromic", "plain"])
    def test_degenerate_shift_zero_raises(self, normalization):
        # lambda = 0 is a degenerate weight at level 1; the sum would have
        # no leading term
        with pytest.raises(ValueError, match="shift 0 is degenerate at lambda=0"):
            tau_series(THETA, F(0), 0, N=2, M=0, digits=30, normalization=normalization)

    def test_degenerate_shift_reported(self):
        # integer internal momentum makes a shifted Gram singular
        with pytest.warns(UserWarning):
            tau_series(THETA, F(1), 0, N=2, M=1, digits=50, normalization="plain")


class TestSuiteBuildsOnce:
    def test_one_series_per_draw(self, monkeypatch):
        # the truncation row reads the series the residual row built; the
        # one more call is the unweighted sum's row
        calls = []
        real = tau_module.tau_series

        def counted(*args, **kwargs):
            calls.append(kwargs.get("normalization", "isomonodromic"))
            return real(*args, **kwargs)

        monkeypatch.setattr(tau_module, "tau_series", counted)
        rep = checks.tau_checks(seed=0, draws=2)
        assert {c.status for c in rep.checks} == {"pass"}
        assert calls == ["isomonodromic", "isomonodromic", "plain"]
