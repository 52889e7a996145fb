import cmath
import dataclasses
import decimal
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from functools import reduce

import mpmath as mp
import pytest

from holomon import pantsrep
from holomon.decimals import Complex, to_decimal, working
from holomon.laurent import LaurentPoly, LaurentRational
from holomon.pantsrep import (
    B_MOVE_WEIGHT_NOTE,
    SITES,
    RepParams,
    b_move_phase,
    c_factor,
    conformal_weight_of_length,
    exact_slots,
    generator_tables,
    random_params,
    rational_draw,
    relation_residual,
    residual_table,
    verify_pants_relations,
)
from holomon.reference import RELATIONS, relation_terms
from holomon.report import worst_residual


def params_c04(digits=30):
    rng = random.Random(101)
    return random_params("c04", rng, digits=digits)


def params_c11(digits=30):
    rng = random.Random(202)
    return random_params("c11", rng, digits=digits)


def params(kind):
    return params_c04() if kind == "c04" else params_c11()


# Lt's bandwidth, and that of the widest relation word: two generators
# that each shift by Lt's bandwidth
SHIFT = {"c04": 2, "c11": 1}
REACH = {kind: 2 * m for kind, m in SHIFT.items()}


def as_mpc(z):
    """A table entry, a ``Complex`` or the int 1 of a +shift band, as an
    mpmath number at the current precision."""
    if isinstance(z, int):
        return mp.mpmathify(z)
    return mp.mpc(mp.mpmathify(z.re), mp.mpmathify(z.im))


def decimal_tables(p, kind):
    """The library's tables over ``Complex`` at ``p``, as the numeric entry
    points build them; built and read inside ``mp.workdps(p.digits),
    working(p.digits)``."""
    boundary = {k: Complex.of(v) for k, v in p.boundary.items()}
    return generator_tables(kind, Complex.of(p.s()), Complex.of(p.site(0)), boundary,
                            lambda v: abs(v) < pantsrep._SINGULAR)


class BandMatrix:
    """A band table held as dicts: ``bands[m][n]`` is the entry (n, n + m)
    on the rows that a window holds.  Its product skips the entries a band
    lacks, and is the reference for the library's product."""

    def __init__(self, bands: dict):
        self.bands = bands

    def matvec(self, vec: dict) -> dict:
        out = {}
        for col, v in vec.items():
            for m, band in self.bands.items():
                c = band.get(col - m)
                if c is not None:
                    out[col - m] = out.get(col - m, 0) + c * v
        return out


def tables(p, kind="c04", window=(-8, 8)):
    """The library's generator tables read on ``window``, each band on the
    rows whose column lies in the window, every entry converted to mpmath."""
    lo, hi = window
    with mp.workdps(p.digits), working(p.digits):
        built = decimal_tables(p, kind)
        return {g: BandMatrix({m: {n: as_mpc(band(n))
                                   for n in range(max(lo, lo - m), min(hi, hi - m) + 1)}
                               for m, band in table.bands.items()})
                for g, table in built.items()}


def bandwidth(table) -> int:
    return max((abs(m) for m in table.bands), default=0)


def interior(table, window) -> set:
    """Rows whose full band fits inside the window, so they are exact."""
    lo, hi = window
    return {n for n in range(lo, hi + 1) if all(lo <= n + m <= hi for m in table.bands)}


def entry(table, row: int, col: int):
    return table.bands.get(col - row, {}).get(row, mp.mpf(0))


def symbol(table, p, site, k):
    """Commutative symbol of a table at a lattice site: the shift by m
    becomes e^(m k / 2)."""
    with mp.workdps(p.digits):
        return sum((entry(table, site, site + m) * mp.exp(m * mp.mpmathify(k) / 2)
                    for m in table.bands), mp.mpf(0))


class TestBuildLs:
    def test_diagonal_only(self):
        assert set(tables(params_c04())["s"].bands) == {0}

    def test_eigenvalue_on_basis_vector(self):
        p = params_c04()
        Ls = tables(p)["s"]
        with mp.workdps(p.digits):
            for n in (-3, 0, 5):
                x = p.site(n)
                vec = Ls.matvec({n: mp.mpf(1)})
                assert n in interior(Ls, (-8, 8))
                assert abs(vec[n] - (x + 1 / x)) < 1e-25

    def test_value_two_at_zero_length(self):
        # at l = 0 (x = 1) the multiplication value 2cosh(0) is 2, but
        # 2 sinh(0) = 0 there, so no generator table may hold that site
        p = RepParams(b2=0.3 + 0.1j, boundary={f"L{i}": 2.5 for i in range(1, 5)}, x0=1.0,
                      digits=30)
        x = p.site(0)
        assert abs(x + 1 / x - 2) < 1e-25
        with pytest.raises(ValueError, match="site 0"):
            tables(p, window=(-1, 1))


class TestBuildLt:
    def test_bandwidth_two(self):
        Lt = tables(params_c04())["t"]
        assert bandwidth(Lt) == 2
        assert set(Lt.bands) == {-2, 0, 2}

    def test_c_factor_probe(self):
        assert c_factor(2, 2, 2) == 4 + 4 + 4 + 8 - 4 == 16

    def test_c11_bandwidth_one(self):
        Lt = tables(params_c11(), "c11")["t"]
        assert set(Lt.bands) == {-1, 1}

    def test_relabel_symmetry(self):
        # swapping L1<->L2 and L3<->L4 simultaneously leaves every
        # coefficient unchanged
        p = params_c04()
        swapped = RepParams(
            b2=p.b2,
            boundary={"L1": p.boundary["L2"], "L2": p.boundary["L1"],
                      "L3": p.boundary["L4"], "L4": p.boundary["L3"]},
            x0=p.x0, digits=p.digits)
        Lt, Lt2 = tables(p)["t"], tables(swapped)["t"]
        with mp.workdps(p.digits):
            for m in (-2, 0, 2):
                for n in (-2, 0, 3):
                    assert abs(entry(Lt, n, n + m) - entry(Lt2, n, n + m)) < 1e-24


def move_ratio_error(kind, weight):
    """The largest relative distance, in cmath floats, between Lu / Lt at a
    shift entry (n, n + m) and the move's phase ratio
    e^(i pi k (Delta(l_(n+m)) - Delta(l_n))) with Delta from ``weight``:
    k = 2 for the Dehn twist along s (c11), k = 1 for the half twist (c04),
    l_n = 2 log x0 - 2 pi i b2 n and b = sqrt(b2)."""
    p = params(kind)
    T = tables(p, kind, (-4, 4))
    k = 2 if kind == "c11" else 1
    b = cmath.sqrt(p.b2)

    def delta(n):
        return weight(2 * cmath.log(p.x0) - 2j * cmath.pi * p.b2 * n, b)

    worst = 0.0
    for m, band in T["t"].bands.items():
        for n, v in band.items():
            if m:
                want = cmath.exp(1j * cmath.pi * k * (delta(n + m) - delta(n)))
                worst = max(worst, abs(complex(T["u"].bands[m][n] / v) - want) / abs(want))
    return worst


class TestBuildLu:
    def test_bandwidth(self):
        assert bandwidth(tables(params_c04())["u"]) <= 2
        assert bandwidth(tables(params_c11(), "c11")["u"]) <= 1

    def test_degenerate_divisor_rejected(self):
        p = RepParams(b2=1.0, boundary={f"L{i}": 2.5 for i in range(1, 5)}, x0=1.3 + 0.2j,
                      digits=30)
        with pytest.raises(ValueError):
            tables(p, window=(-3, 3))

    def test_quadratic_relation_holds(self):
        # Lu comes from the twist of Lt, not from this relation
        p = params_c04()
        assert relation_residual(p, "c04", 2, 0) < 1e-25

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_shift_bands_carry_the_move_phase(self, kind):
        # each shift entry of Lu is Lt's times the phase ratio that the
        # weight dictionary gives; a doubled l^2 coefficient misses it
        assert move_ratio_error(kind, conformal_weight_of_length) < 1e-12

        def doubled(l, b):
            return conformal_weight_of_length(l, b) + (l / (4 * math.pi * b)) ** 2

        assert move_ratio_error(kind, doubled) > 1e-3

    def test_c04_diagonal_is_lt_with_l1_l2_exchanged(self):
        p = params_c04()
        swapped = dataclasses.replace(
            p, boundary={**p.boundary, "L1": p.boundary["L2"], "L2": p.boundary["L1"]})
        T = tables(p)
        Lu, Lt = T["u"].bands[0], tables(swapped)["t"].bands[0]
        assert set(Lu) == set(Lt)
        with mp.workdps(p.digits):
            assert all(abs(Lu[n] - Lt[n]) < 1e-25 * abs(Lt[n]) for n in Lt)
        # and the swap matters: Lt's own diagonal is not Lu's
        assert abs(Lu[0] - T["t"].bands[0][0]) > 1e-3

    def test_classical_probe_small_b2(self):
        # symbols at b2 -> 0 satisfy the classical relation to O(b2)
        from holomon.holonomy import relation_poly

        rng = random.Random(7)
        boundary = {f"L{i}": 2.2 + rng.uniform(0, 1.5) for i in range(1, 5)}
        vals = {}
        for scale in (1e-2, 1e-3, 1e-4):
            p = RepParams(b2=scale * (0.3 + 0.1j), boundary=boundary,
                          x0=1.45 + 0.1j, digits=40)
            k = 0.37 + 0.11j
            T = tables(p, window=(-3, 3))
            sym = {g: complex(symbol(T[g], p, 0, k)) for g in ("s", "t", "u")}
            sym.update({kk: complex(v) for kk, v in boundary.items()})
            # relative to the cubic term, the dominant contribution
            scale_mag = abs(sym["s"] * sym["t"] * sym["u"])
            vals[scale] = abs(relation_poly("c04", sym)) / scale_mag
        # linear vanishing rate in |b2|, and small already at 1e-4
        assert vals[1e-3] < vals[1e-2] / 4
        assert vals[1e-4] < vals[1e-3] / 4
        assert vals[1e-4] < 1e-3


class TestOperatorApply:
    """Banded products: tables applied to vectors and to each other."""

    def test_identity(self):
        v = {n: mp.mpf(n * n + 1) for n in range(-3, 4)}
        identity = BandMatrix({0: {n: mp.mpf(1) for n in range(-3, 4)}})
        out = identity.matvec(v)
        assert interior(identity, (-3, 3)) == set(range(-3, 4))
        assert all(out[n] == v[n] for n in v)

    def test_composition_matches_sequential(self):
        # the table product Ls @ Lt against Lt then Ls applied in turn
        p = params_c04()
        T = tables(p)
        Ls, Lt = T["s"], T["t"]
        v = {n: mp.mpf(1) / (1 + n * n) for n in range(-8, 9)}
        with mp.workdps(p.digits):
            product = band_product(Ls, Lt)
            ab = product.matvec(v)
            ab2 = Ls.matvec(Lt.matvec(v))
            assert set(range(-6, 7)) <= interior(product, (-8, 8))
            for n in range(-6, 7):
                assert abs(ab[n] - ab2[n]) < 1e-24

    def test_boundary_flagged(self):
        window = (-2, 2)
        Lt = tables(params_c04(), window=window)["t"]
        assert 0 in interior(Lt, window)
        assert -2 not in interior(Lt, window) and 2 not in interior(Lt, window)


def _manual_residual(gens, terms, site):
    """|sum of terms applied to delta_site| over the sum of term norms,
    written out independently of the library's residual."""
    total, scale = {}, mp.mpf(0)
    for coef, word in terms:
        vec = {site: mp.mpf(1)}
        for g in reversed(word):
            vec = gens[g].matvec(vec)
        vec = {n: coef * x for n, x in vec.items()}
        scale += mp.sqrt(sum(abs(x) ** 2 for x in vec.values()))
        for n, x in vec.items():
            total[n] = total.get(n, 0) + x
    return mp.sqrt(sum(abs(x) ** 2 for x in total.values())) / scale


class TestRelations:
    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_random_draws(self, kind):
        rng = random.Random(11)
        for _ in range(6):
            p = random_params(kind, rng)
            rep = verify_pants_relations(p, kind, tol=1e-9)
            assert rep[2]["pass"] and rep[3]["pass"], rep

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    @pytest.mark.parametrize("b2", [1.3 + 0.1j, -0.7 + 0.1j])
    def test_relations_off_the_principal_strip(self, kind, b2):
        # the two give one q and opposite q^(1/2): the principal root of q
        # is the right one for Re b2 in (-1, 1] only, so q^(1/2) must be s^2
        p = dataclasses.replace(params(kind), b2=b2)
        rep = verify_pants_relations(p, kind, tol=1e-9)
        assert rep[2]["pass"] and rep[3]["pass"], rep

    def test_negative_control_perturbed_coefficient(self):
        p = params_c04()
        window = (-8, 8)
        q, T = reference_q(p), tables(p, window=window)
        Lt = T["t"]
        bad = BandMatrix(dict(Lt.bands))
        bad.bands[2] = {n: v * mp.mpf("1.01") for n, v in Lt.bands[2].items()}
        with mp.workdps(p.digits):
            L1, L2, L3, L4 = (mp.mpmathify(p.boundary[k]) for k in ("L1", "L2", "L3", "L4"))
            terms = [
                (q, "st"),
                (-1 / q, "ts"),
                (-(q ** 2 - q ** -2), "u"),
                (-(q - 1 / q) * (L1 * L3 + L2 * L4), ""),
            ]
            assert _manual_residual(T, terms, 0) < 1e-25
            assert _manual_residual(dict(T, t=bad), terms, 0) > 1e-9

    def test_precision_scaling(self):
        p1 = params_c04(digits=25)
        p2 = RepParams(b2=p1.b2, boundary=p1.boundary, x0=p1.x0, digits=55)
        r1 = relation_residual(p1, "c04", 3, 0)
        r2 = relation_residual(p2, "c04", 3, 0)
        assert r2 < r1 * mp.mpf(10) ** -20

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    @pytest.mark.parametrize("order", [(25, 55), (55, 25)])
    def test_digits_keying(self, kind, order):
        # one params object re-evaluated at another precision gives what a
        # fresh object at that precision gives: nothing outlives a call
        p = random_params(kind, random.Random(303), digits=order[0])
        for digits in order:
            p.digits = digits
            fresh = RepParams(b2=p.b2, boundary=dict(p.boundary), x0=p.x0, digits=digits)
            assert relation_residual(p, kind, 3, 0) == relation_residual(fresh, kind, 3, 0)
            assert verify_pants_relations(p, kind, 1e-9) == verify_pants_relations(fresh, kind, 1e-9)

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_shared_tables_match_standalone(self, kind):
        # one table build serves every site and both degrees
        p = random_params(kind, random.Random(404))
        sites = (-2, 0, 3)
        rep = verify_pants_relations(p, kind, 1e-9, sites=sites)
        for degree in (2, 3):
            standalone = max(relation_residual(p, kind, degree, s) for s in sites)
            assert rep[degree]["residual"] == standalone

    def test_worst_residual_keeps_nan(self):
        # max drops a NaN that comes after a number; the fold must not
        for values in ([mp.mpf(1), mp.nan, mp.mpf(0)], [mp.mpf(0), mp.mpf(2), mp.nan],
                       [mp.nan, mp.mpf(3)]):
            assert mp.isnan(worst_residual(values))
        assert worst_residual([mp.mpf(1), mp.mpf(3), mp.mpf(2)]) == 3

    def test_read_order_independence(self, monkeypatch):
        # every entry on sites -20..20 read first, far beyond the sites a
        # residual reads, leaves the residual the same to the bit
        for kind in ("c04", "c11"):
            p = params(kind)
            want = {(d, site): relation_residual(p, kind, d, site)
                    for d in (2, 3) for site in SITES}
            with mp.workdps(p.digits), working(p.digits):
                built = decimal_tables(p, kind)
                for table in built.values():
                    for band in table.bands.values():
                        for n in range(-20, 21):
                            band(n)
            monkeypatch.setattr(pantsrep, "generator_tables", lambda *args: built)
            assert {(d, site): relation_residual(p, kind, d, site) for d, site in want} == want
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_work_per_residual_table(self, kind, monkeypatch):
        # one matvec per distinct word suffix of the two relations and
        # per site
        calls = []
        matvec = pantsrep.BandMatrix.matvec
        monkeypatch.setattr(pantsrep.BandMatrix, "matvec",
                            lambda self, vec: calls.append(1) or matvec(self, vec))
        p = params(kind)
        residual_table(p, kind, (2, 3), SITES)
        suffixes = {word[i:] for degree in (2, 3) for word in RELATIONS[(kind, degree)]
                    for i in range(len(word))}
        assert len(calls) == len(suffixes) * len(SITES)

    def test_singular_site_reported(self):
        p = RepParams(b2=0.3 + 0.1j, boundary={f"L{i}": 2.5 for i in range(1, 5)}, x0=1.0,
                      digits=30)
        with pytest.raises(ValueError):
            relation_residual(p, "c04", 2, 0)

    def test_singular_site_outside_read_sites_ignored(self):
        # x0 = q^8 puts the zero of 2 sinh(l/2) at site 8, which the
        # relations at sites (-2, 0, 3) do not read
        b2 = 0.3 + 0.1j
        p = RepParams(b2=b2, boundary={f"L{i}": 2.5 for i in range(1, 5)},
                      x0=cmath.exp(8j * cmath.pi * b2), digits=30)
        with pytest.raises(ValueError, match="lattice site 8"):
            tables(p, window=(-1, 8))
        rep = verify_pants_relations(p, "c04", 1e-9, sites=SITES)
        assert all(rep[d]["pass"] and rep[d]["residual"] < 1e-30 for d in (2, 3)), rep

    @pytest.mark.parametrize("kind, k, read", [
        ("c04", 7, True), ("c04", -5, True), ("c04", 8, False), ("c04", -6, False),
        ("c11", 5, True), ("c11", -3, True), ("c11", 6, False), ("c11", -4, False),
    ])
    def test_read_set(self, kind, k, read):
        # x0 = e^(i pi b2 k) puts the zero of 2 sinh(l/2) at site k: the
        # relations at sites (-2, 0, 3) read 2 sinh at sites -5..7 on c04 and
        # -3..5 on c11 (the +shift bands, which reach the lowest rows, read
        # none), and a singular site is rejected exactly when it is read
        p = params(kind)
        p = dataclasses.replace(p, x0=cmath.exp(1j * cmath.pi * p.b2 * k))
        if read:
            with pytest.raises(ValueError, match=f"lattice site {k} "):
                verify_pants_relations(p, kind, 1e-9, sites=SITES)
        else:
            rep = verify_pants_relations(p, kind, 1e-9, sites=SITES)
            assert rep[2]["pass"] and rep[3]["pass"], rep


class Symbolic(LaurentRational):
    """The field of rational functions in named symbols, as quotients of
    Laurent polynomials, with the subtraction and the int operands that the
    generator tables use."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self).from_const(self.num.nvars, other)
        return super()._coerce(other)

    def __sub__(self, other):
        return self + (-1) * self._coerce(other)

    def __rtruediv__(self, other):
        return self._coerce(other) / self


# the lowest and highest sites at which the relations at SITES read 2 sinh
READ = {"c04": (-5, 7), "c11": (-3, 5)}


class TestExactRelations:
    """The same tables over Fractions and over rational functions."""

    def test_c11_relations_are_identities(self):
        # in Q(s, x0, L0); one site suffices, since x0 is a symbol and every
        # site is x0 times a power of q
        s, x0, L0 = (Symbolic(LaurentPoly.variable(3, i)) for i in range(3))
        rows = exact_slots("c11", s, x0, {"L0": L0}, (0,))
        assert [degree for _, degree, slots in rows if slots] == [2, 3]
        assert all(v == 0 for _, _, slots in rows for v in slots.values())

    def test_c04_relations_are_identities_in_x0(self):
        # in Q(x0) at a rational s and boundary; all four L symbolic as well
        # would take seconds
        s, _, boundary = rational_draw("c04", random.Random(3))
        rows = exact_slots("c04", s, Symbolic(LaurentPoly.variable(1, 0)), boundary, (0,))
        assert [degree for _, degree, slots in rows if slots] == [2, 3]
        assert all(v == 0 for _, _, slots in rows for v in slots.values())

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_exact_tables_match_the_mpmath_reference(self, kind):
        # the Fraction tables at a rational point against the symmetric
        # gauge's, with Lu solved from the quadratic relation, conjugated
        # into the library's gauge; the point is b2 = -4i log(s)/pi
        window = (min(SITES) - REACH[kind], max(SITES) + REACH[kind])
        s, x0, boundary = rational_draw(kind, random.Random(5))

        def mpf(v):
            return mp.mpf(v.numerator) / v.denominator

        with mp.workdps(60):
            b2 = -4j * mp.log(mpf(s)) / mp.pi
            p = RepParams(b2=b2, boundary={k: mpf(v) for k, v in boundary.items()}, x0=mpf(x0),
                          digits=50)
        built = generator_tables(kind, s, x0, boundary, lambda v: v == 0)
        want = reference_tables(p, kind, window)
        with mp.workdps(50):
            want = gauged(want, kind)
            for g in ("s", "t", "u"):
                assert set(built[g].bands) == set(want[g].bands), g
                for m, entries in want[g].bands.items():
                    for n, v in entries.items():
                        got = mpf(Fraction(built[g].bands[m](n)))
                        assert abs(got - v) <= mp.mpf("1e-35") * abs(v), (g, m, n)

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_exactly_singular_site_is_named(self, kind):
        # x0 = +-s^(4k) puts x_k = +-1: every division is by 2 sinh at some
        # site, so the site is named before anything divides by zero
        s, _, boundary = rational_draw(kind, random.Random(3))
        lo, hi = READ[kind]
        for k in range(lo, hi + 1):
            for sign in (1, -1):
                with pytest.raises(ValueError, match=f"lattice site {k} "):
                    exact_slots(kind, s, sign * s ** (4 * k), boundary, SITES)

    def test_seeded_draws_hit_no_singular_site(self):
        # x0's denominator is a prime that divides neither part of s, so it
        # stays in every site x0 s^(-4n), and no site is +-1
        for kind in ("c04", "c11"):
            for seed in range(51):
                rng = random.Random(seed)
                for _ in range(20):
                    s, x0, _ = rational_draw(kind, rng)
                    p = x0.denominator
                    assert all(p % d for d in range(2, p)), (kind, seed)
                    assert s.numerator % p and s.denominator % p, (kind, seed)
                rows = exact_slots(kind, *rational_draw(kind, random.Random(seed)), SITES)
                assert not any(any(slots.values()) for _, _, slots in rows), (kind, seed)


class TestBMovePhase:
    def test_cancellation_case(self):
        b = 0.83
        Q = b + 1 / b
        got = b_move_phase(1.7, 1.7, 0.0, b)
        want = cmath.exp(-1j * cmath.pi * Q * Q / 4)
        assert abs(got - want) < 1e-14

    def test_unit_modulus(self):
        rng = random.Random(3)
        for _ in range(10):
            z = b_move_phase(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3),
                             rng.uniform(0.3, 1.8))
            assert abs(abs(z) - 1) < 1e-14

    def test_weight_matches_dictionary(self):
        # Delta(alpha(l)) with alpha = Q/2 + i l/(4 pi b) equals the
        # exponent function used in the phase
        for l, b in [(0.9, 0.77), (2.4, 1.31)]:
            Q = b + 1 / b
            alpha = Q / 2 + 1j * l / (4 * math.pi * b)
            delta_dict = alpha * (Q - alpha)
            assert abs(delta_dict - conformal_weight_of_length(l, b)) < 1e-14

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            b_move_phase(1, 1, 1, 0)

    def test_note_recorded(self):
        assert "Q^2/4" in B_MOVE_WEIGHT_NOTE




class TestBandMatrix:
    def test_band_structure_and_agreement(self):
        p = params_c04()
        B = tables(p, window=(-6, 6))["t"]
        assert bandwidth(B) == 2
        with mp.workdps(p.digits):
            assert entry(B, 0, 5) == 0
            v = {n: mp.mpf(1) / (2 + n * n) for n in range(-6, 7)}
            direct = {n: sum(entry(B, n, c) * v[c] for c in range(-6, 7)) for n in v}
            mat = B.matvec(v)
            assert interior(B, (-6, 6)) == set(range(-4, 5))
            for n in interior(B, (-6, 6)):
                assert abs(direct[n] - mat[n]) < 1e-25

    def test_boundary_rows_flagged(self):
        B = tables(params_c04(), window=(-3, 3))["t"]
        inside = interior(B, (-3, 3))
        assert -3 not in inside and 3 not in inside and 0 in inside


# -- reference: the table formulas in mpmath -----------------------------------------


def reference_terms(p, kind, degree):
    """The relation's (coefficient, word) pairs in mpmath, s^e by powers."""
    with mp.workdps(p.digits):
        s = mp.exp(1j * mp.pi * mp.mpmathify(p.b2) / 4)
        boundary = {k: mp.mpmathify(v) for k, v in p.boundary.items()}
        return relation_terms(kind, degree, boundary,
                              lambda poly: sum(c * s ** e for e, c in poly.terms.items()))


def reference_q(p):
    """q = exp(i pi b2) from its own exponential."""
    with mp.workdps(p.digits):
        return mp.exp(1j * mp.pi * mp.mpmathify(p.b2))


def band_product(a, b):
    """The table product of two band tables on the same window: a applied
    after b."""
    bands: dict = {}
    for ma, x in a.bands.items():
        for mb, y in b.bands.items():
            out = bands.setdefault(ma + mb, {})
            for n, v in x.items():
                w = y.get(n + ma)
                if w is not None:
                    out[n] = out.get(n, 0) + v * w
    return BandMatrix(bands)


def reference_tables(p, kind, window):
    """{"s": Ls, "t": Lt, "u": Lu} in the symmetric gauge, with mpmath
    entries: each site from its own exponential, and Lt's shift entries
    sandwiched between square roots from ``mp.sqrt`` (on c04,
    1/sqrt(2sinh) . sqrt(c12 c34)/(2sinh) . 1/sqrt(2sinh) at the row, the
    middle and the column site; on c11, the square root of the
    one-step-displaced length function over 2sinh).  Lu is solved from the
    quadratic relation, independently of the twist the library builds it
    by."""
    lo, hi = window
    with mp.workdps(p.digits):
        q = reference_q(p)
        x = {n: p.site(n) for n in range(lo, hi + 1)}
        inv = {n: 1 / v for n, v in x.items()}
        ch = {n: x[n] + inv[n] for n in x}
        sh = {n: x[n] - inv[n] for n in x}

        def band(m, f):
            return {n: f(n) for n in range(max(lo, lo - m), min(hi, hi - m) + 1)}

        if kind == "c04":
            L1, L2, L3, L4 = (mp.mpmathify(p.boundary[k]) for k in ("L1", "L2", "L3", "L4"))
            num0, num1 = (q + 1 / q) * (L2 * L3 + L1 * L4), L1 * L3 + L2 * L4
            qq = q ** 2 + q ** -2
            root = {n: 1 / mp.sqrt(v) for n, v in sh.items()}
            mid = {n: mp.sqrt(c_factor(ch[n], L1, L2)) * mp.sqrt(c_factor(ch[n], L3, L4))
                   / sh[n] for n in x}
            Lt = BandMatrix({
                0: {n: (num0 + ch[n] * num1) / (x[n] ** 2 + inv[n] ** 2 - qq) for n in x},
                2: band(2, lambda n: root[n] * mid[n + 1] * root[n + 2]),
                -2: band(-2, lambda n: root[n] * mid[n - 1] * root[n - 2]),
            })
        else:
            L0 = mp.mpmathify(p.boundary["L0"])
            Lt = BandMatrix({
                1: band(1, lambda n: mp.sqrt(L0 + x[n] ** 2 / q + q * inv[n] ** 2) / sh[n]),
                -1: band(-1, lambda n: mp.sqrt(L0 + q * x[n] ** 2 + inv[n] ** 2 / q) / sh[n]),
            })
        out = {"s": BandMatrix({0: ch}), "t": Lt}
        terms = {w: c for c, w in reference_terms(p, kind, 2)}
        d = -terms.pop("u")
        rest: dict = {}
        for w, c in terms.items():
            product = (reduce(band_product, (out[g] for g in w)) if w
                       else BandMatrix({0: dict.fromkeys(x, mp.mpf(1))}))
            for m, entries in product.bands.items():
                row = rest.setdefault(m, {})
                for n, v in entries.items():
                    row[n] = row.get(n, 0) + c * v
        out["u"] = BandMatrix({m: {n: v / d for n, v in entries.items()}
                               for m, entries in rest.items()})
        return out


def gauged(ref, kind):
    """The reference tables conjugated by the diagonal D with
    D_(n+k)/D_n = Lt[n, n+k] for Lt's +shift k: the entry (n, n + m) times
    D_n/D_(n+m), so Lt's +shift band becomes 1, the library's gauge."""
    k = SHIFT[kind]
    up = ref["t"].bands[k]

    def ratio(m, n):
        return 1 if m == 0 else 1 / up[n] if m > 0 else up[n + m]

    return {g: BandMatrix({m: {n: v * ratio(m, n) for n, v in band.items()}
                           for m, band in table.bands.items()})
            for g, table in ref.items()}


DRAW_SEEDS = (5, 6, 7)


class TestDecimalTables:
    """The tables and residuals run in ``decimal``; the mpmath formulas
    above are the reference."""

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    @pytest.mark.parametrize("digits", [30, 55])
    def test_entries_match_mpmath(self, kind, digits):
        window = (min(SITES) - REACH[kind], max(SITES) + REACH[kind])
        tol = mp.mpf(10) ** (3 - digits)
        for seed in DRAW_SEEDS:
            p = random_params(kind, random.Random(seed), digits=digits)
            got, want = tables(p, kind, window), reference_tables(p, kind, window)
            with mp.workdps(digits):
                want = gauged(want, kind)
                for g in ("s", "t", "u"):
                    assert set(got[g].bands) == set(want[g].bands), g
                    for m, entries in want[g].bands.items():
                        assert set(got[g].bands[m]) == set(entries), (g, m)
                        for n, v in entries.items():
                            assert abs(got[g].bands[m][n] - v) <= tol * abs(v), (seed, g, m, n)

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    def test_bands_are_the_gauge_invariant_products(self, kind):
        # +shift entries 1, and each -shift entry (n + k, n) the symmetric
        # gauge's product Lt[n, n + k] Lt[n + k, n], no square root in it
        window = (min(SITES) - REACH[kind], max(SITES) + REACH[kind])
        k = SHIFT[kind]
        for seed in DRAW_SEEDS:
            p = random_params(kind, random.Random(seed), digits=30)
            got = tables(p, kind, window)["t"].bands
            ref = reference_tables(p, kind, window)["t"].bands
            assert set(got) == {-k, 0, k} - ({0} if kind == "c11" else set())
            assert all(v == 1 for v in got[k].values())
            with mp.workdps(30):
                for n, v in got[-k].items():
                    want = ref[k][n - k] * ref[-k][n]
                    assert abs(v - want) <= mp.mpf("1e-25") * abs(want), (seed, n)

    @pytest.mark.parametrize("kind", ["c04", "c11"])
    @pytest.mark.parametrize("digits", [30, 55])
    def test_residual_rows_at_working_precision(self, kind, digits):
        for seed in DRAW_SEEDS:
            p = random_params(kind, random.Random(seed), digits=digits)
            for site, degree, r in residual_table(p, kind, (2, 3), SITES):
                assert r < mp.mpf(10) ** (3 - digits), (seed, site, degree, r)

    def test_int_over_complex_and_norm(self):
        # 1 / z, and the norm of Complex and int values (a +shift band's 1)
        with mp.workdps(30), working(30):
            for z in (mp.mpc(3, -4), mp.mpc("-0.25", "1e-20"), mp.mpc(0, 7)):
                assert abs(as_mpc(1 / Complex.of(z)) - 1 / z) <= mp.mpf(10) ** -29 / abs(z)
                got = mp.mpmathify(pantsrep.norm([Complex.of(z), 1, -2]))
                assert abs(got - mp.sqrt(abs(z) ** 2 + 5)) <= mp.mpf(10) ** -29 * got

    def test_to_decimal_rounds_once(self):
        # an int over an int is divided once, so the Fraction path is the
        # reference; few digits and short mantissas make ties common
        rng = random.Random(7)
        for digits in (1, 3, 30):
            with mp.workprec(200), working(digits):
                for _ in range(2000):
                    man = rng.randrange(1, 1 << rng.randint(1, 120))
                    exp = rng.randint(-300, 300)
                    want = to_decimal(Fraction(man) * Fraction(2) ** exp)
                    assert to_decimal(mp.ldexp(man, exp)) == want, (man, exp)
                    assert to_decimal(mp.ldexp(-man, exp)) == -want, (man, exp)

    @pytest.mark.parametrize("e10", [-999999, -999990, 999990, 999999])
    def test_to_decimal_near_the_range_ends(self, e10):
        # inside the exponent range, and rounded to the working digits
        # without an int of a million digits, whose conversion would take
        # tens of seconds
        with mp.workdps(40), working(30):
            x = mp.mpf(f"1.2345678901234567890123456789012345e{e10}")
            start = time.perf_counter()
            got = to_decimal(x)
            assert time.perf_counter() - start < 5
            assert got.adjusted() == e10
            assert abs(mp.mpmathify(got) / x - 1) < mp.mpf(10) ** -31

    @pytest.mark.parametrize("x", ["1e1000000", "-1e1000000", "1e-1000032", "1e-3000000"])
    def test_to_decimal_outside_the_range_raises(self, x):
        with mp.workdps(30), working(30):
            with pytest.raises(ValueError, match="outside the range of 32-digit decimal"):
                to_decimal(mp.mpf(x))

    def test_overflow_raises_value_error(self):
        with pytest.raises(ValueError, match="above 10\\^999999"):
            with working(30):
                Decimal("1e600000") * Decimal("1e600000")


class TestEdgeCases:
    def test_nan_boundary_fails_both_degrees(self):
        p = params_c04()
        p.boundary["L1"] = float("nan")
        rep = verify_pants_relations(p, "c04", 1e-9)
        for degree in (2, 3):
            assert mp.isnan(rep[degree]["residual"]) and rep[degree]["pass"] is False

    def test_nan_base_point_fails_both_degrees(self):
        p = params_c11()
        p.x0 = float("nan")
        rep = verify_pants_relations(p, "c11", 1e-9)
        for degree in (2, 3):
            assert mp.isnan(rep[degree]["residual"]) and rep[degree]["pass"] is False

    def test_caller_context_kept(self):
        # the caller's context is left as it was, and no entry is computed
        # in it: under a 7-digit caller context, 55-digit residuals keep
        # every bit
        degenerate = RepParams(b2=1.0, boundary={f"L{i}": 2.5 for i in range(1, 5)},
                               x0=1.3 + 0.2j, digits=30)
        at_55 = (lambda: residual_table(params_c04(55), "c04", (2, 3), SITES),
                 lambda: relation_residual(params_c11(55), "c11", 3, 0))
        want = [run() for run in at_55]
        with decimal.localcontext() as caller:
            caller.prec = 7
            caller.traps[decimal.Inexact] = True
            caller.clear_flags()
            before = (caller.prec, dict(caller.traps), dict(caller.flags))
            assert [run() for run in at_55] == want
            for run in (lambda: residual_table(params_c04(), "c04", (2, 3), SITES),
                        lambda: relation_residual(params_c11(), "c11", 3, 0)):
                assert run()
                assert decimal.getcontext() is caller
                assert (caller.prec, dict(caller.traps), dict(caller.flags)) == before
            with pytest.raises(ValueError, match="coefficient of u vanishes"):
                residual_table(degenerate, "c04", (2, 3), SITES)
            assert decimal.getcontext() is caller
            assert (caller.prec, dict(caller.traps), dict(caller.flags)) == before
