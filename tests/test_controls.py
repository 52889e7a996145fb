"""Negative controls: a perturbation that must turn a live check row to FAIL.

A row that no perturbation can fail checks nothing.  Each entry names the
tag of the rows, a run of the suite that emits them (on the torus piece
unless the perturbation is the sphere piece's), and a perturbation applied
through pytest's monkeypatch; every row of the tag must pass as it stands
and fail perturbed.  An entry may end with the start of a row's name, and
then targets that row of the tag alone.  Every row of ``verify all`` must
be targeted by some entry.
"""

import functools
from fractions import Fraction

import mpmath as mp
import pytest

from holomon import (blocks, checks, holonomy, pantsrep, qmutation, qtorus, reference,
                     sparse, tau, virasoro)
from holomon.laurent import LaurentPoly
from holomon.qcoeff import SPoly
from holomon.surfaces import LEFT, flip

CLASSICAL = functools.partial(checks.classical_checks, ("c11",))
CLASSICAL_C04 = functools.partial(checks.classical_checks, ("c04",))
CLASSICAL_BOTH = checks.classical_checks
MUTATION = functools.partial(checks.mutation_checks, ("c11",))
QUANTUM = functools.partial(checks.quantum_checks, ("c11",))
SHIFT = functools.partial(checks.pants_checks, "c11", seed=0, draws=1)
SHIFT_C04 = functools.partial(checks.pants_checks, "c04", seed=0, draws=1)
TAU = functools.partial(checks.tau_checks, seed=0, draws=1)
WEIGHTED = "deformation-equation residual"
DEGENERATE = checks.virasoro_checks
BPZ = checks.bpz_checks


def skein_other_is_u(monkeypatch):
    """The other resolution of the s,t crossing replaced by u."""
    real = checks.reference_setup

    def setup(name):
        tri, curves = real(name)
        return tri, {**curves, "st_other": curves["u"]}

    monkeypatch.setattr(checks, "reference_setup", setup)


def step_sign_flipped(monkeypatch):
    """The left turn's step with +X_e^(1/2) in its top-left entry: the
    step no longer comes from an edge matrix times L, and simple curves'
    traces on both surfaces get negative coefficients."""
    monkeypatch.setitem(holonomy._STEP[LEFT], (0, 0), (1, 1))


def bracket_constant_one(monkeypatch):
    """The torus piece's bracket normalization taken as 1 instead of 2."""
    monkeypatch.setitem(reference.LOOP_BRACKET_CONSTANT, "c11", 1)


def naive_quantization_after_flip(monkeypatch):
    """The curves carried to the triangulation flipped at edge 0: their
    traces still satisfy the classical relation, but the coefficient-
    preserving Weyl quantization of them does not satisfy the deformed one."""
    def setup(name):
        curves = {k: reference.covariant_walk(name, 0, k) for k in ("s", "t", "u", "p1")}
        return flip(reference.reference_triangulation(name), 0), curves

    monkeypatch.setattr(checks, "reference_setup", setup)


def relation_sign_flipped(monkeypatch):
    """One coefficient of the relation table with the wrong sign: +q^(1/2)
    stu in the torus piece's cubic relation.  Every layer reads the table,
    so the classical, quantum and shift-operator rows all fail."""
    monkeypatch.setitem(reference.RELATIONS[("c11", 3)], "stu", {"": SPoly({2: 1})})


def quartic_sign_flipped(monkeypatch):
    """The sphere piece's quartic relation with +q stu for -q stu."""
    monkeypatch.setitem(reference.RELATIONS[("c04", 3)], "stu", {"": SPoly({4: 1})})


def conjugation_is_identity(monkeypatch):
    """s -> 1/s taken as the identity: the barred operators live in the
    torus of the negated exchange matrix, where the unconjugated relations
    do not hold."""
    monkeypatch.setattr(SPoly, "conj", lambda self: self)


def dressed_images_scaled(monkeypatch):
    """Every quantum mutation image with a nontrivial dressing scaled by s.
    The flipped commutation relations are homogeneous in the images and
    still hold; the double flip no longer composes to the identity."""
    real = qmutation.quantum_mutation

    def image(n, e, target):
        img = real(n, e, target)
        return img if img.rat.num == img.rat.den else img.scaled(SPoly.s_power(1))

    monkeypatch.setattr(qmutation, "quantum_mutation", image)


def mutation_dressing_inverted(monkeypatch):
    """The flip substitution with 1 + X_e for 1 + X_e^-1 where n_ae > 0:
    each flipped monomial's power of X'_e = 1/X_e is raised by
    [n_ae]+ per power of X_a, which takes the X_e^[n_ae]+ out of X_a's
    image."""
    real = holonomy.substitute_flip

    def substitute(p, n, e):
        def raised(d):
            lift = sum(max(n[a][e], 0) * da for a, da in enumerate(d) if a != e)
            return d[:e] + (d[e] + lift,) + d[e + 1:]

        return real(LaurentPoly(p.nvars, {raised(d): c for d, c in p.terms.items()}), n, e)

    monkeypatch.setattr(holonomy, "substitute_flip", substitute)


def flip_substituted_backwards(monkeypatch):
    """The flipped trace pushed through the mutation of -n, the inverse
    orientation of every corner."""
    real = holonomy.substitute_flip

    def substitute(p, n, e):
        return real(p, [[-v for v in row] for row in n], e)

    monkeypatch.setattr(holonomy, "substitute_flip", substitute)


def pairing_doubled(monkeypatch):
    """The Weyl twist taken as q^(2<mu,nu>): the commutator's classical
    limit comes out twice the bracket."""
    monkeypatch.setattr(qtorus, "pairing", lambda d1, d2, n: 2 * sparse.pairing(d1, d2, n))


def cubic_term_sign_flipped(monkeypatch):
    """The sphere piece's boundary quadratic c_ij(L) with -L Li Lj: the
    product P_n in Lt's -2 band changes, and Lu, Lt carried by the half
    twist, follows it.  The quadratic relation reads only the ratio of
    Lu's bands to Lt's, so only the cubic relation can see it."""
    monkeypatch.setattr(pantsrep, "c_factor",
                        lambda L, Li, Lj: L * L + Li * Li + Lj * Lj - L * Li * Lj - 4)


def _lu_shift_bands_times(monkeypatch, factor):
    """Every shift entry of Lu times factor(s), s = q^(1/4)."""
    real = pantsrep.generator_tables

    def tables(kind, s, x0, boundary, zero):
        out = real(kind, s, x0, boundary, zero)
        f = factor(s)
        out["u"] = pantsrep.BandMatrix({m: (lambda n, band=band: band(n) * f) if m else band
                                        for m, band in out["u"].bands.items()})
        return out

    monkeypatch.setattr(pantsrep, "generator_tables", tables)


def twist_phase_squared(monkeypatch):
    """The torus piece's Dehn twist with its phase q^(-1/2) squared: Lu's
    shift entries are no longer Lt's times the twist's phase ratio."""
    _lu_shift_bands_times(monkeypatch, lambda s: 1 / (s * s))


def half_twist_phase_negated(monkeypatch):
    """The sphere piece's half twist with its phase's sign flipped: Lu's
    shift entries negated."""
    _lu_shift_bands_times(monkeypatch, lambda s: -1)


def quadratic_ts_sign_flipped(monkeypatch):
    """The torus piece's quadratic relation with +q^(-1/2) ts for
    -q^(-1/2) ts.  Lu is built from Lt by the twist, not from this
    relation, so the relation no longer holds on the tables."""
    monkeypatch.setitem(reference.RELATIONS[("c11", 2)], "ts", {"": SPoly({-2: 1})})


def quadratic_ts_sign_flipped_c04(monkeypatch):
    """The sphere piece's quadratic relation with +q^-1 ts for -q^-1 ts."""
    monkeypatch.setitem(reference.RELATIONS[("c04", 2)], "ts", {"": SPoly({-4: 1})})


def _fresh_weight_memo(monkeypatch):
    """An empty memo of weight chains for the perturbed run; the real one,
    filled unperturbed, comes back with the monkeypatch."""
    monkeypatch.setattr(tau, "_up_chain", functools.lru_cache(tau._up_chain.__wrapped__))


def step_factor_off(monkeypatch):
    """Every weight step after a chain's first taken 1% too large."""
    real = tau._step_factor

    def factor(theta, u):
        num, den = real(theta, u)
        return num * Fraction(101, 100), den

    _fresh_weight_memo(monkeypatch)
    monkeypatch.setattr(tau, "_step_factor", factor)


def gamma_pair_deleted(monkeypatch):
    """The first step of each weight chain without the Gamma pair of
    th1 - thinf."""
    def step(theta, s):
        out = (mp.gamma(-2 * s) * mp.gamma(-1 - 2 * s)
               * mp.rgamma(1 + 2 * s) * mp.rgamma(2 + 2 * s))
        for a in tau._pair_sums(theta)[:3]:
            out *= mp.gamma(1 + a + s) * mp.rgamma(a - s)
        return out

    _fresh_weight_memo(monkeypatch)
    monkeypatch.setattr(tau, "_gamma_step", step)


def weight_steps_nan(monkeypatch):
    """Every weight step NaN: each chain's first step, and so every later
    one, which is the step before times a rational factor."""
    _fresh_weight_memo(monkeypatch)
    monkeypatch.setattr(tau, "_gamma_step", lambda theta, s: mp.nan)


def unweighted_sum(monkeypatch):
    """Every tau series summed without the structure-constant weights.
    The keyword is overridden, not defaulted: the suite's draws pass no
    normalization, but its unweighted-sum row does."""
    real = tau.tau_series

    def plain(*args, **kwargs):
        return real(*args, **{**kwargs, "normalization": "plain"})

    monkeypatch.setattr(tau, "tau_series", plain)


def plain_sum_weighted(monkeypatch):
    """The unweighted sum taken with the structure-constant weights after
    all, so that it solves the deformation equation."""
    real = tau.tau_series

    def weighted(*args, **kwargs):
        return real(*args, **{**kwargs, "normalization": "isomonodromic"})

    monkeypatch.setattr(tau, "tau_series", weighted)


def residual_slot_nan(monkeypatch):
    """One NaN slot after the real ones in every deformation-equation
    residual: a worst residual taken by max keeps the finite slots."""
    real = tau.sigma_pvi_residual
    monkeypatch.setattr(tau, "sigma_pvi_residual",
                        lambda ts: {**real(ts), ("nan", 0): mp.nan})


def central_term_doubled(monkeypatch):
    """The central term of [L_n, L_-n] taken as c/6 n(n^2-1): every Gram
    entry that reaches level 2 through L_-2 moves, and the degenerate
    weight's level-2 null vector is lost."""
    real = virasoro.VermaModule._central
    monkeypatch.setattr(virasoro.VermaModule, "_central", lambda self, n: 2 * real(self, n))


def border_scale_kept(monkeypatch):
    """Each sphere border row held at w^(2k) instead of w^k, as if its
    scale counted the level on both sides: coefficient k divides out only
    (w_L w_R)^k, so it comes out (w_L w_R)^k times too large."""
    real = blocks.PrimaryMatrixElements.row
    monkeypatch.setattr(blocks.PrimaryMatrixElements, "row",
                        lambda self, k: [self.unit ** k * v for v in real(self, k)])


def mirror_ratio_dropped(monkeypatch):
    """contract's multipliers read off the pivot row without the ratio
    s_i / s_t of the row scales: the entry (t, i) stands for (i, t), as
    if every G-row had the same denominators."""
    monkeypatch.setattr(virasoro, "_pivot_column",
                        lambda prow, scales, t: prow[t + 1:len(scales)])

def three_point_factor_at_full_level(monkeypatch):
    """The per-part factor of a descendant three-point value taken at the
    descendant's whole level, not the level below the peeled part; with a
    zero-weight insertion between equal weights it no longer vanishes."""
    def factor(delta_out, h, delta_in, n, inner):
        return delta_in + inner + n + n * h - delta_out

    monkeypatch.setattr(blocks, "three_point_factor", factor)


def residual_reported_zero(monkeypatch):
    """The null-vector residual reported as zero at every order, whatever
    the series: the vacuous residual the generic channel's row guards
    against."""
    monkeypatch.setattr(blocks, "bpz_residual",
                        lambda series, b2, which: [0] * (series.order + 1))


CONTROLS = [
    ("skein-product", CLASSICAL, skein_other_is_u),
    ("trace-positivity", CLASSICAL_BOTH, step_sign_flipped),
    ("bracket-derivative", CLASSICAL, bracket_constant_one),
    ("q-commutator", QUANTUM, naive_quantization_after_flip),
    ("q-cubic", QUANTUM, naive_quantization_after_flip),
    ("q-classical-limit", QUANTUM, pairing_doubled),
    ("cubic-relation", CLASSICAL, relation_sign_flipped),
    ("quartic-relation", CLASSICAL_C04, quartic_sign_flipped),
    ("bar-invariance", QUANTUM, conjugation_is_identity),
    ("flip-commutation", QUANTUM, dressed_images_scaled),
    ("mutation-composition", MUTATION, mutation_dressing_inverted),
    ("mutation-covariance", MUTATION, flip_substituted_backwards),
    ("q-cubic", QUANTUM, relation_sign_flipped),
    ("shift-residual-quadratic", SHIFT, quadratic_ts_sign_flipped),
    ("shift-residual-quadratic", SHIFT_C04, quadratic_ts_sign_flipped_c04),
    ("shift-residual-quadratic", SHIFT, twist_phase_squared),
    ("shift-residual-cubic", SHIFT, relation_sign_flipped),
    ("shift-residual-cubic", SHIFT_C04, cubic_term_sign_flipped),
    ("shift-residual-cubic", SHIFT_C04, half_twist_phase_negated),
    ("tau-deformation", TAU, step_factor_off, WEIGHTED),
    ("tau-deformation", TAU, gamma_pair_deleted, WEIGHTED),
    ("tau-deformation", TAU, weight_steps_nan, WEIGHTED),
    ("tau-deformation", TAU, plain_sum_weighted, "unweighted sum leaves a residual"),
    ("tau-deformation", TAU, residual_slot_nan, "unweighted sum leaves a residual"),
    ("tau-truncation", TAU, unweighted_sum, "shift contributions shrink"),
    ("kac-level2", DEGENERATE, central_term_doubled),
    ("null-vector", DEGENERATE, central_term_doubled),
    ("degenerate-ode", BPZ, border_scale_kept, "fused degenerate channels annihilated"),
    ("degenerate-ode", BPZ, central_term_doubled, "fused degenerate channels annihilated"),
    ("degenerate-ode", BPZ, residual_reported_zero, "generic channel leaves a residual"),
    ("hypergeometric-match", BPZ, three_point_factor_at_full_level),
    ("hypergeometric-match", BPZ, border_scale_kept),
    ("hypergeometric-match", BPZ, mirror_ratio_dropped),
    ("vacuum-insertion", BPZ, three_point_factor_at_full_level),
]


def _ids():
    """A tag's first control is named by the tag, later ones also by
    their perturbation."""
    seen = set()
    for tag, _, perturb, *_ in CONTROLS:
        yield f"{tag}/{perturb.__name__}" if tag in seen else tag
        seen.add(tag)


def _statuses(run, tag, row=""):
    return {c.status for c in run().checks if c.tag == tag and c.name.startswith(row)}


@pytest.mark.parametrize("control", CONTROLS, ids=list(_ids()))
def test_control_fails_its_row(monkeypatch, control):
    tag, run, perturb, *row = control
    assert _statuses(run, tag, *row) == {"pass"}
    perturb(monkeypatch)
    assert _statuses(run, tag, *row) == {"fail"}


def test_every_row_has_a_control():
    # a row that no entry targets could pass vacuously unnoticed
    def targeted(row):
        return any(tag == row.tag and row.name.startswith(prefix[0] if prefix else "")
                   for tag, _, _, *prefix in CONTROLS)

    rows = [row for rep in checks.all_checks(0) for row in rep.checks]
    assert [row.name for row in rows if not targeted(row)] == []


def test_flipped_curves_keep_the_classical_relation(monkeypatch):
    # so the q-relation control fails the quantization, not the input
    naive_quantization_after_flip(monkeypatch)
    assert _statuses(CLASSICAL, "cubic-relation") == {"pass"}
