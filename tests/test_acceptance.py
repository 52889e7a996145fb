"""Acceptance suite: one test per release criterion, each printing its own
pass/fail line.  Tolerances are pinned here and nowhere else."""

import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from holomon import blocks, holonomy, pantsrep, qmutation, qtorus, tau, virasoro
from holomon.reference import (
    LOOP_BRACKET_CONSTANT,
    boundary_names,
    covariance_corpus,
    covariant_walk,
    reference_setup,
)
from holomon.surfaces import exchange_matrix

_LINES = []


def _criterion(num, label, ok):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
    _LINES.append(line)
    print(line)
    assert ok, line


def teardown_module(module):
    print("\n== acceptance summary ==")
    for line in _LINES:
        print(line)


def _trace_values(name):
    tri, curves = reference_setup(name)
    vals = {k: holonomy.trace_function(tri, curves[k]) for k in ("s", "t", "u")}
    if name == "c11":
        vals["L0"] = holonomy.trace_function(tri, curves["p1"])
    else:
        for i, p in enumerate(boundary_names(name), 1):
            vals[f"L{i}"] = holonomy.trace_function(tri, curves[p])
    return tri, curves, vals


def test_criterion_1_classical_relations():
    """Generator relation vanishes exactly on both reference surfaces."""
    ok = True
    for name in ("c11", "c04"):
        _, _, vals = _trace_values(name)
        ok = ok and holonomy.relation_poly(name, vals).is_zero()
    _criterion(1, "classical generator relations vanish exactly", ok)


def test_criterion_2_bracket_vs_derivative():
    """Coordinate bracket matches the u-derivative of the relation, exactly,
    with the per-surface normalization constant recorded in the ledger."""
    ok = True
    for name in ("c11", "c04"):
        tri, _, vals = _trace_values(name)
        n = exchange_matrix(tri)
        lhs = holonomy.poisson_bracket(vals["s"], vals["t"], n) \
            * LOOP_BRACKET_CONSTANT[name]
        ok = ok and (lhs == holonomy.relation_poly_du(name, vals))
    _criterion(2, "bracket equals dP/dL_u exactly (recorded constants)", ok)


def test_criterion_3_mutation_covariance():
    """Every curated (curve, flip) pair reproduces its trace through the
    coordinate mutation, as an exact cross-multiplied identity."""
    ok = True
    count = 0
    for name in ("c11", "c04"):
        tri, curves = reference_setup(name)
        for e, cname in covariance_corpus(name):
            ok = ok and holonomy.verify_mutation_covariance(
                tri, e, curves[cname], covariant_walk(name, e, cname))
            count += 1
    _criterion(3, f"mutation covariance exact on {count} curated pairs", ok)


def test_criterion_4_quantum_relations():
    """Weyl-quantized generators satisfy both deformed relations exactly;
    the s -> 1 specialization reproduces criteria 1 and 2."""
    ok = True
    for name in ("c11", "c04"):
        tri, _, vals = _trace_values(name)
        n = exchange_matrix(tri)
        ops = {k: qtorus.quantize_trace(v, n) for k, v in vals.items()}
        for degree in (2, 3):
            ok = ok and qtorus.q_relation(name, degree, ops).is_zero()
        # classical limits: cubic evaluation -> relation, commutator -> bracket
        ok = ok and (qtorus.q_relation(name, 3, ops).classical_limit()
                     == holonomy.relation_poly(name, vals))
        lim = qtorus.commutator_classical_limit(ops["s"], ops["t"])
        ok = ok and (lim == holonomy.poisson_bracket(vals["s"], vals["t"], n))
    _criterion(4, "quantum relations exact; s->1 reproduces criteria 1-2", ok)


def test_criterion_5_quantum_mutation():
    """Mutation images satisfy the flipped commutation relations and the
    double-flip identity, exactly in the restricted normal form."""
    ok = True
    for name in ("c11", "c04"):
        tri, _ = reference_setup(name)
        n = exchange_matrix(tri)
        for e in range(tri.n_edges):
            ok = ok and all(qmutation.verify_q_mutation_relations(n, e).values())
            ok = ok and qmutation.double_mutation_is_identity(n, e)
    _criterion(5, "quantum mutation relations and double flip exact", ok)


def test_criterion_6_pants_representation():
    """Both relations hold exactly, every slot 0 at sites -2, 0 and 3, for
    20 rational draws per surface, and on a complex draw the relative
    residual falls when precision is raised."""
    ok = True
    for kind in ("c04", "c11"):
        rng = random.Random(42)
        for _ in range(20):
            rows = pantsrep.exact_slots(kind, *pantsrep.rational_draw(kind, rng),
                                        pantsrep.SITES)
            ok = ok and len(rows) == 6 and all(slots and not any(slots.values())
                                               for _, _, slots in rows)
    rng = random.Random(7)
    p25 = pantsrep.random_params("c04", rng, digits=25)
    p55 = pantsrep.RepParams(b2=p25.b2, boundary=p25.boundary, x0=p25.x0, digits=55)
    r25 = pantsrep.relation_residual(p25, "c04", 3, 0)
    r55 = pantsrep.relation_residual(p55, "c04", 3, 0)
    ok = ok and bool(r55 < r25 * mp.mpf(10) ** -20)
    _criterion(6, "shift-operator relations exact over 40 rational draws, "
                  "residual falling with precision", ok)


def test_criterion_7_level2_degeneration():
    """Level-2 determinant vanishes exactly at the degenerate weight; the
    null vector has zero norm and zero pairing with the level."""
    b2 = F(2, 5)
    d = virasoro.degenerate_weight(b2)
    c = virasoro.central_charge(b2)
    ok = virasoro.kac_determinant_level2(d, c) == 0
    V = virasoro.VermaModule(d, c)
    nv = virasoro.null_vector_level2(b2)
    for lam in virasoro.partitions(2):
        ok = ok and sum(cf * V.pairing(lam, mu) for mu, cf in nv.items()) == 0
    norm = sum(cl * cm * V.pairing(lam, mu)
               for lam, cl in nv.items() for mu, cm in nv.items())
    ok = ok and norm == 0
    _criterion(7, "level-2 determinant and null vector exact", ok)


def test_criterion_8_degenerate_equation():
    """Fused degenerate four-point series is annihilated by the null-vector
    equation through order 8 and matches the classic series solution."""
    b2 = F(2, 7)
    cc = 13 + 6 * b2 + 6 / b2

    def w(p, r):
        return (p * b2 + p + r + r / b2) - (p * p * b2 + 2 * p * r + r * r / b2)

    p1, r1 = F(1, 3), F(2, 5)
    d1, d3, d4 = w(p1, r1), w(F(1, 5), F(1, 7)), w(F(2, 7), F(3, 11))
    dd = virasoro.degenerate_weight(b2)
    ok = True
    for sign in (F(-1, 2), F(1, 2)):
        blk = blocks.sphere4_block(d1, dd, d3, d4, w(p1 + sign, r1), cc, N=8)
        ok = ok and all(r == 0 for r in blocks.bpz_residual(blk, b2, "b"))
    blk = blocks.sphere4_block(d1, dd, d3, d4, w(p1 - F(1, 2), r1), cc, N=8)
    u1, u3, u4 = p1 * b2 + r1, F(1, 5) * b2 + F(1, 7), F(2, 7) * b2 + F(3, 11)
    A, B, C = u1 + u3 - u4 - b2 / 2, u1 + u3 + u4 - 1 - 3 * b2 / 2, 2 * u1 - b2
    hyp = [F(1)]
    for k in range(8):
        hyp.append(hyp[-1] * (A + k) * (B + k) / ((C + k) * (k + 1)))
    binom = [F(1)]
    for k in range(1, 9):
        binom.append(binom[-1] * (-(u3 - k + 1)) / k)
    series = [sum(hyp[j] * binom[n - j] for j in range(n + 1)) for n in range(9)]
    ok = ok and series == blk.coeffs
    frob = blocks.frobenius_solution(d1, dd, d3, d4, b2, blk.leading_exponent, 8)
    ok = ok and frob == blk.coeffs
    _criterion(8, "degenerate equation exact through order 8, series matched", ok)


def test_criterion_9_vacuum_propagation():
    """Zero-weight insertions reduce the series exactly through order 8."""
    b2 = F(2, 7)
    cc = 13 + 6 * b2 + 6 / b2
    d1, d3, d4 = F(3, 5), F(7, 11), F(2, 9)
    blk = blocks.sphere4_block(d1, 0, d3, d4, d1, cc, N=8)
    ok = blk.coeffs == [1] + [0] * 8 and blk.leading_exponent == 0
    tor = blocks.torus1_block(F(0), F(7, 5), cc, N=8)
    ok = ok and tor.coeffs == [virasoro.partition_count(k) for k in range(9)]
    _criterion(9, "vacuum insertions reduce the series exactly to order 8", ok)


def test_criterion_10_tau_deformation_equation():
    """Weighted shift-sum at unit central charge satisfies the scalar
    deformation equation: every residual coefficient <= 1e-10 at 50
    digits for 5 generic draws, stable under one more shift."""
    rng = random.Random(20260810)
    ok = True
    worst = mp.mpf(0)
    for _ in range(5):
        theta = tuple(F(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(4))
        lam = F(rng.randint(8, 17), 40)
        kappa = F(rng.randint(1, 12), 10)
        ts = tau.tau_series(theta, lam, kappa, N=6, M=3, digits=50)
        res = tau.sigma_pvi_residual(ts)
        r = max(abs(v) for v in res.values())
        worst = max(worst, r)
        ok = ok and bool(r <= mp.mpf("1e-10"))
        ts4 = tau.tau_series(theta, lam, kappa, N=6, M=4, digits=50)
        ok = ok and bool(tau.coefficient_difference(ts, ts4) <= mp.mpf("1e-10"))
    _criterion(10, f"deformation-equation residuals <= 1e-10 at 50 digits "
                   f"(worst {mp.nstr(worst, 3)}), stable under M -> 4", ok)


def test_criterion_11_dictionary_and_phase():
    """Weight of the length parameter matches the momentum map to 1e-14;
    braid phase has unit modulus; the exponent-convention note is present
    in the emitted report."""
    import math

    ok = True
    for l, b in ((0.9, 0.77), (2.4, 1.31), (0.35, 1.0)):
        Q = b + 1 / b
        alpha = Q / 2 + 1j * l / (4 * math.pi * b)
        delta = alpha * (Q - alpha)
        ok = ok and abs(delta - pantsrep.conformal_weight_of_length(l, b)) < 1e-14
        ok = ok and abs(delta - (Q * Q / 4 + (l / (4 * math.pi * b)) ** 2)) < 1e-14
    rng = random.Random(4)
    for _ in range(10):
        z = pantsrep.b_move_phase(rng.uniform(0, 3), rng.uniform(0, 3),
                                  rng.uniform(0, 3), rng.uniform(0.4, 1.7))
        ok = ok and abs(abs(z) - 1) < 1e-14
    from holomon.checks import pants_checks

    rep = pants_checks("c04", seed=0, draws=1)
    ok = ok and rep.passed
    ok = ok and any("Q^2/4" in note for note in rep.notes)
    _criterion(11, "weight dictionary exact, unit-modulus phase, "
                   "convention note present", ok)
