"""The benchmark's four workloads, as ordered lists of checked ops.

An op calls the library's public functions the way the acceptance
criteria do and returns its output; the op's checker decides from that
output alone whether the identity held.  Checkers are kept apart from the
calls so the self-tests can feed them perturbed outputs.  Tolerances are
pinned here and nowhere else, and every numeric call passes its digits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import mpmath as mp

from holomon import (blocks, holonomy, laurent, pantsrep, qmutation, qtorus,
                     reference, surfaces, tau, virasoro)

SHIFT_TOL = mp.mpf("1e-9")
SHIFT_DIGITS = 30
SHIFT_DRAWS = 20                 # per surface, as in criterion 6
SHIFT_SITES = (-2, 0, 3)
PRECISION_PAIR = (25, 55)
PRECISION_DROP_DECADES = 20
DICT_TOL = 1e-14

TAU_TOL = mp.mpf("1e-10")
TAU_DIGITS = 50
TAU_DRAWS = 5                    # as in criterion 10
TAU_ORDER = 6
TAU_SHIFTS = (3, 4)
PERIODICITY_TOL = mp.mpf("1e-25")
PERIODICITY_DIGITS = 30

BLOCKS_B2 = F(2, 7)
FUSED_ORDER = 8
GENERIC_ORDER = 10
BLOCK_DIGITS = 50                # unused by exact arithmetic, passed anyway


@dataclass(frozen=True)
class Verdict:
    """A checker's decision on one op output.

    ``margin`` is log10(tol / residual) in decades for numeric checks that
    bound a residual from above, and None for exact checks and negative
    controls.
    """

    ok: bool
    margin: float | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def exact(ok) -> Verdict:
    return Verdict(bool(ok))


def under(residual, tol) -> Verdict:
    """Residual bounded by tol; the margin is infinite for a zero residual."""
    residual, tol = mp.mpf(residual), mp.mpf(tol)
    margin = math.inf if residual == 0 else float(mp.log10(tol / residual))
    return Verdict(bool(residual <= tol), margin)


# -- exact-algebra: criteria 1-5 on the reference fixtures ----------------------

def _generator_values(name, traces):
    vals = {k: traces[k] for k in ("s", "t", "u")}
    if name == "c11":
        vals["L0"] = traces["p1"]
    else:
        for i, p in enumerate(reference.boundary_names(name), 1):
            vals[f"L{i}"] = traces[p]
    return vals


def check_relation_zero(poly) -> Verdict:
    return exact(poly.is_zero())


def check_equal_pair(pair) -> Verdict:
    lhs, rhs = pair
    return exact(lhs == rhs)


def check_true(flag) -> Verdict:
    return exact(flag is True)


def check_all_zero(polys) -> Verdict:
    return exact(all(p.is_zero() for p in polys))


def check_positive(traces) -> Verdict:
    return exact(all(v.all_coefficients_positive() for v in traces.values()))


def check_all_true(report) -> Verdict:
    return exact(bool(report) and all(v is True for v in report.values()))


def check_compositions(rows) -> Verdict:
    return exact(all(composed == expected for _, composed, expected in rows))


def _surface_ops(name):
    tri, curves = reference.reference_setup(name)
    fg = surfaces.dual_fat_graph(tri)
    n = surfaces.exchange_matrix(tri)
    E = tri.n_edges
    st = {}

    def traces():
        st["traces"] = {k: holonomy.trace_function(tri, cp, fg)
                        for k, cp in curves.items()}
        st["vals"] = _generator_values(name, st["traces"])
        return st["traces"]

    def relation():
        return holonomy.relation_poly(name, st["vals"])

    def bracket():
        v = st["vals"]
        lhs = holonomy.poisson_bracket(v["s"], v["t"], n) \
            * reference.LOOP_BRACKET_CONSTANT[name]
        return lhs, holonomy.relation_poly_du(name, v)

    def skein():
        v, other = st["vals"], st["traces"]["st_other"]
        expected = v["u"] + other
        if name == "c04":
            expected = expected + v["L1"] * v["L3"] + v["L2"] * v["L4"]
        return v["s"] * v["t"], expected

    def covariance(e, cname):
        return lambda: holonomy.verify_mutation_covariance(
            tri, e, curves[cname], reference.covariant_walk(name, e, cname))

    def composition(e):
        def run():
            n2 = surfaces.exchange_matrix(surfaces.flip(tri, e))
            inner = [holonomy.mutate_coordinate(n, e, i) for i in range(E)]

            def ev(p):
                total = laurent.LaurentRational.from_const(E, 0)
                for exps, c in p.terms.items():
                    term = laurent.LaurentRational.from_const(E, c)
                    for i, d2 in enumerate(exps):
                        term = term * inner[i] ** (d2 // 2)
                    total = total + term
                return total

            rows = []
            for target in range(E):
                outer = holonomy.mutate_coordinate(n2, e, target)
                expected = laurent.LaurentRational(
                    laurent.LaurentPoly.variable(E, target))
                rows.append((target, ev(outer.num) / ev(outer.den), expected))
            return rows
        return run

    def quantize():
        st["ops"] = {k: qtorus.quantize_trace(v, n) for k, v in st["vals"].items()}
        return [(st["ops"][k].classical_limit(), st["vals"][k]) for k in st["vals"]]

    def q_relation(degree):
        return lambda: qtorus.q_relation(name, degree, st["ops"])

    def bar():
        bar_ops = {k: v.bar() for k, v in st["ops"].items()}
        return [qtorus.q_relation(name, d, bar_ops, conj=True) for d in (2, 3)]

    def cubic_limit():
        return (qtorus.q_relation(name, 3, st["ops"]).classical_limit(),
                holonomy.relation_poly(name, st["vals"]))

    def commutator_limit():
        v = st["vals"]
        return (qtorus.commutator_classical_limit(st["ops"]["s"], st["ops"]["t"]),
                holonomy.poisson_bracket(v["s"], v["t"], n))

    ops = [
        Op(f"{name}: traces positive", traces, check_positive),
        Op(f"{name}: generator relation", relation, check_relation_zero),
        Op(f"{name}: bracket = dP/dL_u", bracket, check_equal_pair),
        Op(f"{name}: skein product", skein, check_equal_pair),
    ]
    ops += [Op(f"{name}: covariance e{e} {c}", covariance(e, c), check_true)
            for e, c in reference.covariance_corpus(name)]
    ops += [Op(f"{name}: double mutation e{e}", composition(e), check_compositions)
            for e in range(E)]
    ops += [
        Op(f"{name}: quantize", quantize,
           lambda pairs: exact(all(a == b for a, b in pairs))),
        Op(f"{name}: q-relation 2", q_relation(2), check_relation_zero),
        Op(f"{name}: q-relation 3", q_relation(3), check_relation_zero),
        Op(f"{name}: bar involution", bar, check_all_zero),
        Op(f"{name}: cubic classical limit", cubic_limit, check_equal_pair),
        Op(f"{name}: commutator classical limit", commutator_limit, check_equal_pair),
    ]
    ops += [Op(f"{name}: q-mutation e{e}",
               lambda e=e: qmutation.verify_q_mutation_relations(n, e), check_all_true)
            for e in range(E)]
    ops += [Op(f"{name}: double flip e{e}",
               lambda e=e: qmutation.double_mutation_is_identity(n, e), check_true)
            for e in range(E)]
    return ops


def exact_algebra(seed: int) -> list:
    """Criteria 1-5 on c11 and c04.  The inputs are the reference fixtures,
    so the seed does not change them."""
    return _surface_ops("c11") + _surface_ops("c04")


# -- shift-operators: criterion-6 traffic ------------------------------------------

def check_pants(residuals) -> Verdict:
    return under(max(residuals), SHIFT_TOL)


def check_precision_pair(pair) -> Verdict:
    low, high = pair
    with mp.workdps(PRECISION_PAIR[1]):
        return under(high, low * mp.mpf(10) ** -PRECISION_DROP_DECADES)


def check_dictionary(errors) -> Verdict:
    return exact(all(err < DICT_TOL for err in errors))


def _pants_op(i, params):
    """Both relations on both surfaces for draw i.  Pairing a c04 draw with
    a c11 draw gives every op the same cost, so the latency median falls
    inside one cluster instead of between the two surfaces' clusters."""
    def run():
        residuals = []
        for kind, p in params:
            rep = pantsrep.verify_pants_relations(p, kind, tol=float(SHIFT_TOL),
                                                  sites=SHIFT_SITES)
            residuals += [rep[2]["residual"], rep[3]["residual"]]
        return tuple(residuals)
    return Op(f"draw {i}: c04 and c11 relations", run, check_pants)


def _precision_op(p_low):
    p_high = pantsrep.RepParams(b2=p_low.b2, boundary=p_low.boundary, x0=p_low.x0,
                                digits=PRECISION_PAIR[1])

    def run():
        return (pantsrep.relation_residual(p_low, "c04", 3, 0),
                pantsrep.relation_residual(p_high, "c04", 3, 0))
    return Op("c04: residual falls 25 -> 55 digits", run, check_precision_pair)


def _dictionary_op(rng):
    lengths = [(rng.uniform(0.1, 3), rng.uniform(0.5, 1.5)) for _ in range(3)]
    phases = [(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3),
               rng.uniform(0.4, 1.7)) for _ in range(10)]

    def run():
        errors = []
        for l, b in lengths:
            Q = b + 1 / b
            alpha = Q / 2 + 1j * l / (4 * math.pi * b)
            errors.append(abs(alpha * (Q - alpha)
                              - pantsrep.conformal_weight_of_length(l, b)))
        errors += [abs(abs(pantsrep.b_move_phase(*args)) - 1) for args in phases]
        return errors
    return Op("weight dictionary and braid phase", run, check_dictionary)


def shift_operators(seed: int) -> list:
    rng = random.Random(seed)
    ops = [_pants_op(i, [(kind, pantsrep.random_params(kind, rng, digits=SHIFT_DIGITS))
                         for kind in ("c04", "c11")])
           for i in range(SHIFT_DRAWS)]
    ops.append(_precision_op(
        pantsrep.random_params("c04", rng, digits=PRECISION_PAIR[0])))
    ops.append(_dictionary_op(rng))
    return ops


# -- tau-sum: criterion-10 traffic -------------------------------------------------

def _max_residual(ts):
    return max((abs(v) for v in tau.sigma_pvi_residual(ts).values()),
               default=mp.mpf(0))


def check_tau_residual(residual) -> Verdict:
    return under(residual, TAU_TOL)


def check_tau_draw(pair) -> Verdict:
    """The M=3 residual and the change under one more shift, both within
    the tolerance; the margin is the smaller of the two."""
    residual, change = (check_tau_residual(v) for v in pair)
    return Verdict(residual.ok and change.ok, min(residual.margin, change.margin))


def check_tau_negative(residual) -> Verdict:
    """The unweighted sum must leave a residual above the tolerance."""
    return exact(residual > TAU_TOL)


def check_periodicity(diff) -> Verdict:
    return under(diff, PERIODICITY_TOL)


def tau_draw(rng):
    theta = tuple(F(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(4))
    return theta, F(rng.randint(8, 17), 40), F(rng.randint(1, 12), 10)


def tau_sum(seed: int) -> list:
    rng = random.Random(seed)
    draws = [tau_draw(rng) for _ in range(TAU_DRAWS)]
    low, high = TAU_SHIFTS

    def draw_op(theta, lam, kappa):
        def run():
            ts = tau.tau_series(theta, lam, kappa, N=TAU_ORDER, M=low,
                                digits=TAU_DIGITS)
            ts_high = tau.tau_series(theta, lam, kappa, N=TAU_ORDER, M=high,
                                     digits=TAU_DIGITS)
            return _max_residual(ts), tau.coefficient_difference(ts, ts_high)
        return run

    ops = [Op(f"draw {i}: residual at M={low}, stable under M={high}",
              draw_op(*draw), check_tau_draw) for i, draw in enumerate(draws)]

    theta, lam, kappa = draws[0]

    def periodicity():
        with mp.workdps(PERIODICITY_DIGITS):
            kap = mp.mpmathify(kappa)
            kap2 = kap + 2 * mp.pi
        a = tau.tau_series(theta, lam, kap, N=4, M=2, digits=PERIODICITY_DIGITS)
        b = tau.tau_series(theta, lam, kap2, N=4, M=2, digits=PERIODICITY_DIGITS)
        return tau.coefficient_difference(a, b)

    def negative():
        ts = tau.tau_series(theta, lam, kappa, N=TAU_ORDER, M=low,
                            digits=TAU_DIGITS, normalization="plain")
        return _max_residual(ts)

    ops.append(Op("full-turn periodicity", periodicity, check_periodicity))
    ops.append(Op("unweighted sum leaves a residual", negative, check_tau_negative))
    return ops


# -- exact-blocks: exact Fraction blocks at higher levels ------------------------------

def check_bpz_zero(block_and_residual) -> Verdict:
    _, residual = block_and_residual
    return exact(all(r == 0 for r in residual))


def check_generic_channel(block_and_residual) -> Verdict:
    """A generic channel is normalised and does not solve the degenerate
    equation."""
    coeffs, residual = block_and_residual
    return exact(coeffs[0] == 1 and any(r != 0 for r in residual))


def blocks_draw(rng):
    """Rational momenta and internal weights.  Numerators are drawn prime to
    fixed denominators, so every seed does exact arithmetic of the same
    size."""
    p1, r1 = F(rng.choice((1, 2)), 3), F(rng.choice((1, 2, 3, 4)), 5)
    p3, r3 = F(rng.choice((1, 2, 3, 4)), 5), F(rng.choice((1, 2, 3)), 7)
    p4, r4 = F(rng.choice((1, 2, 3)), 7), F(rng.choice((1, 2, 3, 4, 5)), 11)
    d_generic = F(rng.randrange(5, 20, 2), 4)
    d_torus = F(rng.choice((3, 4, 6, 7, 8, 9, 11, 12, 13)), 5)
    return (p1, r1), (p3, r3), (p4, r4), d_generic, d_torus


def exact_blocks(seed: int) -> list:
    b2 = BLOCKS_B2
    (p1, r1), (p3, r3), (p4, r4), d_generic, d_torus = blocks_draw(random.Random(seed))

    def w(p, r):
        return (p * b2 + p + r + r / b2) - (p * p * b2 + 2 * p * r + r * r / b2)

    cc = virasoro.central_charge(b2)
    d1, d3, d4 = w(p1, r1), w(p3, r3), w(p4, r4)
    dd = blocks.degenerate_weight_of(b2)

    def fused(sign, order=FUSED_ORDER):
        return blocks.sphere4_block(d1, dd, d3, d4, w(p1 + sign, r1), cc,
                                    N=order, digits=BLOCK_DIGITS)

    def bpz(sign):
        def run():
            blk = fused(sign)
            return blk.coeffs, blocks.bpz_residual(blk, b2, "b")
        return run

    def hypergeometric():
        blk = fused(F(-1, 2))
        u1, u3, u4 = p1 * b2 + r1, p3 * b2 + r3, p4 * b2 + r4
        A = u1 + u3 - u4 - b2 / 2
        B = u1 + u3 + u4 - 1 - 3 * b2 / 2
        C = 2 * u1 - b2
        hyp = [F(1)]
        for k in range(FUSED_ORDER):
            hyp.append(hyp[-1] * (A + k) * (B + k) / ((C + k) * (k + 1)))
        binom = [F(1)]
        for k in range(1, FUSED_ORDER + 1):
            binom.append(binom[-1] * (-(u3 - k + 1)) / k)
        series = [sum(hyp[j] * binom[m - j] for j in range(m + 1))
                  for m in range(FUSED_ORDER + 1)]
        return (series, u1), (blk.coeffs, blk.leading_exponent)

    def frobenius():
        blk = fused(F(-1, 2))
        return (blocks.frobenius_solution(d1, dd, d3, d4, b2, blk.leading_exponent,
                                          FUSED_ORDER), blk.coeffs)

    def generic():
        blk = blocks.sphere4_block(d1, dd, d3, d4, d_generic, cc, N=GENERIC_ORDER,
                                   digits=BLOCK_DIGITS)
        return blk.coeffs, blocks.bpz_residual(blk, b2, "b")

    def vacuum_sphere():
        blk = blocks.sphere4_block(d1, 0, d3, d4, d1, cc, N=FUSED_ORDER,
                                   digits=BLOCK_DIGITS)
        return (blk.coeffs, blk.leading_exponent), ([1] + [0] * FUSED_ORDER, 0)

    def torus():
        blk = blocks.torus1_block(F(0), d_torus, cc, N=FUSED_ORDER,
                                  digits=BLOCK_DIGITS)
        return blk.coeffs, [virasoro.partition_count(k) for k in range(FUSED_ORDER + 1)]

    def kac():
        d = virasoro.degenerate_weight(b2)
        G = virasoro.VermaModule(d, cc).gram(2)
        det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
        return det, virasoro.kac_determinant_level2(d, cc)

    def null_vector():
        V = virasoro.VermaModule(virasoro.degenerate_weight(b2), cc)
        nv = virasoro.null_vector_level2(b2)
        return [sum(cf * V.pairing(lam, mu) for mu, cf in nv.items())
                for lam in virasoro.partitions(2)]

    return [
        Op("kac determinant level 2", kac,
           lambda pair: exact(pair[0] == 0 and pair[0] == pair[1])),
        Op("null vector orthogonal to level 2", null_vector,
           lambda values: exact(all(v == 0 for v in values))),
        Op("fused channel -1/2 annihilated", bpz(F(-1, 2)), check_bpz_zero),
        Op("fused channel +1/2 annihilated", bpz(F(1, 2)), check_bpz_zero),
        Op("fused block = hypergeometric series", hypergeometric, check_equal_pair),
        Op("Frobenius recursion = fused block", frobenius, check_equal_pair),
        Op(f"generic channel at order {GENERIC_ORDER}", generic, check_generic_channel),
        Op("zero-weight sphere insertion", vacuum_sphere, check_equal_pair),
        Op("zero-weight torus insertion", torus, check_equal_pair),
    ]


WORKLOADS = {
    "exact-algebra": exact_algebra,
    "shift-operators": shift_operators,
    "tau-sum": tau_sum,
    "exact-blocks": exact_blocks,
}
