"""Verification suites behind the command-line interface.

Each function runs a family of identity checks and returns CheckResult
rows; the acceptance tests and the CLI share these implementations.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time
from fractions import Fraction

import mpmath as mp

from . import blocks, holonomy, pantsrep, qmutation, qtorus, tau, virasoro
from .laurent import LaurentPoly, LaurentRational
from .reference import (
    LOOP_BRACKET_CONSTANT,
    boundary_names,
    covariance_corpus,
    covariant_walk,
    reference_setup,
)
from .report import CheckResult, Report, fmt_residual, worst_residual
from .surfaces import exchange_matrix, flip


def _timed(report: Report, name: str, tag: str, fn):
    start = time.perf_counter()
    try:
        ok, witness = fn()
        status = "pass" if ok else "fail"
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        status, witness = "error", f"{type(exc).__name__}: {exc}"
    report.add(CheckResult(name, tag, status, witness,
                           time.perf_counter() - start))


def _trace_values(name):
    """The triangulation, every curated curve's trace, and the generators'."""
    tri, curves = reference_setup(name)
    traces = {k: holonomy.trace_function(tri, cp) for k, cp in curves.items()}
    vals = {k: traces[k] for k in ("s", "t", "u")}
    if name == "c11":
        vals["L0"] = traces["p1"]
    else:
        for i, p in enumerate(boundary_names(name), 1):
            vals[f"L{i}"] = traces[p]
    return tri, traces, vals


def classical_checks(surfaces=("c11", "c04")) -> Report:
    rep = Report("classical trace-algebra identities")
    for name in surfaces:
        tri, traces, vals = _trace_values(name)
        n = exchange_matrix(tri)

        def relation(name=name, vals=vals):
            return holonomy.relation_poly(name, vals).is_zero(), ""

        _timed(rep, f"{name}: generator relation vanishes",
               "cubic-relation" if name == "c11" else "quartic-relation", relation)

        def bracket(name=name, vals=vals, n=n):
            lhs = holonomy.poisson_bracket(vals["s"], vals["t"], n) \
                * LOOP_BRACKET_CONSTANT[name]
            rhs = holonomy.relation_poly_du(name, vals)
            return lhs == rhs, f"normalization constant {LOOP_BRACKET_CONSTANT[name]}"

        _timed(rep, f"{name}: bracket equals u-derivative of relation",
               "bracket-derivative", bracket)

        def positivity(traces=traces):
            bad = [k for k, p in traces.items() if not p.all_coefficients_positive()]
            return not bad, ", ".join(bad)

        _timed(rep, f"{name}: trace coefficients positive", "trace-positivity", positivity)

        def skein(name=name, traces=traces, vals=vals):
            prod = vals["s"] * vals["t"]
            other = traces["st_other"]
            if name == "c11":
                return prod == vals["u"] + other, ""
            central = vals["L1"] * vals["L3"] + vals["L2"] * vals["L4"]
            return prod == vals["u"] + other + central, ""

        _timed(rep, f"{name}: skein resolution of the s,t product", "skein-product", skein)
    rep.note("bracket normalization constants, fixed in the reference tables and "
             "checked by the bracket-derivative rows: "
             + ", ".join(f"{k}={v}" for k, v in sorted(LOOP_BRACKET_CONSTANT.items())))
    return rep


def mutation_checks(surfaces=("c11", "c04")) -> Report:
    rep = Report("coordinate-mutation covariance")
    for name in surfaces:
        tri, curves = reference_setup(name)

        def corpus(name=name, tri=tri, curves=curves):
            bad = []
            for e, cname in covariance_corpus(name):
                ok = holonomy.verify_mutation_covariance(
                    tri, e, curves[cname], covariant_walk(name, e, cname))
                if not ok:
                    bad.append((e, cname))
            return not bad, f"{len(covariance_corpus(name))} pairs" if not bad else str(bad)

        _timed(rep, f"{name}: trace covariance for all curated flips",
               "mutation-covariance", corpus)

        def composition(name=name, tri=tri):
            n = exchange_matrix(tri)
            E = tri.n_edges
            for e in range(E):
                n2 = exchange_matrix(flip(tri, e))
                for target in range(E):
                    outer = holonomy.mutate_coordinate(n2, e, target)
                    composed = (holonomy.substitute_flip(outer.num, n, e)
                                / holonomy.substitute_flip(outer.den, n, e))
                    if composed != LaurentRational(LaurentPoly.variable(E, target)):
                        return False, f"edge {e} target {target}"
            return True, ""

        _timed(rep, f"{name}: double mutation composes to identity",
               "mutation-composition", composition)
    return rep


def quantum_checks(surfaces=("c11", "c04")) -> Report:
    rep = Report("quantum torus relations")
    for name in surfaces:
        tri, _, vals = _trace_values(name)
        n = exchange_matrix(tri)
        ops = {k: qtorus.quantize_trace(v, n) for k, v in vals.items()}

        for degree, tag in ((2, "q-commutator"), (3, "q-cubic")):
            def rel(degree=degree, ops=ops, name=name):
                return qtorus.q_relation(name, degree, ops).is_zero(), ""

            _timed(rep, f"{name}: deformed relation degree {degree}", tag, rel)

        def bar(name=name, ops=ops):
            bar_ops = {k: v.bar() for k, v in ops.items()}
            return all(qtorus.q_relation(name, d, bar_ops, conj=True).is_zero()
                       for d in (2, 3)), ""

        _timed(rep, f"{name}: relations hold under coefficient involution",
               "bar-invariance", bar)

        def climit(ops=ops, vals=vals, n=n):
            lhs = qtorus.commutator_classical_limit(ops["s"], ops["t"])
            return (lhs == holonomy.poisson_bracket(vals["s"], vals["t"], n),
                    f"{len(lhs.terms)} terms")

        _timed(rep, f"{name}: commutator's classical limit is the bracket",
               "q-classical-limit", climit)

        def qmut(name=name, tri=tri, n=n):
            for e in range(tri.n_edges):
                if not all(qmutation.verify_q_mutation_relations(n, e).values()):
                    return False, f"edge {e}"
                if not qmutation.double_mutation_is_identity(n, e):
                    return False, f"edge {e} double flip"
            return True, ""

        _timed(rep, f"{name}: mutation images obey flipped relations",
               "flip-commutation", qmut)
    return rep


def pants_checks(kind: str, seed: int, draws: int, tol: float = 1e-9, b2=None) -> Report:
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rep = Report(f"shift-operator representation ({kind})")
    rng = random.Random(seed)
    start = time.perf_counter()
    if b2 is None:
        slots = {2: [], 3: []}
        for _ in range(draws):
            draw = pantsrep.rational_draw(kind, rng)
            for _, d, row in pantsrep.exact_slots(kind, *draw, pantsrep.SITES):
                slots[d] += row.values()
        sites = ", ".join(map(str, pantsrep.SITES))
        verdict = {d: (not any(v), f"{sum(map(bool, v))} of {len(v)} slots nonzero "
                       f"at sites {sites}") for d, v in slots.items()}
    else:
        worst = {2: mp.mpf(0), 3: mp.mpf(0)}
        for _ in range(draws):
            p = dataclasses.replace(pantsrep.random_params(kind, rng), b2=b2)
            r = pantsrep.verify_pants_relations(p, kind, tol=tol)
            for d in (2, 3):
                worst[d] = worst_residual((worst[d], r[d]["residual"]))
        verdict = {d: (bool(worst[d] < tol), f"worst residual {fmt_residual(worst[d])}")
                   for d in (2, 3)}
    # each draw checks both degrees together, so both rows carry the loop's time
    elapsed = time.perf_counter() - start
    for d, tag in ((2, "shift-residual-quadratic"), (3, "shift-residual-cubic")):
        ok, witness = verdict[d]
        rep.add(CheckResult(f"{kind}: relation degree {d} over {draws} draws",
                            tag, "pass" if ok else "fail", witness, elapsed))

    def precision(kind=kind):
        rng2 = random.Random(seed + 1)
        p25 = pantsrep.random_params(kind, rng2, digits=25)
        if b2 is not None:
            p25 = dataclasses.replace(p25, b2=b2)
        p55 = dataclasses.replace(p25, digits=55)
        r25 = pantsrep.relation_residual(p25, kind, 3, 0)
        r55 = pantsrep.relation_residual(p55, kind, 3, 0)
        return bool(r55 < r25 * mp.mpf(10) ** -20), \
            f"{fmt_residual(r25)} at 25 digits vs {fmt_residual(r55)} at 55"

    _timed(rep, f"{kind}: residual falls with working precision",
           "shift-residual-cubic", precision)
    rep.note(pantsrep.B_MOVE_WEIGHT_NOTE)
    return rep


def virasoro_checks(b2=Fraction(2, 5)) -> Report:
    rep = Report("degenerate-module structure")

    def kac():
        d = virasoro.degenerate_weight(b2)
        c = virasoro.central_charge(b2)
        V = virasoro.VermaModule(d, c)
        G = V.gram(2)
        det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
        return det == 0 and det == virasoro.kac_determinant_level2(d, c), ""

    _timed(rep, "level-2 determinant vanishes at the degenerate weight",
           "kac-level2", kac)

    def null():
        d = virasoro.degenerate_weight(b2)
        c = virasoro.central_charge(b2)
        V = virasoro.VermaModule(d, c)
        nv = virasoro.null_vector_level2(b2)
        for lam in virasoro.partitions(2):
            if sum(cf * V.pairing(lam, mu) for mu, cf in nv.items()) != 0:
                return False, str(lam)
        return True, ""

    _timed(rep, "level-2 null vector orthogonal to the whole level",
           "null-vector", null)
    return rep


def bpz_checks(b2=Fraction(2, 7), order: int = 8) -> Report:
    rep = Report("degenerate second-order equation")
    p1, r1 = Fraction(1, 3), Fraction(2, 5)
    p3, r3 = Fraction(1, 5), Fraction(1, 7)
    p4, r4 = Fraction(2, 7), Fraction(3, 11)

    def w(p, r):
        return (p * b2 + p + r + r / b2) - (p * p * b2 + 2 * p * r + r * r / b2)

    cc = virasoro.central_charge(b2)
    d1, d3, d4 = w(p1, r1), w(p3, r3), w(p4, r4)
    dd = virasoro.degenerate_weight(b2)

    # each channel is built once, on first use inside a row's error boundary;
    # a build that raises is not cached, so every row using it reports ERROR
    @functools.cache
    def fused(sign):
        return blocks.sphere4_block(d1, dd, d3, d4, w(p1 + sign, r1), cc, N=order)

    def residual():
        for sign in (Fraction(-1, 2), Fraction(1, 2)):
            res = blocks.bpz_residual(fused(sign), b2, "b")
            if any(r != 0 for r in res):
                return False, f"channel {sign}"
        return True, f"orders 0..{order} exactly zero, both channels"

    _timed(rep, "fused degenerate channels annihilated", "degenerate-ode", residual)

    def negative():
        blk = blocks.sphere4_block(d1, dd, d3, d4, Fraction(5, 4), cc, N=6)
        res = blocks.bpz_residual(blk, b2, "b")
        return any(r != 0 for r in res), ""

    _timed(rep, "generic channel leaves a residual", "degenerate-ode", negative)

    def hyp():
        blk = fused(Fraction(-1, 2))
        u1, u3, u4 = p1 * b2 + r1, p3 * b2 + r3, p4 * b2 + r4
        A = u1 + u3 - u4 - b2 / 2
        B = u1 + u3 + u4 - 1 - 3 * b2 / 2
        C = 2 * u1 - b2
        hypc = [Fraction(1)]
        for k in range(order):
            hypc.append(hypc[-1] * (A + k) * (B + k) / ((C + k) * (k + 1)))
        binom = [Fraction(1)]
        for k in range(1, order + 1):
            binom.append(binom[-1] * (-(u3 - k + 1)) / k)
        series = [sum(hypc[j] * binom[n - j] for j in range(n + 1))
                  for n in range(order + 1)]
        return series == blk.coeffs and blk.leading_exponent == u1, ""

    _timed(rep, "fused block equals the classic series solution",
           "hypergeometric-match", hyp)

    def frob():
        blk = fused(Fraction(-1, 2))
        got = blocks.frobenius_solution(d1, dd, d3, d4, b2,
                                        blk.leading_exponent, order)
        return got == blk.coeffs, ""

    _timed(rep, "independent recursion reproduces the block",
           "hypergeometric-match", frob)

    def vacuum():
        blk = blocks.sphere4_block(d1, 0, d3, d4, d1, cc, N=order)
        ok1 = blk.coeffs == [1] + [0] * order and blk.leading_exponent == 0
        tor = blocks.torus1_block(Fraction(0), Fraction(7, 5), cc, N=order)
        ok2 = tor.coeffs == [virasoro.partition_count(k) for k in range(order + 1)]
        return ok1 and ok2, ""

    _timed(rep, "zero-weight insertions reduce the series", "vacuum-insertion", vacuum)
    return rep


def shift_changes(ts: tau.TauSeries) -> list:
    """Largest coefficient change of the tau series ``ts`` as its shift
    range grows from M = k - 1 to k, for k = 1 .. max(2, isqrt(N)): each
    bigraded slot belongs to one shift, so that is the largest |term| of
    shifts +-k, read without the phase, whose modulus is 1.  Shift k enters
    at t^(k^2), so beyond isqrt(N) nothing changes.  A convergent shift sum
    makes the changes strictly decrease."""
    terms = ts.unphased.terms.items()
    return [worst_residual(abs(v) for (m, _), v in terms if abs(m) == k)
            for k in range(1, max(2, math.isqrt(ts.unphased.jmax)) + 1)]


def shrink_ratio(changes: list):
    """Largest ratio of a change to the one before it (< 1 when the
    changes strictly decrease; infinite after a zero change, NaN after a
    NaN one)."""
    return worst_residual(b / a if a else mp.inf for a, b in zip(changes, changes[1:]))


# the tau suite's truncation order, shift range, tolerance and digits
TAU_ORDER, TAU_SHIFTS, TAU_TOL, TAU_DIGITS = 6, 3, 1e-10, 50


def tau_checks(seed: int, draws: int) -> Report:
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rep = Report("shift-summed series and its deformation equation")
    rng = random.Random(seed)
    # every residual slot and ratio, so that a NaN among them fails its row
    residuals, ratios = [], []
    resid_s = stab_s = 0.0
    for _ in range(draws):
        theta = tuple(Fraction(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(4))
        lam = Fraction(rng.randint(8, 17), 40)
        kappa = Fraction(rng.randint(1, 12), 10)
        start = time.perf_counter()
        ts = tau.tau_series(theta, lam, kappa, N=TAU_ORDER, M=TAU_SHIFTS,
                            digits=TAU_DIGITS)
        residuals += [abs(v) for v in tau.sigma_pvi_residual(ts).values()]
        mid = time.perf_counter()
        ratios.append(shrink_ratio(shift_changes(ts)))
        resid_s += mid - start
        stab_s += time.perf_counter() - mid
    worst_resid = worst_residual(residuals)
    worst_ratio = worst_residual(ratios)
    ok = bool(worst_resid < TAU_TOL)
    rep.add(CheckResult(f"deformation-equation residual over {draws} draws",
                        "tau-deformation", "pass" if ok else "fail",
                        f"worst residual {fmt_residual(worst_resid)}", resid_s))
    ok2 = bool(worst_ratio < 1)
    rep.add(CheckResult("shift contributions shrink",
                        "tau-truncation", "pass" if ok2 else "fail",
                        f"worst ratio of successive changes {fmt_residual(worst_ratio)}",
                        stab_s))

    def negative():
        # dropping the structure-constant weights breaks the equation
        # (rescaling kappa does not: it reparametrizes the solution family)
        theta = (Fraction(1, 3), Fraction(2, 7), Fraction(3, 11), Fraction(5, 13))
        ts = tau.tau_series(theta, Fraction(2, 5), Fraction(13, 10), N=TAU_ORDER,
                            M=TAU_SHIFTS, digits=30, normalization="plain")
        res = tau.sigma_pvi_residual(ts)
        r = worst_residual(abs(v) for v in res.values())
        return bool(r > TAU_TOL), f"residual {fmt_residual(r)}"

    _timed(rep, "unweighted sum leaves a residual", "tau-deformation", negative)
    return rep


def all_checks(seed: int) -> list:
    return [
        classical_checks(),
        mutation_checks(),
        quantum_checks(),
        pants_checks("c04", seed=seed, draws=5),
        pants_checks("c11", seed=seed, draws=5),
        virasoro_checks(),
        bpz_checks(),
        tau_checks(seed=seed, draws=2),
    ]
