from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from holomon import checks, holonomy
from holomon.holonomy import (
    holonomy_matrix,
    mutate_coordinate,
    poisson_bracket,
    relation_poly,
    relation_poly_du,
    substitute_flip,
    trace_function,
    verify_mutation_covariance,
)
from holomon.laurent import LaurentPoly, LaurentRational
from holomon.reference import (
    LOOP_BRACKET_CONSTANT,
    boundary_names,
    covariance_corpus,
    covariant_walk,
    reference_setup,
)
from holomon.surfaces import (
    CurvePath,
    exchange_matrix,
    flip,
    flip_walk,
    reference_triangulation,
)


def sympy_trace_oracle(tri, curve):
    """Independent symbolic oracle: rebuild the walk holonomy with sympy."""
    curve.resolve(tri)
    xs = sympy.symbols(f"x0:{tri.n_edges}", positive=True)
    L = sympy.Matrix([[1, 1], [-1, 0]])
    R = sympy.Matrix([[0, 1], [-1, -1]])
    acc = sympy.eye(2)
    for e, turn in curve.steps:
        E = sympy.Matrix([[0, sympy.sqrt(xs[e])], [-1 / sympy.sqrt(xs[e]), 0]])
        acc = acc * E * (L if turn == "L" else R)
    return sympy.expand(acc.trace()), xs


def to_sympy(p, xs):
    expr = 0
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, exps):
            term *= x ** sympy.Rational(e, 2)
        expr += term
    return sympy.expand(expr)


def _mat_mul(A, B):
    # 2x2 product; B may be an integer matrix
    return tuple(tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2))
                 for i in range(2))


def product_holonomy(tri, curve):
    """Reference holonomy: each edge matrix [[0, X^(1/2)], [-X^(-1/2), 0]]
    times its turn matrix, multiplied out as 2x2 products of Laurent
    polynomials, zero entries included."""
    E = tri.n_edges
    turns = {"L": ((1, 1), (-1, 0)), "R": ((0, 1), (-1, -1))}
    zero = LaurentPoly.zero(E)
    acc = ((LaurentPoly.const(E, 1), zero), (zero, LaurentPoly.const(E, 1)))
    curve.resolve(tri)
    for e, turn in curve.steps:
        half = [0] * E
        half[e] = 1
        edge = ((zero, LaurentPoly.monomial(E, half)),
                (LaurentPoly.monomial(E, [-x for x in half], -1), zero))
        acc = _mat_mul(acc, _mat_mul(edge, turns[turn]))
    return acc


def _curated_and_covariant_walks(name):
    """(triangulation, walk) for every curated curve of ``name`` and every
    stored covariant walk in a flipped triangulation."""
    tri, curves = reference_setup(name)
    walks = [(tri, cp) for cp in curves.values()]
    for e, cname in covariance_corpus(name):
        walks.append((flip(tri, e), covariant_walk(name, e, cname)))
    return walks


class TestTraceFunction:
    def test_c11_simple_curve_against_sympy_oracle(self):
        tri, curves = reference_setup("c11")
        for name in ("s", "t", "u"):
            tr = trace_function(tri, curves[name])
            oracle, xs = sympy_trace_oracle(tri, curves[name])
            assert sympy.simplify(to_sympy(tr, xs) - oracle) == 0 or \
                sympy.simplify(to_sympy(tr, xs) + oracle) == 0

    def test_c11_three_monomials_all_one(self):
        tri, curves = reference_setup("c11")
        tr = trace_function(tri, curves["u"])  # crosses edges b,c once each
        assert len(tr.terms) == 3
        assert all(c == 1 for c in tr.terms.values())

    def test_cyclic_rotation_invariance(self):
        tri, curves = reference_setup("c04")
        cp = curves["s"]
        base = trace_function(tri, cp)
        corners = cp.resolve(tri)
        for k in range(1, len(cp.steps)):
            # the same closed walk entered at its k-th step, from the
            # triangle that step k - 1 leads into
            rot = CurvePath(cp.steps[k:] + cp.steps[:k], start=corners[k - 1][0])
            assert trace_function(tri, rot) == base

    def test_positive_coefficients_on_corpus(self):
        for name in ("c11", "c04"):
            tri, curves = reference_setup(name)
            for cp in curves.values():
                assert trace_function(tri, cp).all_coefficients_positive()

    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_int_coefficients_on_corpus(self, name):
        # holonomies multiply integer matrices, so no Fraction appears
        tri, curves = reference_setup(name)
        for k, cp in curves.items():
            coeffs = trace_function(tri, cp).terms.values()
            assert all(type(c) is int for c in coeffs), k

    def test_broken_walk_rejected(self):
        tri, _ = reference_setup("c11")
        with pytest.raises(ValueError):
            trace_function(tri, CurvePath([(0, "L"), (0, "L")], start=0))

    def test_peripheral_is_two_monomials(self):
        tri, curves = reference_setup("c11")
        tr = trace_function(tri, curves["p1"])
        assert len(tr.terms) == 2


class TestPoissonBracket:
    def test_generators(self):
        tri = reference_triangulation("c11")
        n = exchange_matrix(tri)
        E = tri.n_edges
        for a in range(E):
            for b in range(E):
                xa, xb = LaurentPoly.variable(E, a), LaurentPoly.variable(E, b)
                assert poisson_bracket(xa, xb, n) == xa * xb * n[a][b]

    def test_self_bracket_zero(self):
        tri, curves = reference_setup("c11")
        n = exchange_matrix(tri)
        p = trace_function(tri, curves["s"])
        assert poisson_bracket(p, p, n).is_zero()

    def test_inverse_pair(self):
        tri = reference_triangulation("c11")
        n = exchange_matrix(tri)
        x = LaurentPoly.variable(3, 0)
        assert poisson_bracket(x, LaurentPoly.monomial(3, (-2, 0, 0)), n).is_zero()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry_leibniz_jacobi(self, data):
        n = exchange_matrix(reference_triangulation("c11"))

        def rand_poly():
            terms = {}
            for _ in range(data.draw(st.integers(1, 3))):
                e = tuple(data.draw(st.integers(-2, 2)) for _ in range(3))
                terms[e] = Fraction(data.draw(st.integers(-3, 3)))
            return LaurentPoly(3, terms)

        p, q, r = rand_poly(), rand_poly(), rand_poly()
        br = lambda a, b: poisson_bracket(a, b, n)
        assert br(p, q) == -br(q, p)
        assert br(p, q * r) == br(p, q) * r + q * br(p, r)
        jac = br(p, br(q, r)) + br(q, br(r, p)) + br(r, br(p, q))
        assert jac.is_zero()


class TestMutateCoordinate:
    def test_target_is_flipped_edge(self):
        n = exchange_matrix(reference_triangulation("c11"))
        img = mutate_coordinate(n, 0, 0)
        assert img == LaurentRational(LaurentPoly.variable(3, 0)).inverse()

    def test_zero_coupling_unchanged(self):
        n = exchange_matrix(reference_triangulation("c04"))
        assert n[0][5] == 0
        img = mutate_coordinate(n, 5, 0)
        assert img == LaurentRational(LaurentPoly.variable(6, 0))

    def test_positive_coupling_branch(self):
        # coupling +2 gives X (1 + X_e^{-1})^{-2}
        n = exchange_matrix(reference_triangulation("c11"))
        assert n[1][0] == -2 and n[0][1] == 2
        img = mutate_coordinate(n, 1, 0)  # n[0][1] = 2
        E = 3
        x0, x1 = LaurentPoly.variable(E, 0), LaurentPoly.variable(E, 1)
        one = LaurentPoly.const(E, 1)
        want = LaurentRational(x0, (one + LaurentPoly.monomial(E, (0, -2, 0))) ** 2)
        assert img == want

    def test_negative_coupling_branch(self):
        n = exchange_matrix(reference_triangulation("c11"))
        img = mutate_coordinate(n, 0, 1)  # n[1][0] = -2
        E = 3
        x0, x1 = LaurentPoly.variable(E, 0), LaurentPoly.variable(E, 1)
        one = LaurentPoly.const(E, 1)
        assert img == LaurentRational(x1 * (one + x0) ** 2)

    def test_double_flip_composes_to_identity(self):
        # classical mutation followed by the reverse mutation is trivial
        for name in ("c11", "c04"):
            tri = reference_triangulation(name)
            E = tri.n_edges
            n = exchange_matrix(tri)
            for e in range(E):
                n2 = exchange_matrix(flip(tri, e))
                for target in range(E):
                    outer = mutate_coordinate(n2, e, target)
                    # substitute the first-flip images into the second
                    composed = _compose(outer, n, e)
                    want = LaurentRational(LaurentPoly.variable(E, target))
                    assert composed == want


def _compose(outer: LaurentRational, n, e: int) -> LaurentRational:
    """Evaluate a rational function of the once-flipped coordinates on the
    mutation images (integer exponents only)."""
    E = outer.num.nvars

    def eval_poly(p: LaurentPoly) -> LaurentRational:
        total = LaurentRational.from_const(E, 0)
        for exps, c in p.terms.items():
            term = LaurentRational.from_const(E, c)
            for i, d in enumerate(exps):
                if d == 0:
                    continue
                assert d % 2 == 0, "mutation images have integer exponents"
                term = term * mutate_coordinate(n, e, i) ** (d // 2)
            total = total + term
        return total

    return eval_poly(outer.num) / eval_poly(outer.den)


class TestMutationCovariance:
    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_corpus(self, name):
        tri, curves = reference_setup(name)
        for e, cname in covariance_corpus(name):
            assert verify_mutation_covariance(
                tri, e, curves[cname], covariant_walk(name, e, cname)
            ), (name, e, cname)

    def test_wrong_walk_fails(self):
        tri, curves = reference_setup("c11")
        wrong = covariant_walk("c11", 0, "t")
        assert not verify_mutation_covariance(tri, 0, curves["s"], wrong)

    def test_substitution_parity_guard(self):
        # a single half-power of the flipped edge's neighbor is not a curve
        # trace and must be rejected
        from holomon.holonomy import SubstitutionError

        n = exchange_matrix(reference_triangulation("c04"))
        p = LaurentPoly.monomial(6, (0, 1, 0, 0, 0, 0))
        with pytest.raises(SubstitutionError):
            substitute_flip(p, n, 0)

    @pytest.mark.parametrize("name,pairs", [("c11", 12), ("c04", 42)])
    def test_corpus_is_every_edge_with_the_generators_and_boundary(self, name, pairs):
        # the exact-algebra benchmark builds one covariance op per pair
        tri, _ = reference_setup(name)
        want = sorted((e, c) for e in range(tri.n_edges)
                      for c in ("s", "t", "u", *boundary_names(name)))
        assert covariance_corpus(name) == want
        assert len(want) == pairs
        with pytest.raises(KeyError):
            covariant_walk(name, 0, "st_other")


def _every_flip():
    """(triangulation, edge, curve name, walk) for every curated curve of
    c11 and c04, st_other included, and every edge."""
    return [(tri, e, cname, cp)
            for tri, curves in map(reference_setup, ("c11", "c04"))
            for e in range(tri.n_edges) for cname, cp in curves.items()]


class TestFlipWalk:
    def test_walk_resolves_and_is_covariant(self):
        cases = _every_flip()
        assert len(cases) == 3 * 5 + 6 * 8
        for tri, e, cname, cp in cases:
            walk = flip_walk(tri, e, cp)
            walk.resolve(flip(tri, e))
            assert verify_mutation_covariance(tri, e, cp, walk), (e, cname)

    def test_flipping_back_restores_the_trace(self):
        for tri, e, cname, cp in _every_flip():
            once = flip(tri, e)
            back = flip_walk(once, e, flip_walk(tri, e, cp))
            assert trace_function(flip(once, e), back) == trace_function(tri, cp), (e, cname)

    def test_mirrored_turns_do_not_close(self):
        # L and R exchanged: every derived walk breaks, so the turn rule is pinned
        for tri, e, cname, cp in _every_flip():
            walk = flip_walk(tri, e, cp)
            mirrored = CurvePath([(f, {"L": "R", "R": "L"}[t]) for f, t in walk.steps],
                                 start=walk.start)
            with pytest.raises(ValueError):
                mirrored.resolve(flip(tri, e))


class TestSkein:
    def test_c11_once_intersecting(self):
        tri, curves = reference_setup("c11")
        lhs = trace_function(tri, curves["s"]) * trace_function(tri, curves["t"])
        rhs = trace_function(tri, curves["u"]) + trace_function(tri, curves["st_other"])
        assert lhs == rhs

    def test_c04_twice_intersecting(self):
        # both resolutions plus the central terms L1 L3 + L2 L4
        tri, curves = reference_setup("c04")
        lhs = trace_function(tri, curves["s"]) * trace_function(tri, curves["t"])
        rhs = (trace_function(tri, curves["u"])
               + trace_function(tri, curves["st_other"])
               + trace_function(tri, curves["p1"]) * trace_function(tri, curves["p3"])
               + trace_function(tri, curves["p2"]) * trace_function(tri, curves["p4"]))
        assert lhs == rhs

    def test_disjoint_product(self):
        # peripheral curves are disjoint from everything: the product rule
        # holds with the single union resolution, checked as trace algebra
        tri, curves = reference_setup("c04")
        p1 = trace_function(tri, curves["p1"])
        s = trace_function(tri, curves["s"])
        assert p1 * s == s * p1

class TestRelations:
    def test_scalar_probe_c11(self):
        val = relation_poly("c11", {"s": 2, "t": 2, "u": 2, "L0": 2})
        assert val == 4

    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_relation_vanishes_on_traces(self, name):
        tri, curves = reference_setup(name)
        vals = _trace_values(name, tri, curves)
        assert relation_poly(name, vals).is_zero()

    def test_missing_symbol(self):
        with pytest.raises(KeyError):
            relation_poly("c11", {"s": 2, "t": 2, "u": 2})


def _trace_values(name, tri, curves):
    vals = {k: trace_function(tri, curves[k]) for k in ("s", "t", "u")}
    if name == "c11":
        vals["L0"] = trace_function(tri, curves["p1"])
    else:
        for i, pname in enumerate(boundary_names(name), start=1):
            vals[f"L{i}"] = trace_function(tri, curves[pname])
    return vals


class TestBracketVsRelationDerivative:
    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_identity_with_recorded_constant(self, name):
        tri, curves = reference_setup(name)
        n = exchange_matrix(tri)
        vals = _trace_values(name, tri, curves)
        lhs = poisson_bracket(vals["s"], vals["t"], n) * LOOP_BRACKET_CONSTANT[name]
        assert lhs == relation_poly_du(name, vals)

    def test_self_bracket_consistency(self):
        tri, curves = reference_setup("c11")
        n = exchange_matrix(tri)
        s = trace_function(tri, curves["s"])
        assert poisson_bracket(s, s, n).is_zero()


class TestHolonomyMatrix:
    def test_determinant_is_one(self):
        # edge and turn matrices are unimodular, so every walk holonomy has
        # determinant 1
        for name in ("c11", "c04"):
            tri, curves = reference_setup(name)
            for cp in curves.values():
                H = holonomy_matrix(tri, cp)
                det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
                assert det == LaurentPoly.const(tri.n_edges, 1)

    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_step_table_matches_matrix_product(self, name):
        walks = _curated_and_covariant_walks(name)
        assert len(walks) > 10
        for tri, cp in walks:
            assert holonomy_matrix(tri, cp) == product_holonomy(tri, cp), cp.steps

    def test_classical_suite_traces_each_curve_once(self, monkeypatch):
        seen = []
        real = holonomy.trace_function

        def counted(tri, curve):
            seen.append(curve.steps)
            return real(tri, curve)

        monkeypatch.setattr(holonomy, "trace_function", counted)
        rep = checks.classical_checks()
        assert {c.status for c in rep.checks} == {"pass"}
        want = [cp.steps for name in ("c11", "c04")
                for cp in reference_setup(name)[1].values()]
        assert seen == want
