import random
from fractions import Fraction

import pytest

from holomon.holonomy import relation_poly, trace_function
from holomon.laurent import LaurentPoly
from holomon.qcoeff import SPoly
from holomon.qtorus import QuantumTorusElement, q_relation, quantize_trace
from holomon.reference import boundary_names, reference_setup
from holomon.surfaces import exchange_matrix


class TestQCoeff:
    """Quantum coefficients: SPoly, Laurent polynomials in s."""

    def test_conj_involution(self):
        a = SPoly({3: 2, -1: 1, 0: Fraction(1, 5)})
        assert a.conj().conj() == a

    def test_at_one(self):
        q, qinv = SPoly.s_power(4), SPoly.s_power(-4)
        assert (q + -qinv).at_one() == 0
        # int coefficients stay ints, so trace polynomials stay over Z
        two = (q + qinv).at_one()
        assert two == 2 and type(two) is int
        assert SPoly({1: Fraction(1, 2), 0: Fraction(1, 2)}).at_one() == 1

    def test_arithmetic_field_axioms(self):
        # the ring axioms that remain once the field's inverse is gone
        rng = random.Random(0)

        def rand():
            return SPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})

        for _ in range(20):
            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c


class TestOneArithmetic:
    """SPoly is a LaurentPoly in one variable with int keys; the ring
    operations are LaurentPoly's alone."""

    def test_no_ring_methods_of_its_own(self):
        assert issubclass(SPoly, LaurentPoly)
        own = {"__add__", "__radd__", "__neg__", "__sub__", "__mul__", "__rmul__",
               "__eq__", "__bool__"} & set(vars(SPoly))
        assert not own

    def test_keys_stay_ints(self):
        assert SPoly.s_power(3).terms == {3: 1}
        prod = SPoly({3: 2, -1: 1}) * SPoly({-3: 1})
        assert prod.terms == {0: 2, -4: 1}
        assert all(type(k) is int for k in prod.terms)

    def test_torus_element_takes_it_as_scalar(self):
        _, _, n = _context("c11")
        q = generator(n, 0) + generator(n, 1) * SPoly.s_power(2)
        c = SPoly({2: 1, -1: Fraction(3, 2)})
        assert c * q == q * c
        assert c + q == q + c
        assert not c == q and not q == c
        const = QuantumTorusElement.const(n, c)
        assert c == const and const == c

    def test_other_ring_raises(self):
        p, c = LaurentPoly.const(1, 1), SPoly.const(1)
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(p, c)
            with pytest.raises(ValueError):
                op(c, p)

    def test_polynomial_in_x_over_spolys(self):
        # (1 + q X)(1 + q^-1 X^-1) = 2 + q X + q^-1 X^-1, as quantum
        # mutation multiplies its factors in X_e
        one = SPoly.const(1)
        a = SPoly({0: one, 1: SPoly.s_power(4)})
        b = SPoly({0: one, -1: SPoly.s_power(-4)})
        prod = a * b
        assert prod == SPoly({0: SPoly.const(2), 1: SPoly.s_power(4),
                              -1: SPoly.s_power(-4)})
        assert all(type(v) is SPoly for v in prod.terms.values())
        assert (a * SPoly.const(SPoly.s_power(1))).terms == {
            0: SPoly.s_power(1), 1: SPoly.s_power(5)}


def generator(n, i):
    """X_i as a Weyl monomial (doubled exponent 2)."""
    return QuantumTorusElement(n, {tuple(2 if j == i else 0 for j in range(len(n))): SPoly.const(1)})


def _context(name):
    tri, curves = reference_setup(name)
    return tri, curves, exchange_matrix(tri)


class TestWeylProduct:
    def test_commutation_ratio(self):
        # X_a X_b = q^(2 n_ab) X_b X_a, with q = s^4
        _, _, n = _context("c11")
        for a in range(3):
            for b in range(3):
                Xa, Xb = generator(n, a), generator(n, b)
                assert Xa * Xb == Xb * Xa * SPoly.s_power(8 * n[a][b])

    def test_classical_limit_of_product(self):
        tri, curves, n = _context("c11")
        ps = trace_function(tri, curves["s"])
        pt = trace_function(tri, curves["t"])
        qs, qt = quantize_trace(ps, n), quantize_trace(pt, n)
        assert (qs * qt).classical_limit() == ps * pt

    def test_associativity_random(self):
        # brute-force both evaluation orders on random sparse triples
        rng = random.Random(7)
        _, _, n = _context("c04")

        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                d = tuple(rng.randint(-2, 2) for _ in range(6))
                terms[d] = SPoly({rng.randint(-4, 4): rng.randint(1, 3)})
            return QuantumTorusElement(n, terms)

        for _ in range(15):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)

    def test_context_mismatch_rejected(self):
        _, _, n1 = _context("c11")
        _, _, n2 = _context("c04")
        with pytest.raises(ValueError):
            QuantumTorusElement.const(n1, 1) * QuantumTorusElement.const(n2, 1)

    def test_classical_operand_rejected(self):
        tri, curves, n = _context("c11")
        p = trace_function(tri, curves["s"])
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(quantize_trace(p, n), p)
            with pytest.raises(ValueError):
                op(p, quantize_trace(p, n))

    def test_float_scalar_rejected(self):
        _, _, n = _context("c11")
        with pytest.raises(TypeError):
            generator(n, 0) * 0.5


def _quantized_operands(name):
    tri, curves, n = _context(name)
    ops = {k: quantize_trace(trace_function(tri, curves[k]), n)
           for k in ("s", "t", "u")}
    if name == "c11":
        ops["L0"] = quantize_trace(trace_function(tri, curves["p1"]), n)
    else:
        for i, p in enumerate(boundary_names(name), 1):
            ops[f"L{i}"] = quantize_trace(trace_function(tri, curves[p]), n)
    return tri, curves, n, ops


class TestQuantizeTrace:
    def test_single_monomial_fixed(self):
        _, _, n = _context("c11")
        p = LaurentPoly.monomial(3, (1, -1, 0), Fraction(3))
        q = quantize_trace(p, n)
        assert list(q.terms) == [(1, -1, 0)]
        assert q.classical_limit() == p

    def test_const_equals_quantized_constant(self):
        _, _, n = _context("c11")
        a = QuantumTorusElement.const(n, 2)
        b = quantize_trace(LaurentPoly.const(3, 2), n)
        # const wraps its scalar in an SPoly, as quantization does
        assert a == b and [type(c) for c in a.terms.values()] == [SPoly]

    def test_classical_limit_is_identity(self):
        tri, curves, n = _context("c04")
        p = trace_function(tri, curves["s"])
        assert quantize_trace(p, n).classical_limit() == p

    def test_c11_commutator_identity(self):
        # q^(1/2) Ls Lt - q^(-1/2) Lt Ls = (q - 1/q) Lu
        _, _, n, ops = _quantized_operands("c11")
        lhs = ops["s"] * ops["t"] * SPoly.s_power(2) - ops["t"] * ops["s"] * SPoly.s_power(-2)
        rhs = ops["u"] * SPoly({4: 1, -4: -1})
        assert lhs == rhs


class TestQRelations:
    @pytest.mark.parametrize("name", ["c11", "c04"])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_vanish(self, name, degree):
        _, _, _, ops = _quantized_operands(name)
        assert q_relation(name, degree, ops).is_zero()

    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_bar_invariance(self, name):
        # conjugated coefficients on bar-transformed operands in the
        # opposite torus: the involuted identity also vanishes
        _, _, _, ops = _quantized_operands(name)
        bar_ops = {k: v.bar() for k, v in ops.items()}
        for degree in (2, 3):
            assert q_relation(name, degree, bar_ops, conj=True).is_zero()

    def test_classical_limit_of_cubic(self):
        # the s -> 1 limit of the cubic evaluation recovers the classical
        # relation polynomial evaluation
        tri, curves, n, ops = _quantized_operands("c04")
        vals = {k: trace_function(tri, curves[k]) for k in ("s", "t", "u")}
        for i, p in enumerate(boundary_names("c04"), 1):
            vals[f"L{i}"] = trace_function(tri, curves[p])
        lhs = q_relation("c04", 3, ops).classical_limit()
        assert lhs == relation_poly("c04", vals)
        # and on generic scalar operands the limit is the classical value
        scal = {k: QuantumTorusElement.const(n, v) for k, v in
                {"s": 3, "t": 4, "u": 5, "L1": 2, "L2": 2, "L3": 2, "L4": 2}.items()}
        num = q_relation("c04", 3, scal).classical_limit()
        want = relation_poly("c04", {"s": 3, "t": 4, "u": 5,
                                     "L1": 2, "L2": 2, "L3": 2, "L4": 2})
        assert num == 114 and want == 114

    def test_missing_operand(self):
        _, _, n = _context("c11")
        with pytest.raises(KeyError):
            q_relation("c11", 2, {"s": QuantumTorusElement.const(n, 1)})

    def test_boundary_operands_central(self):
        _, _, _, ops = _quantized_operands("c04")
        for k in ("L1", "L2", "L3", "L4"):
            for g in ("s", "t", "u"):
                assert ops[k] * ops[g] == ops[g] * ops[k]
