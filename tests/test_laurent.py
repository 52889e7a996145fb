from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomon.laurent import LaurentPoly, LaurentRational, Quotient
from holomon.qcoeff import SPoly
from holomon.qtorus import QuantumTorusElement


def poly(nvars, terms):
    return LaurentPoly(nvars, terms)


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        p = poly(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms
        assert len(p.terms) == 1

    def test_add_cancellation(self):
        p = poly(1, {(2,): 1})
        q = poly(1, {(2,): -1, (0,): 3})
        assert (p + q) == poly(1, {(0,): 3})

    def test_mul_half_exponents(self):
        # x^(1/2) * x^(1/2) = x
        h = LaurentPoly.monomial(1, (1,))
        assert h * h == LaurentPoly.variable(1, 0)

    def test_monomial_inverse(self):
        # the ring has no inverses; a monomial inverts as a Quotient
        m = poly(2, {(1, -2): Fraction(3, 2)})
        one = Quotient(LaurentPoly.const(2, 1), LaurentPoly.const(2, 1))
        inv = Quotient(m, LaurentPoly.const(2, 1)).inverse()
        assert inv.num == LaurentPoly.const(2, 1) and inv.den == m
        assert Quotient(m, LaurentPoly.const(2, 1)) * inv == one
        assert not hasattr(m, "monomial_inverse")

    def test_pow_negative_monomial(self):
        # a negative power is rejected on the ring and taken on a Quotient
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(ValueError):
            x ** -2
        q = Quotient(x, LaurentPoly.const(1, 1)) ** -2
        assert q == Quotient(LaurentPoly.const(1, 1), poly(1, {(4,): 1}))

    def test_normalize_sign(self):
        p = poly(1, {(2,): -1, (0,): -1})
        assert p.normalize_sign().all_coefficients_positive()

    def test_float_scalar_rejected(self):
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            x + 0.5

    def test_sorted_terms_deterministic(self):
        p = poly(2, {(1, 0): 1, (0, 1): 2, (-1, 0): 3})
        assert [e for e, _ in p.sorted_terms()] == [(-1, 0), (0, 1), (1, 0)]


@st.composite
def small_polys(draw, nvars=2, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exps = tuple(draw(st.integers(-3, 3)) for _ in range(nvars))
        terms[exps] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return LaurentPoly(nvars, terms)


class TestRingAxioms:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_distributive_and_associative(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, p, q):
        assert p * q == q * p

    @given(small_polys())
    @settings(max_examples=60, deadline=None)
    def test_truth_is_nonzero(self, p):
        assert bool(p) is not p.is_zero()


def _zero_free(p) -> bool:
    """Every stored coefficient is truthy, and so is every one stored
    inside a coefficient that is itself a sparse polynomial."""
    return all(c and (not isinstance(c, LaurentPoly) or _zero_free(c))
               for c in p.terms.values())


_N = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))

# a few elements of each sparse type, some sharing keys so that sums cancel
SAMPLES = {
    "LaurentPoly": [poly(2, {(1, 0): 2, (0, -1): Fraction(1, 3)}),
                    poly(2, {(1, 0): -2, (2, 1): 1}),
                    poly(2, {(0, 0): Fraction(-1, 2), (0, -1): 3})],
    "SPoly": [SPoly({1: 2, -1: Fraction(1, 3)}), SPoly({1: -2, 0: 1}), SPoly({-1: 1, 2: -1})],
    "QuantumTorusElement": [
        QuantumTorusElement(_N, {(2, 0, 0): SPoly({1: 1}), (0, 2, 0): SPoly({0: 2, 4: -1})}),
        QuantumTorusElement(_N, {(2, 0, 0): SPoly({1: -1}), (0, 0, 2): SPoly({-4: 1})}),
        QuantumTorusElement(_N, {(0, 2, 0): SPoly({0: -2}), (2, 2, 0): SPoly({8: 1})})],
    "SPoly over SPoly": [SPoly({0: SPoly({0: 1}), 1: SPoly({4: 2, -4: 1})}),
                         SPoly({0: SPoly({0: -1}), -1: SPoly({4: 1})}),
                         SPoly({1: SPoly({4: -2}), 2: SPoly({0: Fraction(1, 2)})})],
}


class TestZeroFree:
    """Results that are built once, unfiltered, still hold no zero."""

    @pytest.mark.parametrize("kind", SAMPLES)
    def test_zero_products_and_differences_are_empty(self, kind):
        for p in SAMPLES[kind]:
            for zero in (p * 0, 0 * p, p * Fraction(0), p - p):
                assert zero.terms == {}

    @pytest.mark.parametrize("kind", SAMPLES)
    def test_results_hold_only_truthy_coefficients(self, kind):
        for p in SAMPLES[kind]:
            for q in SAMPLES[kind]:
                for result in (p + q, p - q, p * q, -p, p * 3):
                    assert _zero_free(result), (p, q, result)


class TestLaurentRational:
    def test_cross_multiplication_equality(self):
        x = LaurentPoly.variable(1, 0)
        one = LaurentPoly.const(1, 1)
        # x/(1+x) == x^2/(x+x^2)
        a = LaurentRational(x, one + x)
        b = LaurentRational(x * x, x + x * x)
        assert a == b

    def test_arithmetic(self):
        x = LaurentPoly.variable(1, 0)
        one = LaurentPoly.const(1, 1)
        a = LaurentRational(one, one + x)
        b = LaurentRational(x, one + x)
        assert a + b == LaurentRational(one)
        assert (a * b).num == x

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LaurentRational(LaurentPoly.const(1, 1), LaurentPoly.zero(1))

    def test_inverse(self):
        x = LaurentPoly.variable(1, 0)
        one = LaurentPoly.const(1, 1)
        r = LaurentRational(one + x, x)
        assert r * r.inverse() == LaurentRational(one)


class TestQuotient:
    def test_zero_laurent_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Quotient(LaurentPoly.const(1, 1), LaurentPoly.zero(1))

    def test_zero_x_polynomial_denominator_rejected(self):
        # a polynomial in X_e over SPolys in s, as quantum mutation builds
        one = SPoly.const(SPoly.const(1))
        with pytest.raises(ZeroDivisionError):
            Quotient(one, SPoly({}))
        with pytest.raises(ZeroDivisionError):
            Quotient(SPoly({}), one).inverse()

    def test_results_keep_the_subclass(self):
        x = LaurentPoly.variable(1, 0)
        r = LaurentRational(x, x + 1)
        assert all(type(v) is LaurentRational
                   for v in (r + r, r * r, r.inverse(), r / r, r ** 2, r ** -1))
