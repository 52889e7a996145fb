from fractions import Fraction

import pytest

from holomon.holonomy import mutate_coordinate
from holomon.laurent import LaurentPoly, LaurentRational, Quotient
from holomon import qmutation
from holomon.qcoeff import SPoly
from holomon.qmutation import (
    QMutationImage,
    double_mutation_is_identity,
    quantum_mutation,
    verify_q_mutation_relations,
)
from holomon.surfaces import exchange_matrix, mutate_exchange_matrix, reference_triangulation


X_ONE = SPoly.const(SPoly.const(1))


def _n(name):
    return exchange_matrix(reference_triangulation(name))


class TestImages:
    def test_target_is_flipped_edge(self):
        n = _n("c11")
        img = quantum_mutation(n, 0, 0)
        assert img.mono == (-2, 0, 0)
        assert img.rat.num == img.rat.den

    def test_zero_coupling_identity_image(self):
        n = _n("c04")
        assert n[0][5] == 0
        img = quantum_mutation(n, 5, 0)
        assert img.is_generator(0)

    def test_ordered_product_factors(self):
        # coupling -2: X_target (1 + q X)(1 + q^3 X)
        n = _n("c11")
        assert n[1][0] == -2
        img = quantum_mutation(n, 0, 1)
        want = SPoly({0: SPoly.const(1)})
        for a in (1, 2):
            want = want * SPoly({0: SPoly.const(1), 1: SPoly.s_power(4 * (2 * a - 1))})
        assert img.rat == Quotient(want, X_ONE)

    def test_classical_limit_matches_classical_mutation(self):
        for name in ("c11", "c04", "c05"):
            n = _n(name)
            E = len(n)
            for e in range(E):
                for target in range(E):
                    img = quantum_mutation(n, e, target)
                    classical = mutate_coordinate(n, e, target)
                    assert _classical_of_image(img, e) == classical


def _classical_of_image(img: QMutationImage, e: int) -> LaurentRational:
    E = len(img.context)

    def xpoly_to_laurent(xp: SPoly) -> LaurentPoly:
        out = LaurentPoly.zero(E)
        for k, c in xp.terms.items():
            exps = [0] * E
            exps[e] = 2 * k
            out = out + LaurentPoly.monomial(E, exps, c.at_one())
        return out

    mono = LaurentPoly.monomial(E, img.mono)
    return LaurentRational(mono * xpoly_to_laurent(img.rat.num),
                           xpoly_to_laurent(img.rat.den))


def _scale_arg_reference(r: Quotient, s_exp: int) -> tuple:
    """X -> s^(s_exp) X with the coefficient of X^k multiplied by the
    SPoly s^(s_exp k): the (num, den) term maps."""
    def scale(p):
        return SPoly({k: v * SPoly.s_power(s_exp * k) for k, v in p.terms.items()}).terms
    return scale(r.num), scale(r.den)


class TestScaleArg:
    """The argument rescaling shifts s-powers as the SPoly product did."""

    # negative powers of X_e, a central X^0 term and Fraction scalars
    R = Quotient(SPoly({-2: SPoly({1: 3, -1: Fraction(1, 2)}), 0: SPoly({0: 2, 3: -1}),
                        1: SPoly({4: 1})}),
                 SPoly({0: SPoly({0: 1}), -1: SPoly({-4: 2}), 3: SPoly({2: -1, 0: 1})}))

    @pytest.mark.parametrize("s_exp", [-8, -4, -1, 0, 4, 12])
    def test_matches_s_power_product(self, s_exp):
        got = qmutation._scale_arg(self.R, s_exp)
        assert (got.num.terms, got.den.terms) == _scale_arg_reference(self.R, s_exp)
        # the X^0 coefficient is central: it is left as it is
        assert got.num.terms[0] == self.R.num.terms[0]

    @pytest.mark.parametrize("name", ["c11", "c04", "c05"])
    def test_matches_on_every_image(self, name):
        n = _n(name)
        for e in range(len(n)):
            for t in range(len(n)):
                rat = quantum_mutation(n, e, t).rat
                for s_exp in (-8, 4):
                    got = qmutation._scale_arg(rat, s_exp)
                    assert (got.num.terms, got.den.terms) == _scale_arg_reference(rat, s_exp)


class TestFlippedRelations:
    @pytest.mark.parametrize("name", ["c11", "c04", "c05"])
    def test_all_pairs_all_edges(self, name):
        n = _n(name)
        for e in range(len(n)):
            report = verify_q_mutation_relations(n, e)
            assert all(report.values()), [k for k, v in report.items() if not v]

    @pytest.mark.parametrize("name", ["c11", "c04", "c05"])
    def test_report_matches_pairwise_products(self, name):
        # every pair multiplied afresh, in the report's key order
        n = _n(name)
        for e in range(len(n)):
            n2 = mutate_exchange_matrix(n, e)
            images = [quantum_mutation(n, e, t) for t in range(len(n))]
            want = {}
            for a in range(len(n)):
                for b in range(len(n)):
                    rhs = (images[b] * images[a]).scaled(SPoly.s_power(8 * n2[a][b]))
                    want[(a, b)] = images[a] * images[b] == rhs
            assert list(verify_q_mutation_relations(n, e).items()) == list(want.items())

    def test_diagonal_pairs_trivial(self):
        n = _n("c11")
        report = verify_q_mutation_relations(n, 0)
        for a in range(3):
            assert report[(a, a)]

    def test_detects_wrong_matrix(self):
        # feeding the unflipped matrix in place of the mutated one must fail
        n = _n("c11")
        n2 = mutate_exchange_matrix(n, 0)
        images = [quantum_mutation(n, 0, t) for t in range(3)]
        a, b = 1, 2
        lhs = images[a] * images[b]
        wrong = (images[b] * images[a]).scaled(SPoly.s_power(8 * n[a][b]))
        right = (images[b] * images[a]).scaled(SPoly.s_power(8 * n2[a][b]))
        assert lhs == right and lhs != wrong


class TestDoubleMutation:
    @pytest.mark.parametrize("name", ["c11", "c04", "c05"])
    def test_identity(self, name):
        n = _n(name)
        for e in range(len(n)):
            assert double_mutation_is_identity(n, e)

    @pytest.mark.parametrize("wrong", [
        lambda img: img.scaled(SPoly.const(2)),
        lambda img: QMutationImage(img.context, img.e,
                                   tuple(-x for x in img.mono), img.rat),
    ], ids=["coefficient", "monomial"])
    @pytest.mark.parametrize("target", [0, 1], ids=["flipped-edge", "other-generator"])
    def test_detects_wrong_second_image(self, monkeypatch, wrong, target):
        # the second mutation's image is composed with the first, not assumed
        n = _n("c11")
        e = 0
        n2 = tuple(tuple(row) for row in mutate_exchange_matrix(n, e))
        assert n2 != tuple(tuple(row) for row in n)
        real = qmutation.quantum_mutation

        def patched(m, edge, t):
            img = real(m, edge, t)
            return wrong(img) if t == target and img.context == n2 else img

        monkeypatch.setattr(qmutation, "quantum_mutation", patched)
        assert double_mutation_is_identity(n, e) is False
