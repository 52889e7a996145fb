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
        for k, c in xp.c.items():
            exps = [0] * E
            exps[e] = 2 * k
            out = out + LaurentPoly.monomial(E, exps, c.at_one())
        return out

    mono = LaurentPoly.monomial(E, img.mono)
    return LaurentRational(mono * xpoly_to_laurent(img.rat.num),
                           xpoly_to_laurent(img.rat.den))


class TestFlippedRelations:
    @pytest.mark.parametrize("name", ["c11", "c04", "c05"])
    def test_all_pairs_all_edges(self, name):
        n = _n(name)
        for e in range(len(n)):
            report = verify_q_mutation_relations(n, e)
            assert all(report.values()), [k for k, v in report.items() if not v]

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
