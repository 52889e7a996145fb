from fractions import Fraction as F

import mpmath as mp
import pytest

from holomon.virasoro import (
    GramSingularError,
    VermaModule,
    central_charge,
    degenerate_weight,
    invert_matrix,
    kac_determinant_level2,
    null_vector_level2,
    partition_count,
    partitions,
    solve_contraction,
)


class TestPartitions:
    def test_counts(self):
        # partition numbers p(0..9)
        want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert [partition_count(k) for k in range(10)] == want

    def test_sorted_decreasing(self):
        for lam in partitions(6):
            assert list(lam) == sorted(lam, reverse=True)


class TestVerma:
    def test_level1_gram(self):
        # single commutator [L_1, L_{-1}] = 2 L_0
        V = VermaModule(F(3, 7), F(1, 2))
        assert V.gram(1) == [[2 * F(3, 7)]]

    def test_level2_gram_closed_form(self):
        d, c = F(2, 3), F(7, 5)
        V = VermaModule(d, c)
        G = V.gram(2)
        # basis order: (2,), (1,1)
        flat = sorted(x for row in G for x in row)
        want = sorted([4 * d + c / 2, 6 * d, 6 * d, 8 * d * d + 4 * d])
        assert flat == want
        det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
        assert det == kac_determinant_level2(d, c)

    def test_gram_symmetric_block_diagonal(self):
        V = VermaModule(F(1, 3), F(5, 2))
        for k in range(1, 5):
            G = V.gram(k)
            n = len(G)
            assert n == partition_count(k)
            for i in range(n):
                for j in range(n):
                    assert G[i][j] == G[j][i]
        # cross-level pairings vanish
        assert V.pairing((2,), (1, 1, 1)) == 0

    @pytest.mark.parametrize("numeric", [False, True])
    def test_gram_equals_full_pairing_matrix(self, numeric):
        with mp.workdps(50):
            V = VermaModule(mp.mpf(3) / 7, mp.mpf(1)) if numeric \
                else VermaModule(F(3, 7), F(1))
            for k in range(7):
                basis = partitions(k)
                G = V.gram(k)
                for i, lam in enumerate(basis):
                    for j, mu in enumerate(basis):
                        full = V.pairing(lam, mu)
                        if i <= j or not numeric:
                            assert G[i][j] == full
                        else:  # mirrored: the pairing rounds in another order
                            assert abs(G[i][j] - full) <= 1e-45 * abs(full)

    def test_level0(self):
        V = VermaModule(F(1, 2), F(1))
        assert V.gram(0) == [[1]]

    def test_action_consistency(self):
        # [L_1, L_{-2}] acting on the highest weight: 3 L_{-1}
        V = VermaModule(F(2, 5), F(3))
        out = V.apply_L(1, {(2,): 1})
        assert out == {(1,): 3}

    def test_central_term(self):
        # <L_{-2} e, L_{-2} e> includes c/2
        V = VermaModule(F(0), F(6))
        assert V.pairing((2,), (2,)) == 3  # 4*0 + 6/2


class TestDegenerate:
    def test_kac_determinant_vanishes(self):
        for b2 in (F(2, 5), F(3, 7), F(1, 3)):
            d = degenerate_weight(b2)
            c = central_charge(b2)
            assert kac_determinant_level2(d, c) == 0

    def test_null_vector_norm_and_pairings(self):
        b2 = F(2, 5)
        V = VermaModule(degenerate_weight(b2), central_charge(b2))
        null = null_vector_level2(b2)
        # zero pairing with the whole level-2 basis, hence zero norm
        for lam in partitions(2):
            val = sum(coeff * V.pairing(lam, mu) for mu, coeff in null.items())
            assert val == 0
        norm = 0
        for lam, cl in null.items():
            for mu, cm in null.items():
                norm += cl * cm * V.pairing(lam, mu)
        assert norm == 0

    def test_generic_weight_invertible(self):
        b2 = F(2, 5)
        V = VermaModule(F(9, 8), central_charge(b2))
        invert_matrix(V.gram(2))

    def test_inverse_fails_at_degenerate(self):
        b2 = F(2, 5)
        V = VermaModule(degenerate_weight(b2), central_charge(b2))
        with pytest.raises(GramSingularError):
            invert_matrix(V.gram(2))


class TestSolveContraction:
    def test_regular_case_matches_inverse(self):
        G = [[F(2), F(1)], [F(1), F(3)]]
        left, right = [F(1), F(2)], [F(3), F(4)]
        Ginv = invert_matrix(G)
        want = sum(left[i] * Ginv[i][j] * right[j] for i in range(2) for j in range(2))
        assert solve_contraction(G, left, right) == want

    def test_consistent_singular(self):
        # left must annihilate the kernel direction (1, -1)
        G = [[F(1), F(1)], [F(1), F(1)]]
        assert solve_contraction(G, [F(1), F(1)], [F(2), F(2)]) == 2

    def test_inconsistent_singular_raises(self):
        G = [[F(1), F(1)], [F(1), F(1)]]
        with pytest.raises(GramSingularError):
            solve_contraction(G, [F(1), F(0)], [F(1), F(2)])

    def test_kernel_detected(self):
        G = [[F(1), F(1)], [F(1), F(1)]]
        with pytest.raises(GramSingularError):
            # left does not annihilate the kernel direction (1, -1)
            solve_contraction(G, [F(1), F(0)], [F(1), F(1)])

    def test_float_path(self):
        G = [[mp.mpf(2), mp.mpf(1)], [mp.mpf(1), mp.mpf(3)]]
        v = solve_contraction(G, [mp.mpf(1), mp.mpf(0)], [mp.mpf(0), mp.mpf(1)])
        assert abs(v - (-mp.mpf(1) / 5)) < 1e-20
