import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_blocks import three_point_descendant

from holomon import blocks
from holomon.sparse import add_into
from holomon.virasoro import (
    GramSingularError,
    VermaModule,
    central_charge,
    contract,
    degenerate_weight,
    kac_determinant_level2,
    null_vector_level2,
    partition_count,
    partitions,
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

    def test_gram_equals_full_pairing_matrix(self):
        V = VermaModule(F(3, 7), F(1))
        for k in range(7):
            basis = partitions(k)
            G = V.gram(k)
            for i, lam in enumerate(basis):
                for j, mu in enumerate(basis):
                    assert G[i][j] == V.pairing(lam, mu)

    def test_level0(self):
        V = VermaModule(F(1, 2), F(1))
        assert V.gram(0) == [[1]]

    def test_action_consistency(self):
        # [L_1, L_{-2}] acting on the highest weight: 3 L_{-1}, held
        # scaled by the unit u = 2 lcm(5, 1)
        V = VermaModule(F(2, 5), F(3))
        assert V.unit == 10
        assert V.apply_L(1, {(2,): 1}) == {(1,): 3 * 10}
        assert V.pairing((1,), (1,)) * 3 == V.pairing((1, 1), (2,))

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
        G = V.gram(2)
        Ginv = _block(G, _unit(2), _unit(2))
        assert _matmul(G, Ginv) == _unit(2)

    def test_inverse_fails_at_degenerate(self):
        b2 = F(2, 5)
        V = VermaModule(degenerate_weight(b2), central_charge(b2))
        with pytest.raises(GramSingularError):
            _block(V.gram(2), _unit(2), _unit(2))


class TestSolveContraction:
    """Contractions of one (left, right) pair of vectors."""

    def test_regular_case_matches_inverse(self):
        G = [[F(2), F(1)], [F(1), F(3)]]
        left, right = [F(1), F(2)], [F(3), F(4)]
        Ginv = [[F(3, 5), F(-1, 5)], [F(-1, 5), F(2, 5)]]  # adjugate over det 5
        assert _block(G, _unit(2), _unit(2)) == Ginv
        want = sum(left[i] * Ginv[i][j] * right[j] for i in range(2) for j in range(2))
        assert F(*contract([[2, 1], [1, 3]], 1, [[1, 2]], [[3, 4]])) == want

    def test_consistent_singular(self):
        # left must annihilate the kernel direction (1, -1)
        assert F(*contract([[1, 1], [1, 1]], 1, [[1, 1]], [[2, 2]])) == 2

    def test_inconsistent_singular_raises(self):
        with pytest.raises(GramSingularError):
            contract([[1, 1], [1, 1]], 1, [[1, 0]], [[1, 2]])

    def test_kernel_detected(self):
        with pytest.raises(GramSingularError):
            # left does not annihilate the kernel direction (1, -1)
            contract([[1, 1], [1, 1]], 1, [[1, 0]], [[1, 1]])


def _unit(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _block(G, L, R):
    """The full block L . G^(-1) . R of rational data through contract: G
    scaled to (H, m) over the lcm m of its denominators, each left row and
    each right column to ints over the lcm of its own, and each left row
    paired with each right column in one call per pair."""
    H, m = _scaled(G)
    lefts, s = _int_rows(L)
    rights, c = _int_rows(list(zip(*R)))
    return [[F(*contract(H, m, [l], [r])) / (sa * cb) for r, cb in zip(rights, c)]
            for l, sa in zip(lefts, s)]


def _scaled(G):
    """(H, m): G times the lcm m of its denominators, as ints, and m."""
    m = math.lcm(*(F(v).denominator for row in G for v in row))
    return [[int(F(v) * m) for v in row] for row in G], m


def _int_rows(rows):
    """Each row times the lcm of its denominators, as ints, and the lcms."""
    scales = [math.lcm(*(F(v).denominator for v in row)) for row in rows]
    return [[int(F(v) * s) for v in row] for row, s in zip(rows, scales)], scales


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _rand_matrix(rng, rows, cols):
    return [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)]
            for _ in range(rows)]


def _sym(M):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in M])


def _frac(M):
    return [[F(int(v.p), int(v.q)) for v in M.row(i)] for i in range(M.rows)]


class TestContract:
    """The bordered-elimination kernel against sympy's rational algebra."""

    @pytest.mark.parametrize("seed", range(6))
    def test_nonsingular_matches_sympy(self, seed):
        rng = random.Random(seed)
        n, p, q = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 3)
        A = _rand_matrix(rng, n, n)
        G = [[a + b for a, b in zip(row, col)] for row, col in zip(A, zip(*A))]
        if _sym(G).det() == 0:
            pytest.skip("random draw is singular")
        L, R = _rand_matrix(rng, p, n), _rand_matrix(rng, n, q)
        want = _frac(_sym(L) * _sym(G).inv() * _sym(R))
        got = _block(G, L, R)
        assert got == want
        assert all(type(v) is F for row in got for v in row)

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_symmetric(self, seed):
        # G = B B^T of rank r < n; data in the row/column space factors
        rng = random.Random(100 + seed)
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        B = _rand_matrix(rng, n, r)
        G = _matmul(B, [list(col) for col in zip(*B)])
        assert _sym(G).rank() == r
        X, Y = _rand_matrix(rng, n, 2), _rand_matrix(rng, 2, n)
        R, L = _matmul(G, X), _matmul(Y, G)
        # for L = Y G and R = G X the contraction is Y G X for any inverse
        want = _frac(_sym(Y) * _sym(G) * _sym(X))
        assert _block(G, L, R) == want
        # a right side outside the column space is inconsistent
        bad_R = [row[:] for row in R]
        kernel = _frac(_sym(G).nullspace()[0].T)[0]
        for i in range(n):
            bad_R[i][0] += kernel[i]
        with pytest.raises(GramSingularError, match="inconsistent"):
            _block(G, L, bad_R)
        # a left side outside the row space does not factor
        bad_L = [row[:] for row in L]
        bad_L[1] = [a + b for a, b in zip(bad_L[1], kernel)]
        with pytest.raises(GramSingularError, match="does not factor"):
            _block(G, bad_L, R)

    def test_zero_rows_inconsistent_before_kernel(self):
        G = [[F(0), F(0)], [F(0), F(0)]]
        with pytest.raises(GramSingularError, match="inconsistent"):
            _block(G, [[F(1), F(0)]], [[F(1)], [F(0)]])
        assert _block(G, [[F(0), F(0)]], [[F(0)], [F(0)]]) == [[0]]

    def test_returns_two_ints(self):
        # the sum over the pairs as a numerator over the last pivot, unreduced
        got = contract([[1]], 1, [[1]], [[1]])
        assert got == (1, 1) and all(type(v) is int for v in got)
        assert contract([[2]], 1, [[1]], [[2]]) == (2, 2)
        # e_0 G^(-1) e_1 + e_1 G^(-1) e_0 = -2/5, over the last pivot det G
        got = contract([[2, 1], [1, 3]], 1, [[1, 0], [0, 1]], [[0, 1], [1, 0]])
        assert got == (-2, 5) and all(type(v) is int for v in got)

    def test_inputs_not_mutated(self):
        V = VermaModule(F(9, 8), F(3, 2))
        H = V.scaled_gram(4)
        before = [row[:] for row in H]
        rng = random.Random(7)
        L, R = ([[rng.randint(-9, 9) for _ in range(5)] for _ in range(2)] for _ in range(2))
        L0, R0 = [row[:] for row in L], [row[:] for row in R]
        contract(H, V.unit ** 4, L, R)
        assert V.scaled_gram(4) is H and H == before and L == L0 and R == R0


class TestRecursiveGram:
    @pytest.mark.parametrize("delta", [F(3, 7), degenerate_weight(F(2, 5))],
                             ids=["generic", "degenerate"])
    def test_equals_pairing_matrix(self, delta):
        V = VermaModule(delta, central_charge(F(2, 5)))
        for k in range(9):
            basis = partitions(k)
            assert V.gram(k) == [[V.pairing(lam, mu) for mu in basis] for lam in basis]

    def test_levels_out_of_order(self):
        V, W = VermaModule(F(5, 3), F(1, 2)), VermaModule(F(5, 3), F(1, 2))
        high = V.scaled_gram(7)
        assert [V.gram(k) for k in range(8)] == [W.gram(k) for k in range(8)]
        assert V.scaled_gram(7) is high


def fraction_contract(G, left, right):
    """Reference for contract: the bordered elimination of a general G,
    with the first nonzero pivot of each column and row swaps, in
    Fractions throughout."""
    n = len(G)
    q = len(right[0]) if right else 0
    rows = [[F(v) for v in list(g) + list(r)] for g, r in zip(G, right)] + \
        [[F(v) for v in list(l) + [0] * q] for l in left]
    free, rank = [], 0
    for col in range(n):
        nonzero = [r for r in range(rank, n) if rows[r][col] != 0]
        if not nonzero:
            free.append(col)
            continue
        rows[rank], rows[nonzero[0]] = rows[nonzero[0]], rows[rank]
        prow = rows[rank]
        for row in rows[rank + 1:]:
            if row[col] != 0:
                f = row[col] / prow[col]
                for t in range(col + 1, n + q):
                    row[t] -= f * prow[t]
        rank += 1
    if any(v != 0 for row in rows[rank:n] for v in row[n:]):
        raise GramSingularError("inconsistent contraction through a "
                                "singular Gram matrix")
    if any(row[col] != 0 for row in rows[n:] for col in free):
        raise GramSingularError("contraction does not factor through "
                                "the singular Gram matrix")
    return [[-v for v in row[n:]] for row in rows[n:]]


def fraction_pairs(H, scale, lefts, rights):
    """Reference for contract: the sum of the diagonal of fraction_contract
    on G = H / scale, every left row against every right column, as a
    (numerator, denominator) pair."""
    G = [[F(v, scale) for v in row] for row in H]
    block = fraction_contract(G, lefts, [list(col) for col in zip(*rights)])
    total = F(sum(block[a][a] for a in range(len(lefts))))
    return total.numerator, total.denominator


def _momentum_weight(p, r, b2):
    return (p * b2 + p + r + r / b2) - (p * p * b2 + 2 * p * r + r * r / b2)


B2 = F(2, 7)
CC = central_charge(B2)
INCONSISTENT = "inconsistent contraction through a singular Gram matrix"
NO_FACTOR = "contraction does not factor through the singular Gram matrix"


# large primes for border denominators: 2^p - 1 for Mersenne exponents p
PRIMES = [2 ** p - 1 for p in (127, 61, 89, 107, 521)]


class TestFractionFreeKernel:
    """contract eliminates in integers, each G-row of H divided by the
    largest factor of the scale that it shares, which scales it (with its
    right part) by the lcm of its G entries' denominators; sympy and the
    Fraction elimination are its oracles."""

    @pytest.mark.parametrize("d_beta", [F(9, 4), F(17, 4),
                                        _momentum_weight(F(1, 3) - F(1, 2), F(2, 5), B2)],
                             ids=["generic-9/4", "generic-17/4", "fused"])
    def test_block_rows_match_sympy(self, d_beta):
        V = VermaModule(d_beta, CC)
        d1, d2 = _momentum_weight(F(2, 3), F(3, 5), B2), degenerate_weight(B2)
        d3, d4 = _momentum_weight(F(1, 5), F(2, 7), B2), _momentum_weight(F(3, 7), F(4, 11), B2)
        for k in range(8):
            basis = partitions(k)
            G = V.gram(k)
            L = [[three_point_descendant(d4, d3, d_beta, lam) for lam in basis],
                 [three_point_descendant(d1, d2, d_beta, lam) for lam in basis]]
            R = [[three_point_descendant(d1, d2, d_beta, mu), F(int(i == 0))]
                 for i, mu in enumerate(basis)]
            want = _frac(_sym(L) * _sym(G).LUsolve(_sym(R)))
            got = _block(G, L, R)
            assert got == want, k
            assert all(type(v) is F for row in got for v in row)

    def test_coprime_row_denominators(self):
        # every G-row has its own prime denominator (entry (i, j) is over
        # the primes of rows i and j), as have the right parts and left
        # rows, and zero entries leave rows with nothing to eliminate at a pivot
        G = [[F(1, 2), F(1, 6), F(0), F(3, 14)],
             [F(1, 6), F(2, 3), F(1, 15), F(0)],
             [F(0), F(1, 15), F(0), F(1, 35)],
             [F(3, 14), F(0), F(1, 35), F(5, 7)]]
        R = [[F(1, 11), F(0)], [F(0), F(2, 13)], [F(3, 17), F(1)], [F(0), F(0)]]
        L = [[F(1, 19), F(0), F(0), F(0)], [F(0), F(0), F(2, 23), F(1, 29)],
             [F(0), F(0), F(0), F(0)]]
        want = _frac(_sym(L) * _sym(G).inv() * _sym(R))
        assert _block(G, L, R) == want == fraction_contract(G, L, R)
        assert want[0][0] != 0 and want[1][1] != 0

    def test_torus_shape(self):
        # unit left rows and the insertion's matrix elements as the right
        # side: the full block, and its pairs (e_i, column i) as the torus
        # hands them over
        V = VermaModule(F(7, 5), CC)
        elements = blocks.PrimaryMatrixElements(V, F(2, 3), F(7, 5))
        basis = partitions(4)
        wE = [[elements.scaled(lam, mu) for mu in basis] for lam in basis]
        E = [[F(v, elements.unit ** 8) for v in row] for row in wE]
        unit = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
        G = V.gram(4)
        got = _block(G, unit, E)
        assert got == fraction_contract(G, unit, E) == _frac(_sym(G).inv() * _sym(E))
        H, m, columns = V.scaled_gram(4), V.unit ** 4, [list(col) for col in zip(*wE)]
        diagonal = [got[i][i] for i in range(len(basis))]
        assert [F(*contract(H, m, [e], [col])) / elements.unit ** 8
                for e, col in zip(unit, columns)] == diagonal
        assert F(*contract(H, m, unit, columns)) / elements.unit ** 8 == sum(diagonal)

    def test_degenerate_weight_singular_gram(self):
        # each draw runs twice: as drawn, and with every right column and
        # left row, and the kernel added to them, over its own large prime
        V = VermaModule(degenerate_weight(B2), CC)
        rng = random.Random(5)
        for k in (2, 3, 4):
            G = V.gram(k)
            n = len(G)
            assert _sym(G).rank() < n
            Y0, X0 = _rand_matrix(rng, 2, n), _rand_matrix(rng, n, 2)
            kernel = _frac(_sym(G).nullspace()[0].T)[0]
            for dens in ([1] * 5, PRIMES):
                Y = [[v / d for v in row] for row, d in zip(Y0, dens[:2])]
                X = [[v / d for v, d in zip(row, dens[2:4])] for row in X0]
                L, R = _matmul(Y, G), _matmul(G, X)
                assert _block(G, L, R) == fraction_contract(G, L, R) \
                    == _frac(_sym(Y) * _sym(G) * _sym(X))
                bad_R = [[r[0] + e / dens[4], r[1]] for r, e in zip(R, kernel)]
                bad_L = [L[0], [a + e / dens[4] for a, e in zip(L[1], kernel)]]
                for fn in (_block, fraction_contract):
                    with pytest.raises(GramSingularError) as exc:
                        fn(G, L, bad_R)
                    assert str(exc.value) == INCONSISTENT
                    with pytest.raises(GramSingularError) as exc:
                        fn(G, bad_L, R)
                    assert str(exc.value) == NO_FACTOR

    def test_int_input_matches_sympy(self):
        G = [[4, 2, 0], [2, 5, 3], [0, 3, 7]]
        L, R = [[1, 0, 2], [0, 3, 0]], [[1, 1], [0, 2], [5, 0]]
        got = _block(G, L, R)
        assert got == _frac(_sym(L) * _sym(G).inv() * _sym(R))
        assert all(type(v) is F for row in got for v in row)

    @pytest.fixture
    def fraction_blocks(self, monkeypatch):
        """Build blocks through the Fraction reference instead of contract."""
        def with_reference(build, *args, **kw):
            with monkeypatch.context() as m:
                m.setattr(blocks, "contract", fraction_pairs)
                return build(*args, **kw)
        return with_reference

    def test_sphere4_order10_matches_fraction_elimination(self, fraction_blocks):
        d1 = _momentum_weight(F(2, 3), F(3, 5), B2)
        d3, d4 = _momentum_weight(F(1, 5), F(2, 7), B2), _momentum_weight(F(3, 7), F(4, 11), B2)
        args = (d1, degenerate_weight(B2), d3, d4, F(13, 4), CC)
        got = blocks.sphere4_block(*args, N=10).coeffs
        assert got == fraction_blocks(blocks.sphere4_block, *args, N=10).coeffs
        assert all(type(v) is F for v in got)

    def test_torus1_order8_matches_fraction_elimination(self, fraction_blocks):
        args = (F(2, 3), F(7, 5), CC)
        got = blocks.torus1_block(*args, N=8).coeffs
        assert got == fraction_blocks(blocks.torus1_block, *args, N=8).coeffs
        assert all(type(v) is F for v in got)



def _symmetric(rows):
    """The symmetric matrix whose upper triangle is given row by row."""
    n = len(rows)
    return [[F(rows[min(i, j)][max(i, j) - min(i, j)]) for j in range(n)] for i in range(n)]


def _same_as_references(G, L, R):
    """contract agrees with fraction_contract, and with sympy when G is
    invertible, both on the value and on the error raised."""
    try:
        want = fraction_contract(G, L, R)
    except GramSingularError as exc:
        with pytest.raises(GramSingularError) as got:
            _block(G, L, R)
        assert str(got.value) == str(exc)
        return None
    got = _block(G, L, R)
    assert got == want
    if _sym(G).det() != 0:
        assert got == _frac(_sym(L) * _sym(G).inv() * _sym(R))
    return got


# 3 x 3 Gram matrices with zero diagonals or zero entries below a pivot,
# by their upper triangles
ZERO_DIAGONAL = {
    "integer": [[0, 2, 1], [0, 3], [0]],
    "rational": [[0, F(1, 2), F(1, 3)], [F(2, 5), F(1, 7)], [F(-1, 11)]],
    # g_jj = -2 g_tj, so j is added into t with the sign -1
    "negative-sign": [[0, F(1, 6), F(1, 2)], [F(-1, 3), F(1, 5)], [F(1, 7)]],
    "zero-after-pivot": [[F(1, 2), F(1, 3), F(1, 5)], [F(2, 9), F(1, 15)], [F(1, 7)]],
    # G-row 1 has f = 0 at the first pivot
    "zero-below-pivot": [[2, 0, 1], [3, 0], [5]],
}


def _random_symmetric(rng, rank_deficient):
    """A random symmetric G with diagonals zeroed at random, of rank below
    its size when asked."""
    n = rng.randint(2, 7)
    A = _rand_matrix(rng, n, n)
    G = [[a + b for a, b in zip(row, col)] for row, col in zip(A, zip(*A))]
    for i in range(n):
        if rng.random() < 0.5:
            G[i][i] = F(0)
    if rank_deficient:
        B = _rand_matrix(rng, n, n - 1)
        D = [[G[i][j] for j in range(n - 1)] for i in range(n - 1)]
        G = _matmul(_matmul(B, D), [list(col) for col in zip(*B)])
    return G


class TestSymmetricElimination:
    """contract pivots on the diagonal and keeps each G-row from its
    diagonal on; a zero diagonal is mended by a congruence."""

    def test_swap_matrix(self):
        # both diagonals are zero: index 1 is added into 0
        G = [[F(0), F(1)], [F(1), F(0)]]
        assert _block(G, _unit(2), _unit(2)) == G
        _same_as_references(G, [[F(1, 3), F(2, 5)]], [[F(1, 7)], [F(3, 11)]])

    @pytest.mark.parametrize("upper", list(ZERO_DIAGONAL.values()), ids=list(ZERO_DIAGONAL))
    def test_three_by_three_zero_diagonal(self, upper):
        G = _symmetric(upper)
        assert _sym(G).det() != 0
        L, R = _rand_matrix(random.Random(1), 2, 3), _rand_matrix(random.Random(2), 3, 2)
        assert _block(G, _unit(3), _unit(3)) == _frac(_sym(G).inv())
        _same_as_references(G, L, R)

    def test_singular_with_zero_diagonal_trailing_block(self):
        # after the first pivot the trailing block is [[0, 1, 1], [1, 0, 0],
        # [1, 0, 0]] / 5: a zero diagonal, not zero, and singular
        G = _symmetric([[F(1, 2), F(1, 3), 0, 0], [F(2, 9), F(1, 5), F(1, 5)], [0, 0], [0]])
        assert _sym(G).rank() == 3
        rng = random.Random(3)
        Y, X = _rand_matrix(rng, 2, 4), _rand_matrix(rng, 4, 2)
        L, R = _matmul(Y, G), _matmul(G, X)
        assert _same_as_references(G, L, R) == _frac(_sym(Y) * _sym(G) * _sym(X))
        kernel = _frac(_sym(G).nullspace()[0].T)[0]
        bad_R = [[r[0] + e, r[1]] for r, e in zip(R, kernel)]
        bad_L = [L[0], [a + e for a, e in zip(L[1], kernel)]]
        with pytest.raises(GramSingularError, match="inconsistent"):
            _block(G, L, bad_R)
        with pytest.raises(GramSingularError, match="does not factor"):
            _block(G, bad_L, R)
        _same_as_references(G, L, bad_R)
        _same_as_references(G, bad_L, R)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_symmetric(self, seed):
        # diagonals zeroed at random, and a rank-deficient draw every other seed
        rng = random.Random(200 + seed)
        G = _random_symmetric(rng, seed % 2)
        n = len(G)
        L, R = _rand_matrix(rng, 2, n), _rand_matrix(rng, n, 3)
        _same_as_references(G, L, R)
        # data that factors through G always contracts
        Y, X = _rand_matrix(rng, 2, n), _rand_matrix(rng, n, 2)
        got = _same_as_references(G, _matmul(Y, G), _matmul(G, X))
        assert got == _frac(_sym(Y) * _sym(G) * _sym(X))

    def test_non_symmetric_raises(self):
        G = [[F(1), F(2)], [F(3), F(4)]]
        with pytest.raises(ValueError, match="symmetric"):
            _block(G, _unit(2), _unit(2))
        with pytest.raises(ValueError, match="symmetric"):
            contract([[2, 0], [1, 2]], 2, [[1, 0]], [[0, 1]])

    @pytest.mark.parametrize("G", [_symmetric([[0, 1], [0]])]
                             + [_symmetric(upper) for upper in ZERO_DIAGONAL.values()]
                             + [_random_symmetric(random.Random(300 + seed), seed % 2)
                                for seed in range(8)],
                             ids=["swap", *ZERO_DIAGONAL, *(f"random-{i}" for i in range(8))])
    def test_torus_pairs_sum_to_the_trace(self, G):
        # the torus hands over the pairs (e_i, column i of E) and sums
        # them: the trace of G^(-1) E, or the full block's error; the
        # second E factors through G, so a singular G fails on its left
        H, m = _scaled(G)
        n = len(G)
        rng = random.Random(n)

        def draw():
            return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        for E in (draw(), _matmul(H, draw())):
            columns = [list(col) for col in zip(*E)]
            try:
                block = fraction_contract(G, unit, E)
            except GramSingularError as exc:
                with pytest.raises(GramSingularError) as got:
                    contract(H, m, unit, columns)
                assert str(got.value) == str(exc)
                continue
            assert F(*contract(H, m, unit, columns)) == sum(block[i][i] for i in range(n))
            L = draw()
            assert [F(*contract(H, m, [l], [col])) for l, col in zip(L, columns)] == \
                [row[a] for a, row in enumerate(fraction_contract(G, L, E))]

class FractionVerma:
    """Reference for the integer module: the generator action, the Gram
    matrices and the insertion's matrix elements built one Fraction
    operation at a time, unscaled."""

    def __init__(self, delta, c):
        self.delta, self.c = F(delta), F(c)
        self._memo: dict = {}
        self._grams: list = [[[1]]]

    def apply_L(self, n, state):
        out: dict = {}
        for lam, coeff in state.items():
            add_into(out, self.apply_basis(n, lam), coeff)
        return out

    def apply_basis(self, n, lam):
        key = (n, lam)
        if key not in self._memo:
            self._memo[key] = self._compute(n, lam)
        return self._memo[key]

    def _compute(self, n, lam):
        if n == 0:
            return {lam: self.delta + sum(lam)}
        if not lam:
            return {} if n > 0 else {(-n,): 1}
        head, rest = lam[0], lam[1:]
        if n < 0:
            m = -n
            if m >= head:
                return {(m,) + lam: 1}
            out = self.apply_L(-head, self.apply_basis(n, rest))
            return add_into(out, self.apply_basis(-(m + head), rest), head - m)
        out = add_into({}, self.apply_basis(n - head, rest), n + head)
        if n == head:
            add_into(out, {rest: self.c * F(n * (n * n - 1), 12)})
        for mu, v in self.apply_basis(n, rest).items():
            add_into(out, self.apply_basis(-head, mu), v)
        return out

    def gram(self, level):
        grams = self._grams
        while len(grams) <= level:
            k = len(grams)
            basis = partitions(k)
            index = {lam: i for i, lam in enumerate(basis)}
            G = [[0] * len(basis) for _ in basis]
            for i, lam in enumerate(basis):
                below_basis = {nu: j for j, nu in enumerate(partitions(k - lam[0]))}
                below = grams[k - lam[0]][below_basis[lam[1:]]]
                for j in range(len(basis)):
                    G[i][j] = sum(a * below[below_basis[nu]]
                                  for nu, a in self.apply_basis(lam[0], basis[j]).items())
            assert all(G[i][j] == G[j][i] for i in index.values() for j in index.values())
            grams.append(G)
        return grams[level]

    def element(self, h, left, lam, mu, memo):
        """<L_{-lam} left | primary(1) | L_{-mu} e>, normalized to 1 on (), ()."""
        key = (lam, mu)
        if key in memo:
            return memo[key]
        d = self.delta
        if not lam:
            val = F(1) if not mu else (
                blocks.three_point_factor(left, h, d, mu[0], sum(mu[1:]))
                * self.element(h, left, (), mu[1:], memo))
        else:
            n, rest = lam[0], lam[1:]
            val = (blocks.three_point_factor(d + sum(mu), h, left, n, sum(rest))
                   * self.element(h, left, rest, mu, memo))
            for nu, v in self.apply_basis(n, mu).items():
                val += v * self.element(h, left, rest, nu, memo)
        memo[key] = val
        return val


def _check_integer_module(delta, c, h, left, top):
    """The integer module, action and matrix elements equal the Fraction
    reference through level ``top``; the action is held scaled by u^max(n,1)
    for n >= 0, and the matrix elements by w^(|lam|+|mu|)."""
    V, ref = VermaModule(delta, c), FractionVerma(delta, c)
    u = V.unit
    assert u == 2 * math.lcm(F(delta).denominator, F(c).denominator)
    for k in range(top + 1):
        assert V.gram(k) == ref.gram(k), k
        assert all(type(v) is F for row in V.gram(k) for v in row)
        H = V.scaled_gram(k)
        assert all(type(v) is int for row in H for v in row)
        assert H == [[u ** k * v for v in row] for row in V.gram(k)], k
        for lam in partitions(k):
            for n in range(-2, k + 1):
                scale = u ** max(n, 1) if n >= 0 else 1
                got = V.apply_basis(n, lam)
                assert all(type(v) is int for v in got.values())
                assert {nu: F(v, scale) for nu, v in got.items()} == ref.apply_basis(n, lam)
    elements, memo = blocks.PrimaryMatrixElements(V, h, left), {}
    w = elements.unit
    assert w == math.lcm(u, F(h).denominator, F(left).denominator)
    for k in range(top + 1):
        for lam in partitions(k):
            for j in range(max(0, k - 2), min(top, k + 2) + 1):
                for mu in partitions(j):
                    got = elements.scaled(lam, mu)
                    assert type(got) is int
                    want = ref.element(F(h), F(left), lam, mu, memo)
                    assert F(got, w ** (k + j)) == want, (lam, mu)


class TestIntegerModule:
    """The Gram matrices, the basis action and the insertion's matrix
    elements, built in integers over one scaled unit, against the Fraction
    recursions they replace."""

    # the torus takes left = delta; a sphere border takes another weight
    @pytest.mark.parametrize("delta, c, h, left", [
        (F(5, 101), F(7, 103), F(11, 107), F(13, 109)),
        (2, 1, F(3, 5), 2),
        (F(7, 5), CC, 0, F(7, 5)),
        (F(3, 4), F(1, 2), F(2, 9), F(-5, 11)),
    ], ids=["coprime-primes", "integer-unit-2", "h-zero", "h-outside-unit"])
    def test_equals_fraction_reference_through_level_8(self, delta, c, h, left):
        _check_integer_module(delta, c, h, left, 8)

    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=-9, max_value=9, max_denominator=12),
           st.fractions(min_value=-30, max_value=30, max_denominator=12),
           st.fractions(min_value=-9, max_value=9, max_denominator=12),
           st.fractions(min_value=-9, max_value=9, max_denominator=12))
    def test_random_rationals_through_level_5(self, delta, c, h, left):
        _check_integer_module(delta, c, h, left, 5)

    @pytest.mark.parametrize("delta, c", [(0.5, F(1)), (F(1, 2), mp.mpf(1)),
                                          (F(1, 2), 1.0)])
    def test_rejects_weights_that_are_not_rational(self, delta, c):
        name, value = ("delta", delta) if not isinstance(delta, F) else ("c", c)
        with pytest.raises(ValueError) as exc:
            VermaModule(delta, c)
        assert str(exc.value) == f"{name} must be an int or a Fraction, got {value!r}"

    @pytest.mark.parametrize("h", [0.25, mp.mpf("0.25"), "1/4"])
    def test_rejects_an_insertion_that_is_not_rational(self, h):
        with pytest.raises(ValueError) as exc:
            blocks.PrimaryMatrixElements(VermaModule(F(1, 2), 1), h, F(1, 3))
        assert str(exc.value) == f"h must be an int or a Fraction, got {h!r}"

    @pytest.mark.parametrize("left", [0.25, mp.mpf("0.25"), "1/4"])
    def test_rejects_a_left_weight_that_is_not_rational(self, left):
        with pytest.raises(ValueError) as exc:
            blocks.PrimaryMatrixElements(VermaModule(F(1, 2), 1), F(1, 3), left)
        assert str(exc.value) == f"left must be an int or a Fraction, got {left!r}"
