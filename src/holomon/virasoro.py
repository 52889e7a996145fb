"""Verma-module machinery: descendant states, the invariant pairing, and
level Gram matrices.

States are dictionaries mapping ordered partitions (lambda_1 >= ... >=
lambda_k, entries the indices of lowering generators) to coefficients.
The commutator algebra reduces every generator action to this basis.
Coefficients are duck-typed: exact Fractions and mpmath complexes both
work; matrix inversion picks pivoting accordingly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def partitions(k: int, max_part: int | None = None) -> tuple:
    """All partitions of k in decreasing order, largest-first ordering."""
    if max_part is None:
        max_part = k
    if k == 0:
        return ((),)
    out = []
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions(k - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partition_count(k: int) -> int:
    return len(partitions(k))


class VermaModule:
    """Highest-weight module with weight ``delta`` and central value ``c``."""

    def __init__(self, delta, c):
        self.delta = delta
        self.c = c
        self._memo: dict = {}

    # -- generator action ---------------------------------------------------

    def apply_L(self, n: int, state: dict) -> dict:
        """Act with the n-th generator on a basis-combination state."""
        out: dict = {}
        for lam, coeff in state.items():
            for mu, v in self._apply_basis(n, lam).items():
                w = out.get(mu, 0) + coeff * v
                if w == 0:
                    out.pop(mu, None)
                else:
                    out[mu] = w
        return out

    def _apply_basis(self, n: int, lam: tuple) -> dict:
        key = (n, lam)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._compute(n, lam)
        self._memo[key] = result
        return result

    def _compute(self, n: int, lam: tuple) -> dict:
        if n == 0:
            return {lam: self.delta + sum(lam)}
        if not lam:
            if n > 0:
                return {}
            m = -n
            return {(m,): 1}
        head, rest = lam[0], lam[1:]
        if n < 0:
            m = -n
            if m >= head:
                return {(m,) + lam: 1}
            # L_{-m} L_{-head} = L_{-head} L_{-m} + (head - m) L_{-(m+head)}
            out: dict = {}
            for mu, v in self._apply_basis(n, rest).items():
                for nu, w in self._prepend(head, mu).items():
                    _acc(out, nu, v * w)
            for nu, w in self._apply_basis(-(m + head), rest).items():
                _acc(out, nu, (head - m) * w)
            return out
        # n > 0: commute through the first lowering generator
        # [L_n, L_{-head}] = (n + head) L_{n-head} + c/12 n(n^2-1) delta_{n,head}
        out: dict = {}
        for mu, v in self._apply_basis(n - head, rest).items():
            _acc(out, mu, (n + head) * v)
        if n == head:
            _acc(out, rest, self._central(n))
        for mu, v in self._apply_basis(n, rest).items():
            for nu, w in self._prepend(head, mu).items():
                _acc(out, nu, v * w)
        return out

    def _central(self, n: int):
        return self.c * Fraction(n * (n * n - 1), 12) if isinstance(self.c, Fraction) \
            else self.c * n * (n * n - 1) / 12

    def _prepend(self, m: int, lam: tuple) -> dict:
        """L_{-m} applied to a basis partition, re-sorted into the basis."""
        return self._apply_basis(-m, lam)

    # -- pairing -----------------------------------------------------------

    def pairing(self, lam: tuple, mu: tuple):
        """Invariant bilinear pairing <L_{-lam} e, L_{-mu} e>."""
        if sum(lam) != sum(mu):
            return 0
        state = {mu: 1}
        for m in lam:
            state = self.apply_L(m, state)
            if not state:
                return 0
        return state.get((), 0)

    def gram(self, level: int) -> list:
        """Level Gram matrix; the pairing is symmetric, so each entry
        above the diagonal is computed once and mirrored."""
        basis = partitions(level)
        G = [[0] * len(basis) for _ in basis]
        for i, lam in enumerate(basis):
            for j in range(i, len(basis)):
                G[i][j] = G[j][i] = self.pairing(lam, basis[j])
        return G


class GramSingularError(ValueError):
    """Raised when a needed level Gram matrix is not invertible."""


def invert_matrix(G: list) -> list:
    """Gaussian elimination with partial pivoting; exact when entries are
    Fractions.  Raises GramSingularError on singular input."""
    n = len(G)
    A = [[G[i][j] for j in range(n)] + [1 if j == i else 0 for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = None
        best = None
        for r in range(col, n):
            v = A[r][col]
            if v == 0:
                continue
            mag = abs(v) if not isinstance(v, Fraction) else None
            if pivot is None:
                pivot, best = r, mag
            elif mag is not None and best is not None and mag > best:
                pivot, best = r, mag
            if isinstance(v, Fraction):
                break  # any exact nonzero pivot will do
        if pivot is None:
            raise GramSingularError(f"singular matrix at column {col}")
        A[col], A[pivot] = A[pivot], A[col]
        inv = A[col][col]
        A[col] = [v / inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]


def solve_contraction(G: list, left: list, right: list):
    """Value of left . G^(-1) . right, defined also for singular G when the
    data factors through the quotient by the kernel.

    Solves G x = right; when G is singular the system must be consistent
    and ``left`` must annihilate the kernel, otherwise the contraction is
    genuinely ill-defined and GramSingularError is raised.
    """
    n = len(G)
    if n == 0:
        return 0
    exact = all(isinstance(v, (int, Fraction))
                for row_ in G for v in row_) and \
        all(isinstance(v, (int, Fraction)) for v in list(left) + list(right))

    def wrap(v):
        return Fraction(v) if exact and isinstance(v, int) else v

    A = [[wrap(G[i][j]) for j in range(n)] + [wrap(right[i])] for i in range(n)]
    left = [wrap(v) for v in left]
    where = [-1] * n
    row = 0
    for col in range(n):
        pivot = None
        best = None
        for r in range(row, n):
            v = A[r][col]
            if v == 0:
                continue
            if exact:
                pivot = r
                break
            if pivot is None or abs(v) > best:
                pivot, best = r, abs(v)
        if pivot is None:
            continue
        A[row], A[pivot] = A[pivot], A[row]
        inv = A[row][col]
        A[row] = [v / inv for v in A[row]]
        for r in range(n):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[row])]
        where[col] = row
        row += 1
    for r in range(row, n):
        if A[r][n] != 0:
            raise GramSingularError("inconsistent contraction through a "
                                    "singular Gram matrix")
    x = [0] * n
    for col in range(n):
        if where[col] >= 0:
            x[col] = A[where[col]][n]
    free = [col for col in range(n) if where[col] < 0]
    if free:
        # left must be orthogonal to every kernel direction
        for col in free:
            kvec = [0] * n
            kvec[col] = 1
            for c2 in range(n):
                if where[c2] >= 0:
                    kvec[c2] = -A[where[c2]][col]
            pairing = sum(l * k for l, k in zip(left, kvec))
            if pairing != 0:
                raise GramSingularError("contraction does not factor through "
                                        "the singular Gram matrix")
    return sum(l * v for l, v in zip(left, x))


def kac_determinant_level2(delta, c):
    """Determinant of the level-2 Gram matrix, as a closed polynomial."""
    return 32 * delta ** 3 - 20 * delta ** 2 + 4 * delta ** 2 * c + 2 * delta * c


def degenerate_weight(b2: Fraction) -> Fraction:
    """Weight of the first nontrivial degenerate representation,
    alpha = -b/2: delta = -1/2 - 3 b^2 / 4 (rational in b^2)."""
    return Fraction(-1, 2) - 3 * Fraction(b2) / 4


def central_charge(b2: Fraction):
    """c = 1 + 6 Q^2 with Q = b + 1/b, as a function of b^2."""
    b2 = Fraction(b2)
    return 13 + 6 * b2 + 6 / b2


def null_vector_level2(b2: Fraction) -> dict:
    """(L_{-1}^2 + b^2 L_{-2}) e as a state dictionary."""
    return {(1, 1): Fraction(1), (2,): Fraction(b2)}


def _acc(out: dict, key, val):
    if val == 0:
        return
    w = out.get(key, 0) + val
    if w == 0:
        out.pop(key, None)
    else:
        out[key] = w
