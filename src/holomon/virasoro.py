"""Verma-module machinery: descendant states, the invariant pairing, and
level Gram matrices.

States are dictionaries mapping ordered partitions (lambda_1 >= ... >=
lambda_k, entries the indices of lowering generators) to coefficients.
The commutator algebra reduces every generator action to this basis.
Weights and central values are ints or Fractions, and a module builds
everything in integers over one unit u = 2 lcm(den delta, den c): the
action of L_n on a basis state is held times u^max(n,1) for n >= 0 (the
action of L_-n has integer coefficients as it is), and the level-k Gram
matrix times u^k (``scaled_gram``).  Each scale is divided out once,
when ``gram`` or ``pairing`` returns an exact Fraction.  One
elimination routine, ``contract``, takes every contraction through a
(possibly singular) symmetric Gram matrix, in integers only: it is
handed u^k G_k, u^k and integer borders, divides each G-row by the
largest factor of u^k that it shares, eliminates fraction-free
(Bareiss), and returns the sum over its (left, right) pairs as one
integer numerator over its last pivot.  It pivots on the diagonal and
keeps each G-row from its diagonal on, reading the entries below from
their mirror images; a zero diagonal is mended by a congruence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .sparse import add_into


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


def rational(name: str, value):
    """``value`` if it is an int or a Fraction; integer scaling would
    silently truncate anything else."""
    if isinstance(value, (int, Fraction)):
        return value
    raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")


class VermaModule:
    """Highest-weight module with weight ``delta`` and central value ``c``,
    both ints or Fractions, built in integers over the unit
    ``unit`` = u = 2 lcm(den delta, den c): ``apply_basis`` holds u^max(n,1)
    times the coefficients of L_n for n >= 0, and the coefficients
    themselves, already integers, for n < 0; ``scaled_gram`` builds
    u^k G_k."""

    def __init__(self, delta, c):
        self.delta = rational("delta", delta)
        self.c = rational("c", c)
        u = 2 * math.lcm(delta.denominator, c.denominator)
        self.unit = u
        self._udelta = delta.numerator * (u // delta.denominator)  # u delta
        self._half_uc = c.numerator * (u // 2 // c.denominator)  # u c / 2
        self._memo: dict = {}
        self._scaled_grams: list = [[[1]]]

    # -- generator action ---------------------------------------------------

    def apply_L(self, n: int, state: dict) -> dict:
        """Act with the n-th generator on a basis-combination state, scaled
        as ``apply_basis``."""
        out: dict = {}
        for lam, coeff in state.items():
            add_into(out, self.apply_basis(n, lam), coeff)
        return out

    def apply_basis(self, n: int, lam: tuple) -> dict:
        """The n-th generator on the basis state L_{-lam} e, in integers:
        u^max(n,1) times the coefficients for n >= 0, the coefficients for
        n < 0.  Memoized; the returned dict is shared, so callers only
        read it."""
        key = (n, lam)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._compute(n, lam)
        self._memo[key] = result
        return result

    def _compute(self, n: int, lam: tuple) -> dict:
        u = self.unit
        if n == 0:
            return {lam: self._udelta + u * sum(lam)}
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
            out = self.apply_L(-head, self.apply_basis(n, rest))
            return add_into(out, self.apply_basis(-(m + head), rest), head - m)
        # n > 0, scale u^n: commute through the first lowering generator
        # [L_n, L_{-head}] = (n + head) L_{n-head} + c/12 n(n^2-1) delta_{n,head}
        # apply_basis(low) carries u^max(low,1) for low >= 0 and no scale below
        low = n - head
        lift = u ** (n - max(low, 1)) if low >= 0 else u ** n
        out = add_into({}, self.apply_basis(low, rest), (n + head) * lift)
        if n == head:
            add_into(out, {rest: self._central(n)})
        for mu, v in self.apply_basis(n, rest).items():
            add_into(out, self.apply_basis(-head, mu), v)
        return out

    def _central(self, n: int) -> int:
        """c n(n^2-1)/12 u^n, an integer since n(n^2-1)/6 is one."""
        return self._half_uc * (n * (n * n - 1) // 6) * self.unit ** (n - 1)

    # -- pairing -----------------------------------------------------------

    def pairing(self, lam: tuple, mu: tuple):
        """Invariant bilinear pairing <L_{-lam} e, L_{-mu} e>: the scaled
        action of the parts of lam, divided by u^|lam| once."""
        if sum(lam) != sum(mu):
            return 0
        state = {mu: 1}
        for m in lam:
            state = self.apply_L(m, state)
            if not state:
                return 0
        return Fraction(state.get((), 0), self.unit ** sum(lam))

    def scaled_gram(self, level: int) -> list:
        """u^k G_k at level k, in ints, memoized on the module.  Missing
        levels are built bottom-up from the levels below: u^k <lam|mu> is
        the sum over nu of u^lam_1 (L_{lam_1} mu)_nu times
        u^(k-lam_1) <lam'|nu>, where lam' drops the first part lam_1.  The
        upper triangle is computed and mirrored."""
        scaled = self._scaled_grams
        while len(scaled) <= level:
            k = len(scaled)
            basis = partitions(k)
            H = [[0] * len(basis) for _ in basis]
            for i, lam in enumerate(basis):
                index = _index(k - lam[0])
                below = scaled[k - lam[0]][index[lam[1:]]]
                for j in range(i, len(basis)):
                    H[i][j] = H[j][i] = sum(
                        a * below[index[nu]]
                        for nu, a in self.apply_basis(lam[0], basis[j]).items())
            scaled.append(H)
        return scaled[level]

    def gram(self, level: int) -> list:
        """Level Gram matrix, exact: ``scaled_gram`` divided by u^k, built
        afresh on each call."""
        scale = self.unit ** level
        return [[Fraction(v, scale) for v in row] for row in self.scaled_gram(level)]


@lru_cache(maxsize=None)
def _index(k: int) -> dict:
    """Position of each partition of k in the level-k basis."""
    return {lam: i for i, lam in enumerate(partitions(k))}


class GramSingularError(ValueError):
    """Raised when a needed level Gram matrix is not invertible."""


def contract(H: list, scale: int, lefts: list, rights: list) -> tuple:
    """The sum over a of lefts[a] . G^(-1) . rights[a] as two ints, a
    numerator over the last pivot, for the symmetric G = H / scale with
    H, scale and the borders ints, defined also for singular G when the
    data factors through the quotient by the kernel.

    Forward elimination of the bordered matrix [[G, rights], [lefts, 0]]
    pivots on the diagonal of G; afterwards border row a holds, in right
    column a, -lefts[a] . G^(-1) . rights[a], the Schur complement.  A
    G-row that eliminates to zero with a nonzero right part is
    inconsistent, and a left row with a nonzero entry in a pivot-free
    column lies outside the row space of G; both raise GramSingularError.
    A G that is not symmetric raises ValueError.

    The elimination runs in integers, fraction-free.  G-row i is H_i
    divided by d_i = gcd(scale, content of H_i), which is s_i G_i with
    s_i = scale / d_i the lcm of the row's denominators; its right part is
    multiplied by s_i, which leaves the contraction unchanged.  At pivot
    t, each later row becomes (p * row - f * pivot_row) // prev, with p
    the pivot, f the row's entry in column t and prev the pivot before
    (Bareiss).  Every entry is then a minor of the scaled matrix, so each
    division is exact; and since G is symmetric, the minor at (i, j) is
    the one at (j, i) times s_i / s_j.  So a G-row i is kept from its
    diagonal rightwards only, with its right part, and its f is read off
    the pivot row (``_pivot_column``); border row a is kept whole, with
    right column a alone.

    There are no row swaps.  A zero diagonal at t with a nonzero entry
    (t, j) is made nonzero by a congruence: index j is added into t, row
    and column together, with the sign that keeps the new diagonal off
    zero, and row t takes the scale lcm(s_t, s_j); border rows take the
    column operation, right parts the row operation, and the contraction
    is unchanged.  A row that is zero from its diagonal on leaves its
    index free.  The numerator is minus the sum of the border rows' right
    entries, and the pair is not reduced (the pivot may be negative).
    The inputs are copied.
    """
    if list(map(tuple, H)) != list(zip(*H)):
        raise ValueError("contract needs a symmetric Gram matrix")
    n = len(H)
    rows, scales = [], []
    for i, h in enumerate(H):
        d = math.gcd(scale, *h)
        scales.append(scale // d)
        rows.append([v // d for v in h] + [scales[i] * r[i] for r in rights])
    border = [list(l) + [0] for l in lefts]
    free = []
    prev = 1
    for t in range(n):
        prow = rows[t]
        if prow[t] == 0:
            j = next((j for j in range(t + 1, n) if prow[j]), None)
            if j is None:
                free.append(t)
                continue
            prow = _add_index(rows, scales, border, t, j)
        p = prow[t]
        # G-rows from their diagonal on; rows with f == 0 are rescaled
        # too, so every entry stays a minor
        for i, f in enumerate(_pivot_column(prow, scales, t), t + 1):
            row = rows[i]
            row[i:] = [(p * a - f * b) // prev for a, b in zip(row[i:], prow[i:])]
        ptail = prow[t + 1:n]
        for a, row in enumerate(border):
            f = row[t]
            if f:
                tail = ptail + [prow[n + a]]
                row[t + 1:] = [(p * x - f * y) // prev for x, y in zip(row[t + 1:], tail)]
            else:
                row[t + 1:] = [p * x // prev for x in row[t + 1:]]
        prev = p
        rows[t] = None  # never read after its step; freeing it lowers peak memory
    if any(v != 0 for t in free for v in rows[t][n:]):
        raise GramSingularError("inconsistent contraction through a "
                                "singular Gram matrix")
    if any(row[t] != 0 for row in border for t in free):
        raise GramSingularError("contraction does not factor through "
                                "the singular Gram matrix")
    return -sum(row[n] for row in border), prev


def _pivot_column(prow: list, scales: list, t: int) -> list:
    """Column t below the diagonal, read off the pivot row t: the entry
    (i, t) is prow[i] * s_i / s_t, exactly, since both are minors of the
    same symmetric G and differ only by the row scales."""
    st = scales[t]
    return [a * s // st for a, s in zip(prow[t + 1:], scales[t + 1:])]


def _add_index(rows: list, scales: list, border: list, t: int, j: int) -> list:
    """Add index j into t by a congruence, row and column together, where
    the diagonal at t is 0 and the entry (t, j) is not; returns the new
    row t, whose scale is lcm(s_t, s_j) and whose diagonal is nonzero."""
    st, sj = scales[t], scales[j]
    s = math.lcm(st, sj)
    ft, fj = s // st, s // sj
    # row j from column t on: its entries left of its diagonal mirrored
    # from column j of the rows above it
    rj = [rows[k][j] * sj // scales[k] for k in range(t, j)] + rows[j][j:]
    row = rows[t]
    sign = -1 if fj * rj[j - t] == -2 * ft * row[j] else 1
    row[t:] = [ft * a + sign * fj * b for a, b in zip(row[t:], rj)]
    row[t] += sign * row[j]
    scales[t] = s
    for b in border:
        b[t] += sign * b[j]
    return row


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

