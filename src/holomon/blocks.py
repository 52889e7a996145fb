"""Chiral partition functions from the gluing construction.

Level coefficients contract descendant three-point data (generated by the
commutation of raising generators through a primary insertion) against
inverse Gram matrices.  Sphere four-point series are indexed by the
position of the second puncture; the self-glued torus one-point series
carries the extra central-charge shift -c/24 in its prefactor exponent
(a recorded convention).

Every coefficient is exact: weights and central charge are taken as
rationals, and the contractions run in integers (see
``virasoro.contract``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .virasoro import (GramSingularError, VermaModule, contract, partitions,
                       solve_contraction)
# the benchmark harness's name for virasoro.degenerate_weight
from .virasoro import degenerate_weight as degenerate_weight_of  # noqa: F401


# -- descendant three-point data ------------------------------------------------


def three_point_factor(delta_out, h, delta_in, n: int, inner: int):
    """The factor that peeling the lowering generator L_{-n} off a
    descendant of level inner + n contributes to a primary insertion's
    matrix element: delta_in + inner + n h - delta_out."""
    return delta_in + inner + n * h - delta_out


def three_point_rows(delta_out, h, delta_in, N: int) -> list:
    """Normalized values of the primary insertion between a highest-weight
    vector and each descendant L_{-lam} of weight delta_in, for every
    partition lam of each level 0..N, in the order of ``partitions``.

    Peeling one lowering generator at a time off the descendant gives
    ``three_point_factor`` per part n at the level of the parts after it:
    the entry of lam at level k is the factor of its first part n times
    the entry of lam[1:], kept from level k - n."""
    values = {(): 1}
    rows = [[1]]
    for k in range(1, N + 1):
        row = []
        for lam in partitions(k):
            n = lam[0]
            values[lam] = (three_point_factor(delta_out, h, delta_in, n, k - n)
                           * values[lam[1:]])
            row.append(values[lam])
        rows.append(row)
    return rows


class PrimaryMatrixElements:
    """Matrix elements of a primary insertion between two descendants of
    the same module, by recursion on the left state."""

    def __init__(self, module: VermaModule, h):
        self.module = module
        self.h = h
        self._memo: dict = {}

    def element(self, lam: tuple, mu: tuple):
        """<L_{-lam} e | primary(1) | L_{-mu} e> normalized to 1 on (), ()."""
        key = (lam, mu)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        d = self.module.delta
        if not lam:
            # the three-point value of L_{-mu}, peeled as in three_point_rows
            val = 1 if not mu else (three_point_factor(d, self.h, d, mu[0], sum(mu[1:]))
                                    * self.element((), mu[1:]))
        else:
            n, rest = lam[0], lam[1:]
            val = (three_point_factor(d + sum(mu), self.h, d, n, sum(rest))
                   * self.element(rest, mu))
            lowered = self.module.apply_L(n, {mu: 1})
            for nu, v in lowered.items():
                val = val + v * self.element(rest, nu)
        self._memo[key] = val
        return val


# -- block series ------------------------------------------------------------


@dataclass
class BlockSeries:
    """Truncated chiral partition function: prefactor exponent plus power
    series coefficients (c_0 = 1 under the trivial three-point
    normalization)."""

    leading_exponent: Fraction
    coeffs: list
    channel: str
    weights: dict

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _contract(contraction, module: VermaModule, k: int, left, right):
    """contraction(G_k, left, right); a singular G_k names k and the weight."""
    try:
        return contraction(module.gram(k), left, right)
    except GramSingularError as exc:
        raise GramSingularError(
            f"level-{k} contraction failed at internal weight "
            f"{module.delta}: {exc}") from exc


def sphere4_block(d1, d2, d3, d4, d_beta, c, N: int,
                  digits: int | None = None) -> BlockSeries:
    """Four-point series in the position of the second puncture.

    Punctures sit at 0, q, 1 and infinity with rational weights d1, d2,
    d3, d4; the internal channel weight is d_beta.  Prefactor exponent is
    d_beta - d1 - d2; coefficient k contracts the level-k descendant
    three-point rows through the inverse Gram matrix.  ``digits`` is
    unread, since the series is exact; it stays while the benchmark
    harness passes it.
    """
    d1, d2, d3, d4, d_beta, c = map(Fraction, (d1, d2, d3, d4, d_beta, c))
    module = VermaModule(d_beta, c)
    lefts = three_point_rows(d4, d3, d_beta, N)
    rights = three_point_rows(d1, d2, d_beta, N)
    coeffs = [_contract(solve_contraction, module, k, left, right)
              for k, (left, right) in enumerate(zip(lefts, rights))]
    return BlockSeries(
        leading_exponent=d_beta - d1 - d2,
        coeffs=coeffs,
        channel="sphere4",
        weights={"d1": d1, "d2": d2, "d3": d3, "d4": d4, "d_beta": d_beta},
    )


def torus1_block(d0, d_beta, c, N: int, digits: int | None = None) -> BlockSeries:
    """Self-glued one-point series: graded trace of the primary insertion
    weighted by q^(L_0 - c/24), for rational weights and central charge.
    ``digits`` is unread, as in ``sphere4_block``."""
    d0, d_beta, c = map(Fraction, (d0, d_beta, c))
    module = VermaModule(d_beta, c)
    elements = PrimaryMatrixElements(module, d0)
    coeffs = []
    for k in range(N + 1):
        # trace(G^-1 E) with E[i][j] = <lam_i| primary |lam_j>
        basis = partitions(k)
        E = [[elements.element(lam, mu) for mu in basis] for lam in basis]
        unit = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
        GinvE = _contract(contract, module, k, unit, E)
        coeffs.append(sum(GinvE[i][i] for i in range(len(basis))))
    return BlockSeries(
        leading_exponent=d_beta - c / 24,
        coeffs=coeffs,
        channel="torus1",
        weights={"d0": d0, "d_beta": d_beta},
    )


# -- degenerate second-order equation ----------------------------------------


def _bpz_terms(weights: tuple, B, rho, cs: list, j: int):
    """The z^(rho-2+j) coefficient of the null-vector equation on a series
    with coefficients cs, as (lead, rest): it reads lead * c_j + rest,
    where rest is read from c_0..c_(j-1) alone."""
    d1, dd, d3, d4 = weights
    lead = (rho + j) * (rho + j - 1) - B * (rho + j) + B * d1
    rest = (B * sum(cs[k] * (rho + k + d1 + dd + d3 - d4) for k in range(j))
            + B * d3 * sum((j - 1 - k) * cs[k] for k in range(j - 1)))
    return lead, rest


def bpz_residual(series: BlockSeries, b2, which: str) -> list:
    """Coefficients of the second-order null-vector equation applied to a
    four-point series whose second puncture is the degenerate field.

    The equation (in the position z of the degenerate puncture, weights
    d1, dd, d3, d4 at 0, z, 1, infinity) reads

        G'' + B [ -(1/z + 1/(z-1)) G' + d1/z^2 + d3/(z-1)^2
                  - (d1 + dd + d3 - d4)/(z (z-1)) ] G = 0

    with B = b^2 ('b' branch) or 1/b^2.  Returns the residual series
    coefficients (orders z^(rho-2+j), j = 0..N).
    """
    if series.channel != "sphere4":
        raise ValueError("null-vector equation applies to four-point series")
    w = series.weights
    weights = (w["d1"], w["d2"], w["d3"], w["d4"])
    B = Fraction(b2) if which == "b" else 1 / Fraction(b2)
    cs = series.coeffs
    out = []
    for j in range(series.order + 1):
        lead, rest = _bpz_terms(weights, B, series.leading_exponent, cs, j)
        out.append(lead * cs[j] + rest)
    return out


def frobenius_solution(d1, dd, d3, d4, b2, rho, N: int) -> list:
    """Independent power-series solution of the same null-vector equation
    on the 'b' branch (B = b^2), solving each order for c_j, normalized
    to c_0 = 1.

    Valid when the indicial roots do not differ by a positive integer
    (generic weights).
    """
    cs = [Fraction(1)]
    for j in range(1, N + 1):
        lead, rest = _bpz_terms((d1, dd, d3, d4), Fraction(b2), rho, cs, j)
        if lead == 0:
            raise ZeroDivisionError("resonant indicial roots")
        cs.append(-rest / lead)
    return cs
