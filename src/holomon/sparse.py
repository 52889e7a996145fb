"""Sparse term maps: dicts from keys to nonzero coefficients.

Laurent polynomials, s-polynomials, quantum-torus elements, bigraded tau
series and Verma-module states are all such maps; these functions are
the only loops that add or multiply two of them (the grade-wise series
division in ``tau`` aside).  A sum that comes out falsy is
dropped on the spot, which covers ints, Fractions, mpmath numbers and
SPoly coefficients alike.  Coefficients must commute.
"""

from __future__ import annotations

from operator import add as _add


def add_into(out: dict, b, scale=None) -> dict:
    """out += scale * b in place (scale None means 1); returns out."""
    for k, v in b.items():
        if scale is not None:
            v = scale * v
        s = out[k] + v if k in out else v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def add(a: dict, b: dict) -> dict:
    """a + b as a new map."""
    return add_into(dict(a), b)


def convolve(a: dict, b, keyadd, weight=None) -> dict:
    """Product sum over all term pairs: (k1, v1) of ``a`` and (k2, v2) of
    ``b`` add v1 * v2 * weight(k1, k2) at key keyadd(k1, k2).

    ``b`` is a dict or a list of its items.  A ``keyadd`` that returns
    None ends the row, so a ``b`` sorted by grade truncates a graded
    product without visiting the pairs past the cut.
    """
    out: dict = {}
    right = b.items() if isinstance(b, dict) else b
    for k1, v1 in a.items():
        for k2, v2 in right:
            k = keyadd(k1, k2)
            if k is None:
                break
            v = v1 * v2
            if weight is not None:
                v = v * weight(k1, k2)
            s = out[k] + v if k in out else v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def vec_add(d1: tuple, d2: tuple) -> tuple:
    """Componentwise sum of exponent vectors, the key rule of monomials."""
    return tuple(map(_add, d1, d2))


def pairing(d1, d2, n) -> int:
    """Symplectic pairing d1 . n . d2 of doubled exponent vectors, that is
    4 <mu, nu> for the exchange matrix n."""
    total = 0
    for a, da in enumerate(d1):
        if da:
            row = n[a]
            for b, db in enumerate(d2):
                if db:
                    total += da * row[b] * db
    return total
