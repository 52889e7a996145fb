"""Curated reference data for the one-holed torus and four-holed sphere.

Each table is pinned by an identity that a row of ``holomon verify all``
re-checks on every run (its tag in brackets):

- the walks in ``_CURVES`` all have positive trace coefficients
  (``trace-positivity``); the generators ``s``, ``t``, ``u`` with the
  peripheral walks satisfy the trace relation (``cubic-relation``,
  ``quartic-relation``) and its quantum deformation (``q-commutator``,
  ``q-cubic``), and ``st_other`` with ``u`` resolves the s,t product
  (``skein-product``);
- ``RELATIONS`` holds the deformed generator relations once, for every
  layer that evaluates them: at s = 1 they are the trace relations
  (``cubic-relation``, ``quartic-relation``, and through their
  u-derivative ``bracket-derivative``), on the Weyl-quantized traces the
  deformed ones (``q-commutator``, ``q-cubic``, ``bar-invariance``), and on
  the shift operators both (``shift-residual-quadratic``,
  ``shift-residual-cubic``; Lu there is Lt carried by the twist that
  takes t to u, so neither relation holds by construction);
- ``LOOP_BRACKET_CONSTANT`` scales the bracket {L_s, L_t} to the
  u-derivative of the relation (``bracket-derivative``);
- the walks of s, t, u and the peripheral curves carried through each
  flip are derived by ``surfaces.flip_walk``, not stored, and reproduce
  their traces through the coordinate mutation (``mutation-covariance``).

Nothing here is trusted without a check.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import add, mul

from .qcoeff import SPoly
from .surfaces import CurvePath, flip_walk, reference_triangulation

# The deformed generator relations, keyed by (surface, degree).  Each maps a
# word in the generators s, t, u, read in operator order ("stu" is
# Ls Lt Lu, "" the identity), to its coefficient: a map from a product of
# named boundary values ("L1 L3"; "" for none) to a Laurent polynomial in
# s, the quarter power of q (so q^(1/2) = s^2).  Boundary values are
# central, so they stand in the coefficient.
RELATIONS = {
    # q^(1/2) st - q^(-1/2) ts - (q - 1/q) u
    ("c11", 2): {
        "st": {"": SPoly({2: 1})},
        "ts": {"": SPoly({-2: -1})},
        "u": {"": SPoly({4: -1, -4: 1})},
    },
    # q ss + q^-1 tt + q uu - q^(1/2) stu + L0 - (q + 1/q)
    ("c11", 3): {
        "ss": {"": SPoly({4: 1})},
        "tt": {"": SPoly({-4: 1})},
        "uu": {"": SPoly({4: 1})},
        "stu": {"": SPoly({2: -1})},
        "": {"L0": SPoly({0: 1}), "": SPoly({4: -1, -4: -1})},
    },
    # q st - q^-1 ts - (q^2 - q^-2) u - (q - 1/q)(L1 L3 + L2 L4)
    ("c04", 2): {
        "st": {"": SPoly({4: 1})},
        "ts": {"": SPoly({-4: -1})},
        "u": {"": SPoly({8: -1, -8: 1})},
        "": {"L1 L3": SPoly({4: -1, -4: 1}), "L2 L4": SPoly({4: -1, -4: 1})},
    },
    # L1 L2 L3 L4 + sum Li^2 - (q + 1/q)^2 - q stu + q^2 ss + q^-2 tt + q^2 uu
    #   + q (L3 L4 + L1 L2) s + q^-1 (L2 L3 + L1 L4) t + q (L1 L3 + L2 L4) u
    ("c04", 3): {
        "": {"L1 L2 L3 L4": SPoly({0: 1}), "L1 L1": SPoly({0: 1}), "L2 L2": SPoly({0: 1}),
             "L3 L3": SPoly({0: 1}), "L4 L4": SPoly({0: 1}), "": SPoly({8: -1, 0: -2, -8: -1})},
        "stu": {"": SPoly({4: -1})},
        "ss": {"": SPoly({8: 1})},
        "tt": {"": SPoly({-8: 1})},
        "uu": {"": SPoly({8: 1})},
        "s": {"L3 L4": SPoly({4: 1}), "L1 L2": SPoly({4: 1})},
        "t": {"L2 L3": SPoly({-4: 1}), "L1 L4": SPoly({-4: 1})},
        "u": {"L1 L3": SPoly({4: 1}), "L2 L4": SPoly({4: 1})},
    },
}


def relation_terms(kind: str, degree: int, values: dict, scalar, keep=None) -> list:
    """The relation's (coefficient, word) pairs, one per word (with
    ``keep``, one per word it accepts).

    Each coefficient is evaluated as the sum of scalar(s-polynomial) times
    the product of its boundary values from ``values``.  ``scalar`` carries
    the s-polynomials into the caller's ring: ``SPoly.at_one`` for trace
    polynomials, the identity or ``SPoly.conj`` on the quantum torus, a
    number at s = q^(1/4) for shift operators.
    """
    rel = RELATIONS.get((kind, degree))
    if rel is None:
        raise ValueError(f"no relation for kind={kind!r} degree={degree}")
    return [(reduce(add, (reduce(mul, (values[k] for k in names.split()), scalar(poly))
                          for names, poly in coeff.items())), word)
            for word, coeff in rel.items() if keep is None or keep(word)]


def word_sum(terms: list, values: dict):
    """The sum over (coefficient, word) pairs of the coefficient times the
    product of ``values`` along the word, in operator order."""
    return reduce(add, (reduce(mul, (values[g] for g in word), c) for c, word in terms))


# ratio (dP/dL_u) / {L_s, L_t} measured exactly on the reference surfaces;
# one intersection point on the torus piece, two on the sphere piece
LOOP_BRACKET_CONSTANT = {"c11": 2, "c04": 1}

_CURVES = {
    "c11": {
        # generators: s and t cross once; u is their coherent resolution
        "s": ([(0, "L"), (1, "R")], 0),
        "t": ([(0, "R"), (2, "L")], 0),
        "u": ([(1, "L"), (2, "R")], 0),
        # the other resolution of the s,t crossing
        "st_other": ([(0, "R"), (2, "L"), (0, "L"), (1, "R")], 0),
        # peripheral walk around the puncture
        "p1": ([(0, "R"), (2, "R"), (1, "R"), (0, "R"), (2, "R"), (1, "R")], 0),
    },
    "c04": {
        # edges 0..5 = (12,13,14,23,24,34); s separates punctures 12|34,
        # t separates 23|14, u separates 13|24
        "s": ([(3, "R"), (1, "L"), (2, "R"), (4, "L")], 0),
        "t": ([(5, "L"), (1, "R"), (0, "L"), (4, "R")], 0),
        "u": ([(3, "L"), (0, "R"), (2, "L"), (5, "R")], 0),
        "st_other": ([(3, "R"), (1, "R"), (5, "L"), (4, "L"),
                      (2, "R"), (1, "R"), (0, "L"), (4, "L")], 0),
        # peripheral walks around punctures 1..4
        "p1": ([(1, "R"), (0, "R"), (2, "R")], 1),
        "p2": ([(4, "R"), (0, "R"), (3, "R")], 0),
        "p3": ([(3, "R"), (1, "R"), (5, "R")], 0),
        "p4": ([(5, "R"), (2, "R"), (4, "R")], 0),
    },
}


def reference_curves(name: str) -> dict:
    """All curated walks on the reference triangulation ``name``."""
    if name not in _CURVES:
        raise ValueError(f"no reference curves for {name!r}")
    return {k: CurvePath(steps, start=start) for k, (steps, start) in _CURVES[name].items()}


@cache
def _flipped_walks(name: str) -> dict:
    """{(edge, curve name): walk in the triangulation flipped at that edge}
    for s, t, u and the peripheral curves, each derived by ``flip_walk``.

    Derived once per surface, since callers time ``covariant_walk`` inside
    each covariance check."""
    tri, curves = reference_setup(name)
    return {(e, c): flip_walk(tri, e, curves[c])
            for e in range(tri.n_edges) for c in ("s", "t", "u", *boundary_names(name))}


def covariant_walk(name: str, e: int, curve: str) -> CurvePath:
    """The walk of ``curve`` in the triangulation flipped at ``e``."""
    walks = _flipped_walks(name)
    if (e, curve) not in walks:
        raise KeyError(f"no covariant walk for {(name, e, curve)}")
    return walks[(e, curve)]


def covariance_corpus(name: str) -> list:
    """All (edge, curve name) pairs with covariant walks."""
    return sorted(_flipped_walks(name))


def boundary_names(name: str) -> list:
    if name == "c11":
        return ["p1"]
    if name == "c04":
        return ["p1", "p2", "p3", "p4"]
    raise ValueError(f"unknown reference surface {name!r}")


def reference_setup(name: str) -> tuple:
    """(Triangulation, curves dict) for the named reference surface."""
    return reference_triangulation(name), reference_curves(name)
