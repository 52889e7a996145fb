"""Combinatorial surface topology.

Punctured surfaces, ideal triangulations given by gluing tables, diagonal
flips, the antisymmetric exchange matrix, closed walks across the triangles
carrying curves and their images under a flip, pants decompositions with
their Dehn parameter constraints, and the JSON surface file.

Triangles are oriented: each one lists its three sides in counterclockwise
order as ``(edge_index, flag)`` with ``flag = +1`` when the side runs along
the edge's reference orientation.  On an oriented surface every edge is
used exactly twice, once with each flag.  Self-folded triangles (an edge
used twice by the same triangle) are rejected everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

LEFT = "L"
RIGHT = "R"
# a walk entering a triangle at one side leaves at the side this many
# places further ccw
_OFFSET = {LEFT: 1, RIGHT: 2}


def _integer(v, what: str) -> int:
    """``v`` itself when it is an int; a bool, a float or a string is a
    malformed index, not one to convert."""
    if type(v) is not int:
        raise TypeError(f"{what} must be an integer, got {v!r}")
    return v


@dataclass(frozen=True)
class Surface:
    """A genus-g surface with n punctures; must be stable (2g-2+n > 0)."""

    genus: int
    punctures: int

    def __post_init__(self):
        _integer(self.genus, "genus")
        _integer(self.punctures, "punctures")
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and punctures must be non-negative")
        if 2 * self.genus - 2 + self.punctures <= 0:
            raise ValueError(f"unstable surface C_{{{self.genus},{self.punctures}}}")

    @property
    def is_triangulable(self) -> bool:
        return self.punctures >= 1

    @property
    def n_edges(self) -> int:
        return 6 * self.genus - 6 + 3 * self.punctures

    @property
    def n_triangles(self) -> int:
        return 4 * self.genus - 4 + 2 * self.punctures

    @property
    def n_pants_curves(self) -> int:
        return 3 * self.genus - 3 + self.punctures


class TriangulationError(ValueError):
    pass


class Triangulation:
    """An ideal triangulation with all vertices at the punctures.

    ``triangles`` is a tuple of triples ``((e0,f0),(e1,f1),(e2,f2))`` in ccw
    order.  Construction validates the Euler counts, the side pairing and
    the absence of self-folded triangles.
    """

    __slots__ = ("surface", "triangles", "n_edges", "_occurrences")

    def __init__(self, surface: Surface, triangles: Sequence):
        if not surface.is_triangulable:
            raise TriangulationError("surface has no punctures, not triangulable")
        tris = []
        for t in triangles:
            sides = tuple((_integer(e, "edge index"), _integer(f, "orientation flag"))
                          for e, f in t)
            if len(sides) != 3:
                raise TriangulationError(f"triangle {t} does not have 3 sides")
            for _, f in sides:
                if f not in (1, -1):
                    raise TriangulationError(f"bad orientation flag in {t}")
            tris.append(sides)
        self.surface = surface
        self.triangles = tuple(tris)

        edges = sorted({e for t in self.triangles for e, _ in t})
        if edges != list(range(len(edges))):
            raise TriangulationError("edge indices must be 0..E-1 without gaps")
        self.n_edges = len(edges)

        if self.n_edges != surface.n_edges:
            raise TriangulationError(
                f"expected {surface.n_edges} edges, gluing table uses {self.n_edges}")
        if len(self.triangles) != surface.n_triangles:
            raise TriangulationError(
                f"expected {surface.n_triangles} triangles, got {len(self.triangles)}")

        # each edge must be used exactly twice, with opposite flags, by
        # two distinct triangles
        seen: dict = {}
        for ti, t in enumerate(self.triangles):
            for pos, (e, _) in enumerate(t):
                seen.setdefault(e, []).append((ti, pos))
        for e, occ in seen.items():
            if len(occ) != 2:
                raise TriangulationError(f"edge {e} used {len(occ)} times, want 2")
            (t1, p1), (t2, p2) = occ
            if t1 == t2:
                raise TriangulationError(f"edge {e} makes triangle {t1} self-folded")
            if self.triangles[t1][p1][1] + self.triangles[t2][p2][1] != 0:
                raise TriangulationError(f"edge {e} glued without reversing orientation")
        self._occurrences = tuple(tuple(seen[e]) for e in edges)

    # -- queries -----------------------------------------------------------

    def edge_triangles(self, e: int) -> tuple:
        """The two (triangle index, position) occurrences of edge e."""
        return self._occurrences[e]

    def __repr__(self):
        return (f"Triangulation(C_{{{self.surface.genus},{self.surface.punctures}}}, "
                f"{len(self.triangles)} triangles, {self.n_edges} edges)")


# -- reference triangulations ----------------------------------------------

def reference_triangulation(name: str) -> Triangulation:
    """Stored triangulations: 'c11' (two-triangle torus), 'c04'
    (tetrahedron sphere), 'c05' (bipyramid sphere)."""
    if name == "c11":
        # edges 0=a, 1=b, 2=c (diagonal); both triangles see cyclic (a,b,c)
        return Triangulation(
            Surface(1, 1),
            [[(0, 1), (1, 1), (2, -1)], [(2, 1), (0, -1), (1, -1)]],
        )
    if name == "c04":
        # boundary of a tetrahedron on punctures 1..4;
        # edges 0..5 = (12, 13, 14, 23, 24, 34)
        return Triangulation(
            Surface(0, 4),
            [
                [(3, 1), (5, 1), (4, -1)],   # face (2,3,4)
                [(2, 1), (5, -1), (1, -1)],  # face (1,4,3)
                [(0, 1), (4, 1), (2, -1)],   # face (1,2,4)
                [(1, 1), (3, -1), (0, -1)],  # face (1,3,2)
            ],
        )
    if name == "c05":
        # triangular bipyramid: equator punctures 1,2,3, apexes 4 (top), 5
        # (bottom); edges 0..8 = (12, 23, 31, 41, 42, 43, 51, 52, 53)
        return Triangulation(
            Surface(0, 5),
            [
                [(0, 1), (4, 1), (3, -1)],   # (1,2,4)
                [(1, 1), (5, 1), (4, -1)],   # (2,3,4)
                [(2, 1), (3, 1), (5, -1)],   # (3,1,4)
                [(0, -1), (6, 1), (7, -1)],  # (2,1,5)
                [(1, -1), (7, 1), (8, -1)],  # (3,2,5)
                [(2, -1), (8, 1), (6, -1)],  # (1,3,5)
            ],
        )
    raise ValueError(f"unknown reference triangulation {name!r}")


# -- exchange matrix ---------------------------------------------------------

def exchange_matrix(tri: Triangulation) -> list:
    """Antisymmetric integer matrix of total corner intersection indices.

    Convention: within each triangle, the ccw successor relation
    contributes +1, its reverse -1; both adjacent triangles contribute.
    """
    E = tri.n_edges
    n = [[0] * E for _ in range(E)]
    for t in tri.triangles:
        es = [e for e, _ in t]
        for i in range(3):
            a, b = es[i], es[(i + 1) % 3]
            n[a][b] += 1
            n[b][a] -= 1
    return n


def mutate_exchange_matrix(n: list, k: int) -> list:
    """Matrix mutation at index k (skew-symmetric exchange-matrix rule)."""
    E = len(n)
    out = [[0] * E for _ in range(E)]
    for i in range(E):
        for j in range(E):
            if i == k or j == k:
                out[i][j] = -n[i][j]
            else:
                out[i][j] = n[i][j] + (abs(n[i][k]) * n[k][j] + n[i][k] * abs(n[k][j])) // 2
    return out


# -- flips -------------------------------------------------------------------

class FlipError(ValueError):
    pass


def flip(tri: Triangulation, e: int) -> Triangulation:
    """Exchange the diagonal e of its quadrilateral.

    The edge index is reused for the new diagonal.  Rejected when the move
    would produce a self-folded triangle.
    """
    if not 0 <= e < tri.n_edges:
        raise FlipError(f"edge {e} out of range 0..{tri.n_edges - 1}")
    # construction guarantees two occurrences in distinct triangles
    (t1, p1), (t2, p2) = tri.edge_triangles(e)

    def rotated(ti, pos):
        t = tri.triangles[ti]
        # rotate so the diagonal is last: (A, B, e)
        return (t[(pos + 1) % 3], t[(pos + 2) % 3], t[pos])

    A, B, _ = rotated(t1, p1)
    C, D, _ = rotated(t2, p2)
    if B[0] == C[0] or D[0] == A[0]:
        raise FlipError(f"flip at edge {e} would create a self-folded triangle")

    new1 = (B, C, (e, 1))
    new2 = (D, A, (e, -1))
    tris = list(tri.triangles)
    tris[t1] = new1
    tris[t2] = new2
    return Triangulation(tri.surface, tris)


# -- curves as walks across triangles -----------------------------------------

def dual_fat_graph(tri: Triangulation) -> Triangulation:
    """``tri`` itself, which holds its dual fat graph: triangle i is vertex i,
    its sides are that vertex's ccw edge order.  It stays while the
    benchmark harness calls it."""
    return tri


class CurvePath:
    """A closed walk across the triangles of a triangulation, given as
    (edge, turn) steps: each step crosses its edge into a triangle and
    turns L or R there to the side the next step crosses.

    ``start`` is the triangle the first edge is crossed from (the dual fat
    graph's vertex); None stands for the smaller-indexed triangle of the
    first edge.
    """

    __slots__ = ("steps", "start")

    def __init__(self, steps: Sequence, start: int | None):
        self.steps = tuple((_integer(e, "edge index"), t) for e, t in steps)
        if not self.steps:
            raise ValueError("empty walk")
        for _, t in self.steps:
            if t not in (LEFT, RIGHT):
                raise ValueError(f"turn must be 'L' or 'R', got {t!r}")
        self.start = None if start is None else _integer(start, "start vertex")

    def resolve(self, tri: Triangulation) -> list:
        """Validate the walk against ``tri``.

        Returns its corners ``[(triangle, entry position, exit position), ...]``,
        one per step: the triangle the step's edge leads into and the
        positions there of that edge and of the next step's.  Raises if an
        edge is not in ``tri``, a turn leads off the walk or the walk fails
        to close up.
        """
        for e, _ in self.steps:
            if not 0 <= e < tri.n_edges:
                raise ValueError(f"edge {e} out of range 0..{tri.n_edges - 1}")
        e0 = self.steps[0][0]
        ends = [t for t, _ in tri.edge_triangles(e0)]
        v = v0 = self.start if self.start is not None else min(ends)
        if v not in ends:
            raise ValueError(f"start vertex {v} is not an end of edge {e0}")
        out = []
        for i, (e, turn) in enumerate(self.steps):
            # e's side in the triangle across it from v
            w, p = next(occ for occ in tri.edge_triangles(e) if occ[0] != v)
            q = (p + _OFFSET[turn]) % 3
            nxt = tri.triangles[w][q][0]
            expected = self.steps[(i + 1) % len(self.steps)][0]
            if nxt != expected:
                raise ValueError(
                    f"walk broken at step {i}: turn {turn} at vertex {w} "
                    f"leads to edge {nxt}, walk says {expected}")
            out.append((w, p, q))
            v = w
        if v != v0:
            raise ValueError("walk does not close up")
        return out

    def __repr__(self):
        body = ",".join(f"{e}{t}" for e, t in self.steps)
        return f"CurvePath[{body}; start={self.start}]"


def flip_walk(tri: Triangulation, e: int, curve: CurvePath) -> CurvePath:
    """The walk of ``curve`` in ``flip(tri, e)``.

    A walk is a cycle of corners: it enters a triangle through one side,
    an (edge, flag) pair, and leaves through another.  Corners outside the
    quadrilateral of e stay.  Each passage through the quadrilateral, from
    one of its four sides to another, becomes the corner of the new
    triangle that holds both sides, or two corners across the new
    diagonal.  The flip keeps every side's (edge, flag), so each is looked
    up in its output.
    """
    new = flip(tri, e)
    # (entry side, exit side)
    corners = [(tri.triangles[w][p], tri.triangles[w][q]) for w, p, q in curve.resolve(tri)]
    # begin at a corner not entered across e, so that no passage wraps round
    k = next(i for i, (a, _) in enumerate(corners) if a[0] != e)
    at = {side: (ti, pos) for ti, t in enumerate(new.triangles) for pos, side in enumerate(t)}
    out = []  # the corners in the flipped triangulation
    for a, b in corners[k:] + corners[:k]:
        if b[0] == e:  # the passage goes on across e
            entry = a
            continue
        if a[0] == e:
            a = entry
        if at[a][0] == at[b][0]:
            out.append((a, b))
        else:
            d = next(side for side in new.triangles[at[a][0]] if side[0] == e)
            out += [(a, d), ((e, -d[1]), b)]
    a0 = out[0][0]
    return CurvePath([(a[0], LEFT if (at[b][1] - at[a][1]) % 3 == 1 else RIGHT) for a, b in out],
                     start=at[(a0[0], -a0[1])][0])


# -- pants decompositions ------------------------------------------------------

class PantsDecomposition:
    """A cut system with marking graph.

    ``vertices`` lists, per pair of pants, the cyclic triple of legs; a leg
    is ``('cut', curve_index)`` or ``('bdry', puncture_label)``.  Each cut
    curve must appear on exactly two legs (possibly of the same vertex).
    """

    __slots__ = ("surface", "vertices", "curve_names")

    def __init__(self, surface: Surface, vertices: Sequence, curve_names=None):
        self.surface = surface
        self.vertices = tuple(tuple(tuple(leg) for leg in v) for v in vertices)
        h = surface.n_pants_curves
        cuts: dict = {}
        bdry = []
        for v in self.vertices:
            if len(v) != 3:
                raise ValueError("pants vertices must have exactly 3 legs")
            for kind, lab in v:
                _integer(lab, "leg label")
                if kind == "cut":
                    cuts[lab] = cuts.get(lab, 0) + 1
                elif kind == "bdry":
                    bdry.append(lab)
                else:
                    raise ValueError(f"unknown leg kind {kind!r}")
        if sorted(cuts) != list(range(h)):
            raise ValueError(f"cut curves must be 0..{h - 1}")
        if any(cnt != 2 for cnt in cuts.values()):
            raise ValueError("every cut curve needs exactly two legs")
        if sorted(bdry) != list(range(surface.punctures)):
            raise ValueError("boundary labels must be each puncture once")
        if len(self.vertices) != 2 * surface.genus - 2 + surface.punctures:
            raise ValueError("wrong number of pairs of pants")
        if curve_names is None:
            curve_names = [f"gamma{c}" for c in range(h)]
        if (isinstance(curve_names, str) or len(curve_names) != h
                or not all(isinstance(x, str) for x in curve_names)):
            raise ValueError(f"names must be {h} strings, one per cut curve")
        self.curve_names = tuple(curve_names)

    @property
    def n_curves(self) -> int:
        return self.surface.n_pants_curves

    def __repr__(self):
        return f"PantsDecomposition({self.surface}, {len(self.vertices)} pants)"


@dataclass(frozen=True)
class DehnViolation:
    constraint: str
    location: object
    detail: str


def validate_dehn(pd: PantsDecomposition, dp: dict) -> list:
    """Check Dehn parameters ``{curve: (r, s)}``; returns violation list
    (empty = valid)."""
    violations = []
    for c in range(pd.n_curves):
        r, s = dp.get(c, (0, 0))
        if r < 0:
            violations.append(DehnViolation("(i)", c, f"r_{c} = {r} < 0"))
        if r == 0 and s < 0:
            violations.append(DehnViolation("(ii)", c, f"r_{c} = 0 but s_{c} = {s} < 0"))
    for vi, v in enumerate(pd.vertices):
        total = 0
        for kind, lab in v:
            if kind == "cut":
                total += dp.get(lab, (0, 0))[0]
        if total % 2 != 0:
            violations.append(
                DehnViolation("(iii)", vi, f"pants {vi} has odd total r = {total}"))
    return violations


# -- serialization --------------------------------------------------------------

def surface_to_json(tri: Triangulation, curves: dict | None = None) -> str:
    doc: dict = {
        "genus": tri.surface.genus,
        "punctures": tri.surface.punctures,
        "triangles": [[[e, f] for e, f in t] for t in tri.triangles],
    }
    if curves:
        doc["curves"] = {
            name: {"start": cp.start, "steps": [[e, t] for e, t in cp.steps]}
            for name, cp in sorted(curves.items())
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def surface_from_json(text: str) -> tuple:
    """Returns (Triangulation, {name: CurvePath}, PantsDecomposition|None)."""
    doc = json.loads(text)
    tri = Triangulation(
        Surface(doc["genus"], doc["punctures"]),
        [[(e, f) for e, f in t] for t in doc["triangles"]],
    )
    curves = {}
    for name, item in doc.get("curves", {}).items():
        curves[name] = CurvePath([(e, t) for e, t in item["steps"]], start=item.get("start"))
    pants = None
    if "pants" in doc:
        pants = PantsDecomposition(
            tri.surface,
            [[(k, lab) for k, lab in v] for v in doc["pants"]["vertices"]],
            doc["pants"].get("names"),
        )
    return tri, curves, pants
