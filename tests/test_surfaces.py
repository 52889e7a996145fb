import json
import random

import pytest

from holomon.reference import covariance_corpus, covariant_walk, reference_setup
from holomon.surfaces import (
    CurvePath,
    FlipError,
    PantsDecomposition,
    Surface,
    Triangulation,
    TriangulationError,
    exchange_matrix,
    flip,
    mutate_exchange_matrix,
    reference_triangulation,
    surface_from_json,
    surface_to_json,
    validate_dehn,
)


def flippable(tri):
    """The edges whose flip makes no self-folded triangle."""
    out = []
    for e in range(tri.n_edges):
        try:
            flip(tri, e)
        except FlipError:
            continue
        out.append(e)
    return out


def random_flips(tri, steps, rng):
    """The triangulations after each of ``steps`` random flips."""
    for _ in range(steps):
        tri = flip(tri, rng.choice(flippable(tri)))
        yield tri


def gluing(tri, e, sign=1):
    """The gluing table up to the rotation of each triangle and their order,
    with edge e's orientation multiplied by ``sign``."""
    def least_rotation(t):
        return min(t[i:] + t[:i] for i in range(3))
    return sorted(least_rotation(tuple((x, f * sign if x == e else f) for x, f in t))
                  for t in tri.triangles)


def face_count(tri):
    """Boundary cycles of the dual ribbon graph: from each side of a
    triangle, cross its edge and leave the far triangle by the next side
    clockwise."""
    unused = {(t, s) for t in range(len(tri.triangles)) for s in range(3)}
    faces = 0
    while unused:
        t, s = start = min(unused)
        faces += 1
        while True:
            unused.discard((t, s))
            e = tri.triangles[t][s][0]
            t, p = next(occ for occ in tri.edge_triangles(e) if occ != (t, s))
            s = (p + 2) % 3
            if (t, s) == start:
                break
    return faces


class TestSurface:
    def test_stability(self):
        with pytest.raises(ValueError):
            Surface(0, 2)
        with pytest.raises(ValueError):
            Surface(1, 0)
        Surface(1, 1)
        Surface(0, 3)

    def test_counts(self):
        s = Surface(1, 1)
        assert (s.n_edges, s.n_triangles, s.n_pants_curves) == (3, 2, 1)
        s = Surface(0, 4)
        assert (s.n_edges, s.n_triangles, s.n_pants_curves) == (6, 4, 1)


class TestTriangulation:
    def test_c11_counts(self):
        tri = reference_triangulation("c11")
        assert tri.n_edges == 3 and len(tri.triangles) == 2

    def test_c04_counts(self):
        tri = reference_triangulation("c04")
        assert tri.n_edges == 6 and len(tri.triangles) == 4

    def test_unpaired_side_rejected(self):
        with pytest.raises(TriangulationError):
            Triangulation(
                Surface(1, 1),
                [[(0, 1), (1, 1), (2, -1)], [(2, 1), (0, -1), (0, -1)]],
            )

    def test_self_folded_rejected(self):
        # edge 2 twice in the same triangle
        with pytest.raises(TriangulationError):
            Triangulation(
                Surface(1, 1),
                [[(0, 1), (1, 1), (1, -1)], [(2, 1), (0, -1), (2, -1)]],
            )

    def test_same_flag_gluing_rejected(self):
        with pytest.raises(TriangulationError):
            Triangulation(
                Surface(1, 1),
                [[(0, 1), (1, 1), (2, -1)], [(2, 1), (0, 1), (1, -1)]],
            )

    def test_corner_count_identity(self):
        for name in ("c11", "c04", "c05"):
            tri = reference_triangulation(name)
            corners = sum(len(tri.edge_triangles(e)) for e in range(tri.n_edges))
            assert corners == 3 * len(tri.triangles)


class TestExchangeMatrix:
    def test_c11_by_hand(self):
        # corner enumeration oracle: both triangles see cyclic (a,b,c), so
        # each ordered ccw-successor pair picks up +1 twice
        tri = reference_triangulation("c11")
        assert exchange_matrix(tri) == [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]

    @pytest.mark.parametrize("name", ["c11", "c04", "c05"])
    def test_antisymmetry_and_range(self, name):
        n = exchange_matrix(reference_triangulation(name))
        for i, row in enumerate(n):
            for j, v in enumerate(row):
                assert v == -n[j][i]
                assert -2 <= v <= 2

    def test_random_flips_preserve_invariants(self):
        rng = random.Random(11)
        for name in ("c04", "c05"):
            tri = reference_triangulation(name)
            for cur in random_flips(tri, 12, rng):
                n = exchange_matrix(cur)
                for i, row in enumerate(n):
                    for j, v in enumerate(row):
                        assert v == -n[j][i] and -2 <= v <= 2

    def test_no_shared_triangle_means_zero(self):
        tri = reference_triangulation("c04")
        n = exchange_matrix(tri)
        # opposite tetrahedron edges (12|34), (13|24), (14|23) share no face
        for i, j in [(0, 5), (1, 4), (2, 3)]:
            assert n[i][j] == 0


class TestFlip:
    def test_involution(self):
        # the second flip puts the two triangles back in swapped slots and
        # may reverse the flipped edge's reference orientation
        for name in ("c11", "c04"):
            tri = reference_triangulation(name)
            for e in flippable(tri):
                assert gluing(flip(flip(tri, e), e), e) in (gluing(tri, e), gluing(tri, e, -1))
                assert gluing(flip(tri, e), e) not in (gluing(tri, e), gluing(tri, e, -1))

    def test_counts_preserved(self):
        tri = reference_triangulation("c04")
        tri2 = flip(tri, 0)
        assert tri2.n_edges == tri.n_edges
        assert len(tri2.triangles) == len(tri.triangles)

    def test_c11_flip_matrix_recomputed(self):
        # corner recount oracle: after flipping any edge of the two-triangle
        # torus both triangles see the reversed cyclic order, so every entry
        # changes sign (this also equals the matrix mutation rule)
        tri = reference_triangulation("c11")
        n = exchange_matrix(tri)
        for e in range(3):
            n2 = exchange_matrix(flip(tri, e))
            assert n2 == [[-v for v in row] for row in n]
            assert n2 == mutate_exchange_matrix(n, e)

    @pytest.mark.parametrize("name", ["c04", "c05"])
    def test_flip_matches_matrix_mutation(self, name):
        tri = reference_triangulation(name)
        rng = random.Random(5)
        cur = tri
        for _ in range(10):
            e = rng.choice(flippable(cur))
            n = exchange_matrix(cur)
            cur = flip(cur, e)
            assert exchange_matrix(cur) == mutate_exchange_matrix(n, e)

class TestFatGraph:
    """The dual fat graph, read off the triangulation: triangle i is vertex
    i and its sides are that vertex's ccw edge order."""

    def test_c11_dual(self):
        tri = reference_triangulation("c11")
        assert len(tri.triangles) == 2 and tri.n_edges == 3
        assert {e for e, _ in tri.triangles[0]} == {0, 1, 2} == {e for e, _ in tri.triangles[1]}
        assert all({t for t, _ in tri.edge_triangles(e)} == {0, 1} for e in range(3))

    @pytest.mark.parametrize("name,npunct", [("c11", 1), ("c04", 4), ("c05", 5)])
    def test_face_walk_count(self, name, npunct):
        assert face_count(reference_triangulation(name)) == npunct

    def test_walk_validation(self):
        tri = reference_triangulation("c11")
        good = CurvePath([(0, "L"), (1, "R")], start=0)
        assert good.resolve(tri) == [(1, 1, 2), (0, 1, 0)]
        bad = CurvePath([(0, "L"), (2, "R")], start=0)
        with pytest.raises(ValueError):
            bad.resolve(tri)

    @pytest.mark.parametrize("name", ["c11", "c04"])
    def test_corners_follow_the_steps(self, name):
        # corner k enters across step k's edge, turns by its offset and
        # leaves across step k + 1's edge
        tri, curves = reference_setup(name)
        walks = [(tri, cp) for cp in curves.values()]
        walks += [(flip(tri, e), covariant_walk(name, e, c)) for e, c in covariance_corpus(name)]
        for t, cp in walks:
            corners = cp.resolve(t)
            assert len(corners) == len(cp.steps)
            for k, ((e, turn), (w, p, q)) in enumerate(zip(cp.steps, corners)):
                assert t.triangles[w][p][0] == e
                assert (q - p) % 3 == {"L": 1, "R": 2}[turn]
                assert t.triangles[w][q][0] == cp.steps[(k + 1) % len(cp.steps)][0]


def c04_pants():
    return PantsDecomposition(
        Surface(0, 4),
        [
            [("bdry", 0), ("bdry", 1), ("cut", 0)],
            [("cut", 0), ("bdry", 2), ("bdry", 3)],
        ],
    )


def c11_pants():
    return PantsDecomposition(
        Surface(1, 1),
        [[("cut", 0), ("cut", 0), ("bdry", 0)]],
    )


class TestDehn:
    def test_all_zero_valid(self):
        assert validate_dehn(c04_pants(), {0: (0, 0)}) == []

    def test_negative_twist_at_zero_r(self):
        v = validate_dehn(c04_pants(), {0: (0, -1)})
        assert len(v) == 1 and v[0].constraint == "(ii)"

    def test_negative_r(self):
        v = validate_dehn(c04_pants(), {0: (-1, 0)})
        assert any(x.constraint == "(i)" for x in v)

    def test_parity_constraint(self):
        # three curves bounding one pair of pants with odd total r
        pd = PantsDecomposition(
            Surface(0, 5),
            [
                [("bdry", 0), ("bdry", 1), ("cut", 0)],
                [("cut", 0), ("cut", 1), ("bdry", 2)],
                [("cut", 1), ("bdry", 3), ("bdry", 4)],
            ],
        )
        v = validate_dehn(pd, {0: (1, 0), 1: (2, 0)})
        assert any(x.constraint == "(iii)" for x in v)
        assert validate_dehn(pd, {0: (2, 0), 1: (2, 0)}) == []

    def test_decomposable_predicate(self):
        # each constraint trips independently of the others
        pd = c04_pants()
        cases = {
            (0, 0): set(),
            (-1, 5): {"(i)", "(iii)"},
            (0, -2): {"(ii)"},
            (1, 0): {"(iii)"},
        }
        for rs, want in cases.items():
            got = {v.constraint for v in validate_dehn(pd, {0: rs})}
            assert got == want


class TestSerialization:
    def test_roundtrip(self):
        tri = reference_triangulation("c04")
        curves = {"s": CurvePath([(3, "R"), (1, "L"), (2, "R"), (4, "L")], start=0)}
        doc = json.loads(surface_to_json(tri, curves))
        # the pants block is written by hand, as in the README's example
        doc["pants"] = {"vertices": [[["bdry", 0], ["bdry", 1], ["cut", 0]],
                                     [["cut", 0], ["bdry", 2], ["bdry", 3]]],
                        "names": ["s"]}
        tri2, curves2, pants2 = surface_from_json(json.dumps(doc))
        assert (tri2.surface, tri2.triangles) == (tri.surface, tri.triangles)
        c, c2 = curves["s"], curves2["s"]
        assert (c2.steps, c2.start) == (c.steps, c.start)
        assert (pants2.vertices, pants2.curve_names) == (c04_pants().vertices, ("s",))
