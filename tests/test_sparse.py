from collections import defaultdict
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from holomon.sparse import add, add_into, convolve, pairing

# few keys and tiny coefficients, so sums cancel to exactly zero often
coeffs = st.integers(-2, 2).filter(bool) | st.sampled_from([Fraction(1, 2), Fraction(-1, 2)])
maps = st.dictionaries(st.integers(-3, 3), coeffs, max_size=6)
graded = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 4)), coeffs, max_size=6)


def naive(pairs):
    out = defaultdict(int)
    for k, v in pairs:
        out[k] += v
    return {k: v for k, v in out.items() if v != 0}


@settings(max_examples=200, deadline=None)
@given(maps, maps, st.integers(-2, 2))
def test_add_matches_naive(a, b, scale):
    want = naive([*a.items(), *b.items()])
    assert add(a, b) == want
    assert add_into(dict(a), b, scale) == naive([*a.items(), *((k, scale * v) for k, v in b.items())])
    assert all(v != 0 for v in add(a, b).values())


@settings(max_examples=200, deadline=None)
@given(maps, maps)
def test_convolve_matches_naive(a, b):
    got = convolve(a, b, int.__add__)
    assert got == naive([(k1 + k2, v1 * v2) for k1, v1 in a.items() for k2, v2 in b.items()])
    assert all(v != 0 for v in got.values())
    # a weight that vanishes on some pairs drops their terms
    weighted = convolve(a, b, int.__add__, lambda k1, k2: k1 - k2)
    assert weighted == naive([(k1 + k2, v1 * v2 * (k1 - k2))
                              for k1, v1 in a.items() for k2, v2 in b.items()])


@settings(max_examples=200, deadline=None)
@given(graded, graded, st.integers(0, 6))
def test_truncated_convolve_matches_filtered_product(a, b, jmax):
    def keyadd(k1, k2):
        j = k1[1] + k2[1]
        return (k1[0] + k2[0], j) if j <= jmax else None

    def full(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])

    right = sorted(b.items(), key=lambda kv: kv[0][1])
    want = {k: v for k, v in convolve(a, b, full).items() if k[1] <= jmax}
    assert convolve(a, right, keyadd) == want


def test_pairing_is_the_bilinear_form():
    n = ((0, 1, -1), (-1, 0, 2), (1, -2, 0))
    d1, d2 = (2, 0, 1), (1, -1, 3)
    assert pairing(d1, d2, n) == sum(d1[a] * n[a][b] * d2[b]
                                     for a in range(3) for b in range(3))
    assert pairing(d1, d2, n) == -pairing(d2, d1, n)
