"""Negative controls: a perturbation that must turn a live check row to FAIL.

A row that no perturbation can fail checks nothing.  Each entry names the
tag of the row, the suite that emits it, and a perturbation applied through
pytest's monkeypatch; the row must pass as it stands and fail perturbed.
"""

import pytest

from holomon import checks, reference
from holomon.surfaces import flip


def skein_other_is_u(monkeypatch):
    """The other resolution of the s,t crossing replaced by u."""
    real = checks.reference_setup

    def setup(name):
        tri, curves = real(name)
        return tri, {**curves, "st_other": curves["u"]}

    monkeypatch.setattr(checks, "reference_setup", setup)


def bracket_constant_one(monkeypatch):
    """The torus piece's bracket normalization taken as 1 instead of 2."""
    monkeypatch.setitem(reference.LOOP_BRACKET_CONSTANT, "c11", 1)


def naive_quantization_after_flip(monkeypatch):
    """The curves carried to the triangulation flipped at edge 0: their
    traces still satisfy the classical relation, but the coefficient-
    preserving Weyl quantization of them does not satisfy the deformed one."""
    def setup(name):
        curves = {k: reference.covariant_walk(name, 0, k) for k in ("s", "t", "u", "p1")}
        return flip(reference.reference_triangulation(name), 0), curves

    monkeypatch.setattr(checks, "reference_setup", setup)


CONTROLS = [
    ("skein-product", checks.classical_checks, skein_other_is_u),
    ("bracket-derivative", checks.classical_checks, bracket_constant_one),
    ("q-commutator", checks.quantum_checks, naive_quantization_after_flip),
    ("q-cubic", checks.quantum_checks, naive_quantization_after_flip),
]


def _statuses(suite, tag):
    return [c.status for c in suite(("c11",)).checks if c.tag == tag]


@pytest.mark.parametrize("tag, suite, perturb", CONTROLS, ids=[c[0] for c in CONTROLS])
def test_control_fails_its_row(monkeypatch, tag, suite, perturb):
    assert _statuses(suite, tag) == ["pass"]
    perturb(monkeypatch)
    assert _statuses(suite, tag) == ["fail"]


def test_flipped_curves_keep_the_classical_relation(monkeypatch):
    # so the q-relation control fails the quantization, not the input
    naive_quantization_after_flip(monkeypatch)
    assert _statuses(checks.classical_checks, "cubic-relation") == ["pass"]
