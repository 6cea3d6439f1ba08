import numpy as np
import pytest

from nilgeom.algebra import engel, heisenberg
from nilgeom.errors import DegenerateTangent
from nilgeom.mc import stream
from oracles.exterior import (
    GradeOverflow,
    Multivector,
    basis_vector,
    from_vector,
    g_norm,
    lift_tangent,
    project_degree,
    wedge,
)


@pytest.fixture
def h1():
    return heisenberg(1)


def test_wedge_basics(h1):
    e1 = basis_vector(h1, 0)
    e2 = basis_vector(h1, 1)
    assert wedge(e1, e1).is_zero()
    assert wedge(e1, e2).terms == {(0, 1): 1.0}
    assert wedge(e2, e1).terms == {(0, 1): -1.0}


def test_wedge_bilinearity(h1):
    e1 = basis_vector(h1, 0)
    e2 = basis_vector(h1, 1)
    e3 = basis_vector(h1, 2)
    v = wedge(e1 + e3, e2)
    assert v.terms == {(0, 1): 1.0, (1, 2): -1.0}


def test_wedge_grade_overflow(h1):
    top = Multivector(h1, 3, {(0, 1, 2): 1.0})
    with pytest.raises(GradeOverflow):
        wedge(top, basis_vector(h1, 0))


def test_wedge_sign_coherence():
    g = engel()
    rng = stream(0, "wedge-sign")
    for _ in range(20):
        ka, kb = rng.integers(1, 3), rng.integers(1, 3)
        if ka + kb > g.q:
            continue
        a = from_vector(g, rng.standard_normal(g.q))
        for _ in range(ka - 1):
            a = wedge(a, from_vector(g, rng.standard_normal(g.q)))
        b = from_vector(g, rng.standard_normal(g.q))
        for _ in range(kb - 1):
            b = wedge(b, from_vector(g, rng.standard_normal(g.q)))
        ab = wedge(a, b)
        ba = wedge(b, a)
        sign = (-1.0) ** (ka * kb)
        for key in set(ab.terms) | set(ba.terms):
            assert ab.terms.get(key, 0.0) == pytest.approx(sign * ba.terms.get(key, 0.0), abs=1e-12)


def test_project_degree_paper_examples(h1):
    x12 = Multivector(h1, 2, {(0, 1): 1.0})
    assert project_degree(x12, 2).terms == {(0, 1): 1.0}
    assert project_degree(x12, 3).is_zero()
    x13 = Multivector(h1, 2, {(0, 2): 1.0})
    assert project_degree(x13, 3).terms == {(0, 2): 1.0}
    zero = Multivector(h1, 2, {})
    assert project_degree(zero, 2).is_zero()


def test_projection_idempotent_and_complete(h1):
    rng = stream(1, "proj")
    terms = {(0, 1): rng.standard_normal(), (0, 2): rng.standard_normal(), (1, 2): rng.standard_normal()}
    v = Multivector(h1, 2, terms)
    total = 0.0
    recon = Multivector(h1, 2, {})
    for m in range(1, h1.hom_dimension + 1):
        pm = project_degree(v, m)
        assert project_degree(pm, m).terms == pm.terms
        total += g_norm(pm) ** 2
        recon = recon + pm
    assert total == pytest.approx(g_norm(v) ** 2, rel=1e-12)
    assert recon.terms == pytest.approx(v.terms)


def test_g_norm_examples(h1):
    assert g_norm(Multivector(h1, 2, {(0, 2): 1.0})) == 1.0
    assert g_norm(Multivector(h1, 2, {(0, 1): 3.0})) == 3.0
    assert g_norm(Multivector(h1, 2, {(0, 1): 1.0, (0, 2): 1.0})) == pytest.approx(np.sqrt(2))


def test_lift_tangent_at_origin_is_plain_wedge(h1):
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    xi = lift_tangent(h1, np.zeros(3), basis)
    assert xi.terms == {(0, 1): 1.0}


def test_lift_tangent_plane_example(h1):
    # plane {x2 = 0} at p = (p1, 0, p3): lift of (e1, e3) is X_1 ^ X_3
    p = np.array([0.8, 0.0, -0.4])
    basis = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    xi = lift_tangent(h1, p, basis)
    assert set(xi.terms) == {(0, 2)}
    assert xi.terms[(0, 2)] == pytest.approx(1.0)


def test_lift_rejects_degenerate(h1):
    with pytest.raises(DegenerateTangent):
        lift_tangent(h1, np.zeros(3), np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))


def test_lift_max_degree_is_translation_invariant():
    # fixed frame coefficients, varying base point: the c_I are unchanged,
    # hence so is the maximal nonzero degree
    g = engel()
    rng = stream(2, "lift-invariance")
    coeffs = rng.standard_normal((4, 2))
    reference = None
    for _ in range(10):
        p = rng.uniform(-1, 1, 4)
        tangent = g.frame(p) @ coeffs
        xi = lift_tangent(g, p, tangent)
        deg = xi.max_degree()
        if reference is None:
            reference = deg
        assert deg == reference
