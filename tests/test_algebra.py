import numpy as np
import pytest

from nilgeom.algebra import (
    Subspace,
    abelian,
    bch_plan,
    catalog_group,
    classify_subspace,
    engel,
    free2,
    h_type,
    heisenberg,
    load_group,
)
from nilgeom.errors import BadDimensions, GradingViolation, JacobiViolation, NonPositiveScale
from nilgeom.mc import stream
from oracles.algebra import nested, subalgebra_pairwise
from oracles.exterior import basis_vector, wedge

ALL_CATALOG = ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)"]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_abelian_product_is_vector_addition():
    g = abelian(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    y = np.array([0.25, 1.0, -1.0, 2.0])
    assert np.allclose(g.product(x, y), x + y)


def test_heisenberg_group_law_matches_coordinates():
    # third component of x.y is x3 + y3 + x1*y2 - x2*y1
    g = heisenberg(1)
    assert np.allclose(g.product([1, 0, 0], [0, 1, 0]), [1, 1, 1])
    x = np.array([0.3, -1.2, 0.7])
    y = np.array([-0.5, 0.4, 2.0])
    expect = np.array([x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1] - x[1] * y[0]])
    assert np.allclose(g.product(x, y), expect, atol=1e-15)


def test_group_equality_is_structural():
    a, b = heisenberg(1), heisenberg(1)
    assert a == b and hash(a) == hash(b)
    other = load_group({"layers": [2, 1], "brackets": [[1, 2, 3, 1.0]]})
    assert a != other
    assert wedge(basis_vector(a, 0), basis_vector(b, 1)).terms == {(0, 1): 1.0}


def test_grading_violation_rejected():
    with pytest.raises(GradingViolation):
        load_group({"name": "bad", "layers": [2, 1], "brackets": [[1, 2, 1, 1.0]]})


def test_jacobi_violation_rejected():
    # [e1,e2]=e4, [e1,e3]=e5, [e2,e3]=e6 is fine; breaking antisymmetric
    # consistency of a step-3 table must fail the Jacobi check
    spec = {
        "name": "nonjacobi",
        "layers": [3, 3, 1],
        "brackets": [
            [1, 2, 4, 1.0],
            [1, 3, 5, 1.0],
            [2, 3, 6, 1.0],
            [1, 4, 7, 1.0],  # [e1,[e1,e2]] enters Jacobi with nothing to cancel it
            [2, 5, 7, 1.0],
        ],
    }
    with pytest.raises(JacobiViolation):
        load_group(spec)


def test_bad_dimension_inputs():
    with pytest.raises(BadDimensions):
        load_group({"name": "x", "layers": [], "brackets": []})
    with pytest.raises(BadDimensions):
        load_group({"name": "x", "layers": [2, 1], "brackets": [[1, 9, 3, 1.0]]})
    g = heisenberg(1)
    with pytest.raises(BadDimensions):
        g.product([1, 2], [0, 0])


# ---------------------------------------------------------------------------
# BCH plan
# ---------------------------------------------------------------------------

def test_bch_plan_low_order_terms():
    # the length-2 terms must evaluate to [x, y] / 2
    g2 = heisenberg(1)
    x2 = np.array([0.4, -0.7, 0.0])
    y2 = np.array([1.1, 0.2, 0.0])
    quad = sum(
        coeff * nested(g2, word, x2, y2) for coeff, word in bch_plan(2) if len(word) == 2
    )
    assert np.allclose(quad, 0.5 * g2.bracket(x2, y2), atol=1e-15)
    # length-3 terms recombine to [x,[x,y]]/12 + [y,[y,x]]/12 on evaluation
    g = engel()
    x = np.array([0.7, -0.3, 0.2, 0.1])
    y = np.array([-0.2, 0.9, 0.4, -0.5])
    expect = (
        x
        + y
        + 0.5 * g.bracket(x, y)
        + g.bracket(x, g.bracket(x, y)) / 12.0
        + g.bracket(y, g.bracket(y, x)) / 12.0
    )
    assert np.allclose(g.product(x, y), expect, atol=1e-14)


def test_bracket_recovered_from_degree_two_term():
    # isomorphism compatibility: the plan's quadratic part reproduces the
    # structure constants exactly
    for name in ALL_CATALOG:
        g = catalog_group(name)
        if g.step == 1:
            continue
        basis = np.eye(g.q)
        for i in range(g.q):
            for j in range(g.q):
                lhs = g.product(basis[i], basis[j]) - g.product(basis[j], basis[i])
                # for step <= 3 odd terms cancel pairwise, so the commutator
                # difference carries the bracket exactly at first order
                assert np.allclose(lhs, g.bracket(basis[i], basis[j]), atol=1e-12)


def test_step2_group_commutator_is_exponential_bracket():
    for name in ["heisenberg(1)", "heisenberg(2)", "h_type", "free2(3)"]:
        g = catalog_group(name)
        rng = stream(3, f"comm:{name}")
        x, y = rng.uniform(-1, 1, (2, g.q))
        assert np.allclose(g.commutator(x, y), g.bracket(x, y), atol=1e-12)


@pytest.mark.parametrize("step", [4, 5, 6])
def test_high_step_filiform_associativity(step):
    brackets = [[1, k, k + 1, 1.0] for k in range(2, step + 1)]
    g = load_group({"name": f"filiform{step}", "layers": [2] + [1] * (step - 1), "brackets": brackets})
    rng = stream(11, f"filiform{step}")
    x, y, z = rng.uniform(-1, 1, (3, g.q))
    lhs = g.product(g.product(x, y), z)
    rhs = g.product(x, g.product(y, z))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# inverses, dilations, frames
# ---------------------------------------------------------------------------

def test_inverse_examples():
    g = heisenberg(1)
    assert np.allclose(g.inverse([0, 0, 0]), [0, 0, 0])
    assert np.allclose(g.inverse([1, 2, 3]), [-1, -2, -3])
    e = engel()
    rng = stream(5, "inv")
    x = rng.uniform(-1, 1, (100, 4))
    assert np.max(np.abs(e.product(x, e.inverse(x)))) < 1e-12


def test_dilation_examples_and_automorphism():
    g = heisenberg(1)
    assert np.allclose(g.dilate(1.0, [0.3, 0.4, 0.5]), [0.3, 0.4, 0.5])
    assert np.allclose(g.dilate(2.0, [1, 1, 1]), [2, 2, 4])
    with pytest.raises(NonPositiveScale):
        g.dilate(0.0, [1, 1, 1])
    e = engel()
    rng = stream(6, "dil")
    x, y = rng.uniform(-1, 1, (2, 200, 4))
    for r in (0.25, 1.7):
        lhs = e.dilate(r, e.product(x, y))
        rhs = e.product(e.dilate(r, x), e.dilate(r, y))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_frame_matches_paper_heisenberg_fields():
    # X_1(x) = e1 - x2 e3, X_2(x) = e2 + x1 e3, X_3 = e3
    g = heisenberg(1)
    x = np.array([0.7, -0.4, 0.9])
    a = g.frame(x)
    expect = np.array([[1, 0, 0], [0, 1, 0], [-x[1], x[0], 1.0]])
    assert np.allclose(a, expect, atol=1e-15)
    assert np.allclose(g.frame(np.zeros(3)), np.eye(3))


def test_frame_matches_h2_fields():
    # X_1 = e1 - x3 e5, X_2 = e2 - x4 e5, X_3 = e3 + x1 e5, X_4 = e4 + x2 e5
    g = heisenberg(2)
    x = np.array([0.3, -0.6, 0.8, 0.1, 2.0])
    a = g.frame(x)
    expect = np.eye(5)
    expect[4, :4] = [-x[2], -x[3], x[0], x[1]]
    assert np.allclose(a, expect, atol=1e-15)


def test_frame_unipotent_and_homogeneous():
    for name in ALL_CATALOG:
        g = catalog_group(name)
        rng = stream(7, f"frame:{name}")
        deg = g.degrees
        for _ in range(10):
            x = rng.uniform(-2, 2, g.q)
            a = g.frame(x)
            # a_i^l = delta_i^l whenever d_l <= d_i
            for i in range(g.q):
                for l in range(g.q):
                    if deg[l] <= deg[i]:
                        assert abs(a[l, i] - (1.0 if l == i else 0.0)) < 1e-14
            r = float(rng.uniform(0.3, 2.5))
            a_dil = g.frame(g.dilate(r, x))
            scale = r ** (deg[:, None] - deg[None, :]).astype(float)
            assert np.max(np.abs(a_dil - a * scale)) < 1e-12 * max(1.0, np.max(np.abs(a_dil)))


def test_frame_coefficients_roundtrip_and_example():
    g = heisenberg(1)
    # at the origin coefficients are the vector itself
    assert np.allclose(g.frame_coefficients(np.zeros(3), [1.0, 1.0, 0.0]), [1, 1, 0])
    # e2 = X_2(p) - X_3(p) at p = (1,0,0)
    assert np.allclose(g.frame_coefficients([1, 0, 0], [0, 1, 0]), [0, 1, -1])
    for name in ALL_CATALOG:
        gg = catalog_group(name)
        rng = stream(8, f"coef:{name}")
        x = rng.uniform(-1, 1, gg.q)
        a = gg.frame(x)
        for i in range(gg.q):
            c = gg.frame_coefficients(x, a[:, i])
            assert np.allclose(c, np.eye(gg.q)[i], atol=1e-12)


def test_associativity_sweep_engel():
    g = engel()
    rng = stream(9, "assoc-engel")
    x, y, z = rng.uniform(-1, 1, (3, 10_000, 4))
    lhs = g.product(g.product(x, y), z)
    rhs = g.product(x, g.product(y, z))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# subspace classification
# ---------------------------------------------------------------------------

def test_classify_subspace_heisenberg_examples():
    g = heisenberg(1)
    vertical = classify_subspace(g, Subspace(g, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])))
    assert vertical.homogeneous and vertical.subalgebra and vertical.vertical
    assert not vertical.horizontal

    plane12 = classify_subspace(g, Subspace(g, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])))
    assert plane12.homogeneous and plane12.horizontal
    assert not plane12.subalgebra  # [e1, e2] = 2 e3 leaves the span

    tilted = classify_subspace(g, Subspace(g, np.array([[1.0], [0.0], [1.0]])))
    assert not tilted.homogeneous


def test_classify_subspace_legendrian_pair_in_h2():
    g = heisenberg(2)
    basis = np.zeros((5, 2))
    basis[0, 0] = 1.0  # e1
    basis[1, 1] = 1.0  # e2
    cls = classify_subspace(g, Subspace(g, basis))
    assert cls.horizontal and cls.subalgebra and cls.homogeneous


def _classify_cases(g, rng):
    """Coordinate subspaces (every one for q <= 7, 64 drawn otherwise), each
    under a random change of basis; the span of two first-layer vectors and
    their bracket; first-layer vectors plus all higher layers (vertical); and
    random subspaces of every dimension."""
    q = g.q
    subsets = [np.nonzero([(m >> k) & 1 for k in range(q)])[0] for m in range(1, 1 << q)]
    if q > 7:
        subsets = [subsets[k] for k in rng.choice(len(subsets), 64, replace=False)]
    eye = np.eye(q)
    cases = [eye[:, idx] @ rng.standard_normal((idx.size, idx.size)) for idx in subsets]
    m = g.layers[0]
    upper = eye[:, m:]
    for i in range(m):
        cases.append(np.hstack([eye[:, [i]], upper]))
        for j in range(i + 1, m):
            w = g.bracket(eye[i], eye[j])
            cases.append(np.stack([eye[i], eye[j]] + ([w] if np.any(w) else []), axis=1))
    cases += [rng.standard_normal((q, n)) for n in range(1, q + 1) for _ in range(3)]
    return cases


def test_classify_subspace_batched_subalgebra_matches_pairwise_oracle():
    filiform6 = load_group(
        {
            "name": "filiform6",
            "layers": [2, 1, 1, 1, 1, 1],
            "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)],
        }
    )
    rng = np.random.default_rng(7)
    verdicts = set()
    for g in [catalog_group(name) for name in ALL_CATALOG + ["free2(4)"]] + [filiform6]:
        for basis in _classify_cases(g, rng):
            space = Subspace(g, basis)
            for tol in (1e-9, 1e-8):
                verdict = classify_subspace(g, space, tol=tol).subalgebra
                assert verdict == subalgebra_pairwise(g, space, tol), (g.name, basis, tol)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_subspace_rejects_dependent_columns():
    g = heisenberg(1)
    with pytest.raises(BadDimensions):
        Subspace(g, np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))


def test_h_type_scale_is_one():
    # the composition-algebra table satisfies J_z^2 = -|z|^2 exactly
    from nilgeom.metrics import _h_type_scale_squared

    assert abs(_h_type_scale_squared(h_type()) - 1.0) < 1e-12
    assert abs(_h_type_scale_squared(heisenberg(1)) - 4.0) < 1e-12
    assert abs(_h_type_scale_squared(heisenberg(2)) - 4.0) < 1e-12
