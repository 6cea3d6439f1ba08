import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgeom.algebra import (
    Subspace,
    _orthonormal,
    abelian,
    bch_plan,
    catalog_group,
    classify_subspace,
    classify_subspaces,
    engel,
    free2,
    h_type,
    heisenberg,
    load_group,
)
from nilgeom.errors import BadDimensions, GradingViolation, JacobiViolation, NonPositiveScale
from nilgeom.mc import stream
from oracles.algebra import classify_one, nested, orthonormal_basis, subalgebra_pairwise
from oracles.exterior import basis_vector, wedge
from test_group_law import BASES, SEEDS, graded_groups

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


def test_integral_floats_are_counts():
    # JSON may spell a count as 2.0; it is the integer 2
    g = load_group({"layers": [2.0, 1], "brackets": [[1.0, 2, 3.0, 1]]})
    assert g.layers == (2, 1) and np.array_equal(g.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])


def test_bad_dimension_inputs():
    with pytest.raises(BadDimensions):
        load_group({"name": "x", "layers": [], "brackets": []})
    with pytest.raises(BadDimensions):
        load_group({"name": "x", "layers": [2, 1], "brackets": [[1, 9, 3, 1.0]]})
    g = heisenberg(1)
    with pytest.raises(BadDimensions):
        g.product([1, 2], [0, 0])


@pytest.mark.parametrize(
    "spec",
    [
        {"layers": "ab"},
        {"layers": [2, 1], "brackets": [[1, 2]]},
        {"layers": [2, 1], "brackets": "x"},
        {"layers": [2.7, 1], "brackets": [[1, 2, 3, 2]]},
        {"layers": [2, 1], "brackets": [[1.9, 2.2, 3, 2]]},
        {"layers": [2, 1], "brackets": [[1, 2, 3.5, 2]]},
        {"layers": [True, 1, 1]},
        {"layers": [2, 1], "brackets": [[True, 2, 3, 1]]},
        {"layers": ["2", 1]},
        {"layers": [2, float("nan")]},
    ],
    ids=["layers-text", "bracket-two-numbers", "brackets-text", "layer-fraction", "bracket-index-fractions",
         "bracket-target-fraction", "layer-bool", "bracket-index-bool", "layer-string", "layer-nan"],
)
def test_malformed_definitions_raise_bad_dimensions(spec):
    with pytest.raises(BadDimensions):
        load_group(spec)


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
        # the group commutator x y x^-1 y^-1
        commutator = g.product(g.product(x, y), g.product(-x, -y))
        assert np.allclose(commutator, g.bracket(x, y), atol=1e-12)


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


def _layer_columns(g, j: int, d: int, rng) -> np.ndarray:
    """d columns inside layer j: coordinate vectors half the time (zeroed
    coordinates), random ones otherwise."""
    sl = g.layer_slices[j - 1]
    cols = np.zeros((g.q, d))
    if rng.random() < 0.5:
        cols[sl.start + rng.choice(sl.stop - sl.start, d, replace=False), range(d)] = 1.0
    else:
        cols[sl] = rng.standard_normal((sl.stop - sl.start, d))
    return cols


def _subspace_basis(g, n: int, kind: str, rng) -> np.ndarray | None:
    """A basis of an n-dimensional subspace of the given kind under a random
    change of basis, or None when g has no such subspace.  A "near" subspace
    is a homogeneous, horizontal or vertical one moved by 1e-11 to 1e-6, so
    that its decisions fall on either side of the tolerance."""
    layers = list(g.layers)
    if kind == "near":
        basis = _subspace_basis(g, n, KINDS[1 + rng.integers(3)], rng)
        return None if basis is None else basis + 10.0 ** rng.uniform(-11, -6) * rng.standard_normal(basis.shape)
    if kind == "random":
        basis = rng.standard_normal((g.q, n))
        basis[rng.choice(g.q, rng.integers(g.q - n + 1), replace=False)] = 0.0  # zeroed coordinates
        return basis @ rng.standard_normal((n, n))
    if kind == "horizontal":
        if n > layers[0]:
            return None
        dims = [n] + [0] * (g.step - 1)
    elif kind == "vertical":
        # part of the lowest layer it meets and every layer above it
        low, above = g.step, 0
        while n > above + layers[low - 1]:
            above += layers[low - 1]
            low -= 1
        dims = [0] * (low - 1) + [n - above] + layers[low:]
    else:
        dims = [0] * g.step
        for _ in range(n):
            room = [j for j in range(g.step) if dims[j] < layers[j]]
            dims[room[rng.integers(len(room))]] += 1
    basis = np.hstack([_layer_columns(g, j + 1, d, rng) for j, d in enumerate(dims) if d])
    return basis @ rng.standard_normal((n, n))


KINDS = ("random", "homogeneous", "horizontal", "vertical", "near")


@settings(max_examples=80)
@given(st.one_of(st.sampled_from(BASES), graded_groups()), SEEDS, st.integers(1, 20), st.sampled_from([1e-9, 1e-8]))
def test_batched_classification_is_the_one_subspace_oracle(g, seed, count, tol):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, g.q + 1))
    spaces = []
    while len(spaces) < count:
        basis = _subspace_basis(g, n, KINDS[rng.integers(len(KINDS))], rng)
        if basis is None:
            continue
        try:
            spaces.append(Subspace(g, basis))
        except BadDimensions:
            continue  # the draw made dependent columns
    bases = np.stack([space.basis for space in spaces])
    got = classify_subspaces(g, bases, tol)
    assert got == [classify_one(g, space, tol) for space in spaces]
    assert got == [classify_subspace(g, space, tol) for space in spaces]
    for u, space in zip(_orthonormal(bases), spaces):
        want = orthonormal_basis(space)
        assert u.shape == want.shape and u.tobytes() == want.tobytes()


def test_batched_classification_sweep_covers_every_verdict():
    # every catalog and filiform group, dimension and kind, eight draws of
    # each in one stack per dimension, at both tolerances; the verdicts
    # reach both values of every flag
    rng = np.random.default_rng(3)
    seen = set()
    for g in BASES:
        for n in range(1, g.q + 1):
            bases = [_subspace_basis(g, n, kind, rng) for kind in KINDS for _ in range(8)]
            spaces = [Subspace(g, basis) for basis in bases if basis is not None]
            for tol in (1e-9, 1e-8):
                got = classify_subspaces(g, np.stack([space.basis for space in spaces]), tol)
                assert got == [classify_one(g, space, tol) for space in spaces]
                seen |= {(flag, getattr(cls, flag)) for cls in got for flag in ("homogeneous", "subalgebra", "horizontal", "vertical")}
    assert len(seen) == 8


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
