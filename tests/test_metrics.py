import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilgeom.algebra import Subspace, abelian, catalog_group, engel, h_type, heisenberg
from nilgeom.errors import BadDimensions, EmptySection
from nilgeom.metrics import (
    ball_bounding_radius,
    box_distance,
    calibrate_box,
    cygan_koranyi_distance,
    distance_from_spec,
    euclidean_ball_distance,
    multiradial_distance,
    verify_distance_axioms,
)
from nilgeom.mc import stream


def test_distance_of_point_to_itself_vanishes():
    g = heisenberg(1)
    d = box_distance(g, [1.0, 1.0])
    x = np.array([0.3, -0.2, 0.9])
    assert float(d.distance(x, x)) == 0.0


def test_cygan_koranyi_h_type_values():
    g = h_type()
    d = cygan_koranyi_distance(g)
    x = np.zeros(7)
    x[:4] = [1.0, 0, 0, 0]
    assert float(d.norm(x)) == pytest.approx(1.0)
    t = np.zeros(7)
    t[5] = 0.7
    assert float(d.norm(t)) == pytest.approx(2.0 * np.sqrt(0.7))
    # paper-normalized Heisenberg picks up the rescaled weight 16/s^2 = 4
    dh = cygan_koranyi_distance(heisenberg(1))
    assert dh.params == (4.0,)
    with pytest.raises(BadDimensions):
        cygan_koranyi_distance(engel())


def test_box_norm_and_ball_shape():
    g = heisenberg(1)
    d = box_distance(g, [1.0, 0.5])
    # ball: |x'| <= 1 and |x3| <= 1/0.25
    inside = np.array([[0.9, 0.0, 3.9], [0.0, 0.0, -3.9]])
    outside = np.array([[1.1, 0.0, 0.0], [0.0, 0.0, 4.1]])
    assert np.all(d.norm(inside) <= 1.0)
    assert np.all(d.norm(outside) > 1.0)


def test_homogeneity_and_inversion_symmetry():
    for g, spec in [
        (heisenberg(1), {"kind": "box", "params": [1.0, 1.0]}),
        (heisenberg(1), {"kind": "cygan_koranyi"}),
        (engel(), {"kind": "box", "params": [1.0, 1.0, 0.8]}),
        (heisenberg(1), {"kind": "euclidean_ball", "params": [0.5]}),
        (engel(), {"kind": "multiradial", "phi": "max(t1, t2^0.5, 0.8*t3^(1/3))"}),
    ]:
        d = distance_from_spec(g, spec)
        rng = stream(1, f"hom:{spec['kind']}:{g.name}")
        x = rng.uniform(-2, 2, (64, g.q))
        n0 = np.asarray(d.norm(x))
        for r in (0.3, 1.0, 7.5):
            nr = np.asarray(d.norm(g.dilate(r, x)))
            assert np.max(np.abs(nr - r * n0)) < 1e-12 * max(1.0, float(np.max(nr)))
        assert np.max(np.abs(np.asarray(d.norm(-x)) - n0)) < 1e-14


def test_per_layer_orthogonal_symmetry():
    g = heisenberg(2)
    d = box_distance(g, [1.0, 0.9])
    rng = stream(2, "sym")
    theta = 0.83
    rot = np.eye(5)
    c, s = np.cos(theta), np.sin(theta)
    rot[:2, :2] = [[c, -s], [s, c]]  # rotate inside the first layer
    x = rng.uniform(-2, 2, (32, 5))
    assert np.allclose(d.norm(x @ rot.T), d.norm(x), atol=1e-13)


def test_convexity_flags():
    g = heisenberg(1)
    assert box_distance(g, [1, 1]).convex_ball is True
    assert euclidean_ball_distance(g, 0.5).convex_ball is True
    assert cygan_koranyi_distance(g).convex_ball is True
    assert multiradial_distance(g, "max(t1, t2^0.5)").convex_ball is None


def test_multiradial_rejects_unsafe_or_inhomogeneous_phi():
    g = heisenberg(1)
    with pytest.raises(BadDimensions):
        multiradial_distance(g, "t1 - t2")
    with pytest.raises(BadDimensions):
        multiradial_distance(g, "t1 + t2")  # t2 alone is degree 2, not 1-homogeneous


def test_axiom_verification_cases():
    euclid = multiradial_distance(abelian(3), "t1")
    assert verify_distance_axioms(euclid, samples=20_000, seed=1).passed

    g = heisenberg(1)
    bad = box_distance(g, [1.0, 10.0])
    report = verify_distance_axioms(bad, samples=20_000, seed=1)
    assert report.triangle_violations > 0 and report.worst_ratio > 1.0

    good = box_distance(g, [1.0, 1.0])
    assert verify_distance_axioms(good, samples=50_000, seed=1).passed


def test_calibrate_box_h1_and_reverify():
    g = heisenberg(1)
    cal = calibrate_box(g, samples=20_000, seed=2)
    assert cal.epsilons[0] == 1.0
    assert 0.0 < cal.epsilons[1] <= 1.0
    assert verify_distance_axioms(box_distance(g, cal.epsilons), samples=100_000, seed=3).passed


def test_calibrate_box_abelian_and_engel_monotone():
    assert calibrate_box(abelian(2), samples=5_000, seed=2).epsilons == (1.0,)
    eps = calibrate_box(engel(), samples=20_000, seed=2).epsilons
    assert all(eps[i] >= eps[i + 1] for i in range(len(eps) - 1))


def test_ball_bounding_radius_examples():
    g = heisenberg(1)
    S = Subspace(g, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    eb = euclidean_ball_distance(g, 0.5)
    r = ball_bounding_radius(eb, S, np.zeros(3))
    assert r == pytest.approx(1.5 * 0.5, rel=1e-6)

    box = box_distance(g, [1.0, 1.0])
    r2 = ball_bounding_radius(box, S, np.zeros(3))
    assert r2 <= 1.5 * np.sqrt(2) + 1e-9
    assert r2 >= np.sqrt(2)  # must still contain the true section corner

    far = np.array([0.0, 50.0, 0.0])  # e2 direction, off the subspace
    with pytest.raises(EmptySection):
        ball_bounding_radius(box, S, far)


def test_horizontal_subgroup_norm_is_a_vector_norm():
    # on a horizontal (hence commutative) subgroup, x^-1 . y = y - x, so the
    # restricted homogeneous norm obeys the vector triangle inequality
    g = heisenberg(2)
    d = box_distance(g, [1.0, 1.0])
    basis = np.zeros((5, 2))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    rng = stream(5, "horiz-norm")
    for _ in range(200):
        cx, cy = rng.standard_normal((2, 2))
        x, y = basis @ cx, basis @ cy
        assert float(d.distance(x, y)) == pytest.approx(float(d.norm(y - x)), abs=1e-14)
        assert float(d.norm(x + y)) <= float(d.norm(x)) + float(d.norm(y)) + 1e-12


def test_vertical_symmetry_metadata_is_declared():
    g = heisenberg(1)
    assert box_distance(g, [1, 1]).n_vertically_symmetric
    assert multiradial_distance(g, "max(t1, t2^0.5)").n_vertically_symmetric


def test_bounding_radius_covers_sampled_ball_points():
    # sweep: u inside B(0,1) never yields an empty section, and the returned
    # radius dominates the sampled section
    g = heisenberg(1)
    d = multiradial_distance(g, "max(t1, 1.3*t2^0.5)")
    S = Subspace(g, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    rng = stream(4, "bounding-sweep")
    basis = S.orthonormal_basis()
    for _ in range(5):
        u = d.unit_normalize(rng.standard_normal(3))
        u = g.dilate(0.9 * rng.random(), u)
        r = ball_bounding_radius(d, S, u)
        pts = rng.standard_normal((4000, 2))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * (r * rng.random((4000, 1)))
        inside = np.asarray(d.distance(u, pts @ basis.T)) <= 1.0
        norms = np.linalg.norm(pts[inside], axis=1)
        if norms.size:
            assert float(np.max(norms)) <= r + 1e-9


# ---------------------------------------------------------------------------
# identity centre: distance(0, y) skips the product
# ---------------------------------------------------------------------------

def _identity_cases():
    cases = []
    for name in ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)", "free2(4)"]:
        g = catalog_group(name)
        cases.append(box_distance(g, [1.0, 0.7, 0.5][: g.step]))
        phi = " + ".join(f"t{j}^{1.0 / j!r}" for j in range(1, g.step + 1))
        cases.append(multiradial_distance(g, phi))
        try:
            cases.append(cygan_koranyi_distance(g))
        except BadDimensions:
            pass  # not a step-2 H-type group
    return cases


IDENTITY_CASES = _identity_cases()


@settings(max_examples=300)
@given(data=st.data())
def test_identity_centre_is_bitwise_the_product(data):
    d = data.draw(st.sampled_from(IDENTITY_CASES), label="distance")
    g = d.group
    q = g.q
    centre = data.draw(
        st.sampled_from([np.zeros(q), -np.zeros(q), np.zeros((2, 1, q)), -np.zeros((3, 1, q))]),
        label="centre",
    )
    shape = data.draw(st.sampled_from([(q,), (1, q), (5, q), (0, q)]), label="shape")
    y = data.draw(arrays(float, shape, elements=st.floats(-3.0, 3.0, width=64)), label="y")
    want = d.norm(g.product(g.inverse(centre), y))
    got = d.distance(centre, y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.array_equal(d.ball_contains(centre, y), want <= 1.0 + 1e-14)

    if y.size:
        # rows holding inf or nan take the product
        bad = y.reshape(-1, q).copy()
        bad[0, data.draw(st.integers(0, q - 1), label="column")] = data.draw(
            st.sampled_from([np.inf, -np.inf, np.nan]), label="value"
        )
        bad = bad.reshape(shape)
        with np.errstate(invalid="ignore"):
            want = d.norm(g.product(g.inverse(centre), bad))
            assert np.array_equal(d.distance(centre, bad), want, equal_nan=True)
            assert np.array_equal(d.ball_contains(centre, bad), want <= 1.0 + 1e-14)

    with pytest.raises(BadDimensions):
        d.distance(centre, np.zeros(q + 1))
    with pytest.raises(BadDimensions):
        d.distance(np.zeros(q + 1), y)
