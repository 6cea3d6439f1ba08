import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilgeom.algebra import BLOCK_ROWS, Subspace, abelian, catalog_group, engel, h_type, heisenberg, load_group
from nilgeom import metrics
from nilgeom.errors import BadDimensions, CalibrationFailed, EmptySection
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
from nilgeom.optimize import bisect_largest_passing
from oracles import metrics as oracle


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


FILIFORM6 = {
    "name": "filiform6",
    "layers": [2, 1, 1, 1, 1, 1],
    "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)],
}


def _counted_checks(monkeypatch) -> list:
    """Record the weights of every ``verify_distance_axioms`` call that
    ``calibrate_box`` makes."""
    weights = []

    def counted(dist, samples=20000, seed=0):
        weights.append(dist.params)
        return verify_distance_axioms(dist, samples=samples, seed=seed)

    monkeypatch.setattr(metrics, "verify_distance_axioms", counted)
    return weights


def test_calibrate_box_reuses_the_last_layer_check(monkeypatch):
    # every filiform6 weight passes at 1.0, so each layer makes one check,
    # and the last one, on the whole group, is the final check
    g = load_group(FILIFORM6)
    weights = _counted_checks(monkeypatch)
    cal = calibrate_box(g, samples=20_000, seed=1)
    assert cal.epsilons == (1.0,) * 6
    assert weights == [(1.0,) * j for j in range(2, 7)]
    assert cal.report == verify_distance_axioms(box_distance(g, cal.epsilons), samples=20_000, seed=1)


def test_calibrate_box_returns_only_checked_weights(monkeypatch):
    # a large bracket constant bisects the last weight below 1.0; each
    # candidate is checked as floored to six decimals, so the returned weight
    # is one the bisection checked, and no check runs after it.  Rounding to
    # the nearest instead once returned an unchecked weight that failed.
    g = load_group({"name": "steep-heisenberg", "layers": [2, 1], "brackets": [[1, 2, 3, 40.0]]})
    weights = _counted_checks(monkeypatch)
    ends = []

    def bisect(predicate, lo, hi):
        best = bisect_largest_passing(predicate, lo, hi)
        ends.append(len(weights))
        return best

    monkeypatch.setattr(metrics, "bisect_largest_passing", bisect)
    cal = calibrate_box(g, samples=5_000, seed=0)
    assert ends == [len(weights)] and len(set(weights)) == len(weights)
    assert 0.0 < cal.epsilons[1] < 1.0 and round(cal.epsilons[1], 6) == cal.epsilons[1]
    assert cal.epsilons in weights and cal.report.passed
    assert cal.report == verify_distance_axioms(box_distance(g, cal.epsilons), samples=5_000, seed=0)


def test_calibrate_box_fails_where_no_weight_passes():
    # the smallest weight tried, BOX_WEIGHT_FLOOR, still violates the
    # triangle inequality under a bracket this steep
    g = load_group({"layers": [2, 1], "brackets": [[1, 2, 3, 1e8]]})
    with pytest.raises(CalibrationFailed, match="no box weight above 0.001 passes"):
        calibrate_box(g, samples=2000)


@pytest.mark.parametrize("seed", range(8))
def test_calibrate_box_calibrates_a_steep_bracket(seed):
    g = load_group({"layers": [2, 1], "brackets": [[1, 2, 3, 40]]})
    assert 0.3 < calibrate_box(g, samples=5_000, seed=seed).epsilons[1] < 0.35


@pytest.mark.parametrize(
    "make",
    [
        lambda g: box_distance(g, [1.0, np.nan]),
        lambda g: box_distance(g, [np.inf, 1.0]),
        lambda g: euclidean_ball_distance(g, np.nan),
        lambda g: euclidean_ball_distance(g, np.inf),
        lambda g: euclidean_ball_distance(g, 0.0),
    ],
    ids=["box-nan", "box-inf", "ball-nan", "ball-inf", "ball-zero"],
)
def test_non_finite_or_non_positive_parameters_are_refused(make):
    # a nan weight or radius once made every norm nan or 0, and every
    # triangle check pass having tested nothing
    with pytest.raises(BadDimensions):
        make(heisenberg(1))


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
    assert np.array_equal(oracle.ball_contains(d, centre, y), want <= 1.0 + 1e-14)

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
            assert np.array_equal(oracle.ball_contains(d, centre, bad), want <= 1.0 + 1e-14)

    with pytest.raises(BadDimensions):
        d.distance(centre, np.zeros(q + 1))
    with pytest.raises(BadDimensions):
        d.distance(np.zeros(q + 1), y)


@settings(max_examples=60)
@given(data=st.data())
def test_bounding_radius_is_bitwise_the_loop_oracle(data):
    # the batched sweep and bisection trees against one distance call per step
    d = data.draw(st.sampled_from(IDENTITY_CASES), label="distance")
    g = d.group
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dim = data.draw(st.integers(1, min(g.q, 4)), label="dim")
    space = Subspace(g, np.linalg.qr(rng.standard_normal((g.q, dim)))[0])
    size = data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.4]), label="|u|")
    u = g.dilate(size, d.unit_normalize(rng.standard_normal(g.q))) if size else np.zeros(g.q)
    ball_radius = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="ball radius")
    try:
        want = oracle.ball_bounding_radius_loop(d, space, u, ball_radius=ball_radius)
    except EmptySection:
        with pytest.raises(EmptySection):
            ball_bounding_radius(d, space, u, ball_radius=ball_radius)
        return
    assert ball_bounding_radius(d, space, u, ball_radius=ball_radius) == want


# ---------------------------------------------------------------------------
# the fused distance kernel against the product-then-norm oracle
# ---------------------------------------------------------------------------

FILIFORM6 = {
    "name": "filiform6",
    "layers": [2, 1, 1, 1, 1, 1],
    "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)],
}


def _kernel_cases():
    # heisenberg(5), free2(5) and free2(6) have layers of 8 or more entries,
    # whose magnitudes np.linalg.norm sums pairwise
    names = ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)", "free2(4)"]
    groups = [catalog_group(n) for n in names + ["heisenberg(5)", "free2(5)", "free2(6)"]]
    groups.append(load_group(FILIFORM6))
    cases = []
    for g in groups:
        cases.append(box_distance(g, [1.0, 0.7, 0.5, 0.4, 0.3, 0.2][: g.step]))
        cases.append(multiradial_distance(g, " + ".join(f"t{j}^{1.0 / j!r}" for j in range(1, g.step + 1))))
        cases.append(euclidean_ball_distance(g, 0.5))
        try:
            cases.append(cygan_koranyi_distance(g))
        except BadDimensions:
            pass  # not a step-2 H-type group
    return cases


KERNEL_CASES = _kernel_cases()


def _points(data, rng, q):
    """A pair of point arrays in one of four layouts, with entries of
    several scales and some -0, +-inf and nan entries."""
    layout = data.draw(st.sampled_from(["point", "two-blocks", "outer", "empty"]), label="layout")
    if layout == "point":
        shapes = (q,), (q,)
    elif layout == "two-blocks":
        rows = BLOCK_ROWS + data.draw(st.integers(1, BLOCK_ROWS), label="rows")
        shapes = (rows, q), (rows, q)
    elif layout == "outer":
        k, m = data.draw(st.integers(1, 5), label="k"), data.draw(st.integers(1, 700), label="m")
        shapes = (k, 1, q), (1, m, q)
    else:
        shapes = (0, q), (0, q)
    x, y = (rng.uniform(-2.0, 2.0, s) * 10.0 ** rng.integers(-3, 3, s[:-1] + (1,)) for s in shapes)
    if data.draw(st.booleans(), label="identity centre"):
        x = np.zeros(shapes[0]) * data.draw(st.sampled_from([1.0, -1.0]), label="zero sign")
    specials = st.tuples(
        st.booleans(), st.integers(0, 1 << 20), st.integers(0, q - 1),
        st.sampled_from([-0.0, np.inf, -np.inf, np.nan]),
    )
    for in_x, row, col, value in data.draw(st.lists(specials, max_size=4), label="specials"):
        flat = (x if in_x else y).reshape(-1, q)
        if len(flat):
            flat[row % len(flat), col] = value
    return x, y


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=250)
@given(data=st.data())
def test_fused_kernel_is_bitwise_the_product_then_norm_oracle(data):
    d = data.draw(st.sampled_from(KERNEL_CASES), label="distance")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x, y = _points(data, rng, d.group.q)
    with np.errstate(all="ignore"):
        assert _same(d.distance(x, y), oracle.distance(d, x, y))
        # the column kernel at up to three of the centres, on every point
        ys = y.reshape(-1, d.group.q)
        for centre in x.reshape(-1, d.group.q)[:3]:
            got = d.distance_columns(centre, ys.T) <= 1.0 + metrics.BALL_SLACK
            assert _same(got, oracle.ball_contains(d, centre, ys))
        for pts in (x, y):
            assert _same(d.norm(pts), oracle.norm(d, pts))
            assert _same(d.unit_normalize(pts), oracle.unit_normalize(d, pts))


COLUMN_CASES = [d for d in KERNEL_CASES if d.group.name in ("heisenberg(1)", "engel", "h_type", "filiform6")]
SMALL_BLOCK = 8


def _ulps(x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``x`` moved by ``steps`` ulps, entry by entry (at most 3 either way)."""
    for _ in range(3):
        x = np.where(steps > 0, np.nextafter(x, np.inf), np.where(steps < 0, np.nextafter(x, -np.inf), x))
        steps = steps - np.sign(steps)
    return x


@settings(max_examples=200)
@given(data=st.data())
def test_column_kernel_is_bitwise_the_row_distance(data):
    d = data.draw(st.sampled_from(COLUMN_CASES), label="distance")
    g = d.group
    q = g.q
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    centre = data.draw(st.sampled_from(["zero", "-zero", "point"]), label="centre")
    center = {"zero": np.zeros(q), "-zero": -np.zeros(q), "point": rng.uniform(-1.0, 1.0, q)}[centre]
    m = data.draw(st.sampled_from([1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2]), label="m")
    # points within 3 ulps of the unit sphere about the centre, and some anywhere
    sphere = g.product(center, d.unit_normalize(rng.standard_normal((m, q))))
    pts = _ulps(sphere, rng.integers(-3, 4, (m, q)))
    anywhere = rng.random(m) < 0.3
    pts[anywhere] = rng.uniform(-2.0, 2.0, (np.sum(anywhere), q))
    specials = st.tuples(st.integers(0, m - 1), st.integers(0, q - 1), st.sampled_from([np.inf, -np.inf, np.nan]))
    for row, col, value in data.draw(st.lists(specials, max_size=3), label="specials"):
        pts[row, col] = value  # a block holding these takes the product
    cols = np.ascontiguousarray(pts.T)
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(metrics, "BLOCK", SMALL_BLOCK)
        got = d.distance_columns(center, cols)
        assert _same(got, d.distance(center, cols.T))


def _chain(iota: int):
    """[e1, e_k] = e_{k+1}: a group of step iota."""
    return load_group({"name": "chain", "layers": [2] + [1] * (iota - 1),
                       "brackets": [[1, k, k + 1, 1.0] for k in range(2, iota + 1)]})


@settings(max_examples=200)
@given(
    iota=st.integers(1, 6),
    radius=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
    data=st.data(),
)
def test_euclidean_ball_phi_agrees_with_the_80_step_loop(iota, radius, data):
    # on magnitudes 0 or in [1e-40, 1e40] no power of the loop's midpoint
    # under- or overflows, and the Newton solve is within 8 ulps of it
    magnitude = st.one_of(st.just(0.0), st.floats(1e-40, 1e40))
    rows = data.draw(st.integers(0, 40), label="rows")
    mags = data.draw(arrays(float, (iota, rows), elements=magnitude), label="mags")
    d = euclidean_ball_distance(_chain(iota), radius)
    got, want = d.phi(mags), oracle.euclidean_ball_phi_loop(radius, mags)
    assert got.shape == want.shape and np.all(np.abs(got - want) <= 8 * np.spacing(want))
    # a row with a nan magnitude gives the canonical nan (the loop gave 0
    # where no magnitude was positive), one with an inf magnitude inf, and
    # every other row its value in the clean batch
    marks = data.draw(arrays(np.int8, (iota, rows), elements=st.integers(0, 5)), label="marks")
    bad = np.where(marks == 0, np.nan, np.where(marks == 1, np.inf, mags))
    with np.errstate(invalid="ignore"):
        got_bad = d.phi(bad)
    nan_rows, inf_rows = np.any(marks == 0, axis=0), np.any(marks == 1, axis=0)
    assert got_bad[nan_rows].tobytes() == np.full(np.sum(nan_rows), np.nan).tobytes()
    assert np.all(got_bad[inf_rows & ~nan_rows] == np.inf)
    assert _same(got_bad[~nan_rows & ~inf_rows], got[~nan_rows & ~inf_rows])


def test_euclidean_ball_norm_where_the_bisection_failed():
    # the bisection's midpoint powers underflowed, 0/0 made nan and the
    # bracket drifted to its lower end; a nan point had norm 0
    d = euclidean_ball_distance(_chain(6), 0.5)
    assert abs(float(d.norm(1e-60 * np.eye(7)[0])) - 2e-60) <= 2 * np.spacing(2e-60)
    h = euclidean_ball_distance(heisenberg(1), 0.5)
    assert abs(float(h.phi(np.array([1e-200, 0.0]))) - 2e-200) <= 2 * np.spacing(2e-200)
    # phi(delta_lam t) = lam phi(t) at lam = 1e+-100, on magnitudes whose
    # layers above the third are zero, so that every dilate is a float
    rng = stream(9, "euclidean-ball-homogeneity")
    for iota in range(1, 7):
        d = euclidean_ball_distance(_chain(iota), 0.5)
        t = np.zeros((iota, 64))
        t[:3] = rng.uniform(0.1, 2.0, (min(iota, 3), 64))
        for lam in (1e-100, 1e100):
            want = lam * d.phi(t)
            dilated = t.copy()
            dilated[:3] *= lam ** np.arange(1.0, min(iota, 3) + 1)[:, None]
            got = d.phi(dilated)
            assert np.all(np.abs(got - want) <= 8 * np.spacing(want))
        nan_point = np.full(d.group.q, np.nan)
        assert np.isnan(d.norm(nan_point)) and not oracle.ball_contains(d, np.zeros(d.group.q), nan_point)


@pytest.mark.parametrize("d", KERNEL_CASES, ids=lambda d: f"{d.group.name}-{d.kind}")
def test_single_points_are_bitwise_the_oracle(d):
    rng = stream(6, f"single:{d.group.name}:{d.kind}")
    for x, y in rng.uniform(-2.0, 2.0, (60, 2, d.group.q)):
        assert _same(d.distance(x, y), oracle.distance(d, x, y))
        assert _same(d.norm(y), oracle.norm(d, y))


@pytest.mark.parametrize("d", KERNEL_CASES, ids=lambda d: f"{d.group.name}-{d.kind}")
def test_single_points_round_like_batch_rows(d):
    # powers of numpy scalars and of arrays round differently in a few
    # percent of cases, so a point alone must reach phi as a row
    rng = stream(7, f"rows:{d.group.name}:{d.kind}")
    centre, pts = rng.uniform(-2.0, 2.0, d.group.q), rng.uniform(-2.0, 2.0, (200, d.group.q))
    norms, distances = d.norm(pts), d.distance(centre, pts)
    for p, n, dist in zip(pts, norms, distances):
        assert _same(d.norm(p), n) and _same(d.norm(p[None])[0], n)
        assert _same(d.distance(centre, p), dist)


@pytest.mark.parametrize("d", KERNEL_CASES, ids=lambda d: f"{d.group.name}-{d.kind}")
def test_unit_sphere_layers_lie_within_layer_radii(d):
    # |z_j| <= rho_j on the unit sphere, with equality on each layer's axis
    g = d.group
    rng = stream(8, f"radii:{d.group.name}:{d.kind}")
    scales = 10.0 ** rng.uniform(-3.0, 3.0, (4000, g.step))
    z = d.unit_normalize(rng.standard_normal((4000, g.q)) * scales[:, g.degrees - 1])
    for j, layer in enumerate(g.layer_slices):
        assert np.all(np.linalg.norm(z[:, layer], axis=1) <= d.layer_radii[j] * (1.0 + 1e-12))
        axis = d.unit_normalize(np.eye(g.q)[layer.start])
        assert np.linalg.norm(axis[layer]) == pytest.approx(d.layer_radii[j], rel=1e-12)
