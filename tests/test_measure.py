import warnings
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgeom import mc, measure, metrics
from nilgeom.algebra import Subspace, abelian, engel, free2, h_type, heisenberg, load_group
from nilgeom.errors import (
    BadDimensions,
    CloudTooSparse,
    DegenerateTangent,
    LevelSetNotGraph,
    NonFinite,
    NotVertical,
    RadiusTooSmall,
)
from nilgeom.manifold import TransformedChart, parse_parametrization
from nilgeom.measure import (
    ConvexBody,
    area_check,
    ball_body,
    beta_constancy_check,
    box_body,
    coarea_check,
    covering_estimate,
    ellipsoid_body,
    federer_density,
    intrinsic_measure,
    section_area,
    section_concavity_check,
    spherical_factor,
    vertical_translation_check,
)
from nilgeom.metrics import (
    box_distance,
    cygan_koranyi_distance,
    euclidean_ball_distance,
    multiradial_distance,
)
from nilgeom.mc import box_points, stream, sum_of_squares, uniform_ball
from nilgeom.policy import NumericPolicy
from oracles.mc import box_points_rows, uniform_ball_rows, uniform_box_rows
from oracles.measure import (
    ball_body_rows,
    box_body_rows,
    box_midpoint_chunked,
    concavity_per_call,
    cover_leg_from,
    covering_full_scan,
    ellipsoid_body_rows,
    farthest_point_loop,
    federer_full_window,
    hypersurface_density,
    hypersurface_density_multivector,
    intrinsic_mc_per_block,
    intrinsic_tensor_chunked,
    section_area_per_call,
    shift_rows,
    translation_jacobian_per_call,
    translation_per_call,
    within_full_scan,
)

H1 = heisenberg(1)
BOX = box_distance(H1, [1.0, 1.0])
VERTICAL = Subspace(H1, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# section areas and spherical factors
# ---------------------------------------------------------------------------

def test_section_area_euclidean_disc():
    g = abelian(2)
    d = multiradial_distance(g, "t1")
    est = section_area(d, Subspace(g, np.eye(2)), np.zeros(2), samples=200_000, seed=1)
    assert abs(est.value - np.pi) <= 3 * est.stderr


def test_section_area_box_vertical_plane():
    d = box_distance(H1, [1.0, 0.7])
    est = section_area(d, VERTICAL, np.zeros(3), samples=200_000, seed=1)
    assert abs(est.value - 4.0 / 0.49) <= 3 * est.stderr


def test_section_area_empty():
    est = section_area(BOX, VERTICAL, np.array([0.0, 50.0, 0.0]), samples=1000, seed=1)
    assert est.value == 0.0 and est.method == "empty-section"


def test_stderr_halves_when_samples_quadruple():
    est1 = section_area(BOX, VERTICAL, np.zeros(3), samples=50_000, seed=2)
    est2 = section_area(BOX, VERTICAL, np.zeros(3), samples=200_000, seed=2)
    assert est2.stderr == pytest.approx(est1.stderr / 2.0, rel=0.25)


def test_spherical_factor_shortcut_and_search_agree():
    short = spherical_factor(BOX, VERTICAL, samples=150_000, seed=3)
    assert short.method == "theorem-shortcut"
    assert short.value == pytest.approx(4.0, abs=3 * short.stderr)
    searched = spherical_factor(BOX, VERTICAL, samples=150_000, seed=3, force_search=True)
    assert searched.method == "optimized"
    # the optimized search must not beat the theorem value beyond noise
    assert searched.value <= short.value + 3 * np.hypot(short.stderr, searched.stderr)
    assert searched.value >= short.value - 3 * np.hypot(short.stderr, searched.stderr)


def test_spherical_factor_horizontal_shortcut():
    line = Subspace(H1, np.array([[0.6], [0.8], [0.0]]))
    est = spherical_factor(BOX, line, samples=100_000, seed=4)
    assert est.method == "theorem-shortcut"
    assert est.value == pytest.approx(2.0, abs=3 * est.stderr)


ROTATION_KINDS = [
    BOX,
    box_distance(H1, [1.0, 0.6]),
    multiradial_distance(H1, "max(t1, 2*t2^0.5)"),
    multiradial_distance(H1, "t1 + t2^0.5"),
    euclidean_ball_distance(H1, 0.5),
    cygan_koranyi_distance(H1),
]


@settings(max_examples=25)
@given(data=st.data())
def test_spherical_factor_is_invariant_under_first_layer_rotations(data):
    # a rotation of the first layer keeps [e1, e2] = 2 e3, so it is an
    # automorphism, and an isometry of every kind, since each phi reads the
    # layer magnitudes only; the shortcut makes each factor one section area
    d = data.draw(st.sampled_from(ROTATION_KINDS), label="distance")
    angle = data.draw(st.floats(0.0, 2.0 * np.pi), label="angle")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rotated = Subspace(H1, np.array([[np.cos(angle), 0.0], [np.sin(angle), 0.0], [0.0, 1.0]]))
    assert measure._factor_shortcut(d, VERTICAL) is not None
    assert measure._factor_shortcut(d, rotated) is not None
    base = spherical_factor(d, VERTICAL, samples=10_000, seed=seed)
    turned = spherical_factor(d, rotated, samples=10_000, seed=seed)
    assert abs(turned.value - base.value) <= 4.0 * np.hypot(base.stderr, turned.stderr)


def _recorded_streams(monkeypatch) -> list[tuple[str, int]]:
    """The (tag, block) of every stream opened from here on."""
    opened = []

    def recording(seed, tag, block=0):
        opened.append((tag, block))
        return stream(seed, tag, block)

    monkeypatch.setattr(mc, "stream", recording)
    monkeypatch.setattr(measure, "stream", recording)
    return opened


def test_factor_search_draws_one_shared_sample_set(monkeypatch):
    opened = _recorded_streams(monkeypatch)
    spherical_factor(BOX, VERTICAL, samples=20_000, seed=2, force_search=True)
    tags = [tag for tag, _ in opened]
    assert tags.count("beta-search") == 1
    assert not [tag for tag in tags if tag.startswith("beta-search:")]


def test_factor_search_reports_the_picked_centre_on_its_own_stream():
    # at seed 1 the paired draw keeps the origin, at seed 2 the search winner
    picked = []
    for seed in (1, 2):
        est = spherical_factor(BOX, VERTICAL, samples=20_000, seed=seed, force_search=True)
        tag = {"origin": "beta0", "search": "beta-final"}[est.meta["selected"]]
        centre = np.array(est.meta["argmax_u"])
        again = section_area(BOX, VERTICAL, centre, 20_000, seed, tag=tag)
        assert (est.value, est.stderr, est.samples, est.seed) == (again.value, again.stderr, again.samples, again.seed)
        assert est.meta["evaluations"] > 0
        picked.append((est.meta["selected"], bool(np.any(centre))))
    assert picked == [("origin", False), ("search", True)]


def test_factor_search_is_deterministic():
    first, second = (
        spherical_factor(BOX, VERTICAL, samples=20_000, seed=2, force_search=True) for _ in range(2)
    )
    assert first == second
    assert first.meta == second.meta


@settings(max_examples=25)
@given(data=st.data())
def test_forced_search_agrees_with_the_shortcut(data):
    d = data.draw(st.sampled_from(ROTATION_KINDS), label="distance")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    short = spherical_factor(d, VERTICAL, samples=20_000, seed=seed)
    searched = spherical_factor(d, VERTICAL, samples=20_000, seed=seed, force_search=True)
    assert short.method == "theorem-shortcut" and searched.method == "optimized"
    assert abs(searched.value - short.value) <= 3.0 * np.hypot(short.stderr, searched.stderr)


def _h_type_tilt():
    g = h_type()
    basis = np.zeros((g.q, 2))
    basis[[0, 4], 0] = 1.0
    basis[1, 1] = 1.0
    return box_distance(g, [1.0, 1.0]), Subspace(g, basis)


def _engel_plane():
    g = engel()
    basis = np.zeros((g.q, 2))
    basis[0, 0] = basis[2, 1] = 1.0
    return box_distance(g, [1.0, 1.0, 1.0]), Subspace(g, basis)


SEARCHES = [(d, VERTICAL, seed) for d in ROTATION_KINDS for seed in (1, 2, 5)] + [
    (*_h_type_tilt(), 0), (*_engel_plane(), 0),
]


@pytest.mark.parametrize("dist,space,seed", SEARCHES)
def test_factor_search_is_bitwise_the_full_scan(monkeypatch, dist, space, seed):
    # every objective count evaluates the distance inside the box of B(u, 1)
    # only; patched onto the full scan, the search makes the same steps
    got = spherical_factor(dist, space, samples=5_000, seed=seed, force_search=True)
    monkeypatch.setattr(measure, "_within", within_full_scan)
    want = spherical_factor(dist, space, samples=5_000, seed=seed, force_search=True)
    assert got == want and got.meta == want.meta


def test_factor_search_measures_distances_inside_the_box_only(monkeypatch):
    # the full scan took 572,000 rows off the identity here, the boxed
    # search takes under 45,000
    rows = []
    distance_columns = metrics.HomogeneousDistance.distance_columns

    def counting(self, center, cols):
        if np.any(center):
            rows.append(cols.shape[1])
        return distance_columns(self, center, cols)

    monkeypatch.setattr(metrics.HomogeneousDistance, "distance_columns", counting)
    spherical_factor(BOX, VERTICAL, samples=20_000, seed=1, force_search=True)
    assert 0 < sum(rows) <= 100_000


def test_section_counts_take_coordinate_first_blocks(monkeypatch):
    # every block a member counts on is a C-contiguous float (q, rows)
    # array, so no row-major round trip sits between the draw and the norm
    blocks_seen = []
    count_hits = measure.count_hits

    def checked(sample_blocks, *members):
        def recorded():
            for pts in sample_blocks:
                blocks_seen.append(pts)
                yield pts

        return count_hits(recorded(), *members)

    monkeypatch.setattr(measure, "count_hits", checked)
    u = np.array([0.2, -0.1, 0.3])
    calls = [
        lambda: section_area(BOX, VERTICAL, u, samples=mc.BLOCK + 7, seed=1),
        lambda: spherical_factor(BOX, VERTICAL, samples=20_000, seed=1, force_search=True),
        lambda: section_concavity_check(ball_body(BOX), VERTICAL, segments=3, samples=mc.BLOCK + 7, seed=1),
    ]
    for call in calls:
        blocks_seen.clear()
        call()
        assert blocks_seen
        for pts in blocks_seen:
            assert pts.dtype == np.float64 and pts.flags.c_contiguous
            assert pts.ndim == 2 and pts.shape[0] == H1.q


# ---------------------------------------------------------------------------
# intrinsic measure
# ---------------------------------------------------------------------------

def test_intrinsic_measure_plane_unit_density():
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    est = intrinsic_measure(plane, resolution=16)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_intrinsic_measure_helix_arc_length():
    helix = parse_parametrization("cos(y1); sin(y1); y1", 1, [[0, 2 * np.pi]], H1)
    est = intrinsic_measure(helix, resolution=512)
    assert est.value == pytest.approx(2 * np.pi, rel=1e-6)


def test_intrinsic_measure_paraboloid_richardson_stable():
    parab = parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-1, 1]], H1)
    est64 = intrinsic_measure(parab, resolution=64)
    est128 = intrinsic_measure(parab, resolution=128)
    assert abs(est64.value - est128.value) < 1e-4
    assert est64.meta["degree"] == 3


def test_intrinsic_measure_mc_agrees_with_tensor():
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    mc = intrinsic_measure(plane, quadrature="mc", samples=100_000, seed=5)
    assert abs(mc.value - 1.0) <= 3 * max(mc.stderr, 1e-12)


MEASURE_CHARTS = [
    ("y1; 0; y2", 2, heisenberg(1)),
    ("y1; y2; y1^2 + y2^2", 2, heisenberg(1)),
    ("y1; y1^2; y2; y1*y2", 2, engel()),
    ("y1; y1^2; y1^3; 0.5*y1^2", 1, engel()),
    ("y1; y2; 0; 0; y1*y2", 2, heisenberg(2)),
]


@settings(max_examples=25)
@given(data=st.data())
def test_intrinsic_measure_left_translation_and_dilation(data):
    # mu(p . Sigma) = mu(Sigma) and mu(delta_r Sigma) = r^N mu(Sigma)
    exprs, n, group = data.draw(st.sampled_from(MEASURE_CHARTS), label="chart")
    chart = parse_parametrization(exprs, n, [[-0.5, 1.0]] * n, group)
    p = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=group.q, max_size=group.q), label="p")
    r = data.draw(st.floats(0.25, 4.0), label="r")
    resolution = 12 if n == 2 else 64
    base = intrinsic_measure(chart, resolution=resolution)
    translated = intrinsic_measure(TransformedChart(chart, translate=p), resolution=resolution)
    dilated = intrinsic_measure(TransformedChart(chart, dilate=r), resolution=resolution)
    degree = base.meta["degree"]
    assert translated.meta["degree"] == dilated.meta["degree"] == degree
    assert translated.value == pytest.approx(base.value, rel=1e-9)
    assert dilated.value == pytest.approx(r**degree * base.value, rel=1e-9)


@pytest.mark.parametrize("delta", [0.0, -0.2, float("nan")])
def test_bad_covering_delta_raises_before_any_work(monkeypatch, delta):
    def started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(measure, "intrinsic_measure", started)
    monkeypatch.setattr(measure, "sampled_max_degree", started)
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    with pytest.raises(ValueError):
        area_check(plane, BOX, probes=[[0.5, 0.5]], covering_delta=delta)
    with pytest.raises(ValueError):
        covering_estimate(plane, BOX, [[0, 1], [0, 1]], 3.0, delta)
    with pytest.raises(ValueError):
        intrinsic_measure(plane, quadrature="simpson")


@pytest.mark.parametrize("rows", [[[1, -1], [0, 1]], [[0, 1], [0.5, 0.5]], [[0, 1], [np.nan, 1]]],
                         ids=["reversed", "zero-width", "nan"])
def test_region_and_domain_rows_need_lo_below_hi(monkeypatch, rows):
    # a reversed region once gave mu = -4.0 and a reversed coarea domain
    # lhs -11.79 against rhs -0.0; each now raises before any work
    def started(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("sampled_max_degree", "classify_point", "uniform_box", "parse_expression"):
        monkeypatch.setattr(measure, name, started)
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    with pytest.raises(ValueError, match="lo < hi"):
        intrinsic_measure(plane, rows)
    with pytest.raises(ValueError, match="lo < hi"):
        area_check(plane, BOX, rows, probes=[[0.5, 0.5]])
    with pytest.raises(ValueError, match="lo < hi"):
        covering_estimate(plane, BOX, rows, 3.0, 0.2)
    with pytest.raises(ValueError, match="lo < hi"):
        coarea_check(H1, 1, "0", "1", [[-1, 1]] + rows)


def test_intrinsic_measure_dilation_scaling():
    # mu(delta_r Sigma) = r^N mu(Sigma)
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    base = intrinsic_measure(plane, resolution=16)
    for r in (0.5, 2.0):
        scaled = intrinsic_measure(TransformedChart(plane, dilate=r), resolution=16)
        assert scaled.value == pytest.approx(r**3 * base.value, rel=1e-10)
    helix = parse_parametrization("cos(y1); sin(y1); y1", 1, [[0, 1]], H1)
    base_h = intrinsic_measure(helix, resolution=256)
    scaled_h = intrinsic_measure(TransformedChart(helix, dilate=2.0), resolution=256)
    assert scaled_h.value == pytest.approx(2.0 * base_h.value, rel=1e-8)


# ---------------------------------------------------------------------------
# Federer density
# ---------------------------------------------------------------------------

def test_federer_density_plane_matches_beta():
    plane = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    est, trace = federer_density(plane, BOX, [0.1, -0.2], samples=30_000, seed=6)
    assert est.meta["degree"] == 3
    assert est.value == pytest.approx(4.0, rel=0.05)
    assert len(trace) >= 8


def test_federer_density_euclidean_plane_is_pi():
    # classical density of a plane in R^2 against the spherical measure
    g = abelian(2)
    d = multiradial_distance(g, "t1")
    plane = parse_parametrization("y1; y2", 2, [[-1, 1], [-1, 1]], g)
    est, _ = federer_density(plane, d, [0.1, 0.2], samples=40_000, seed=19)
    assert est.value == pytest.approx(np.pi, rel=0.02)


def test_federer_density_legendrian_surface_in_h2():
    # curved horizontal surface in the 5-dimensional group: the density must
    # match the spherical factor of its 2-dimensional horizontal tangent,
    # which is the area pi of the unit disc for unit box weights
    g = heisenberg(2)
    d = box_distance(g, [1.0, 1.0])
    leg = parse_parametrization("y1; y2; y1^2; 0; y1^3/3", 2, [[-1, 1], [-1, 1]], g)
    from nilgeom.manifold import classify_point

    analysis = classify_point(leg, [0.3, -0.2])
    beta = spherical_factor(d, analysis.htangent, samples=200_000, seed=42)
    assert beta.method == "theorem-shortcut"
    assert beta.value == pytest.approx(np.pi, abs=3 * beta.stderr)
    theta, _ = federer_density(leg, d, [0.3, -0.2], samples=40_000, seed=43)
    assert theta.value == pytest.approx(beta.value, rel=0.05)


def test_federer_density_radius_too_small():
    plane = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    with pytest.raises(RadiusTooSmall):
        federer_density(plane, BOX, [0.0, 0.0], samples=300, seed=6)


def test_area_check_classifies_each_judged_probe_once(monkeypatch):
    # the Federer density shares the probe's analysis, and gives the
    # public federer_density's estimate and trace
    calls = []
    real = measure.classify_point

    def counted(chart, y, policy):
        calls.append(tuple(y))
        return real(chart, y, policy)

    monkeypatch.setattr(measure, "classify_point", counted)
    probes = [[0.1, 0.3], [-0.2, 0.1]]
    report = area_check(PLANE, BOX, probes=probes, samples=20_000, seed=8)
    assert calls == [tuple(y) for y in probes]
    monkeypatch.undo()
    for key, y in zip(["probe0", "probe1"], probes):
        theta, trace = federer_density(PLANE, BOX, y, samples=20_000, seed=8)
        assert report.theta[key] == theta and report.traces[key] == trace


@pytest.mark.parametrize(
    "kwargs",
    [
        {"radii": []},
        {"radii": [0.0]},
        {"radii": [float("nan")]},
        {"radii": [float("inf")]},
        {"radii": [0.1, -0.1]},
        {"samples": 0},
        {"samples": -3},
    ],
    ids=["radii-empty", "radius-zero", "radius-nan", "radius-inf", "radius-negative", "samples-zero", "samples-negative"],
)
def test_federer_density_rejects_malformed_inputs_before_any_work(monkeypatch, kwargs):
    def started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(measure, "classify_point", started)
    monkeypatch.setattr(measure, "intrinsic_measure", started)
    plane = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    with pytest.raises(ValueError):
        federer_density(plane, BOX, [0.1, -0.2], **kwargs)
    if "samples" in kwargs:
        with pytest.raises(ValueError):
            area_check(plane, BOX, probes=[[0.1, -0.2]], samples=kwargs["samples"])


PLANE = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
CUBE = box_body([1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: section_area(BOX, VERTICAL, np.zeros(3), samples=0), "samples"),
        (lambda: spherical_factor(BOX, VERTICAL, samples=0), "samples"),
        (lambda: beta_constancy_check(BOX, [VERTICAL], samples=0), "samples"),
        (lambda: beta_constancy_check(BOX, []), "family is empty"),
        (lambda: vertical_translation_check(H1, VERTICAL, np.zeros(3), samples=-1), "samples"),
        (lambda: vertical_translation_check(H1, VERTICAL, None, box=[[1, -1], [-1, 1]]), "box"),
        (lambda: vertical_translation_check(H1, VERTICAL, [0.1, 0.2, 0.3], box=[[0, 0], [-1, 1]]), "box"),
        (lambda: vertical_translation_check(H1, VERTICAL, None, box=[[-1, 1]]), "box"),
        (lambda: section_concavity_check(CUBE, VERTICAL, samples=0), "samples"),
        (lambda: section_concavity_check(CUBE, VERTICAL, segments=0), "segments"),
        (lambda: metrics.verify_distance_axioms(BOX, samples=0), "samples"),
        (lambda: metrics.calibrate_box(H1, samples=0), "samples"),
        (lambda: intrinsic_measure(PLANE, quadrature="mc", samples=0), "samples"),
        (lambda: intrinsic_measure(PLANE, resolution=0), "resolution"),
        (lambda: coarea_check(H1, 1, "0", "1", [[-1, 1]] * 3, resolution=0), "resolution"),
        (lambda: covering_estimate(PLANE, BOX, PLANE.domain, exponent=3.0, delta=0.2, cloud_size=0), "cloud_size"),
    ],
    ids=[
        "section-samples", "factor-samples", "constancy-samples", "constancy-empty", "translation-samples",
        "translation-box-reversed", "translation-box-zero-width", "translation-box-one-row",
        "concavity-samples", "concavity-segments", "axioms-samples", "calibrate-samples", "measure-samples",
        "measure-resolution", "coarea-resolution", "covering-cloud",
    ],
)
def test_counts_below_one_are_rejected_before_any_work(monkeypatch, call, message):
    def started(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in [
        (measure, "stream"), (measure, "draw_blocks"), (measure, "classify_subspace"),
        (measure, "ball_bounding_radius"), (measure, "sampled_max_degree"), (measure, "parse_expression"),
        (metrics, "stream"), (metrics, "_quotient_group"),
    ]:
        monkeypatch.setattr(module, name, started)
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# covering estimates
# ---------------------------------------------------------------------------

def test_covering_horizontal_segment():
    seg = parse_parametrization("y1; 0; 0", 1, [[0, 2]], H1)
    est = covering_estimate(seg, BOX, [[0, 2]], exponent=1.0, delta=0.02, cloud_size=3000, seed=7)
    # greedy farthest-point nets land between the Caratheodory infimum L/2
    # and the packing bound L
    assert 1.0 <= est.value <= 1.6
    half = covering_estimate(seg, BOX, [[0, 2]], exponent=1.0, delta=0.01, cloud_size=6000, seed=7)
    assert abs(est.value - half.value) <= 0.15 * half.value


def test_covering_plane_patch_stability_band():
    # regression pin: greedy covers of the vertical plane stabilize under
    # delta halving and sit a bounded factor above mu/beta
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    report = area_check(plane, BOX, probes=[[0.5, 0.5]], samples=20_000, seed=3, covering_delta=0.4)
    verdict = [v for v in report.verdicts if v.name == "covering-stability"][0]
    assert verdict.passed
    assert 1.0 <= verdict.detail["ratio_to_mu_over_beta"] <= 4.0


def test_area_check_starts_the_half_cover_at_the_accepted_cloud(monkeypatch):
    # a cloud depends on (seed, size) alone, so the delta/2 leg skips the
    # sizes too sparse at delta and lands where doubling from 8,000 did
    plane = parse_parametrization("y1; 0; y2", 2, [[-0.15, 0.15], [-0.15, 0.15]], H1)
    calls = []
    real = measure.covering_estimate

    def counted(*args, **kwargs):
        calls.append((kwargs["delta"], kwargs["cloud_size"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "covering_estimate", counted)
    report = area_check(plane, BOX, probes=[[0.0, 0.0]], samples=10_000, seed=7, covering_delta=0.1)
    monkeypatch.undo()
    full, full_calls = cover_leg_from(plane, BOX, plane.domain, 3.0, 0.1, 4000, seed=7)
    half, half_calls = cover_leg_from(plane, BOX, plane.domain, 3.0, 0.05, 8000, seed=7)
    assert full.samples == 16_000  # the delta leg doubles twice
    assert report.covering.as_dict() == full.as_dict()
    assert report.traces["covering"] == [(0.1, full.value), (0.05, half.value)]
    verdict = report.verdicts[-1]
    assert (verdict.name, verdict.lhs, verdict.rhs) == ("covering-stability", full.value, half.value)
    assert [size for delta, size in calls if delta == 0.1] == [4000 << k for k in range(full_calls)]
    halves = [size for delta, size in calls if delta == 0.05]
    assert halves == [full.samples << k for k in range(len(halves))] and halves[-1] == half.samples
    assert len(calls) < full_calls + half_calls


@pytest.mark.parametrize(
    "expr, n, region, delta",
    [
        ("0; 0; y1", 1, [[-1, 1]], 0.2),  # passes
        ("y1; 0; y2", 2, [[0, 1], [0, 1]], 0.4),  # passes
        ("y1; 0; y2", 2, [[0, 1], [0, 1]], 0.2),  # too sparse
        ("y1; y2; y1*y2", 2, [[0, 1], [0, 1]], 0.2),  # too sparse
        # the tilted chart passes at these deltas; its candidate boxes need
        # the bracket terms (without them the spacing check fails at 0.4)
        # and the table's bracket norm L = 2 (L = 1 places 187 balls at 0.3)
        ("y1; y2; y1*y2", 2, [[0, 1], [0, 1]], 0.4),
        ("y1; y2; y1*y2", 2, [[0, 1], [0, 1]], 0.3),
    ],
)
def test_covering_probe_early_exit_matches_full_scan(expr, n, region, delta):
    # 9,000 points span three 4,096-row chunks of the spacing scan
    chart = parse_parametrization(expr, n, region, H1)
    args = (chart, BOX, region, 1.0, delta)
    try:
        want = covering_full_scan(*args, cloud_size=9000, seed=3)
    except CloudTooSparse as err:
        with pytest.raises(CloudTooSparse) as got:
            covering_estimate(*args, cloud_size=9000, seed=3)
        assert str(got.value) == str(err)
    else:
        assert covering_estimate(*args, cloud_size=9000, seed=3) == want


FILIFORM6 = {
    "name": "filiform6",
    "layers": [2, 1, 1, 1, 1, 1],
    "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)],
}


def _distances(groups):
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


COVER_DISTANCES = _distances(
    [heisenberg(1), heisenberg(2), h_type(), engel(), free2(3), load_group(FILIFORM6)]
)


def _chart(data, group):
    """A linear, tilted (products of parameters in the upper layers) or
    polynomial (powers of the coordinate's degree) chart.  The upper layers
    are damped by a common factor, since a cloud only passes the spacing
    check when they are flat enough; offsets in the central top layer and in
    the first layer move the cloud away from the origin."""
    n = data.draw(st.sampled_from([1, 1, 2]), label="n")
    shape = data.draw(st.sampled_from(["linear", "tilted", "polynomial"]), label="shape")
    damp = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]), label="damp")
    offsets = data.draw(st.sampled_from([0.0, 0.5]), label="first"), data.draw(
        st.sampled_from([0.0, 2.5, -70.0]), label="top"
    )
    coeff = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    exprs = []
    for degree in group.degrees:
        terms = [f"({data.draw(coeff)})*y{i + 1}" for i in range(n)]
        if shape == "tilted" and degree > 1:
            terms.append(f"({data.draw(coeff)})*y1*y{n}")
        if shape == "polynomial" and degree > 1:
            terms.append(f"({data.draw(coeff)})*y{n}^{degree}")
        expr = " + ".join(terms)
        if degree > 1:
            expr = f"({damp})*({expr})"
        if degree in (1, group.step):
            expr += f" + ({offsets[int(degree == group.step)]})"
        exprs.append(expr)
    lo = data.draw(st.sampled_from([-1.0, -0.5, 0.0]), label="lo")
    region = [[lo, lo + data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="width")]] * n
    return parse_parametrization("; ".join(exprs), n, region, group), region


@settings(max_examples=100)
@given(data=st.data())
def test_covering_is_bitwise_the_full_scan(data):
    # the same balls (or the same CloudTooSparse text) on every group, kind
    # and chart; small clouds and deltas make a share of them too sparse
    d = data.draw(st.sampled_from(COVER_DISTANCES), label="distance")
    chart, region = _chart(data, d.group)
    delta = data.draw(st.floats(0.1, 0.8), label="delta")
    kwargs = {
        "cloud_size": data.draw(st.integers(16, 300), label="cloud_size"),
        "seed": data.draw(st.integers(0, 2**16), label="seed"),
    }
    args = (chart, d, region, 2.0, delta)
    try:
        want = covering_full_scan(*args, **kwargs)
    except CloudTooSparse as err:
        with pytest.raises(CloudTooSparse) as got:
            covering_estimate(*args, **kwargs)
        assert str(got.value) == str(err)
    else:
        assert covering_estimate(*args, **kwargs) == want


# The farthest-point net against the plain loop, with the default pool and
# batch and with pools and batches down to one point
NET_SIZES = [(measure.COVER_POOL, measure.COVER_BATCH), (8, 4), (1, 1), (3, 64)]


def _assert_net_is_the_loop(dist, cloud, radius, pool, batch):
    want = farthest_point_loop(dist, cloud, radius)
    # the reach and the index that covering_estimate builds
    reach = measure._coordinate_reach(dist, float(np.max(np.linalg.norm(cloud, axis=1))))
    index = measure._CoverIndex(cloud, dist.group, float(dist.layer_radii[0]) * radius)
    with patch.object(measure, "COVER_POOL", pool), patch.object(measure, "COVER_BATCH", batch):
        centres, values = measure._farthest_point_net(dist, cloud, radius, reach, index)
    assert np.array_equal(centres, want[0])
    assert np.array_equal(values, want[1])


@settings(max_examples=30)
@given(data=st.data())
def test_farthest_point_net_is_the_plain_loop(data):
    # groups of step at most 3: the oracle's distance over the whole cloud
    # per centre is slow at higher steps
    d = data.draw(st.sampled_from([d for d in COVER_DISTANCES if d.group.step <= 3]), label="distance")
    chart, region = _chart(data, d.group)
    rng = stream(data.draw(st.integers(0, 2**16), label="seed"), "cover-cloud")
    size = data.draw(st.integers(1, 700), label="cloud_size")
    cloud = chart.value(uniform_box_rows(rng, np.asarray(region, dtype=float), size))
    radius = data.draw(st.floats(0.08, 0.4), label="radius")
    # a pool and batch of one take a batch per centre: hand-built clouds only
    sizes = data.draw(st.sampled_from(NET_SIZES[:2] + NET_SIZES[3:]), label="sizes")
    _assert_net_is_the_loop(d, cloud, radius, *sizes)


def _lattice(q):
    return np.array(list(product(range(-2, 3), repeat=q)), dtype=float)


@pytest.mark.parametrize("sizes", NET_SIZES)
@pytest.mark.parametrize(
    "dist, cloud, radius",
    [
        # integer lattices under the box distance: many values tie exactly,
        # so the lowest index decides
        (BOX, _lattice(3), 0.5),
        (BOX, _lattice(3), 1.0),
        (box_distance(engel(), [1.0, 1.0, 1.0]), _lattice(4), 1.0),
        (box_distance(engel(), [1.0, 1.0, 1.0]), _lattice(4), 1.5),
        # each point three times in a row, and the cloud twice over
        (BOX, np.repeat(_lattice(3)[::7] * 0.3, 3, axis=0), 0.2),
        (BOX, np.tile(_lattice(3)[::5] * 0.3, (2, 1)), 0.2),
        # a single point
        (BOX, np.array([[0.3, -0.2, 0.1]]), 0.1),
        # a vertical line of 6,000 points: 129 balls, with the default pool
        # filled 9 times
        (BOX, np.outer(np.linspace(-1.0, 1.0, 6000), [0.0, 0.0, 1.0]), 0.1),
    ],
    ids=["h1-lattice-0.5", "h1-lattice-1", "engel-lattice-1", "engel-lattice-1.5", "repeated", "tiled",
         "one-point", "vertical-line"],
)
def test_farthest_point_net_on_hand_built_clouds(dist, cloud, radius, sizes):
    _assert_net_is_the_loop(dist, cloud, radius, *sizes)


@settings(max_examples=40)
@given(data=st.data())
def test_cover_index_near_is_the_box(data):
    # every centre's box, with cells and runs found as the one-centre
    # search found them: the cell range of the first-layer coordinate a,
    # the closed range [c_b - r_b, c_b + r_b] of the top-layer coordinate
    # b, and |x_k - c_k| <= r_k in every other coordinate
    d = data.draw(st.sampled_from(COVER_DISTANCES), label="distance")
    chart, region = _chart(data, d.group)
    rng = stream(data.draw(st.integers(0, 2**16), label="seed"), "near")
    size = data.draw(st.integers(1, 400), label="cloud_size")
    cloud = chart.value(uniform_box_rows(rng, np.asarray(region, dtype=float), size))
    index = measure._CoverIndex(cloud, d.group, data.draw(st.floats(0.01, 1.0), label="width"))
    m = data.draw(st.integers(1, 6), label="centres")
    centers = np.vstack([cloud[rng.integers(0, len(cloud), m)], rng.standard_normal((m, d.group.q))])
    scale = data.draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]), label="scale")
    reaches = rng.random((2 * m, d.group.q)) * scale
    pos, counts = index.near(centers, reaches)
    assert len(counts) == 2 * m
    cols, a, b = index.columns, index.a, index.b
    want = []
    for c, r in zip(centers, reaches):
        cells = index._cell(cols[a])
        box = (cells >= index._cell(c[a] - r[a])) & (cells <= index._cell(c[a] + r[a]))
        box &= (cols[b] >= c[b] - r[b]) & (cols[b] <= c[b] + r[b])
        for k in index.others:
            box &= np.abs(cols[k] - c[k]) <= r[k]
        want.append(np.flatnonzero(box))
    assert np.array_equal(counts, [len(w) for w in want])
    assert np.array_equal(pos, np.concatenate(want))


# Federer density against the full window, on the cover's charts and kinds

FEDERER_DISTANCES = _distances([abelian(2), heisenberg(1), heisenberg(2), h_type(), engel()])

# horizontal curves and surfaces, one per group
LEGENDRIAN = {
    "abelian(2)": ("y1; y1^2", 1),
    "heisenberg(1)": ("y1; y1^2; y1^3/3", 1),
    "heisenberg(2)": ("y1; y2; y1^2; 0; y1^3/3", 2),
    "h_type": ("y1; y1^2; 0; 0; y1^3/6; 0; 0", 1),
    "engel": ("y1; 0.5*y1; 0; 0", 1),
}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=100)
@given(data=st.data())
def test_federer_density_is_bitwise_the_full_window(data):
    # the same estimate and trace (or the same error) on every group, kind
    # and chart, with explicit and default radii; samples of 1 and 300 leave
    # some radii with no sample in any ball (RadiusTooSmall with 0 hits)
    d = data.draw(st.sampled_from(FEDERER_DISTANCES), label="distance")
    if data.draw(st.booleans(), label="legendrian"):
        exprs, n = LEGENDRIAN[d.group.name]
        region = [[-1.0, 1.0]] * n
        chart = parse_parametrization(exprs, n, region, d.group)
    else:
        chart, region = _chart(data, d.group)
    y0 = [lo + (hi - lo) * data.draw(st.floats(0.2, 0.8), label="y0") for lo, hi in region]
    radii = data.draw(
        st.none() | st.lists(st.floats(0.005, 0.3), min_size=1, max_size=4), label="radii"
    )
    kwargs = {
        "radii": radii,
        "centers_per_radius": data.draw(st.integers(0, 9), label="centers"),
        "samples": data.draw(st.integers(2000, 8000) | st.sampled_from([1, 300]), label="samples"),
        "seed": data.draw(st.integers(0, 2**16), label="seed"),
    }
    want = _outcome(federer_full_window, chart, d, y0, **kwargs)
    assert _outcome(federer_density, chart, d, y0, **kwargs) == want


WITHIN_DISTANCES = _distances([heisenberg(1), h_type(), engel(), load_group(FILIFORM6)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_within_is_the_full_scan(data):
    # points on the sphere of the radius about the centre, and the same
    # points one ulp out and one ulp in, are the first that a box too tight
    # would lose; uniform points about the centre fill the rest
    d = data.draw(st.sampled_from(WITHIN_DISTANCES), label="distance")
    g = d.group
    rng = stream(data.draw(st.integers(0, 2**16), label="seed"), "within")
    size = data.draw(st.sampled_from([0.0, 0.3, 1.0, 3.0]), label="centre norm")
    center = g.dilate(size, d.unit_normalize(rng.standard_normal(g.q))) if size else np.zeros(g.q)
    radius = data.draw(st.floats(1e-3, 2.0) | st.just(1.0 + 1e-14), label="radius")
    sphere = g.product(center, g.dilate(radius, d.unit_normalize(rng.standard_normal((200, g.q)))))
    around = center + rng.uniform(-2.0, 2.0, (300, g.q)) * radius ** g.degrees
    points = np.vstack([sphere, np.nextafter(sphere, np.inf), np.nextafter(sphere, -np.inf), around])
    scale = max(np.max(np.linalg.norm(points, axis=1)), np.linalg.norm(center))
    reach = measure._coordinate_reach(d, float(scale))
    columns = np.ascontiguousarray(points.T)
    want = within_full_scan(d, reach, columns, center, radius)
    assert np.array_equal(measure._within(d, reach, columns, center, radius), want)


@pytest.mark.parametrize("samples", [4000, 20000])
@pytest.mark.parametrize("translate", [None, [0.2, -0.1, 0.3]])
def test_federer_density_on_a_transformed_chart_is_the_full_window(translate, samples):
    # the reparametrization is a BLAS matmul: the density takes its rows
    # for the held samples out of the whole window's, as the oracle does
    base = parse_parametrization("y1; 0; y2", 2, [[-3, 3], [-3, 3]], H1)
    chart = TransformedChart(base, translate=translate, mat=[[1.1, -0.45], [0.3, 0.8]], shift=[0.05, -0.02])
    y0 = chart.domain.mean(axis=1) + [0.6, -0.5]
    kwargs = {"radii": [0.2, 0.1, 0.05], "samples": samples, "seed": 5}
    assert federer_density(chart, BOX, y0, **kwargs) == federer_full_window(chart, BOX, y0, **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([
        ("0; 0; y1", 1, [[-1, 1]]),
        ("y1; 0; y2", 2, [[0, 1], [0, 1]]),
        ("y1; y2; y1*y2", 2, [[0, 1], [0, 1]]),
    ]),
    delta=st.floats(0.1, 2.0) | st.floats(1e100, 1e300),
    exponent=st.sampled_from([0.0, 1.0, 2.0]),
    cloud_size=st.integers(16, 3000),
    seed=st.integers(0, 2**16),
)
def test_covering_is_the_full_scan_over_deltas_clouds_and_seeds(case, delta, exponent, cloud_size, seed):
    # the hand-picked charts above at drawn deltas (some so large that the
    # spacing boxes overflow a float), cloud sizes and seeds
    expr, n, region = case
    args = (parse_parametrization(expr, n, region, H1), BOX, region, exponent, delta)
    try:
        want = covering_full_scan(*args, cloud_size=cloud_size, seed=seed)
    except CloudTooSparse as err:
        with pytest.raises(CloudTooSparse) as got:
            covering_estimate(*args, cloud_size=cloud_size, seed=seed)
        assert str(got.value) == str(err)
    except OverflowError:  # (delta/2)^exponent beyond a float
        with pytest.raises(NonFinite):
            covering_estimate(*args, cloud_size=cloud_size, seed=seed)
    else:
        assert covering_estimate(*args, cloud_size=cloud_size, seed=seed) == want


VERTICAL_LINE = parse_parametrization("0; 0; y1", 1, [[-1, 1]], H1)


def test_covering_at_a_delta_beyond_the_reach_is_one_ball():
    # every power of delta in the spacing boxes overflows; the boxes hold
    # the whole cloud, as at delta = 1e120
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = covering_estimate(VERTICAL_LINE, BOX, [[-1, 1]], exponent=0.0, delta=1e300)
    assert est.meta["balls"] == 1 and est.value == 1.0
    assert est == covering_estimate(VERTICAL_LINE, BOX, [[-1, 1]], exponent=0.0, delta=1e120)


@pytest.mark.parametrize(
    "exponent, delta", [(2.0, 1e300), (-2.0, 1e-300), (-1.0, 5e-324), (1.0, np.inf), (2.0, 1e-323), (2.0, 5e-324)]
)
def test_covering_with_a_measure_beyond_a_float_raises_before_any_work(monkeypatch, exponent, delta):
    monkeypatch.setattr(measure, "uniform_box", lambda *args: pytest.fail("drew a cloud"))
    with pytest.raises(NonFinite, match="not finite"):
        covering_estimate(VERTICAL_LINE, BOX, [[-1, 1]], exponent=exponent, delta=delta)


@pytest.mark.parametrize("delta", [1e300, 1e-323, 5e-324])
def test_area_check_refuses_a_covering_delta_out_of_float_range_before_mu(monkeypatch, delta):
    # the covering exponent is sampled first, so neither (delta/2)^N beyond
    # a float nor a subnormal delta (whose cell keys once overflowed, with
    # numpy warnings and a CloudTooSparse of spacing inf) costs mu and beta
    monkeypatch.setattr(measure, "intrinsic_measure", lambda *args, **kwargs: pytest.fail("measured mu"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="not finite"):
            area_check(VERTICAL_LINE, BOX, probes=[[0.2]], covering_delta=delta)


def test_covering_empty_region_is_zero_balls():
    seg = parse_parametrization("y1; 0; 0", 1, [[0, 1e-9]], H1)
    est = covering_estimate(seg, BOX, [[0, 1e-9]], exponent=1.0, delta=0.5, cloud_size=64, seed=7)
    assert est.meta["balls"] == 1
    assert est.value == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# area report
# ---------------------------------------------------------------------------

def test_area_check_plane_passes_and_paraboloid_advisory():
    plane = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    report = area_check(plane, BOX, probes=[[0.1, 0.3]], samples=30_000, seed=8)
    assert report.passed
    verdict = report.verdicts[0]
    assert not verdict.advisory
    assert verdict.detail["density_factor"] == 1.0

    parab = parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-1, 1]], H1)
    # no probe meets the hypotheses, so no cover is made and its delta is
    # never judged, even one beyond a float
    rep2 = area_check(parab, BOX, probes=[[0.0, 0.0]], samples=5_000, seed=8, covering_delta=1e300)
    assert rep2.verdicts[0].advisory
    assert rep2.passed  # advisory does not fail the report
    assert rep2.covering is None


# ---------------------------------------------------------------------------
# concavity, translation, constancy
# ---------------------------------------------------------------------------

def test_concavity_cube_is_exact():
    space = Subspace(H1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    report = section_concavity_check(box_body([1, 1, 1]), space, segments=50, samples=4000, seed=9)
    assert report.violations == 0
    assert report.segments == 50


def test_concavity_euclidean_ball():
    space = Subspace(H1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    report = section_concavity_check(ellipsoid_body(np.eye(3)), space, segments=50, samples=6000, seed=9)
    assert report.violations == 0


def test_concavity_that_checks_nothing_is_advisory():
    # the whole group has no orthogonal direction; 20 samples never reach
    # the 25-hit floor; neither run checks a midpoint, so neither passes
    whole = section_concavity_check(CUBE, Subspace(H1, np.eye(3)), segments=5, samples=100)
    assert (whole.segments, whole.checks, whole.violations) == (0, 0, 0)
    assert whole.advisory and not whole.passed
    assert whole.reason == "the subspace has no orthogonal direction"
    assert whole.as_dict()["advisory"] is True and whole.as_dict()["passed"] is False
    sparse = section_concavity_check(CUBE, PLANE12, segments=3, samples=20)
    assert sparse.segments == 0 and sparse.advisory and not sparse.passed
    assert sparse.reason == "no segment had both end sections at the hit floor"
    checked = section_concavity_check(CUBE, PLANE12, segments=3, samples=2000)
    assert checked.checks > 0 and checked.reason is None and not checked.advisory and checked.passed


def test_beta_constancy_of_one_member_is_advisory():
    single = beta_constancy_check(BOX, [VERTICAL], samples=2000, seed=4)
    assert single.max_pairwise_z == 0.0 and single.advisory and not single.passed
    assert single.as_dict()["reason"] == "a single member compares no pair"
    pair = beta_constancy_check(BOX, [VERTICAL, VERTICAL], samples=2000, seed=4)
    assert not pair.advisory and pair.reason is None


def test_concavity_box_ball_vertical_sections():
    report = section_concavity_check(ball_body(BOX), VERTICAL, segments=50, samples=6000, seed=9)
    assert report.violations == 0


def test_translation_identity_is_exact():
    report = vertical_translation_check(H1, VERTICAL, np.zeros(3), samples=20_000, seed=10)
    assert report.volume_before.value == report.volume_after.value
    assert report.passed


def test_translation_random_points():
    rng = stream(11, "trans")
    for _ in range(5):
        p = rng.uniform(-1, 1, 3)
        report = vertical_translation_check(H1, VERTICAL, p, samples=50_000, seed=12)
        assert report.passed


def test_translation_rejects_non_vertical():
    horiz = Subspace(H1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotVertical):
        vertical_translation_check(H1, horiz, [0.1, 0.0, 0.0])


def test_beta_constancy_euclidean_planes_give_omega_n():
    g = abelian(3)
    d = multiradial_distance(g, "t1")
    rng = stream(18, "abelian-planes")
    fam = []
    for _ in range(4):
        basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        fam.append(Subspace(g, basis))
    rep = beta_constancy_check(d, fam, samples=100_000, seed=19)
    assert rep.passed
    for value, err in zip(rep.values, rep.stderrs):
        assert abs(value - np.pi) <= 3 * err


def test_covering_rejects_sparse_cloud():
    plane = parse_parametrization("y1; 0; y2", 2, [[0, 1], [0, 1]], H1)
    with pytest.raises(CloudTooSparse):
        covering_estimate(plane, BOX, [[0, 1], [0, 1]], exponent=3.0, delta=0.05,
                          cloud_size=200, seed=20)


def test_beta_constancy_rotated_verticals():
    fam = []
    rng = stream(13, "fam")
    for _ in range(5):
        phi = rng.uniform(0, np.pi)
        basis = np.zeros((3, 2))
        basis[0, 0], basis[1, 0], basis[2, 1] = np.cos(phi), np.sin(phi), 1.0
        fam.append(Subspace(H1, basis))
    report = beta_constancy_check(BOX, fam, samples=100_000, seed=14)
    assert report.passed
    assert report.max_pairwise_z <= 3.0


# ---------------------------------------------------------------------------
# hypersurface density and coarea
# ---------------------------------------------------------------------------

def test_hypersurface_density_examples():
    plane = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    assert hypersurface_density(plane, [0.5, 0.5]) == pytest.approx(1.0)
    flat = parse_parametrization("y1; y2; 0", 2, [[-1, 1], [-1, 1]], H1)
    assert hypersurface_density(flat, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    g3 = abelian(3)
    p3 = parse_parametrization("y1; y2; 0.5", 2, [[-1, 1], [-1, 1]], g3)
    assert hypersurface_density(p3, [0.2, 0.2]) == pytest.approx(1.0)


def test_hypersurface_density_rank_check_follows_policy():
    # singular values 1 and 1e-10: rank deficient at the default rtol 1e-9 only
    thin = parse_parametrization("y1; 1e-10*y2; 0", 2, [[-1, 1], [-1, 1]], H1)
    with pytest.raises(DegenerateTangent):
        hypersurface_density(thin, [0.1, 0.2])
    assert hypersurface_density(thin, [0.1, 0.2], NumericPolicy(rtol=1e-12)) == pytest.approx(0.1)


def test_hypersurface_density_two_routes_agree():
    surfaces = [
        parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1),
        parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-1, 1]], H1),
        parse_parametrization("y1; y2; sin(y1)*y2", 2, [[-1, 1], [-1, 1]], H1),
    ]
    rng = stream(15, "hyp")
    for chart in surfaces:
        for y in rng.uniform(-0.9, 0.9, (50, 2)):
            a = hypersurface_density(chart, y)
            b = hypersurface_density_multivector(chart, y)
            assert abs(a - b) < 1e-9


def test_coarea_balance_examples():
    domain = [[0, 1], [0, 1], [0, 1]]
    rep = coarea_check(H1, 1, "0", "1", domain, resolution=24)
    assert rep.passed and rep.lhs == pytest.approx(1.0, abs=1e-10)
    rep2 = coarea_check(H1, 1, "0", "x2^2", domain, resolution=24)
    assert rep2.passed and rep2.lhs == pytest.approx(1.0 / 3.0, rel=1e-3)
    # f = x3: level sets are horizontal-ish planes, J_{g,H} = |(-x2, x1)|
    rep3 = coarea_check(H1, 3, "0", "1", [[-1, 1], [-1, 1], [-1, 1]], resolution=32)
    assert rep3.passed
    # g != 0: the level value t = x_j - g runs beyond [lo_j, hi_j]
    for group, coord, g_expr, box, res in (
        (abelian(2), 2, "0.5", [[0, 1], [0, 1]], 64),
        (abelian(2), 2, "0.5*y1", [[0, 1], [0, 1]], 64),
        (H1, 1, "0.3*y2", [[0, 1]] * 3, 32),
    ):
        rep = coarea_check(group, coord, g_expr, "1", box, resolution=res)
        assert rep.passed, (g_expr, rep.lhs, rep.rhs)


def test_coarea_rejects_bad_graph_coord():
    with pytest.raises(LevelSetNotGraph):
        coarea_check(H1, 9, "0", "1", [[0, 1]] * 3)


# ---------------------------------------------------------------------------
# free2(3) translation check
# ---------------------------------------------------------------------------

def test_translation_free2():
    g = free2(3)
    basis = np.zeros((6, 4))
    basis[0, 0] = 1.0
    basis[1, 0] = 0.4
    basis[3, 1] = basis[4, 2] = basis[5, 3] = 1.0
    nspace = Subspace(g, basis)
    rng = stream(16, "trans-free2")
    p = rng.uniform(-1, 1, 6)
    report = vertical_translation_check(g, nspace, p, samples=60_000, seed=17)
    assert report.passed


# ---------------------------------------------------------------------------
# shared sample blocks against the draw-per-call oracles
# ---------------------------------------------------------------------------

F3 = free2(3)
F3_BASIS = np.zeros((6, 4))
F3_BASIS[0, 0] = 1.0
F3_BASIS[3:, 1:] = np.eye(3)
F3_VERTICAL = Subspace(F3, F3_BASIS)
CENTRE_LINE = Subspace(H1, np.array([[0.0], [0.0], [1.0]]))
PLANE12 = Subspace(H1, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
X_LINE = Subspace(H1, np.array([[1.0], [0.0], [0.0]]))
# 20,000 and 40,000 samples span two and three blocks of mc.BLOCK
MULTI_BLOCK = [20_000, 40_000]
# a ball body under each distance kind; the euclidean-ball norm is a Newton
# solve whose rows must not depend on their batch
BALL_DISTANCES = [
    BOX,
    cygan_koranyi_distance(H1),
    multiradial_distance(H1, "max(t1, 1.2*t2^0.5)"),
    euclidean_ball_distance(H1, 0.5),
]


def _shell(pts):
    r = np.linalg.norm(pts, axis=-1)
    return (r >= 0.5) & (r <= 1.0)


def _dumbbell(pts):
    return (np.linalg.norm(pts - [0.0, 0.0, 0.7], axis=-1) <= 0.5) | (
        np.linalg.norm(pts + [0.0, 0.0, 0.7], axis=-1) <= 0.5
    )


@pytest.mark.parametrize("space", [VERTICAL, CENTRE_LINE])
def test_section_area_same_at_plus_and_minus_zero(space):
    plus = section_area(BOX, space, np.zeros(3), samples=20_000, seed=1)
    minus = section_area(BOX, space, -np.zeros(3), samples=20_000, seed=1)
    assert plus == minus


@pytest.mark.parametrize("samples", MULTI_BLOCK)
@pytest.mark.parametrize(
    "dist, space, u",
    [
        (BOX, VERTICAL, np.zeros(3)),
        (BOX, VERTICAL, -np.zeros(3)),
        (BOX, VERTICAL, np.array([0.2, -0.1, 0.3])),
        (BOX, CENTRE_LINE, np.zeros(3)),
        (BOX, X_LINE, np.array([0.0, 0.3, -0.2])),
        (multiradial_distance(F3, "max(t1, 1.2*t2^0.5)"), F3_VERTICAL, np.zeros(6)),
        (multiradial_distance(F3, "max(t1, 1.2*t2^0.5)"), F3_VERTICAL, np.linspace(-0.3, 0.3, 6)),
    ],
    ids=["h1-0", "h1-neg0", "h1-u", "h1-line-0", "h1-xline-u", "f3-0", "f3-u"],
)
def test_section_area_bit_identical_to_per_call_product(dist, space, u, samples):
    got = section_area(dist, space, u, samples=samples, seed=5)
    want = section_area_per_call(dist, space, u, samples=samples, seed=5)
    assert got == want
    assert got.meta == want.meta


@pytest.mark.parametrize("samples", MULTI_BLOCK)
@pytest.mark.parametrize(
    "body, oracle_body, space",
    [
        (box_body([1, 1, 1]), box_body_rows([1, 1, 1]), PLANE12),
        (ball_body(BOX), ball_body_rows(BOX), VERTICAL),
        (ellipsoid_body(np.diag([1.0, 2.0, 1.5])), ellipsoid_body_rows(np.diag([1.0, 2.0, 1.5])), X_LINE),
        (ConvexBody(3, 1.05, _shell, "shell"), ConvexBody(3, 1.05, _shell, "shell"), X_LINE),
        (ConvexBody(3, 1.3, _dumbbell, "dumbbell"), ConvexBody(3, 1.3, _dumbbell, "dumbbell"), PLANE12),
        *((ball_body(d), ball_body_rows(d), VERTICAL) for d in BALL_DISTANCES[1:]),
    ],
    ids=["cube", "box-ball", "ellipsoid-line", "shell-line", "dumbbell", "ck-ball", "multiradial-ball",
         "euclidean-ball"],
)
def test_concavity_bit_identical_to_per_call_draws(body, oracle_body, space, samples):
    # the library's box and ellipsoid against the row-wise member formulas,
    # and its balls against the blocked norm
    got = section_concavity_check(body, space, segments=8, samples=samples, seed=3)
    assert got == concavity_per_call(oracle_body, space, segments=8, samples=samples, seed=3)
    if body.label == "dumbbell":
        # a non-convex member exercises every field of the report
        assert got.violations > 0 and got.skipped > 0 and got.worst_deficit > 0


INTRINSIC_CHARTS = [
    parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-0.5, 1]], H1),
    parse_parametrization("y1; y1^2; y1^3; 0.5*y1^2", 1, [[-0.5, 1.0]], engel()),
]


@pytest.mark.parametrize("samples", MULTI_BLOCK)
@pytest.mark.parametrize("chart", INTRINSIC_CHARTS, ids=["h1-paraboloid", "engel-curve"])
def test_intrinsic_mc_is_bitwise_the_per_block_loop(chart, samples):
    got = intrinsic_measure(chart, quadrature="mc", samples=samples, seed=7)
    want = intrinsic_mc_per_block(chart, chart.domain, samples, 7, got.meta["degree"])
    assert got == want and got.meta == want.meta


@pytest.mark.parametrize("chart, resolution", [(INTRINSIC_CHARTS[0], 160), (INTRINSIC_CHARTS[1], 20_000)],
                         ids=["h1-paraboloid", "engel-curve"])
def test_intrinsic_tensor_is_bitwise_the_chunked_loop(chart, resolution):
    # 25,600 and 20,000 cells span two blocks of mc.BLOCK
    got = intrinsic_measure(chart, resolution=resolution)
    want = intrinsic_tensor_chunked(chart, chart.domain, resolution, got.meta["degree"])
    assert got == want and got.meta == want.meta


@pytest.mark.parametrize(
    "group, coord, g_expr, box, resolution",
    [(abelian(2), 2, "0.5*y1", [[0, 1], [0, 1]], 130), (H1, 1, "0.3*y2", [[0, 1]] * 3, 26)],
    ids=["abelian2-130", "h1-26"],
)
def test_coarea_is_bitwise_the_chunked_loop(group, coord, g_expr, box, resolution):
    # the 130^2 and 26^3 grids of the left side span two blocks of mc.BLOCK
    got = coarea_check(group, coord, g_expr, "1 + x1", box, resolution=resolution)
    with patch.object(measure, "_box_midpoint", box_midpoint_chunked):
        want = coarea_check(group, coord, g_expr, "1 + x1", box, resolution=resolution)
    assert got == want


def test_concavity_draws_one_shared_sample_set(monkeypatch):
    opened = _recorded_streams(monkeypatch)
    report = section_concavity_check(CUBE, PLANE12, segments=20, samples=40_000, seed=5)
    assert report.segments == 20 and report.checks == 60
    # one stream per block of the shared points, none per segment
    assert [block for tag, block in opened if tag == "concavity-points"] == [0, 1, 2]
    assert {tag for tag, _ in opened} == {"concavity-points", "concavity-segments"}


def test_concavity_is_deterministic():
    first, second = (
        section_concavity_check(ConvexBody(3, 1.3, _dumbbell, "dumbbell"), PLANE12, segments=8, samples=20_000, seed=3)
        for _ in range(2)
    )
    assert first == second and first.violations > 0


def test_concavity_without_an_orthogonal_direction_draws_nothing(monkeypatch):
    opened = _recorded_streams(monkeypatch)
    draws = []
    monkeypatch.setattr(measure, "uniform_ball", lambda *args: draws.append(args))
    report = section_concavity_check(CUBE, Subspace(H1, np.eye(3)), segments=5, samples=20_000)
    assert report.reason == "the subspace has no orthogonal direction"
    assert draws == [] and not [tag for tag, _ in opened if tag != "concavity-segments"]


ENGEL = engel()
ENGEL_VERTICAL = Subspace(ENGEL, np.array([[0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]).T)
FILIFORM4 = load_group(
    {"name": "filiform4", "layers": [2, 1, 1, 1], "brackets": [[1, k, k + 1, 1.0] for k in range(2, 5)]}
)
FILIFORM4_VERTICAL = Subspace(FILIFORM4, np.vstack([[0.6, 0.8, 0.0, 0.0, 0.0], np.eye(5)[2:]]).T)


@pytest.mark.parametrize(
    "group, space",
    [(H1, VERTICAL), (H1, CENTRE_LINE), (F3, F3_VERTICAL), (ENGEL, ENGEL_VERTICAL), (FILIFORM4, FILIFORM4_VERTICAL)],
    ids=["h1-plane", "h1-line", "f3", "engel", "filiform4"],
)
def test_translation_agrees_with_the_hit_or_miss_oracle(group, space):
    # the Jacobian route against two Monte-Carlo volumes that use no
    # Jacobian; 20,000 points span two blocks at step >= 3
    rng = stream(19, f"translation-oracle:{group.name}:{space.dim}")
    for p in (np.zeros(group.q), rng.uniform(-1, 1, group.q), rng.uniform(-1, 1, group.q)):
        half = rng.uniform(0.5, 1.5, space.dim)
        box = np.stack([-half, half], axis=1)
        got = vertical_translation_check(group, space, p, box=box, samples=20_000, seed=21)
        before, after = translation_per_call(group, space, p, box=box, samples=40_000, seed=21)
        assert got.passed and got.volume_before.value == before.value and got.volume_after.stderr > 0
        assert abs(got.volume_after.value - after.value) <= 3.0 * np.hypot(after.stderr, got.volume_after.stderr)


@pytest.mark.parametrize("samples", MULTI_BLOCK)
@pytest.mark.parametrize(
    "group, space",
    [(H1, VERTICAL), (H1, CENTRE_LINE), (F3, F3_VERTICAL)],
    ids=["h1-plane", "h1-line", "f3"],
)
def test_translation_bit_identical_to_per_call_draws(group, space, samples):
    # the batched Jacobian against one derivative call per point and basis
    # vector; at step 2 the report does not depend on the sample count
    rng = stream(19, f"translation-oracle:{group.name}:{space.dim}")
    for p in (np.zeros(group.q), rng.uniform(-1, 1, group.q), rng.uniform(-1, 1, group.q)):
        half = rng.uniform(0.5, 1.5, space.dim)
        box = np.stack([-half, half], axis=1)
        got = vertical_translation_check(group, space, p, box=box, samples=samples, seed=21)
        assert got == translation_jacobian_per_call(group, space, p, box=box, samples=samples, seed=21)
        assert got == vertical_translation_check(group, space, p, box=box, samples=1, seed=21)


def test_translation_opens_only_jacobian_streams(monkeypatch):
    opened = _recorded_streams(monkeypatch)
    p = np.linspace(-0.9, 0.8, 6)
    report = vertical_translation_check(F3, F3_VERTICAL, p, samples=40_000, seed=3)
    # step 2: one exact matrix, no stream
    assert report.volume_after.samples == 1 and opened == []
    report = vertical_translation_check(ENGEL, ENGEL_VERTICAL, p[:4], samples=40_000, seed=3)
    assert report.volume_after.samples == 40_000
    assert opened == [("translate-jacobian", block) for block in range(3)]
    del opened[:]
    vertical_translation_check(ENGEL, ENGEL_VERTICAL, np.zeros(4), samples=40_000, seed=3)
    assert opened == []


def test_translation_reports_a_failed_identity():
    # span{e1, e3 + t e2} is vertical at rtol 1e-2 only; there det DF is
    # 1 + t p1 / (1 + t^2) exactly, so p1 = 50 takes it 0.05 off 1: the check
    # fails and says why, the volume follows the determinant, and its stderr
    # stays at the rounding level
    t = 1e-3
    near = Subspace(H1, np.array([[1.0, 0.0, 0.0], [0.0, t, 1.0]]).T)
    report = vertical_translation_check(H1, near, [50.0, 0.0, 0.0], policy=NumericPolicy(rtol=1e-2))
    deviation = t * 50.0 / (1.0 + t * t)
    assert not report.passed and report.max_det_deviation == pytest.approx(deviation, rel=1e-9)
    assert report.reason == f"max |det DF - 1| = {deviation:.3g} exceeds rtol 0.01"
    assert report.volume_after.value == pytest.approx(4.0 * (1.0 + deviation), rel=1e-12)
    assert 0 < report.volume_after.stderr < 1e-12
    assert report.as_dict()["reason"] == report.reason
    assert report.as_dict()["max_det_deviation"] == report.max_det_deviation


VERTICAL_GROUPS = [heisenberg(2), F3, ENGEL, h_type()]


@settings(max_examples=60)
@given(data=st.data())
def test_translation_identity_holds_on_random_vertical_subgroups(data):
    # N: a random part of the first layer plus every higher layer, in a
    # rotated basis that mixes the layers; every such N is vertical
    group = data.draw(st.sampled_from(VERTICAL_GROUPS), label="group")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = stream(seed, "translation-property")
    m = group.layers[0]
    k = data.draw(st.integers(0, m), label="first-layer dim")
    first = np.zeros((group.q, k))
    first[:m] = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :k]
    higher = np.eye(group.q)[:, m:]
    spanning = np.hstack([first, higher])
    basis = spanning @ np.linalg.qr(rng.standard_normal((spanning.shape[1],) * 2))[0]
    space = Subspace(group, basis)
    p = rng.uniform(-1.5, 1.5, group.q)
    lo = rng.uniform(-1.5, 0.5, space.dim)
    box = np.stack([lo, lo + rng.uniform(0.1, 2.0, space.dim)], axis=1)
    report = vertical_translation_check(group, space, p, box=box, samples=2_000, seed=seed)
    before, after = report.volume_before, report.volume_after
    assert report.passed and report.reason is None
    assert after.stderr > 0
    assert abs(after.value - before.value) <= 3.0 * after.stderr


# ---------------------------------------------------------------------------
# column-wise sampling and membership kernels against the row-wise oracles
# ---------------------------------------------------------------------------

class _StubRng:
    """A generator that hands out given normals and uniforms."""

    def __init__(self, normals: np.ndarray, uniforms: np.ndarray):
        self.normals, self.uniforms = normals, uniforms

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals.copy()

    def random(self, count):
        assert count == len(self.uniforms)
        return self.uniforms.copy()


_COORD = st.floats(-4.0, 4.0, allow_subnormal=True) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])


@settings(max_examples=150)
@given(
    n=st.integers(1, 9),
    count=st.integers(0, 40),
    radius=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**16),
)
def test_uniform_ball_is_bitwise_the_row_wise_oracle(n, count, radius, seed):
    got = uniform_ball(stream(seed, "ball-oracle"), n, count, radius)
    want = uniform_ball_rows(stream(seed, "ball-oracle"), n, count, radius).T
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("group", [heisenberg(1), engel(), h_type(), free2(4), heisenberg(4)], ids=lambda g: g.name)
def test_section_points_are_the_row_wise_draw_transposed(group):
    # basis @ X has the bits of (X.T @ basis.T).T for every subspace
    # dimension: the BLAS product does not promise it
    rng = stream(4, f"section-points:{group.name}")
    samples = mc.BLOCK + 5
    for n in range(1, group.q + 1):
        basis = Subspace(group, rng.standard_normal((group.q, n))).orthonormal_basis()
        got = list(measure._section_points(basis, 1.7, samples, 2, "layout"))
        want = [
            (uniform_ball_rows(stream(2, "layout", b), n, count, 1.7) @ basis.T).T
            for b, count in mc.blocks(samples)
        ]
        assert len(got) == len(want)
        for block, rows in zip(got, want):
            assert block.flags.c_contiguous and block.shape == rows.shape
            assert block.tobytes() == np.ascontiguousarray(rows).tobytes()


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(1, 9), count=st.integers(1, 12))
def test_uniform_ball_zero_row_is_bitwise_the_row_wise_oracle(data, n, count):
    # a zero normal row keeps its norm at 1 and so stays zero
    normals = np.array(data.draw(st.lists(_COORD, min_size=n * count, max_size=n * count))).reshape(count, n)
    normals[data.draw(st.integers(0, count - 1), label="zero row")] = 0.0
    uniforms = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=count, max_size=count)))
    got = uniform_ball(_StubRng(normals, uniforms), n, count, 1.5)
    want = uniform_ball_rows(_StubRng(normals, uniforms), n, count, 1.5).T
    assert np.array_equal(got, want)
    assert not np.any(got[:, ~np.any(normals, axis=1)])


_LEADING = st.sampled_from([(), (7,), (3, 5), (2, 1, 4)])


@settings(max_examples=100)
@given(data=st.data(), q=st.integers(1, 10), leading=_LEADING)
def test_box_member_is_bitwise_the_row_wise_oracle(data, q, leading):
    h = np.array(data.draw(st.lists(st.floats(0.1, 3.0) | st.just(1.0), min_size=q, max_size=q)))
    size = int(np.prod(leading, dtype=int)) * q
    pts = np.array(data.draw(st.lists(_COORD | st.sampled_from(list(h) + list(-h)), min_size=size, max_size=size)))
    pts = pts.reshape(leading + (q,))
    got, want = box_body(h).member(pts), box_body_rows(h).member(pts)
    assert got.shape == want.shape == leading
    assert np.array_equal(got, want)


@settings(max_examples=100)
@given(q=st.integers(1, 10), leading=_LEADING, seed=st.integers(0, 2**16))
def test_ellipsoid_member_is_bitwise_the_row_wise_oracle(q, leading, seed):
    # points scaled onto the boundary, where the last bit of the norm
    # decides membership; q from 8 on sums the squares pairwise
    rng = stream(seed, "ellipsoid-oracle")
    m = np.eye(q) + 0.3 * rng.standard_normal((q, q))
    pts = rng.uniform(-1.5, 1.5, leading + (q,)) / max(np.linalg.norm(m, 2), 1e-3)
    boundary = rng.standard_normal(leading + (q,))
    boundary /= np.linalg.norm(boundary @ m.T, axis=-1, keepdims=True)
    for points in (pts, boundary, np.nextafter(boundary, 0.0), np.nextafter(boundary, 2.0 * boundary)):
        got, want = ellipsoid_body(m).member(points), ellipsoid_body_rows(m).member(points)
        assert got.shape == want.shape == leading
        assert np.array_equal(got, want)


BALL_BODIES = [ball_body(d) for d in BALL_DISTANCES]


@settings(max_examples=120)
@given(body=st.integers(0, len(BALL_BODIES) + 1), count=st.integers(1, 300), seed=st.integers(0, 2**16),
       data=st.data())
def test_members_are_row_independent(body, count, seed, data):
    # section_concavity_check hands a member one block as a column-major
    # view; on points within a few ulps of the boundary, where the last bit
    # decides, the answer must not depend on the layout or on the block
    rng = stream(seed, "member-layouts")
    if body == 0:
        h = rng.uniform(0.1, 2.0, 3)
        member = box_body(h).member
        boundary = rng.uniform(-1.0, 1.0, (count, 3)) * h
        face = rng.integers(0, 3, count)
        boundary[np.arange(count), face] = np.where(rng.random(count) < 0.5, -1.0, 1.0) * h[face]
    elif body == 1:
        m = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        member = ellipsoid_body(m).member
        boundary = rng.standard_normal((count, 3))
        boundary /= np.linalg.norm(boundary @ m.T, axis=-1, keepdims=True)
    else:
        member = BALL_BODIES[body - 2].member
        boundary = BALL_DISTANCES[body - 2].unit_normalize(rng.standard_normal((count, 3)))
    pts = boundary + rng.integers(-3, 4, boundary.shape) * np.spacing(boundary)
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4), label="cuts"))
    want = member(np.ascontiguousarray(pts))
    assert want.shape == (count,)
    assert member(pts[0]) == want[0]
    for layout in (pts, np.ascontiguousarray(pts.T).T):
        assert np.array_equal(member(layout), want)
        assert np.array_equal(np.concatenate([member(b) for b in np.split(layout, cuts)]), want)


@settings(max_examples=100)
@given(k=st.integers(1, 10), leading=_LEADING, seed=st.integers(0, 2**16))
def test_sum_of_squares_is_the_square_of_np_linalg_norm(k, leading, seed):
    rows = stream(seed, "squares-oracle").standard_normal(leading + (k,)) * 10.0 ** np.arange(-4, k - 4)
    assert np.array_equal(np.sqrt(sum_of_squares(np.moveaxis(rows, -1, 0))), np.linalg.norm(rows, axis=-1))


@settings(max_examples=100)
@given(q=st.integers(1, 10), count=st.integers(0, 30), seed=st.integers(0, 2**16))
def test_shift_and_box_points_are_bitwise_the_row_wise_oracles(q, count, seed):
    rng = stream(seed, "shift-oracle")
    v = rng.standard_normal(q) * 10.0 ** rng.integers(-3, 4, q)
    pts = rng.standard_normal((count, q)) @ rng.standard_normal((q, q))
    # the concavity check's section: one broadcast add on coordinate-first points
    assert np.array_equal((np.ascontiguousarray(pts.T) + v[:, None]).T, shift_rows(v, pts))
    lo = rng.uniform(-2.0, 1.0, q)
    bounds = np.stack([lo, lo + rng.uniform(1e-9, 3.0, q)], axis=1)
    unit = rng.random((count, q))
    assert np.array_equal(box_points(bounds, unit), box_points_rows(bounds, unit))
