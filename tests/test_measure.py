import numpy as np
import pytest

from nilgeom.algebra import Subspace, abelian, free2, heisenberg
from nilgeom.errors import DegenerateTangent, LevelSetNotGraph, NotVertical, RadiusTooSmall
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
    hypersurface_density,
    intrinsic_measure,
    section_area,
    section_concavity_check,
    spherical_factor,
    vertical_translation_check,
)
from nilgeom.metrics import box_distance, multiradial_distance
from nilgeom.mc import stream
from nilgeom.policy import NumericPolicy
from oracles.measure import (
    concavity_per_call,
    hypersurface_density_multivector,
    section_area_per_call,
    translation_per_call,
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
    rep2 = area_check(parab, BOX, probes=[[0.0, 0.0]], samples=5_000, seed=8)
    assert rep2.verdicts[0].advisory
    assert rep2.passed  # advisory does not fail the report


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
    from nilgeom.errors import CloudTooSparse

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


def _shell(pts):
    r = np.linalg.norm(pts, axis=-1)
    return (r >= 0.5) & (r <= 1.0)


def _dumbbell(pts):
    return (np.linalg.norm(pts - [0.0, 0.0, 0.7], axis=-1) <= 0.5) | (
        np.linalg.norm(pts + [0.0, 0.0, 0.7], axis=-1) <= 0.5
    )


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
    "body, space",
    [
        (box_body([1, 1, 1]), PLANE12),
        (ball_body(BOX), VERTICAL),
        (ellipsoid_body(np.diag([1.0, 2.0, 1.5])), X_LINE),
        (ConvexBody(3, 1.05, _shell, "shell"), X_LINE),
        (ConvexBody(3, 1.3, _dumbbell, "dumbbell"), PLANE12),
    ],
    ids=["cube", "box-ball", "ellipsoid-line", "shell-line", "dumbbell"],
)
def test_concavity_bit_identical_to_per_call_draws(body, space, samples):
    got = section_concavity_check(body, space, segments=8, samples=samples, seed=3)
    assert got == concavity_per_call(body, space, segments=8, samples=samples, seed=3)
    if body.label == "dumbbell":
        # a non-convex member exercises every field of the report
        assert got.violations > 0 and got.skipped > 0 and got.worst_deficit > 0


@pytest.mark.parametrize("samples", MULTI_BLOCK)
@pytest.mark.parametrize(
    "group, space",
    [(H1, VERTICAL), (H1, CENTRE_LINE), (F3, F3_VERTICAL)],
    ids=["h1-plane", "h1-line", "f3"],
)
def test_translation_bit_identical_to_per_call_draws(group, space, samples):
    rng = stream(19, f"translation-oracle:{group.name}:{space.dim}")
    for p in (np.zeros(group.q), rng.uniform(-1, 1, group.q), rng.uniform(-1, 1, group.q)):
        half = rng.uniform(0.5, 1.5, space.dim)
        box = np.stack([-half, half], axis=1)
        got = vertical_translation_check(group, space, p, box=box, samples=samples, seed=21)
        assert got == translation_per_call(group, space, p, box=box, samples=samples, seed=21)
