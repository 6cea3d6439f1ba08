import dataclasses
from itertools import combinations

import numpy as np
import pytest

from nilgeom import manifold, measure
from nilgeom.algebra import Subspace, abelian, catalog_group, engel, heisenberg, load_group
from nilgeom.errors import (
    DegenerateTangent,
    DomainViolation,
    NonSimpleProjection,
    ParseError,
)
from nilgeom.manifold import (
    PointAnalysis,
    TransformedChart,
    _htangent_from_top,
    alpha_profile,
    blowup_case,
    blowup_rates,
    classify_point,
    degree_map,
    homogeneous_tangent,
    horizontal_tangency,
    parse_parametrization,
    pointwise_degree,
    q_n_max_degree,
)
from nilgeom.mc import Estimate, stream
from nilgeom.metrics import box_distance
from nilgeom.policy import DEFAULT_POLICY, NumericPolicy
from oracles.manifold import classify_point_per_cell, degree_map_per_cell, q_n_bruteforce

H1 = heisenberg(1)


@pytest.fixture
def paraboloid():
    return parse_parametrization("y1; y2; y1^2 + y2^2", 2, [[-1, 1], [-1, 1]], H1)


@pytest.fixture
def plane():
    return parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)


@pytest.fixture
def helix():
    return parse_parametrization("cos(y1); sin(y1); y1", 1, [[-3, 3]], H1)


# ---------------------------------------------------------------------------
# parsing and Jacobians
# ---------------------------------------------------------------------------

def test_parse_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_parametrization("y1; y2; +", 2, [[-1, 1], [-1, 1]], H1)
    with pytest.raises(DomainViolation):
        parse_parametrization("y1; y2", 2, [[-1, 1], [-1, 1]], H1)  # wrong count


def test_affine_jacobian_is_constant():
    chart = parse_parametrization("2*y1 + y2; y1 - y2; 3*y2", 2, [[-1, 1], [-1, 1]], H1)
    expect = np.array([[2.0, 1.0], [1.0, -1.0], [0.0, 3.0]])
    for y in ([0.0, 0.0], [0.5, -0.25]):
        assert np.allclose(chart.jacobian(y), expect)


def test_jacobian_examples_and_finite_differences(paraboloid, helix):
    assert np.allclose(paraboloid.jacobian([0, 0]), [[1, 0], [0, 1], [0, 0]])
    assert np.allclose(helix.jacobian([0.0]), [[0.0], [1.0], [1.0]])
    rng = stream(1, "jac-fd")
    for chart in (paraboloid, helix):
        ys = rng.uniform(-0.8, 0.8, (20, chart.n))
        h = 1e-5
        for y in ys:
            jac = chart.jacobian(y)
            for i in range(chart.n):
                e = np.zeros(chart.n)
                e[i] = h
                fd = (chart.value(y + e) - chart.value(y - e)) / (2 * h)
                denom = max(np.max(np.abs(fd)), 1.0)
                assert np.max(np.abs(jac[:, i] - fd)) / denom < 1e-6


def test_domain_violation(paraboloid):
    with pytest.raises(DomainViolation):
        pointwise_degree(paraboloid, [2.0, 0.0])


def test_non_finite_value_raises():
    from nilgeom.errors import NonFinite

    chart = parse_parametrization("1 / y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    with pytest.raises(NonFinite):
        chart.value([0.0, 0.5])


# ---------------------------------------------------------------------------
# degrees and homogeneous tangents
# ---------------------------------------------------------------------------

def test_pointwise_degree_examples(paraboloid, plane, helix):
    assert pointwise_degree(paraboloid, [0.0, 0.0]) == 2
    assert pointwise_degree(plane, [0.3, -0.7]) == 3
    assert pointwise_degree(helix, [1.1]) == 1


def test_homogeneous_tangent_paraboloid_origin(paraboloid):
    space, regular = homogeneous_tangent(paraboloid, [0.0, 0.0])
    assert not regular
    expect = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    got = space.orthonormal_basis()
    # same span as {e1, e2}
    assert np.linalg.matrix_rank(np.hstack([got, expect]), tol=1e-9) == 2


def test_homogeneous_tangent_plane(plane):
    space, regular = homogeneous_tangent(plane, [0.2, 0.4])
    assert regular
    # the span of {e1, e3}: adding either leaves the rank at 2
    expect = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert np.linalg.matrix_rank(np.hstack([space.orthonormal_basis(), expect]), tol=1e-9) == 2


def test_non_simple_projection_reported():
    g = catalog_group("free2(3)")
    fake = {(0, 3): 1.0, (1, 4): 1.0}  # degree 3, not simple
    top = np.array([fake.get(key, 0.0) for key in combinations(range(g.q), 2)])
    with pytest.raises(NonSimpleProjection):
        _htangent_from_top(g, top, 2, DEFAULT_POLICY)


# ---------------------------------------------------------------------------
# Q_n
# ---------------------------------------------------------------------------

def test_q_n_against_bruteforce_everywhere():
    for name in ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)"]:
        g = catalog_group(name)
        for n in range(1, g.q + 1):
            assert q_n_max_degree(g, n) == q_n_bruteforce(g, n)


def test_q_n_closed_form_values():
    assert q_n_max_degree(heisenberg(1), 2) == 3
    assert q_n_max_degree(heisenberg(1), 3) == 4
    assert q_n_max_degree(heisenberg(2), 3) == 4  # 1*2 + 2*1


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_paraboloid_origin_characteristic(paraboloid):
    a = classify_point(paraboloid, [0.0, 0.0])
    assert a.degree == 2
    assert not a.regular
    assert a.classification == "irregular"
    assert a.characteristic
    assert a.alpha == (2, 0)


def test_classify_plane_transversal(plane):
    a = classify_point(plane, [0.5, -0.5])
    assert a.degree == 3 == a.q_n
    assert a.regular
    assert a.classification == "transversal"
    assert a.alpha == (1, 1)


def test_classify_helix_horizontal(helix):
    a = classify_point(helix, [0.4])
    assert a.classification == "horizontal"
    assert a.alpha == (1, 0)
    assert horizontal_tangency(helix, [0.4])


def test_classify_low_degree_regular_point():
    # curve (t, 0, t^3): horizontal only at t = 0 where the degree drops to 1
    curve = parse_parametrization("y1; 0; y1^3", 1, [[-1, 1]], H1)
    a0 = classify_point(curve, [0.0])
    assert a0.degree == 1 and a0.regular and a0.classification == "low_degree"
    a1 = classify_point(curve, [0.5])
    assert a1.degree == 2 and a1.classification == "transversal"


def test_classify_rank_check_follows_policy():
    chart = parse_parametrization("y1; 1e-10*y2; 0", 2, [[-1, 1], [-1, 1]], H1)
    a = classify_point(chart, [0.1, 0.2], NumericPolicy(rtol=1e-12))
    assert a.degree == 3
    assert a.alpha == (1, 1)
    assert a.classification == "transversal"
    with pytest.raises(DegenerateTangent):
        classify_point(chart, [0.1, 0.2])


@pytest.mark.parametrize("rtol", [1e-12, 1e-3])
def test_htangent_class_reads_the_policy_tolerance(paraboloid, plane, monkeypatch, rtol):
    # the h-tangent was once classified at max(rtol, 1e-8), so a policy
    # below 1e-8 did not reach it
    tols = []

    def recorded(real):
        def call(group, spaces, tol):
            tols.append(tol)
            return real(group, spaces, tol)
        return call

    for name in ("classify_subspace", "classify_subspaces"):
        monkeypatch.setattr(manifold, name, recorded(getattr(manifold, name)))
    policy = NumericPolicy(rtol)
    classify_point(plane, [0.3, -0.2], policy)
    degree_map(paraboloid, [3, 3], policy)
    homogeneous_tangent(plane, [0.3, -0.2], policy)
    assert tols == [rtol] * 3


def test_alpha_profile_examples(paraboloid, plane, helix):
    assert alpha_profile(paraboloid, [0.0, 0.0]) == (2, 0)
    assert alpha_profile(plane, [0.1, 0.9]) == (1, 1)
    assert alpha_profile(helix, [0.7]) == (1, 0)
    # degree identity at random points
    rng = stream(2, "alpha")
    for chart in (paraboloid, plane):
        for y in rng.uniform(-0.9, 0.9, (10, 2)):
            alpha = alpha_profile(chart, y)
            assert sum(alpha) == 2
            assert sum((j + 1) * a for j, a in enumerate(alpha)) == pointwise_degree(chart, y)


def test_legendrian_chart_in_h2():
    g = heisenberg(2)
    leg = parse_parametrization("y1; y2; y1^2; 0; y1^3/3", 2, [[-1, 1], [-1, 1]], g)
    rng = stream(3, "legendrian")
    for y in rng.uniform(-0.9, 0.9, (8, 2)):
        a = classify_point(leg, y)
        assert a.classification == "horizontal"
        assert a.degree == 2
        kinds_ok = horizontal_tangency(leg, y)
        assert kinds_ok


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_translation_invariance(paraboloid):
    rng = stream(4, "translation")
    for _ in range(5):
        p = rng.uniform(-1, 1, 3)
        translated = TransformedChart(paraboloid, translate=p)
        for y in ([0.0, 0.0], [0.4, 0.3]):
            a = classify_point(paraboloid, y)
            b = classify_point(translated, y)
            assert a.degree == b.degree
            assert a.regular == b.regular
            assert a.classification == b.classification
            assert a.alpha == b.alpha


def test_reparametrization_invariance(plane):
    rng = stream(5, "reparam")
    for _ in range(5):
        mat = rng.uniform(-1, 1, (2, 2))
        if np.linalg.det(mat) < 0:
            mat[:, 0] *= -1.0
        mat += np.eye(2) * (0.5 + abs(np.linalg.det(mat)))
        chart = TransformedChart(plane, mat=mat)
        a = classify_point(plane, [0.0, 0.0])
        b = classify_point(chart, [0.0, 0.0])
        assert a.degree == b.degree
        assert a.classification == b.classification
        assert a.alpha == b.alpha


def test_horizontal_equivalence_on_catalog_examples():
    # frame tangency test agrees with (regular and A inside the first layer)
    helix = parse_parametrization("cos(y1); sin(y1); y1", 1, [[-3, 3]], H1)
    tilt = parse_parametrization("y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    rng = stream(6, "horiz-equiv")
    for chart, n in ((helix, 1), (tilt, 2)):
        for y in rng.uniform(-0.9, 0.9, (10, n)):
            a = classify_point(chart, y)
            assert (a.classification == "horizontal") == horizontal_tangency(chart, y)


# ---------------------------------------------------------------------------
# blow-up rates
# ---------------------------------------------------------------------------

def test_blowup_plane_exact(plane):
    report = blowup_rates(plane, [0.3, -0.2], [1.0, 1.0])
    assert report.case in ("step2", "transversal")
    assert report.passed
    slopes = {r.index: r.fitted_slope for r in report.rates if r.in_tangent_set}
    assert slopes[0] == pytest.approx(1.0, abs=1e-6)
    assert slopes[2] == pytest.approx(2.0, abs=1e-6)
    off = [r for r in report.rates if not r.in_tangent_set]
    assert all(r.identically_zero for r in off)


def test_blowup_helix_vertical_coordinate_vanishes(helix):
    report = blowup_rates(helix, [0.0], [1.0])
    assert report.case in ("horizontal", "step2")
    assert report.passed
    vert = [r for r in report.rates if r.expected_exponent == 2][0]
    assert not vert.in_tangent_set
    assert vert.ratios[-1] < vert.ratios[0]


def test_blowup_paraboloid_advisory(paraboloid):
    report = blowup_rates(paraboloid, [0.0, 0.0], [1.0, 0.5])
    assert report.case == "not_covered"
    assert report.advisory


def test_blowup_engel_curve():
    g = engel()
    curve = parse_parametrization("0; 0; 0; y1", 1, [[-1, 1]], g)
    report = blowup_rates(curve, [0.1], [1.0])
    assert report.case == "curve"
    assert report.passed
    top = [r for r in report.rates if r.in_tangent_set][0]
    assert top.expected_exponent == 3


@pytest.mark.parametrize("ray,scales", [
    ([0.0, 0.0], None), (None, [0.5]), (None, [0.5, 0.5]), (None, [0.5, -0.25]),
    (None, [1e300, 1e-300]), (None, [1.0, 1e-300]), (None, [1e-160, 1e-170]),
])
def test_blowup_refuses_a_zero_ray_and_one_scale_before_any_work(plane, monkeypatch, ray, scales):
    # a zero ray once ended in a domain error after a division warning, one
    # scale in a slope fitted through one point, and scales whose t^2 falls
    # below a normal float in overflow and division warnings
    monkeypatch.setattr(manifold, "classify_point", None)
    with pytest.raises(ValueError):
        blowup_rates(plane, [0.3, -0.2], ray, scales)


@pytest.mark.parametrize("scales", [[1e10, 0.5], [1.0, 1e-12]])
def test_blowup_fits_no_slope_below_the_rounding_floor(plane, scales):
    # at the smallest scale the vertical coordinate, t^2, falls below 1e-13
    # of the largest value: one value is left, so no slope and a fail, where
    # a fit through it once warned (RankWarning) and judged
    report = blowup_rates(plane, [0.3, -0.2], None, scales)
    first, _, vertical = report.rates
    assert first.fitted_slope == pytest.approx(1.0, abs=1e-5) and first.passed
    assert vertical.in_tangent_set and not vertical.identically_zero
    assert vertical.fitted_slope is None and not report.passed


@pytest.mark.parametrize("scales", [[1e18, 1e17], [1e20, 1e19]])
def test_blowup_fits_a_leading_scale_far_outside_the_chart(plane, scales):
    # the leading scale is halved until the warped ray fits, as often as
    # that takes; a cap of 60 halvings once ended these in DomainViolation
    want = blowup_rates(plane, [0.3, -0.2], None, [1.0, 0.1])
    report = blowup_rates(plane, [0.3, -0.2], None, scales)
    assert (report.case, report.tangent_rows, report.passed) == ("step2", want.tangent_rows, True)
    for got, ref in zip(report.rates, want.rates):
        assert (got.in_tangent_set, got.identically_zero, got.passed) == (ref.in_tangent_set, ref.identically_zero, True)
        assert got.fitted_slope == pytest.approx(ref.fitted_slope, abs=1e-9)
        assert got.ratios == pytest.approx(ref.ratios, rel=1e-9)


def test_blowup_ray_that_fits_at_no_normal_scale_is_a_domain_violation(plane):
    chart = TransformedChart(plane)
    chart.contains = lambda u: False  # no warped ray lies in the domain
    with pytest.raises(DomainViolation, match="could not fit"):
        blowup_rates(chart, [0.3, -0.2], None, [1e300, 1e299])


# ---------------------------------------------------------------------------
# degree maps
# ---------------------------------------------------------------------------

def test_degree_map_plane_constant(plane):
    result = degree_map(plane, [6, 6])
    assert result.max_degree == 3
    assert result.low_degree_fraction == 0.0


def test_degree_map_paraboloid_low_degree_near_origin(paraboloid):
    result = degree_map(paraboloid, [9, 9])
    assert result.max_degree == 3
    assert 0.0 < result.low_degree_fraction < 0.2
    low = [a for a in result.points if a.degree < 3]
    for a in low:
        assert np.linalg.norm(a.y) < 0.5


def test_degree_map_records_non_finite_cells():
    chart = parse_parametrization("1 / y1; 0; y2", 2, [[-1, 1], [-1, 1]], H1)
    result = degree_map(chart, 9)
    assert len(result.points) == 72
    assert [kind for _, kind in result.failures] == ["NonFinite"] * 9
    assert result.max_degree == 3


def test_degree_map_abelian_everywhere_n():
    g = abelian(3)
    chart = parse_parametrization("y1; y2; y1*y2", 2, [[-1, 1], [-1, 1]], g)
    result = degree_map(chart, [5, 5])
    assert result.max_degree == 2
    assert result.low_degree_fraction == 0.0


def test_dilated_chart_consistency(plane):
    # delta_r(Sigma) has the same classification with scaled coordinates
    chart = TransformedChart(plane, dilate=2.0)
    a = classify_point(chart, [0.2, 0.3])
    assert a.degree == 3
    assert np.allclose(a.p, H1.dilate(2.0, plane.value([0.2, 0.3])))


# ---------------------------------------------------------------------------
# the batched h-tangent classification against the per-cell analysis
# ---------------------------------------------------------------------------

FILIFORM6 = load_group(
    {"name": "filiform6", "layers": [2, 1, 1, 1, 1, 1], "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)]}
)
SQUARE = [[-1, 1], [-1, 1]]
IDENTITY_CHARTS = {
    # the highstep benchmark chart: transversal cells and one irregular cell
    "filiform6": (FILIFORM6, "y1; y2; y1*y2; y1^2*y2/2; 0; y2^3; y1^4", 2, SQUARE),
    "readme-plane": (H1, "y1; 0; y2", 2, SQUARE),
    "paraboloid": (H1, "y1; y2; y1^2 + y2^2", 2, SQUARE),
    # horizontal at its middle cell, so a regular low-degree point
    "cubic-curve": (H1, "y1; 0; y1^3", 1, [[-1, 1]]),
    "horizontal-line": (H1, "y1; 0; 0", 1, [[-1, 1]]),
    # neither horizontal nor vertical, below Q_1 = 3
    "engel-line": (engel(), "0; 0; y1; 0", 1, [[-1, 1]]),
    # span{X2, X3} everywhere: a regular surface of degree 3 < Q_2 = 5
    "engel-plane": (engel(), "0; y1; y2; 0", 2, SQUARE),
    # transversal off y2 = 0, of degree 4 < 5 on it: low-degree cells at step 3
    "engel-tilt": (engel(), "y1; 0; y2; 0", 2, SQUARE),
    # n = q: no (n+1)-tuples, so every top-degree projection is zero
    "non-simple": (H1, "y1; y2; y3", 3, [[-1, 1]] * 3),
    # rank deficient on the middle column of cells
    "degenerate": (H1, "y1^3; y2; y1*y2", 2, SQUARE),
    # non-finite on a column of cells: the batch fails and cells go one by one
    "non-finite": (H1, "1 / y1; 0; y2", 2, SQUARE),
}


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def assert_same_analysis(got: PointAnalysis, want: PointAnalysis) -> None:
    for field in dataclasses.fields(PointAnalysis):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("y", "p", "coeffs"):
            assert _bits(a) == _bits(b), field.name
        elif field.name == "htangent":
            assert (a is None) == (b is None)
            if a is not None:
                assert _bits(a.basis) == _bits(b.basis)
        else:
            assert a == b, field.name


@pytest.mark.parametrize("name", IDENTITY_CHARTS)
def test_degree_map_is_the_per_cell_analysis(name):
    group, exprs, n, domain = IDENTITY_CHARTS[name]
    chart = parse_parametrization(exprs, n, domain, group)
    counts = 3 if n == 3 else 9
    got = degree_map(chart, counts)
    want = degree_map_per_cell(parse_parametrization(exprs, n, domain, group), counts)
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert_same_analysis(a, b)
    assert (got.max_degree, got.low_degree_fraction, got.failures) == (
        want.max_degree,
        want.low_degree_fraction,
        want.failures,
    )
    for y in [p.y for p in got.points[:: max(1, len(got.points) // 7)]]:
        assert_same_analysis(classify_point(chart, y), classify_point_per_cell(chart, y))


def test_identity_charts_reach_every_path():
    # the charts above cover notes, failures, the fallback and every class
    maps = {name: degree_map(parse_parametrization(e, n, d, g), 3 if n == 3 else 9)
            for name, (g, e, n, d) in IDENTITY_CHARTS.items()}
    notes = {note.split(":")[0] for m in maps.values() for a in m.points for note in a.notes}
    assert notes == {"non_simple_projection"}
    assert {kind for _, kind in maps["degenerate"].failures} == {"DegenerateTangent"}
    assert {kind for _, kind in maps["non-finite"].failures} == {"NonFinite"}
    classes = {a.classification for m in maps.values() for a in m.points}
    assert classes == {"irregular", "low_degree", "transversal", "horizontal", "regular"}


def test_area_check_judges_exactly_the_probes_blowup_case_covers(monkeypatch):
    # one probe of each class on each chart; the estimators are stubs, so
    # only the choice of the judged probes runs
    stub = Estimate(1.0, 0.0, 1, 0, "stub")
    monkeypatch.setattr(measure, "intrinsic_measure", lambda *args, **kwargs: stub)
    monkeypatch.setattr(measure, "spherical_factor", lambda *args, **kwargs: stub)
    monkeypatch.setattr(measure, "federer_density", lambda *args, **kwargs: (stub, []))
    seen = set()
    for name, (group, exprs, n, domain) in IDENTITY_CHARTS.items():
        chart = parse_parametrization(exprs, n, domain, group)
        probes = list({a.classification: a.y for a in degree_map(chart, 3 if n == 3 else 9).points}.values())
        report = measure.area_check(chart, box_distance(group, [1.0] * group.step), probes=probes)
        analyses = [classify_point(chart, y) for y in probes]
        cases = [blowup_case(group, a) for a in analyses]
        assert [v.advisory for v in report.verdicts] == [case == "not_covered" for case in cases], name
        seen |= {(name, a.classification, case) for a, case in zip(analyses, cases)}
    # a step-3 surface is judged only where it is transversal
    assert {
        ("engel-plane", "regular", "not_covered"), ("engel-tilt", "low_degree", "not_covered"),
        ("engel-tilt", "transversal", "transversal"), ("engel-line", "regular", "curve"),
        ("cubic-curve", "low_degree", "step2"), ("horizontal-line", "horizontal", "horizontal"),
        ("non-simple", "irregular", "not_covered"),
    } <= seen


def test_degree_map_classifies_in_one_call(monkeypatch):
    calls = []

    def counted(group, bases, tol):
        calls.append(len(bases))
        return real(group, bases, tol)

    real = manifold.classify_subspaces
    monkeypatch.setattr(manifold, "classify_subspaces", counted)
    monkeypatch.setattr(manifold, "classify_subspace", None)  # no one-subspace call either
    chart = parse_parametrization(*IDENTITY_CHARTS["filiform6"][1:3], SQUARE, FILIFORM6)
    result = degree_map(chart, 9)
    assert calls == [81] and len(result.points) == 81
