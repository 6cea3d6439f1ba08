"""Estimators for the measure theory on graded groups.

Implements the intrinsic measure of a parametrized submanifold, spherical
factors (with theorem shortcuts and a derivative-free search), the spherical
Federer density, greedy-cover Caratheodory estimates, and the verification
suites for the area, concavity, symmetry, translation and coarea statements.

The metric ``g-tilde`` is fixed to the Euclidean metric of the graded
coordinates throughout, so the intrinsic density of a chart is literally
``|| pi_N( d_1 Psi ^ ... ^ d_n Psi ) ||_g`` and unit-determinant frames make
the Riemannian volume the Lebesgue measure.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import gamma, pi

import numpy as np

from .algebra import GradedGroup, Subspace, classify_subspace
from .errors import (
    BoundaryTooClose,
    CloudTooSparse,
    DegenerateTangent,
    EmptySection,
    LevelSetNotGraph,
    NotVertical,
    RadiusTooSmall,
)
from .exprparse import parse_expression
from .manifold import (
    cell_centers,
    classify_point,
    degree_echelon,
    parse_parametrization,
    sampled_max_degree,
    tangent_minors,
)
from .mc import (
    Estimate,
    blocks,
    box_points,
    count_hits,
    draw_blocks,
    hit_fraction_estimate,
    stream,
    uniform_ball,
    uniform_box,
)
from .metrics import HomogeneousDistance, ball_bounding_radius
from .optimize import nelder_mead
from .policy import DEFAULT_POLICY, NumericPolicy

# ---------------------------------------------------------------------------
# Batched density machinery
# ---------------------------------------------------------------------------

def frame_batch(group: GradedGroup, xs: np.ndarray) -> np.ndarray:
    """Frames A(x) for a batch of points, shape (B, q, q)."""
    return group.frame(xs)


def projected_wedge_norms(group: GradedGroup, coeffs: np.ndarray, target: int) -> np.ndarray:
    """|| pi_target( c_1 ^ ... ^ c_n ) ||_g for a (..., q, n) coefficient batch,
    forming only the minors of the target degree."""
    _, minors = tangent_minors(group, coeffs, target)
    return np.sqrt(np.sum(minors * minors, axis=-1))


def intrinsic_density(chart, ys: np.ndarray, target_degree: int) -> np.ndarray:
    """Density of the intrinsic measure in the chart at parameter samples."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    coeffs = chart.group.frame_coefficients(chart.value(ys), chart.jacobian_batch(ys))
    return projected_wedge_norms(chart.group, coeffs, target_degree)


def unit_ball_volume(n: int, radius: float = 1.0) -> float:
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0) * radius**n


# ---------------------------------------------------------------------------
# Section area and spherical factor
# ---------------------------------------------------------------------------

def section_area(
    dist: HomogeneousDistance,
    space: Subspace,
    u,
    samples: int = 200_000,
    seed: int = 0,
    tag: str = "section",
    radius_hint: float | None = None,
) -> Estimate:
    """Monte-Carlo H^n measure of {v in S : d(v, u) <= 1}."""
    u = np.asarray(u, dtype=float)
    n = space.dim
    if radius_hint is not None:
        radius = radius_hint
    else:
        try:
            radius = ball_bounding_radius(dist, space, u)
        except EmptySection:
            return Estimate(0.0, 0.0, 0, seed, "empty-section")
    basis = space.orthonormal_basis()
    (hits,) = count_hits(
        draw_blocks(
            lambda rng, count: uniform_ball(rng, n, count, radius) @ basis.T,
            samples,
            seed,
            f"{tag}:{np.round(u, 12).tobytes().hex()}",
        ),
        lambda pts: dist.ball_contains(u, pts),
    )
    return hit_fraction_estimate(
        hits, samples, unit_ball_volume(n, radius), seed, "mc-section", {"radius": radius}
    )


# the factor search: multi-start count, simplex iterations per start, and
# samples per objective evaluation
FACTOR_STARTS = 4
FACTOR_REFINE_ITERS = 40
FACTOR_SEARCH_SAMPLES = 4_000


def _factor_shortcut(dist: HomogeneousDistance, space: Subspace) -> str | None:
    cls = classify_subspace(dist.group, space)
    if dist.convex_ball and cls.vertical:
        return "convex-ball-vertical"
    if dist.multiradial and cls.horizontal:
        return "multiradial-horizontal"
    if dist.multiradial and dist.group.step == 2 and cls.homogeneous:
        return "multiradial-step2-homogeneous"
    if (
        dist.multiradial
        and space.dim == 1
        and cls.homogeneous
        and sum(1 for d in cls.layer_dims if d) == 1
    ):
        return "multiradial-single-layer-line"
    return None


def spherical_factor(
    dist: HomogeneousDistance,
    space: Subspace,
    samples: int = 200_000,
    seed: int = 0,
    force_search: bool = False,
) -> Estimate:
    """beta_d(S) = max over unit-ball centers u of H^n(B(u,1) ∩ S).

    When a constancy theorem pins the maximum at u = 0 the section there is
    returned directly (method "theorem-shortcut"); otherwise a multi-start
    search with simplex refinement maximizes over u in the unit ball.
    """
    reason = None if force_search else _factor_shortcut(dist, space)
    if reason is not None:
        est = section_area(dist, space, np.zeros(dist.group.q), samples, seed, tag="beta0")
        return Estimate(
            est.value, est.stderr, est.samples, est.seed, "theorem-shortcut", {"shortcut": reason}
        )

    g = dist.group
    rng = stream(seed, "beta-starts")
    # any section with ||u|| <= 1 sits inside the section of B(0, 2) at the
    # origin (triangle inequality), giving one search-wide bounding radius
    search_radius = ball_bounding_radius(dist, space, np.zeros(g.q), ball_radius=2.0)

    def project(u: np.ndarray) -> np.ndarray:
        nrm = float(dist.norm(u))
        if nrm > 1.0:
            return g.dilate(1.0 / nrm, u)
        return u

    def objective(u: np.ndarray) -> float:
        val = section_area(
            dist,
            space,
            project(u),
            FACTOR_SEARCH_SAMPLES,
            seed,
            tag="beta-search",
            radius_hint=search_radius,
        ).value
        return -val

    candidates = [np.zeros(g.q)]
    for _ in range(FACTOR_STARTS - 1):
        direction = dist.unit_normalize(rng.standard_normal(g.q))
        candidates.append(g.dilate(rng.random() ** (1.0 / g.q), direction))

    best_u, best_val = np.zeros(g.q), -objective(np.zeros(g.q))
    for u0 in candidates:
        u_opt, neg = nelder_mead(objective, u0, scale=0.2, max_iter=FACTOR_REFINE_ITERS)
        if -neg > best_val:
            best_u, best_val = project(u_opt), -neg

    final = section_area(dist, space, best_u, samples, seed, tag="beta-final")
    base = section_area(dist, space, np.zeros(g.q), samples, seed, tag="beta0")
    if base.value >= final.value:
        final, best_u = base, np.zeros(g.q)
    return Estimate(
        final.value,
        final.stderr,
        final.samples,
        final.seed,
        "optimized",
        {"argmax_u": [float(v) for v in best_u]},
    )


# ---------------------------------------------------------------------------
# Intrinsic measure
# ---------------------------------------------------------------------------

def intrinsic_measure(
    chart,
    region=None,
    quadrature: str = "tensor",
    resolution: int = 64,
    samples: int = 200_000,
    seed: int = 0,
    degree: int | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Estimate:
    """mu_Sigma of the image of a parameter region.

    Tensor-grid quadrature uses the midpoint rule at the given resolution and
    at half resolution, reporting the Richardson-extrapolated value with the
    extrapolation delta in ``meta``; "mc" integrates by uniform sampling.
    """
    region = np.asarray(region if region is not None else chart.domain, dtype=float)
    n = chart.n
    target = degree
    if target is None:
        target = sampled_max_degree(chart, region, 5, policy, strict=True)
    widths = region[:, 1] - region[:, 0]
    volume = float(np.prod(widths))

    if quadrature == "mc":
        total = 0.0
        totalsq = 0.0
        count = 0
        for b, cnt in blocks(samples):
            rng = stream(seed, "intrinsic-mc", b)
            ys = uniform_box(rng, region, cnt)
            vals = intrinsic_density(chart, ys, target)
            total += float(np.sum(vals))
            totalsq += float(np.sum(vals * vals))
            count += cnt
        mean = total / count
        var = max(totalsq / count - mean * mean, 0.0)
        return Estimate(
            volume * mean,
            volume * float(np.sqrt(var / count)),
            count,
            seed,
            "mc",
            {"degree": target},
        )

    if quadrature != "tensor":
        raise ValueError(f"unknown quadrature kind {quadrature!r}")

    def midpoint(res: int) -> float:
        ys = cell_centers(region, [res] * n)
        cell = volume / res**n
        total = 0.0
        for lo in range(0, len(ys), 1 << 14):
            total += float(np.sum(intrinsic_density(chart, ys[lo : lo + (1 << 14)], target)))
        return total * cell

    coarse = midpoint(max(resolution // 2, 1))
    fine = midpoint(resolution)
    value = fine + (fine - coarse) / 3.0
    return Estimate(
        value,
        0.0,
        resolution**n + max(resolution // 2, 1) ** n,
        seed,
        "tensor-midpoint-richardson",
        {"degree": target, "coarse": coarse, "fine": fine, "richardson_delta": abs(fine - coarse) / 3.0},
    )


# ---------------------------------------------------------------------------
# Federer density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusTracePoint:
    radius: float
    ratio: float
    stderr: float
    hits: int

    def as_dict(self) -> dict:
        return asdict(self)


def _parameter_window(chart, y0, p, dist, radius, exponents, policy) -> np.ndarray:
    """Per-axis half-widths of a parameter box containing the preimage of
    B(p, 2 radius), guided by the induced exponents and verified on the
    box boundary."""
    y0 = np.asarray(y0, dtype=float)
    rho = 2.5 * radius ** exponents.astype(float)
    lo_dom, hi_dom = chart.domain[:, 0], chart.domain[:, 1]
    for _ in range(80):
        boundary = []
        for axis in range(chart.n):
            for sign in (-1.0, 1.0):
                face = np.linspace(-1.0, 1.0, 5)
                grid = np.stack(np.meshgrid(*[face] * chart.n, indexing="ij"), axis=-1).reshape(
                    -1, chart.n
                )
                grid[:, axis] = sign
                boundary.append(y0 + grid * rho)
        bpts = np.vstack(boundary)
        if np.any(bpts < lo_dom) or np.any(bpts > hi_dom):
            raise BoundaryTooClose(
                f"radius {radius} needs a parameter window leaving the chart domain"
            )
        vals = dist.distance(p, chart.value(bpts))
        if np.all(vals > 2.0 * radius):
            return rho
        rho = rho * 1.5
    raise BoundaryTooClose("parameter window would not close around the metric ball")


def federer_density(
    chart,
    dist: HomogeneousDistance,
    y0,
    radii=None,
    centers_per_radius: int = 8,
    samples: int = 40_000,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
    flat_window: int = 5,
) -> tuple[Estimate, list[RadiusTracePoint]]:
    """Spherical Federer density of mu_Sigma at Psi(y0).

    For each radius r in a geometric sequence, the sup over candidate ball
    centers z (the point itself plus guided candidates p . delta_r(v)) of
    mu(B(z, r)) / r^N is estimated by Monte-Carlo integration of the
    intrinsic density over a guided parameter window; the value reported is
    the sup-ratio at the smallest radius whose trailing window is flat
    within combined standard errors, together with the full trace.
    """
    y0 = np.asarray(y0, dtype=float)
    analysis = classify_point(chart, y0, policy)
    n_deg = analysis.degree
    p = analysis.p
    group = chart.group

    coeffs = group.frame_coefficients(p, chart.jacobian(y0))
    ech = degree_echelon(group, coeffs, policy)
    exponents = np.array([group.degrees[r] for r in ech.pivots], dtype=float)

    if radii is None:
        # shrink the leading radius until its parameter window fits the chart
        r0 = 0.5
        while r0 > 1e-4:
            try:
                _parameter_window(chart, y0, p, dist, r0, exponents, policy)
                break
            except BoundaryTooClose:
                r0 *= 0.5
        else:
            raise BoundaryTooClose("no workable leading radius at this probe")
        radii = [r0 * 2.0 ** (-k) for k in range(10)]
    radii = sorted((float(r) for r in radii), reverse=True)

    trace: list[RadiusTracePoint] = []
    for k, r in enumerate(radii):
        rho = _parameter_window(chart, y0, p, dist, r, exponents, policy)
        window = np.stack([y0 - rho, y0 + rho], axis=1)
        vol = float(np.prod(window[:, 1] - window[:, 0]))

        rng = stream(seed, f"federer:{k}")
        ys = uniform_box(rng, window, samples)
        dens = intrinsic_density(chart, ys, n_deg)
        pts = chart.value(ys)

        centers = [p]
        vdirs = dist.unit_normalize(rng.standard_normal((max(centers_per_radius - 1, 0), group.q)))
        scales = rng.random(len(vdirs)) ** (1.0 / group.q)
        for v, s in zip(vdirs, scales):
            centers.append(group.product(p, group.dilate(r, group.dilate(s, v))))

        best = None
        for z in centers:
            inside = np.asarray(dist.distance(z, pts)) <= r
            hits = int(np.sum(inside))
            weights = dens * inside
            mean = float(np.mean(weights))
            var = max(float(np.mean(weights * weights)) - mean * mean, 0.0)
            mu_est = vol * mean
            mu_err = vol * float(np.sqrt(var / samples))
            ratio = mu_est / r**n_deg
            err = mu_err / r**n_deg
            if best is None or ratio > best[0]:
                best = (ratio, err, hits)
        if best[2] < 100:
            raise RadiusTooSmall(
                f"only {best[2]} Monte-Carlo hits at radius {r}; increase samples"
            )
        trace.append(RadiusTracePoint(r, *best))

    chosen = trace[-1]
    flat_found = False
    for k in range(len(trace) - 1, flat_window - 2, -1):
        window_pts = trace[k - flat_window + 1 : k + 1]
        ref = window_pts[-1]
        flat = all(
            abs(t.ratio - ref.ratio) <= 3.0 * float(np.hypot(t.stderr, ref.stderr))
            for t in window_pts
        )
        if flat:
            chosen = ref
            flat_found = True
            break
    est = Estimate(
        chosen.ratio,
        chosen.stderr,
        samples,
        seed,
        "federer-flat-radius",
        {
            "radius": chosen.radius,
            "degree": n_deg,
            "flat_window_found": flat_found,
            "classification": analysis.classification,
        },
    )
    return est, trace


# ---------------------------------------------------------------------------
# Caratheodory covering estimate
# ---------------------------------------------------------------------------

def covering_estimate(
    chart,
    dist: HomogeneousDistance,
    region,
    exponent: float,
    delta: float,
    cloud_size: int = 4000,
    seed: int = 0,
) -> Estimate:
    """Greedy farthest-point cover of a sample cloud of Psi(region) by closed
    d-balls of radius delta/2; returns sum of radius^exponent.

    This is an upper proxy for the Caratheodory premeasure (a greedy net is
    not the infimum); used for consistency bands only.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    region = np.asarray(region, dtype=float)
    rng = stream(seed, "cover-cloud")
    ys = uniform_box(rng, region, cloud_size)
    cloud = chart.value(ys)

    # resolution check on a subsample: nearest-neighbour spacing vs delta/4
    probe = cloud[rng.choice(cloud_size, size=min(256, cloud_size), replace=False)]
    nn = np.full(len(probe), np.inf)
    for lo in range(0, cloud_size, 1 << 12):
        chunk = cloud[lo : lo + (1 << 12)]
        d = np.asarray(dist.distance(probe[:, None, :], chunk[None, :, :]))
        d[d == 0.0] = np.inf
        nn = np.minimum(nn, d.min(axis=1))
    if float(np.max(nn)) > delta / 4.0:
        raise CloudTooSparse(
            f"cloud spacing {float(np.max(nn)):.3g} exceeds delta/4 = {delta / 4:.3g}"
        )

    radius = delta / 2.0
    dist_to_centers = np.asarray(dist.distance(cloud[0], cloud))
    count = 1
    while True:
        idx = int(np.argmax(dist_to_centers))
        if dist_to_centers[idx] <= radius:
            break
        count += 1
        dist_to_centers = np.minimum(
            dist_to_centers, np.asarray(dist.distance(cloud[idx], cloud))
        )
    value = count * radius**exponent
    return Estimate(
        value,
        0.0,
        cloud_size,
        seed,
        "greedy-cover",
        {"delta": delta, "balls": count, "upper_proxy": True},
    )


# ---------------------------------------------------------------------------
# Area report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    advisory: bool
    lhs: float
    rhs: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "advisory": self.advisory,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AreaReport:
    mu: Estimate
    beta: dict
    theta: dict
    covering: Estimate | None
    verdicts: tuple[Verdict, ...]
    traces: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed or v.advisory for v in self.verdicts)

    def as_dict(self) -> dict:
        return {
            "mu": self.mu.as_dict(),
            "beta": {k: v.as_dict() for k, v in self.beta.items()},
            "theta": {k: v.as_dict() for k, v in self.theta.items()},
            "covering": self.covering.as_dict() if self.covering else None,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def area_check(
    chart,
    dist: HomogeneousDistance,
    region=None,
    probes=(),
    theta_tolerance: float = 0.05,
    covering_delta: float | None = None,
    samples: int = 40_000,
    factor_samples: int = 200_000,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> AreaReport:
    """Assemble mu, beta and theta and check the density identity
    theta = beta * (density factor); the factor is 1 for the intrinsic
    measure itself and is recorded explicitly in each verdict."""
    region = np.asarray(region if region is not None else chart.domain, dtype=float)
    mu = intrinsic_measure(chart, region, seed=seed, policy=policy)
    verdicts: list[Verdict] = []
    betas: dict[str, Estimate] = {}
    thetas: dict[str, Estimate] = {}
    traces: dict[str, list[RadiusTracePoint]] = {}
    beta_values: list[Estimate] = []

    for idx, y in enumerate(probes):
        key = f"probe{idx}"
        y = np.asarray(y, dtype=float)
        analysis = classify_point(chart, y, policy)
        covered = analysis.regular and (
            analysis.classification in ("horizontal", "transversal", "vertical_regular")
            or chart.group.step == 2
            or chart.n == 1
        )
        if not covered:
            verdicts.append(
                Verdict(
                    name=f"theta-vs-beta:{key}",
                    passed=False,
                    advisory=True,
                    lhs=0.0,
                    rhs=0.0,
                    tolerance=theta_tolerance,
                    detail={
                        "reason": "probe outside the blow-up hypotheses",
                        "classification": analysis.classification,
                        "regular": analysis.regular,
                    },
                )
            )
            continue

        beta = spherical_factor(dist, analysis.htangent, samples=factor_samples, seed=seed)
        theta, trace = federer_density(
            chart, dist, y, samples=samples, seed=seed, policy=policy
        )
        betas[key] = beta
        thetas[key] = theta
        traces[key] = trace

        # unit-tangent projection norm, recorded as a diagnostic; the blow-up
        # theorem gives theta = beta for the intrinsic measure (factor 1)
        jac = chart.jacobian(y)
        coeffs = chart.group.frame_coefficients(analysis.p, jac)
        raw = projected_wedge_norms(chart.group, coeffs, analysis.degree)
        gram = float(np.sqrt(np.linalg.det(jac.T @ jac)))
        factor = 1.0
        target = beta.value * factor
        err = float(np.hypot(theta.stderr, beta.stderr * factor))
        passed = abs(theta.value - target) <= theta_tolerance * max(target, 1e-12) + 3.0 * err
        verdicts.append(
            Verdict(
                name=f"theta-vs-beta:{key}",
                passed=bool(passed),
                advisory=False,
                lhs=theta.value,
                rhs=target,
                tolerance=theta_tolerance,
                detail={
                    "density_factor": factor,
                    "unit_tangent_projection_norm": raw / gram,
                    "beta_method": beta.method,
                    "radius": theta.meta.get("radius"),
                },
            )
        )
        beta_values.append(beta)

    covering = None
    if covering_delta is not None and beta_values:
        n_sigma = float(sampled_max_degree(chart, region, 5, policy, strict=True))

        def covered(delta: float, base_cloud: int) -> Estimate:
            # the consistency band tolerates auto-growing the sample cloud;
            # the standalone estimator stays strict about CloudTooSparse
            for attempt in range(7):
                try:
                    return covering_estimate(
                        chart, dist, region, exponent=n_sigma, delta=delta,
                        cloud_size=base_cloud << attempt, seed=seed,
                    )
                except CloudTooSparse:
                    if attempt == 6:
                        raise

        covering = covered(covering_delta, 4000)
        half = covered(covering_delta / 2.0, 8000)
        beta_ref = beta_values[0].value
        stable = abs(covering.value - half.value) <= 0.15 * max(half.value, 1e-12)
        traces["covering"] = [(covering_delta, covering.value), (covering_delta / 2.0, half.value)]
        verdicts.append(
            Verdict(
                name="covering-stability",
                passed=bool(stable),
                advisory=False,
                lhs=covering.value,
                rhs=half.value,
                tolerance=0.15,
                detail={
                    "mu_over_beta": mu.value / beta_ref if beta_ref else float("inf"),
                    "ratio_to_mu_over_beta": covering.value / (mu.value / beta_ref)
                    if beta_ref and mu.value
                    else float("inf"),
                    "note": "greedy cover is an upper proxy; ratio recorded, not judged",
                },
            )
        )
    return AreaReport(
        mu=mu,
        beta=betas,
        theta=thetas,
        covering=covering,
        verdicts=tuple(verdicts),
        traces=traces,
    )


# ---------------------------------------------------------------------------
# Convex-section concavity
# ---------------------------------------------------------------------------

class ConvexBody:
    """Membership-testable convex body with a Euclidean bounding radius."""

    def __init__(self, ambient_dim: int, radius: float, member, label: str):
        self.ambient_dim = ambient_dim
        self.radius = radius
        self.member = member
        self.label = label


def ball_body(dist: HomogeneousDistance) -> ConvexBody:
    group = dist.group
    full = Subspace(group, np.eye(group.q))
    radius = ball_bounding_radius(dist, full, np.zeros(group.q), safety=1.1)
    return ConvexBody(group.q, radius, lambda pts: np.asarray(dist.norm(pts)) <= 1.0, f"ball[{dist.kind}]")


def box_body(halfwidths) -> ConvexBody:
    h = np.asarray(halfwidths, dtype=float)
    return ConvexBody(
        h.size,
        float(np.linalg.norm(h)) * 1.05,
        lambda pts: np.all(np.abs(pts) <= h, axis=-1),
        "box",
    )


def ellipsoid_body(matrix) -> ConvexBody:
    m = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    return ConvexBody(
        m.shape[1],
        1.05 / float(s[-1]),
        lambda pts: np.linalg.norm(pts @ m.T, axis=-1) <= 1.0,
        "ellipsoid",
    )


@dataclass(frozen=True)
class ConcavityReport:
    segments: int
    checks: int
    violations: int
    skipped: int
    worst_deficit: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {
            "segments": self.segments,
            "checks": self.checks,
            "violations": self.violations,
            "skipped": self.skipped,
            "worst_deficit": self.worst_deficit,
            "passed": self.passed,
        }


def section_concavity_check(
    body: ConvexBody,
    space: Subspace,
    segments: int = 200,
    samples: int = 20_000,
    seed: int = 0,
) -> ConcavityReport:
    """Check midpoint-type concavity of psi(v) = H^n(C ∩ (v+S))^(1/n) along
    random segments in the orthogonal parameter space."""
    basis = space.orthonormal_basis()
    n = space.dim
    q = body.ambient_dim
    u_full, _, _ = np.linalg.svd(np.hstack([basis, np.eye(q)]))
    perp = u_full[:, n:q] if n < q else np.zeros((q, 0))

    min_hits = 25

    def psi(hits: int) -> tuple[float, float] | None:
        if hits < min_hits:
            return None
        area = hit_fraction_estimate(hits, samples, unit_ball_volume(n, body.radius), seed, "mc-section")
        val = area.value ** (1.0 / n)
        err = area.stderr / (n * area.value ** ((n - 1.0) / n))
        return val, err

    def shifted(v: np.ndarray):
        return lambda pts: body.member(v[None, :] + pts)

    rng = stream(seed, "concavity-segments")
    checks = violations = skipped = 0
    worst = 0.0
    done = 0
    attempts = 0
    while done < segments and attempts < 20 * segments:
        attempts += 1
        if perp.shape[1] == 0:
            break
        v = (rng.standard_normal(perp.shape[1]) * body.radius * 0.5) @ perp.T
        w = (rng.standard_normal(perp.shape[1]) * body.radius * 0.5) @ perp.T
        # common random numbers within one segment, drawn once and shared by
        # its five sections: the independent standard errors then
        # overestimate the error of the concavity deficit
        shared = list(
            draw_blocks(
                lambda rng, count: uniform_ball(rng, n, count, body.radius) @ basis.T,
                samples,
                seed,
                f"concavity:seg{attempts}",
            )
        )
        ends = [psi(h) for h in count_hits(shared, shifted(v), shifted(w))]
        if ends[0] is None or ends[1] is None:
            continue
        done += 1
        thetas = (0.25, 0.5, 0.75)
        mids = count_hits(shared, *(shifted(theta * v + (1 - theta) * w) for theta in thetas))
        for theta, mid in zip(thetas, map(psi, mids)):
            if mid is None:
                skipped += 1
                continue
            checks += 1
            bound = theta * ends[0][0] + (1 - theta) * ends[1][0]
            err = float(
                np.sqrt(
                    mid[1] ** 2 + (theta * ends[0][1]) ** 2 + ((1 - theta) * ends[1][1]) ** 2
                )
            )
            deficit = bound - mid[0]
            if deficit > 3.0 * err:
                violations += 1
                worst = max(worst, deficit / max(err, 1e-300))
    return ConcavityReport(
        segments=done, checks=checks, violations=violations, skipped=skipped, worst_deficit=worst
    )


# ---------------------------------------------------------------------------
# Vertical translation invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationReport:
    volume_before: Estimate
    volume_after: Estimate
    passed: bool

    def as_dict(self) -> dict:
        return {
            "volume_before": self.volume_before.as_dict(),
            "volume_after": self.volume_after.as_dict(),
            "passed": self.passed,
        }


def vertical_translation_check(
    group: GradedGroup,
    nspace: Subspace,
    p,
    box=None,
    samples: int = 100_000,
    seed: int = 0,
) -> TranslationReport:
    """Compare H^n(A) with H^n(p . A) for a box A inside a vertical subgroup,
    measuring the image inside the affine coset p . N = P_V(p) + N."""
    cls = classify_subspace(group, nspace)
    if not cls.vertical:
        raise NotVertical("translation invariance requires a vertical subgroup")
    basis = nspace.orthonormal_basis()
    n = nspace.dim
    box = np.asarray(box if box is not None else np.stack([-np.ones(n), np.ones(n)], axis=1), dtype=float)
    p = np.asarray(p, dtype=float)

    # linear projection onto V = N^perp along N is the orthogonal projection
    v_part = p - basis @ (basis.T @ p)

    def in_a(zeta: np.ndarray) -> np.ndarray:
        return np.all((zeta >= box[:, 0]) & (zeta <= box[:, 1]), axis=-1)

    if not np.any(p):
        image_box = box  # left translation by the identity is the identity
    else:
        # forward-map a dense sample of A to coset coordinates for a bounding box
        rng = stream(seed, "translate-bounds")
        dense = uniform_box(rng, box, 4096)
        image = (group.product(p, dense @ basis.T) - v_part) @ basis
        lo = image.min(axis=0)
        hi = image.max(axis=0)
        margin = 0.05 * (hi - lo) + 1e-9
        image_box = np.stack([lo - margin, hi + margin], axis=1)

    def in_image(unit: np.ndarray) -> np.ndarray:
        # the image-box points are a temporary, so the product runs beside
        # one unit block only
        pts = v_part[None, :] + box_points(image_box, unit) @ basis.T
        back = group.product(group.inverse(p), pts)
        return in_a(back @ basis)

    # common random numbers across both volumes: each block of unit uniforms
    # is drawn once and scaled into each box, so the p = 0 case reproduces
    # exactly
    hits = count_hits(
        draw_blocks(lambda rng, count: rng.random((count, n)), samples, seed, "translate-mc"),
        lambda unit: in_a(box_points(box, unit)),
        in_image,
    )
    before, after = (
        hit_fraction_estimate(h, samples, float(np.prod(b[:, 1] - b[:, 0])), seed, "mc-box")
        for h, b in zip(hits, (box, image_box))
    )
    passed = abs(before.value - after.value) <= 3.0 * float(
        np.hypot(before.stderr, after.stderr)
    ) + 1e-12
    return TranslationReport(volume_before=before, volume_after=after, passed=passed)


# ---------------------------------------------------------------------------
# Beta constancy across a family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstancyReport:
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    spread: float
    max_pairwise_z: float

    @property
    def passed(self) -> bool:
        return self.max_pairwise_z <= 3.0

    def as_dict(self) -> dict:
        return {
            "values": list(self.values),
            "stderrs": list(self.stderrs),
            "spread": self.spread,
            "max_pairwise_z": self.max_pairwise_z,
            "passed": self.passed,
        }


def beta_constancy_check(
    dist: HomogeneousDistance,
    family: list[Subspace],
    samples: int = 200_000,
    seed: int = 0,
) -> ConstancyReport:
    dims = {s.dim for s in family}
    if len(dims) != 1:
        raise ValueError("all family members must have the same dimension")
    estimates = [
        spherical_factor(dist, s, samples=samples, seed=seed + i)
        for i, s in enumerate(family)
    ]
    values = [e.value for e in estimates]
    errs = [max(e.stderr, 1e-300) for e in estimates]
    max_z = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            z = abs(values[i] - values[j]) / float(np.hypot(errs[i], errs[j]))
            max_z = max(max_z, z)
    return ConstancyReport(
        values=tuple(values),
        stderrs=tuple(errs),
        spread=float(max(values) - min(values)),
        max_pairwise_z=max_z,
    )


# ---------------------------------------------------------------------------
# Hypersurface density
# ---------------------------------------------------------------------------

def hypersurface_density(chart, y, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Spherical-measure density of a hypersurface from its Euclidean unit
    normal: sqrt(sum over first-layer j of <n, X_j(p)>^2).  The tangent map
    is rank deficient when its smallest singular value is at or below
    ``policy.rtol`` of the largest."""
    group = chart.group
    if chart.n != group.q - 1:
        raise DegenerateTangent("hypersurface density requires codimension 1")
    jac = chart.jacobian(y)
    u, s, _ = np.linalg.svd(jac, full_matrices=True)
    if s[-1] <= policy.rtol * s[0]:
        raise DegenerateTangent("tangent map is rank deficient")
    normal = u[:, -1]
    frame = group.frame(chart.value(y))
    m = group.layers[0]
    comps = normal @ frame[:, :m]
    return float(np.sqrt(np.sum(comps * comps)))


# ---------------------------------------------------------------------------
# Coarea balance (k = 1, graph level sets)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoareaReport:
    lhs: float
    rhs: float
    tolerance: float

    @property
    def passed(self) -> bool:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-12)
        return abs(self.lhs - self.rhs) <= self.tolerance * scale

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "tolerance": self.tolerance, "passed": self.passed}


def coarea_check(
    group: GradedGroup,
    graph_coord: int,
    g_expr: str,
    u_expr: str,
    domain,
    resolution: int = 48,
    tolerance: float = 0.02,
) -> CoareaReport:
    """Coarea balance for f(x) = x_j - g(other coordinates) (k = 1).

    LHS integrates u * J_{g,H} f over the box with J_{g,H} f the Euclidean
    norm of the first-layer frame components of the Riemannian gradient.
    RHS slices the box into graph level sets, integrates u against the
    hypersurface density of the area formula, then integrates over the level
    value; both sides are tensor-grid quadratures.
    """
    q = group.q
    j0 = graph_coord - 1
    if not 0 <= j0 < q:
        raise LevelSetNotGraph(f"graph coordinate {graph_coord} out of range")
    domain = np.asarray(domain, dtype=float).reshape(q, 2)
    others = [i for i in range(q) if i != j0]

    u_node = parse_expression(u_expr, [f"x{i + 1}" for i in range(q)])
    g_node = parse_expression(g_expr, [f"y{k + 1}" for k in range(q - 1)])

    # f(x) = x_j - g(others): its Euclidean gradient in x
    grad_nodes = [g_node.diff(k) for k in range(q - 1)]

    def lhs_integrand(xs: np.ndarray) -> np.ndarray:
        frames = group.frame(xs)
        ys = xs[:, others]
        grad = np.zeros_like(xs)
        for k, i in enumerate(others):
            grad[:, i] = -np.broadcast_to(grad_nodes[k].eval(ys), xs.shape[:-1])
        grad[:, j0] += 1.0
        m = group.layers[0]
        comp = np.einsum("bi,bij->bj", grad, frames[:, :, :m])
        jh = np.sqrt(np.sum(comp * comp, axis=1))
        return jh * np.broadcast_to(u_node.eval(xs), xs.shape[:-1])

    lhs = _box_midpoint(lhs_integrand, domain, resolution)

    # RHS: level sets x_j = t + g(y).  f takes values in
    # [lo_j - max g, hi_j - min g]; g's extremes are taken on the vertex grid
    # of the other coordinates, and any level that covers too much is zeroed
    # by the in-box mask of the integrand
    sub_domain = domain[others]
    n = q - 1
    vertices = np.stack(
        np.meshgrid(*[np.linspace(lo, hi, resolution + 1) for lo, hi in sub_domain], indexing="ij"),
        axis=-1,
    ).reshape(-1, n)
    g_vals = np.broadcast_to(g_node.eval(vertices), vertices.shape[:-1])
    t_lo = domain[j0, 0] - float(np.max(g_vals))
    t_hi = domain[j0, 1] - float(np.min(g_vals))

    def rhs_of_t(t: float) -> float:
        exprs = []
        names = iter(f"y{k + 1}" for k in range(n))
        for i in range(q):
            if i == j0:
                exprs.append(f"{t!r} + ({g_expr})")
            else:
                exprs.append(next(names))
        chart = parse_parametrization("; ".join(exprs), n, sub_domain, group)

        def integrand(ys: np.ndarray) -> np.ndarray:
            pts = chart.value(ys)
            coeffs = group.frame_coefficients(pts, chart.jacobian_batch(ys))
            dens = projected_wedge_norms(group, coeffs, group.hom_dimension - 1)
            inside = (pts[:, j0] >= domain[j0, 0] - 1e-12) & (
                pts[:, j0] <= domain[j0, 1] + 1e-12
            )
            return dens * np.broadcast_to(u_node.eval(pts), pts.shape[:-1]) * inside

        return _box_midpoint(integrand, sub_domain, resolution)

    ts = t_lo + (np.arange(resolution) + 0.5) * (t_hi - t_lo) / resolution
    rhs = float(np.mean([rhs_of_t(float(t)) for t in ts]) * (t_hi - t_lo))
    return CoareaReport(lhs=lhs, rhs=rhs, tolerance=tolerance)


def _box_midpoint(fn, box: np.ndarray, per_axis: int) -> float:
    ys = cell_centers(box, [max(2, per_axis)] * box.shape[0])
    vol = float(np.prod(box[:, 1] - box[:, 0]))
    total = 0.0
    for lo in range(0, len(ys), 1 << 14):
        total += float(np.sum(fn(ys[lo : lo + (1 << 14)])))
    return total * vol / len(ys)
