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
from functools import partial
from itertools import accumulate
from math import gamma, pi, sqrt

import numpy as np

from .algebra import X, Y, GradedGroup, Subspace, bch_plan, classify_subspace
from .errors import (
    BoundaryTooClose,
    CloudTooSparse,
    DegenerateTangent,
    EmptySection,
    LevelSetNotGraph,
    NonFinite,
    NotVertical,
    RadiusTooSmall,
)
from .exprparse import parse_expression
from .manifold import (
    blowup_case,
    cell_centers,
    classify_point,
    parse_parametrization,
    sampled_max_degree,
    tangent_minors,
)
from .mc import (
    BLOCK,
    Estimate,
    box_points,
    count_hits,
    draw_blocks,
    require_counts,
    stream,
    sum_of_squares,
    uniform_ball,
    uniform_box,
)
from .metrics import BALL_SLACK, HomogeneousDistance, ball_bounding_radius
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

def _section_points(basis: np.ndarray, radius: float, samples: int, seed: int, tag: str):
    """The ``samples`` points of a section drawn lazily, block by block, on
    stream ``tag``: uniform in the ball of ``radius`` of the span of the
    orthonormal ``basis`` columns."""
    return draw_blocks(
        lambda rng, count: uniform_ball(rng, basis.shape[1], count, radius) @ basis.T, samples, seed, tag
    )


def _section_estimate(hits: int, samples: int, n: int, radius: float, seed: int, meta) -> Estimate:
    """The H^n measure of a section from the ``hits`` among ``samples``
    points of ``_section_points`` in its n-dimensional ball of ``radius``:
    the ball's volume times the hit fraction, with binomial standard error."""
    volume, p = unit_ball_volume(n, radius), hits / samples
    stderr = volume * float(np.sqrt(max(p * (1.0 - p), 0.0) / samples))
    return Estimate(volume * p, stderr, samples, seed, "mc-section", meta or {})


def section_area(
    dist: HomogeneousDistance,
    space: Subspace,
    u,
    samples: int = 200_000,
    seed: int = 0,
    tag: str = "section",
) -> Estimate:
    """Monte-Carlo H^n measure of {v in S : d(v, u) <= 1}.

    The sample stream is keyed on u rounded to 12 digits, with -0 read as
    +0, so equal centres draw equal samples.
    """
    require_counts(samples=samples)
    u = np.asarray(u, dtype=float)
    n = space.dim
    try:
        radius = ball_bounding_radius(dist, space, u)
    except EmptySection:
        return Estimate(0.0, 0.0, 0, seed, "empty-section")
    tag = f"{tag}:{(np.round(u, 12) + 0.0).tobytes().hex()}"
    (hits,) = count_hits(
        _section_points(space.orthonormal_basis(), radius, samples, seed, tag), partial(dist.ball_contains, u)
    )
    return _section_estimate(hits, samples, n, radius, seed, {"radius": radius})


# the factor search: multi-start count, simplex iterations per start, and
# size of the one sample set that every objective evaluation counts on
FACTOR_STARTS = 4
FACTOR_REFINE_ITERS = 40
FACTOR_SEARCH_SAMPLES = 4_000


def _factor_shortcut(
    dist: HomogeneousDistance, space: Subspace, policy: NumericPolicy = DEFAULT_POLICY
) -> str | None:
    cls = classify_subspace(dist.group, space, policy.rtol)
    if dist.convex_ball and cls.vertical:
        return "convex-ball-vertical"
    # every kind is multiradial: phi sees only the layer magnitudes
    if cls.horizontal:
        return "multiradial-horizontal"
    if dist.group.step == 2 and cls.homogeneous:
        return "multiradial-step2-homogeneous"
    if space.dim == 1 and cls.homogeneous and sum(1 for d in cls.layer_dims if d) == 1:
        return "multiradial-single-layer-line"
    return None


def spherical_factor(
    dist: HomogeneousDistance,
    space: Subspace,
    samples: int = 200_000,
    seed: int = 0,
    force_search: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Estimate:
    """beta_d(S) = max over unit-ball centers u of H^n(B(u,1) ∩ S).

    When a constancy theorem pins the maximum at u = 0 the section there is
    returned directly (method "theorem-shortcut"); otherwise a multi-start
    search with simplex refinement maximizes over u in the unit ball.  The
    class of S that picks the theorem is decided at ``policy.rtol``.

    The search draws its ``FACTOR_SEARCH_SAMPLES`` points once ("beta-search",
    common random numbers) in the section of B(0, 2), which holds every
    section with ||u|| <= 1, so its objective, the hit count of B(u, 1), is
    deterministic; each count takes the distance only in the coordinate box
    of B(u, 1) (``_within``).  A winner other than the origin meets u = 0 on
    one shared draw ("beta-select"); the larger count is picked, a tie going
    to the origin, and reported on its own stream ("beta-final", or the
    shortcut's "beta0"), never as the larger of two noisy estimates.
    """
    require_counts(samples=samples)
    reason = None if force_search else _factor_shortcut(dist, space, policy)
    origin = np.zeros(dist.group.q)
    if reason is not None:
        est = section_area(dist, space, origin, samples, seed, tag="beta0")
        return Estimate(
            est.value, est.stderr, est.samples, est.seed, "theorem-shortcut", {"shortcut": reason}
        )

    g = dist.group
    rng = stream(seed, "beta-starts")
    # any section with ||u|| <= 1 sits inside the section of B(0, 2) at the
    # origin (triangle inequality), giving one search-wide sampling ball
    search_radius = ball_bounding_radius(dist, space, origin, ball_radius=2.0)
    basis = space.orthonormal_basis()

    def project(u: np.ndarray) -> np.ndarray:
        return dist.unit_normalize(u) if dist.norm(u) > 1.0 else u

    draw = _section_points(basis, search_radius, FACTOR_SEARCH_SAMPLES, seed, "beta-search")
    columns = np.ascontiguousarray(np.vstack(list(draw)).T)
    # a projected centre has ||u|| <= 1 up to rounding, so |u_j| <= rho_j
    # (layer_radii); the 1.01 covers the rounding of ||u|| and of rho
    centre_bound = 1.01 * float(np.sqrt(np.sum(dist.layer_radii**2)))
    reach = _coordinate_reach(dist, max(float(np.max(np.linalg.norm(columns, axis=0))), centre_bound))
    evaluations = 0

    def objective(u: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return -float(len(_within(dist, reach, columns, project(u), 1.0 + BALL_SLACK)))

    candidates = [origin]
    for _ in range(FACTOR_STARTS - 1):
        direction = dist.unit_normalize(rng.standard_normal(g.q))
        candidates.append(g.dilate(rng.random() ** (1.0 / g.q), direction))

    best_u, best_val = origin, -objective(origin)
    for u0 in candidates:
        u_opt, neg = nelder_mead(objective, u0, scale=0.2, max_iter=FACTOR_REFINE_ITERS)
        if -neg > best_val:
            best_u, best_val = project(u_opt), -neg

    won = False
    if np.any(best_u):
        members = (partial(dist.ball_contains, c) for c in (best_u, origin))
        select = _section_points(basis, search_radius, samples, seed, "beta-select")
        at_best, at_origin = count_hits(select, *members)
        won = at_best > at_origin
    centre, tag = (best_u, "beta-final") if won else (origin, "beta0")
    final = section_area(dist, space, centre, samples, seed, tag=tag)
    meta = {"argmax_u": [float(v) for v in centre], "evaluations": evaluations}
    meta["selected"] = "search" if won else "origin"
    return Estimate(final.value, final.stderr, final.samples, final.seed, "optimized", meta)


# ---------------------------------------------------------------------------
# Intrinsic measure
# ---------------------------------------------------------------------------

def _box(rows, n: int, what: str) -> np.ndarray:
    """``rows`` as an ``(n, 2)`` array of rows [lo, hi] with lo < hi, else ValueError."""
    box = np.asarray(rows, dtype=float)
    if box.shape != (n, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise ValueError(f"{what} must be {n} rows [lo, hi] with lo < hi")
    return box


def intrinsic_measure(
    chart,
    region=None,
    quadrature: str = "tensor",
    resolution: int = 64,
    samples: int = 200_000,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Estimate:
    """mu_Sigma of the image of a parameter region.

    Tensor-grid quadrature uses the midpoint rule at the given resolution and
    at half resolution, reporting the Richardson-extrapolated value with the
    extrapolation delta in ``meta``; "mc" integrates by uniform sampling.
    """
    require_counts(resolution=resolution, samples=samples)
    if quadrature not in ("tensor", "mc"):
        raise ValueError(f"unknown quadrature kind {quadrature!r}")
    region = _box(chart.domain if region is None else region, chart.n, "region")
    n = chart.n
    target = sampled_max_degree(chart, region, policy, strict=True)
    widths = region[:, 1] - region[:, 0]
    volume = float(np.prod(widths))
    density = partial(intrinsic_density, chart, target_degree=target)

    if quadrature == "mc":
        total = totalsq = 0.0
        for vals in draw_blocks(
            lambda rng, count: density(uniform_box(rng, region, count)), samples, seed, "intrinsic-mc"
        ):
            total += float(np.sum(vals))
            totalsq += float(np.sum(vals * vals))
        mean = total / samples
        var = max(totalsq / samples - mean * mean, 0.0)
        stderr = volume * float(np.sqrt(var / samples))
        return Estimate(volume * mean, stderr, samples, seed, "mc", {"degree": target})

    def midpoint(res: int) -> float:
        return _grid_sum(density, cell_centers(region, [res] * n)) * (volume / res**n)

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


def _parameter_window(chart, y0, p, dist, radius, exponents) -> np.ndarray:
    """Per-axis half-widths of a parameter box containing the preimage of
    B(p, 2 radius), guided by the induced exponents and verified on the
    box boundary: a 5^n grid on each face, axis by axis, sign by sign."""
    n = chart.n
    rho = 2.5 * radius ** exponents.astype(float)
    lo_dom, hi_dom = chart.domain[:, 0], chart.domain[:, 1]
    face = np.linspace(-1.0, 1.0, 5)
    grid = np.stack(np.meshgrid(*[face] * n, indexing="ij"), axis=-1).reshape(-1, n)
    faces = []
    for axis in range(n):
        for sign in (-1.0, 1.0):
            faces.append(grid.copy())
            faces[-1][:, axis] = sign
    faces = np.vstack(faces)
    for _ in range(80):
        bpts = y0 + faces * rho
        if np.any(bpts < lo_dom) or np.any(bpts > hi_dom):
            raise BoundaryTooClose(
                f"radius {radius} needs a parameter window leaving the chart domain"
            )
        vals = dist.distance(p, chart.value(bpts))
        if np.all(vals > 2.0 * radius):
            return rho
        rho = rho * 1.5
    raise BoundaryTooClose("parameter window would not close around the metric ball")


# how many consecutive radii must agree within their stderrs (a flat window)
FLAT_WINDOW = 5


def federer_density(
    chart,
    dist: HomogeneousDistance,
    y0,
    radii=None,
    centers_per_radius: int = 8,
    samples: int = 40_000,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> tuple[Estimate, list[RadiusTracePoint]]:
    """Spherical Federer density of mu_Sigma at Psi(y0).

    For each radius r in a geometric sequence, the sup over candidate ball
    centers z (the point itself plus guided candidates p . delta_r(v)) of
    mu(B(z, r)) / r^N is estimated by Monte-Carlo integration of the
    intrinsic density over a guided parameter window; the value reported is
    the sup-ratio at the smallest radius whose trailing window is flat
    within combined standard errors, together with the full trace.

    A window sample within r of a centre z lies in the coordinate box
    ``_coordinate_reach(dist, scale)(r, z)`` (``scale`` bounds the norm of
    every sample and every centre), so each centre evaluates the distance
    only on the samples of its box (``_within``), and the intrinsic density
    is evaluated only on the samples some ball holds; it is zero in every
    other sample's weight.  The weights, their means and so every ratio,
    stderr and hit count are bit for bit those of the full window
    (``tests/oracles/measure.py::federer_full_window``).  The chart's
    values and Jacobians are evaluated, and checked finite, on every
    sample, once; the density takes those of the held samples.
    """
    require_counts(samples=samples)
    if radii is not None:
        radii = [float(r) for r in radii]
        if not radii or not all(0.0 < r < np.inf for r in radii):
            raise ValueError(f"radii must be a non-empty list of positive finite numbers, got {radii}")
    y0 = np.asarray(y0, dtype=float)
    analysis = classify_point(chart, y0, policy)
    n_deg = analysis.degree
    p = analysis.p
    group = chart.group
    exponents = group.degrees[list(analysis.pivots)].astype(float)

    windows = {}
    if radii is None:
        # shrink the leading radius until its parameter window fits the chart
        r0 = 0.5
        while r0 > 1e-4:
            try:
                windows[r0] = _parameter_window(chart, y0, p, dist, r0, exponents)
                break
            except BoundaryTooClose:
                r0 *= 0.5
        else:
            raise BoundaryTooClose("no workable leading radius at this probe")
        radii = [r0 * 2.0 ** (-k) for k in range(10)]
    radii = sorted(radii, reverse=True)

    trace: list[RadiusTracePoint] = []
    for k, r in enumerate(radii):
        rho = windows.get(r)
        if rho is None:
            rho = _parameter_window(chart, y0, p, dist, r, exponents)
        window = np.stack([y0 - rho, y0 + rho], axis=1)
        vol = float(np.prod(window[:, 1] - window[:, 0]))

        rng = stream(seed, f"federer:{k}")
        ys = uniform_box(rng, window, samples)
        columns = np.ascontiguousarray(chart.value(ys).T)

        centers = [p]
        vdirs = dist.unit_normalize(rng.standard_normal((max(centers_per_radius - 1, 0), group.q)))
        scales = rng.random(len(vdirs)) ** (1.0 / group.q)
        for v, s in zip(vdirs, scales):
            centers.append(group.product(p, group.dilate(r, group.dilate(s, v))))

        scale = max(np.max(np.linalg.norm(columns, axis=0)), np.max(np.linalg.norm(centers, axis=1)))
        reach = _coordinate_reach(dist, float(scale))
        balls = []
        for z in centers:
            balls.append(np.zeros(samples, dtype=bool))
            balls[-1][_within(dist, reach, columns, z, r)] = True
        held = np.any(balls, axis=0)
        # values and Jacobians are checked finite on the whole window, and
        # the density takes those of the held samples; a block at a time,
        # so that the whole window's Jacobians are never held at once
        jacobians = np.concatenate([
            chart.jacobian_batch(ys[lo : lo + BLOCK])[held[lo : lo + BLOCK]]
            for lo in range(0, samples, BLOCK)
        ])
        dens = np.zeros(samples)
        if held.any():
            coeffs = group.frame_coefficients(columns[:, held].T, jacobians)
            dens[held] = projected_wedge_norms(group, coeffs, n_deg)

        best = None
        for inside in balls:
            hits = int(np.count_nonzero(inside))
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
    for k in range(len(trace) - 1, FLAT_WINDOW - 2, -1):
        window_pts = trace[k - FLAT_WINDOW + 1 : k + 1]
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
    d-balls of radius delta/2; returns sum of radius^exponent.  A region of
    None is the chart's domain.

    This is an upper proxy for the Caratheodory premeasure (a greedy net is
    not the infimum); used for consistency bands only.

    The net is Gonzalez's farthest-point clustering (TCS 1985): the first
    centre is point 0, and each next centre is the point farthest from the
    centres so far (lowest index on ties), until that distance is at most
    delta/2.  A point's value, its distance to the centres so far, only
    ever falls, so the argmax can be lazy, as in Minoux's accelerated greedy
    (1978), and the centres are taken in batches (``_farthest_point_net``):

    - *The pool.*  A pool holds the points whose value is at least T, the
      COVER_POOL-th largest value when the pool was filled.  Every point
      outside it stays below T.  A pool point that falls below T leaves the
      pool, and an empty pool is filled again from the whole cloud.
    - *The batch rule.*  A batch takes the first COVER_BATCH pool points in
      (value descending, index ascending) order as candidates, and the
      distance between every ordered pair of them in one distance call.  It
      runs the loop on the candidates alone: the next centre is the
      candidate of largest value, and each centre lowers every candidate's
      value to its distance from that centre where that is smaller.  The
      batch ends at the first centre so chosen whose value is at most
      delta/2, below T, or after the first pool point left out in that
      order.
    - *Why it is exact.*  Until the batch ends, the candidate chosen is the
      full loop's next centre: its value is that of the full loop, every
      pool point left out comes after it (their values have only fallen),
      and every point outside the pool is below T.  A centre c at value D
      lowers only points x with ``d(c, x) < D``, and each of those lies in
      a coordinate box around c: with ``z = c^-1 . x``, the magnitudes are
      ``|z_j| <= rho_j D^j`` (``dist.layer_radii``), and the BCH series
      ``x - c = z + sum_w coeff_w [w(c, z)]`` bounds layer j of ``x - c``
      by ``r_j = rho_j D^j + sum_w |coeff_w| L^(len w - 1) C^#X Y^#Y`` (see
      ``_coordinate_reach``).  The cloud is indexed once (``_CoverIndex``),
      the batch's boxes are read from it at once, and one distance call
      takes every (centre, box point) pair.  Folding those in with
      ``np.minimum.at`` is exact and does not depend on order, so every
      value after the batch is the full loop's after the same centres.

    So the centres, the ball count and every nearest centre distance are
    bit for bit those of the full scan
    (``tests/oracles/measure.py::covering_full_scan``).

    The spacing check asks of 256 probe points that each have a neighbour
    within delta/4.  Each probe searches the boxes at D = delta/4, delta/2,
    delta, 2 delta, ... in turn: every point at computed distance
    0 < d <= D lies in the box at D, so the smallest nonzero distance in the
    first box that holds one within D is the probe's exact nearest-neighbour
    distance, and a box that holds the whole cloud gives the full minimum
    (inf when no point differs from the probe).  A probe stops at
    D = delta/4 exactly when its spacing is at most delta/4, so the largest
    spacing, which ``CloudTooSparse`` reports, is that of the full scan.

    A ``(delta/2)^exponent`` beyond a float, or a delta/4 below the smallest
    normal float, raises ``NonFinite`` before any work (``_cover_unit``).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    require_counts(cloud_size=cloud_size)
    radius = delta / 2.0
    unit = _cover_unit(delta, exponent)
    region = _box(chart.domain if region is None else region, chart.n, "region")
    rng = stream(seed, "cover-cloud")
    ys = uniform_box(rng, region, cloud_size)
    cloud = chart.value(ys)
    reach = _coordinate_reach(dist, float(np.max(np.linalg.norm(cloud, axis=1))))
    index = _CoverIndex(cloud, dist.group, float(dist.layer_radii[0]) * radius)

    quarter = delta / 4.0
    probes = cloud[rng.choice(cloud_size, size=min(256, cloud_size), replace=False)]
    spacing = np.empty(len(probes))
    todo = np.arange(len(probes))
    # doubling from quarter > 0 reaches inf, where every probe stops
    bound = quarter
    while len(todo):
        centres = probes[todo]
        # a box too wide to compute holds the whole cloud
        halves = np.array([reach(bound, c) for c in centres])
        halves[~np.isfinite(halves)] = np.inf
        pos, counts = index.near(centres, halves)
        d = np.asarray(dist.distance(np.repeat(centres, counts, axis=0), index.rows(pos)))
        d[d == 0.0] = np.inf
        nearest = np.full(len(todo), np.inf)
        np.minimum.at(nearest, np.repeat(np.arange(len(todo)), counts), d)
        done = (nearest <= bound) | (counts == cloud_size)
        spacing[todo[done]] = nearest[done]
        todo = todo[~done]
        bound *= 2.0
    if not np.all(spacing <= quarter):
        raise CloudTooSparse(f"cloud spacing {float(np.max(spacing)):.3g} exceeds delta/4 = {quarter:.3g}")

    centres, _ = _farthest_point_net(dist, cloud, radius, reach, index)
    count = len(centres)
    value = count * unit
    return Estimate(
        value,
        0.0,
        cloud_size,
        seed,
        "greedy-cover",
        {"delta": delta, "balls": count, "upper_proxy": True},
    )


def _cover_unit(delta: float, exponent: float) -> float:
    """``(delta/2)^exponent``, one ball of a cover at delta.  ``NonFinite``
    if that is beyond a float, or if delta/4 is below the smallest normal
    float, where the spacing boxes and ``_CoverIndex`` cell keys overflow."""
    radius = delta / 2.0
    try:
        unit = radius**exponent
    except (OverflowError, ZeroDivisionError):  # 0.0 ** -1 raises too
        unit = np.inf
    if not np.isfinite(unit):
        raise NonFinite(f"(delta/2)^exponent = {radius:.3g}^{exponent:g} is not finite")
    if delta / 4.0 < np.finfo(float).tiny:
        raise NonFinite(f"delta/4 = {delta / 4.0:.3g} is below the smallest normal float, so cell keys are not finite")
    return unit


# The farthest-point net keeps at least COVER_POOL points in its pool and
# takes its candidates COVER_BATCH at a time (see covering_estimate).
COVER_POOL = 2048
COVER_BATCH = 32


def _farthest_point_net(dist: HomogeneousDistance, cloud: np.ndarray, radius: float, reach, index):
    """The farthest-point net of ``cloud`` at ``radius``, taken as
    ``covering_estimate`` describes: the centres' indices, in the order
    taken, and every point's distance to its nearest centre, both equal to
    those of the plain loop (``tests/oracles/measure.py::farthest_point_loop``).
    """
    n = len(cloud)
    values = np.asarray(dist.distance(cloud[0], cloud))
    centres = [0]
    pool, floor_value = np.empty(0, dtype=np.intp), np.inf
    while True:
        pool = pool[values[pool] >= floor_value]
        if not len(pool):
            floor_value = np.partition(values, n - COVER_POOL)[n - COVER_POOL] if n > COVER_POOL else -np.inf
            pool = np.flatnonzero(values >= floor_value)
        pooled = values[pool]
        # the pool is in index order, so a stable sort breaks ties by index
        ranked = np.argsort(-pooled, kind="stable")
        if pooled[ranked[0]] <= radius:
            return np.array(centres), values
        # (value, index) of the first pool point left out; with none left
        # out, a candidate need only reach the floor
        if len(ranked) > COVER_BATCH:
            after = pooled[ranked[COVER_BATCH]], pool[ranked[COVER_BATCH]]
        else:
            after = floor_value, n
        chosen = np.sort(ranked[:COVER_BATCH])
        ids, points, now = pool[chosen], cloud[pool[chosen]], pooled[chosen]
        k = len(ids)
        apart = np.asarray(dist.distance(np.repeat(points, k, axis=0), np.tile(points, (k, 1))))
        apart = apart.reshape(k, k)
        taken, halves = [], []
        while len(taken) < k:
            # the candidates are in index order, so argmax breaks ties by index
            j = int(np.argmax(now))
            value = float(now[j])
            if value <= radius or value < after[0] or (value == after[0] and ids[j] > after[1]):
                break
            taken.append(j)
            halves.append(reach(value, points[j]))
            np.minimum(now, apart[j], out=now)
            now[j] = -np.inf
        centres.extend(ids[taken].tolist())
        batch = points[taken]
        pos, counts = index.near(batch, np.array(halves))
        d = dist.distance(np.repeat(batch, counts, axis=0), index.rows(pos))
        np.minimum.at(values, index.order[pos], d)


# Relative allowance for the rounding of a computed norm (a few ulps for
# every kind) and of the bound's own arithmetic.
_REACH_SLACK = 1e-9


def _coordinate_reach(dist: HomogeneousDistance, scale: float):
    """``reach(D, c)``: half-widths ``(q,)`` such that every cloud point x
    whose computed distance from the centre c is below D (or at most D) has
    ``|x_k - c_k| <= reach[k]`` in floating point, for every coordinate k.
    ``scale`` bounds the Euclidean norm of every cloud point and of every
    centre: the rounding bound below holds x and c to it, and a centre need
    not be a cloud point (``federer_density``'s and the factor search's are
    not).  A D whose powers overflow a float gives infinite half-widths.

    With ``z = c^-1 . x`` and ``||z|| < D``, layer i of z has magnitude at
    most ``rho_i D^i`` (``dist.layer_radii``).  ``x = c . z``, so layer j of
    ``x - c`` is ``z_j`` plus the layer-j part of ``sum_w coeff_w [w(c,
    z)]`` over the words of ``bch_plan``.  Lagrange's identity gives
    ``|[u, v]| <= L |u| |v|`` with ``L^2`` the sum of the squared norms of
    the bracket table's vectors, so a word of length l contributes at most
    ``|coeff_w| L^(l-1) C^#X Y^#Y``.  By the grading that word reaches only
    layers j >= l and reads only the layers <= j - l + 1 of its letters: C
    is the norm of c on those layers and Y the bound on z there.  (The top
    layer is central and never enters a bracket.)

    Rounding, each part covered by a term of the result:

    - The computed distance is ``phi`` of the computed product ``z~``; the
      norm of ``z~`` exceeds the computed norm by a few ulps at most (sums
      of squares, roots and powers of nonnegative numbers, or a Newton
      solve stopped a few ulps from its root), so D is widened by ``_REACH_SLACK``.
    - ``z~`` differs from z in each coordinate by at most ``E = gamma_m
      S`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
      ed., sec. 3.1): m bounds the roundings along any one chain of the
      product's evaluation (``x + y``, two per BCH term, and per bracket
      level one per table pair plus three), and S is the same BCH sum over
      absolute values, ``2 scale + sum_w |coeff_w| (sqrt(2) L)^(l-1)
      scale^l``.  E is an absolute error: at step >= 4 and small D it can
      exceed any relative allowance of ``rho_j D^j``.  So ``|z_j| <= rho_j
      D^j + sqrt(h_j) E``.
    - The box test and the index compute ``x_k - c_k`` and ``c_k +- r``
      with one rounding each, at most ``u (|x_k| + |c_k| + r)``; E (which
      holds ``2 u scale``) and a further ``_REACH_SLACK`` of r cover it.
    """
    g = dist.group
    step = g.step
    rho = dist.layer_radii.tolist()
    lagrange = float(np.sqrt(sum(float(vec @ vec) for vec in g._table.values())))
    plan = bch_plan(step)
    chain = 2 + 2 * len(plan) + (step - 1) * (len(g._table) + 3)
    unit = 2.0**-53
    absolute = 2.0 * scale + sum(
        abs(coeff) * (sqrt(2.0) * lagrange) ** (len(word) - 1) * scale ** len(word)
        for coeff, word in plan
    )
    err = chain * unit / (1.0 - chain * unit) * absolute
    z_err = [sqrt(h) * err for h in g.layers]
    # the words by the layer j they reach, the prefix of layers their
    # letters read and their powers of C and Y (halved: C and Y enter squared)
    words: dict = {}
    for coeff, word in plan:
        for j in range(len(word) - 1, step):
            key = (j, j - len(word) + 1, word.count(X) / 2.0, word.count(Y) / 2.0)
            words[key] = words.get(key, 0.0) + abs(coeff) * lagrange ** (len(word) - 1)
    words = [key + (weight,) for key, weight in words.items()]
    starts = np.cumsum((0,) + g.layers[:-1])
    coordinate_layer = g.degrees - 1

    def reach(d: float, center: np.ndarray) -> np.ndarray:
        d *= 1.0 + _REACH_SLACK
        c_squares = np.add.reduceat(center * center, starts).cumsum().tolist()
        try:
            z = [r * d ** (j + 1) + e for j, (r, e) in enumerate(zip(rho, z_err))]
            y_squares = list(accumulate(v * v for v in z))
            for j, k, half_x, half_y, weight in words:
                z[j] += weight * c_squares[k] ** half_x * y_squares[k] ** half_y
        except OverflowError:  # a power beyond a float bounds nothing
            return np.full(g.q, np.inf)
        return (np.array(z) * (1.0 + _REACH_SLACK) + err)[coordinate_layer]

    return reach


def _within(dist: HomogeneousDistance, reach, columns: np.ndarray, center: np.ndarray, radius: float):
    """Positions of the points ``columns`` ``(q, m)`` at computed distance at
    most ``radius`` from ``center``, the distance taken only in the box
    ``reach(radius, center)`` (``_coordinate_reach``): bit for bit a full
    scan's (``tests/oracles/measure.py::within_full_scan``)."""
    half = reach(radius, center)
    rows = np.flatnonzero(_every_column(columns.T, lambda x, k: np.abs(x - center[k]) <= half[k]))
    return rows[np.asarray(dist.distance(center, columns[:, rows].T)) <= radius]


class _CoverIndex:
    """A cover's cloud sorted for box queries.

    Points fall into cells of the given width along the first-layer
    coordinate ``a`` of largest spread, and inside each cell they are
    sorted by the top-layer coordinate ``b`` of largest spread.  A query
    reads the run of each cell that its box overlaps in ``b`` and keeps the
    points inside the box in every other coordinate.  Cells and runs are
    found with rounded arithmetic that is monotone in the coordinate, so no
    point of the box is missed.  The runs of every box of a batch are found
    in one search: ``keys`` orders the sorted cloud by cell and then by the
    rank of ``b`` among all the cloud's values of ``b``, which is the order
    of ``b`` inside a cell.  ``columns`` holds the sorted cloud
    coordinate-first (``rows`` reads points from it), and ``order`` maps it
    back to the cloud.
    """

    def __init__(self, cloud: np.ndarray, group: GradedGroup, width: float):
        first, top = group.layer_slices[0], group.layer_slices[-1]
        spread = np.ptp(cloud, axis=0)
        self.a = first.start + int(np.argmax(spread[first]))
        self.b = top.start + int(np.argmax(spread[top]))
        self.others = [k for k in range(group.q) if k != self.b]
        self.origin, self.width = float(np.min(cloud[:, self.a])), width
        cells = self._cell(cloud[:, self.a])
        self.order = np.lexsort((cloud[:, self.b], cells))
        self.columns = np.ascontiguousarray(cloud[self.order].T)
        self.cells, sizes = np.unique(cells[self.order], return_counts=True)
        self.sorted_b = np.sort(self.columns[self.b])
        self.stride = len(cloud) + 1
        self.keys = np.repeat(np.arange(len(sizes)) * self.stride, sizes) + self.sorted_b.searchsorted(
            self.columns[self.b]
        )
        self.low, self.high = self.columns.min(axis=1), self.columns.max(axis=1)

    def _cell(self, values):
        return np.floor((values - self.origin) / self.width)

    def near(self, centers: np.ndarray, reaches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points x with ``|x_k - c_k| <= r_k`` for every k, for each
        centre c of ``centers`` ``(m, q)`` and its half-widths r, the same
        row of ``reaches``: their positions in the sorted cloud, grouped by
        centre and increasing within a group, and the number of each
        centre's."""
        a, b, columns = self.a, self.b, self.columns
        first = self.cells.searchsorted(self._cell(centers[:, a] - reaches[:, a]))
        last = self.cells.searchsorted(self._cell(centers[:, a] + reaches[:, a]) + 1)
        owner, cell = _ranges(first, last - first)
        # [lo, the float above hi) is the closed key range [lo, hi]
        ends = np.stack([centers[owner, b] - reaches[owner, b], centers[owner, b] + reaches[owner, b]])
        ends[1] = np.nextafter(ends[1], np.inf)
        lo, hi = self.keys.searchsorted(cell * self.stride + self.sorted_b.searchsorted(ends))
        run, pos = _ranges(lo, hi - lo)
        inside = np.ones(len(pos), dtype=bool)
        for k in self.others:
            c, r = centers[owner, k], reaches[owner, k]
            # rounding is monotone, so a box that holds a column's extremes
            # holds every value between them
            if np.all(np.abs(self.low[k] - c) <= r) and np.all(np.abs(self.high[k] - c) <= r):
                continue
            inside &= np.abs(columns[k, pos] - np.repeat(c, hi - lo)) <= np.repeat(r, hi - lo)
        return pos[inside], np.bincount(owner[run[inside]], minlength=len(centers))

    def rows(self, pos: np.ndarray) -> np.ndarray:
        """The sorted cloud's points at ``pos``, ``(len(pos), q)``."""
        return self.columns.take(pos, axis=1).T


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers ``starts[i], ..., starts[i] + lengths[i] - 1`` for every
    i in turn, and the i of each."""
    which = np.repeat(np.arange(len(lengths)), lengths)
    return which, np.arange(len(which)) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)


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
        return asdict(self)


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
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> AreaReport:
    """Assemble mu, beta and theta and check the density identity
    theta = beta * (density factor); the factor is 1 for the intrinsic
    measure itself and is recorded explicitly in each verdict.  A probe that
    ``blowup_case`` does not cover gets an advisory verdict.  Each beta
    takes ``spherical_factor``'s default samples and each theta ``samples``."""
    if covering_delta is not None and not covering_delta > 0:
        raise ValueError("covering_delta must be positive")
    require_counts(samples=samples)
    region = _box(chart.domain if region is None else region, chart.n, "region")
    analyses = [classify_point(chart, np.asarray(y, dtype=float), policy) for y in probes]
    covered = [blowup_case(chart.group, a) != "not_covered" for a in analyses]
    n_sigma = None
    if covering_delta is not None and any(covered):
        # the covering exponent is known before any work, so covers at delta
        # and delta/2 that cannot be measured in floats are refused now
        n_sigma = float(sampled_max_degree(chart, region, policy, strict=True))
        for delta in (covering_delta, covering_delta / 2.0):
            _cover_unit(delta, n_sigma)
    mu = intrinsic_measure(chart, region, seed=seed, policy=policy)
    verdicts: list[Verdict] = []
    betas: dict[str, Estimate] = {}
    thetas: dict[str, Estimate] = {}
    traces: dict[str, list[RadiusTracePoint]] = {}

    for idx, (y, analysis) in enumerate(zip(probes, analyses)):
        key = f"probe{idx}"
        y = np.asarray(y, dtype=float)
        if not covered[idx]:
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

        beta = spherical_factor(dist, analysis.htangent, seed=seed, policy=policy)
        theta, trace = federer_density(
            chart, dist, y, samples=samples, seed=seed, policy=policy
        )
        betas[key] = beta
        thetas[key] = theta
        traces[key] = trace

        # unit-tangent projection norm, recorded as a diagnostic; the blow-up
        # theorem gives theta = beta for the intrinsic measure (factor 1)
        jac = chart.jacobian(y)
        raw = projected_wedge_norms(chart.group, analysis.coeffs, analysis.degree)
        gram = float(np.sqrt(np.linalg.det(jac.T @ jac)))
        err = float(np.hypot(theta.stderr, beta.stderr))
        passed = abs(theta.value - beta.value) <= theta_tolerance * max(beta.value, 1e-12) + 3.0 * err
        verdicts.append(
            Verdict(
                name=f"theta-vs-beta:{key}",
                passed=bool(passed),
                advisory=False,
                lhs=theta.value,
                rhs=beta.value,
                tolerance=theta_tolerance,
                detail={
                    "density_factor": 1.0,
                    "unit_tangent_projection_norm": raw / gram,
                    "beta_method": beta.method,
                    "radius": theta.meta.get("radius"),
                },
            )
        )

    covering = None
    if n_sigma is not None:

        def cover(delta: float, cloud: int, last: int) -> Estimate:
            # the consistency band tolerates doubling the sample cloud up to
            # ``last``; the standalone estimator stays strict about CloudTooSparse
            while True:
                try:
                    return covering_estimate(
                        chart, dist, region, exponent=n_sigma, delta=delta, cloud_size=cloud, seed=seed,
                    )
                except CloudTooSparse:
                    if cloud >= last:
                        raise
                    cloud *= 2

        covering = cover(covering_delta, 4000, 4000 << 6)
        # a cloud and its spacing depend on (seed, size) alone, so a size too
        # sparse at delta is too sparse at delta/2: the delta/2 leg starts at
        # the size the delta leg accepted
        half = cover(covering_delta / 2.0, max(8000, covering.samples), 8000 << 6)
        beta_ref = next(iter(betas.values())).value
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
    """Membership-testable convex body with a Euclidean bounding radius.

    ``member(pts)`` takes points ``(..., ambient_dim)`` and returns a boolean
    array of their leading shape.  The bodies built here test their points
    column by column (see ``mc``), with the results of the row-wise formulas
    bit for bit.
    """

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


def _every_column(pts, test) -> np.ndarray:
    """Points ``(..., k)`` whose every column k passes ``test(column, k)``,
    one column at a time."""
    pts = np.asarray(pts)
    inside = test(pts[..., 0], 0)
    for k in range(1, pts.shape[-1]):
        inside &= test(pts[..., k], k)
    return inside


def _shifted(v: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``v + pts`` for points ``(count, q)``, one column at a time."""
    out = np.empty_like(pts)
    for k in range(len(v)):
        np.add(pts[:, k], v[k], out=out[:, k])
    return out


def box_body(halfwidths) -> ConvexBody:
    h = np.asarray(halfwidths, dtype=float)
    return ConvexBody(
        h.size,
        float(np.linalg.norm(h)) * 1.05,
        lambda pts: _every_column(pts, lambda x, k: np.abs(x) <= h[k]),
        "box",
    )


def ellipsoid_body(matrix) -> ConvexBody:
    m = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    return ConvexBody(
        m.shape[1],
        1.05 / float(s[-1]),
        lambda pts: np.sqrt(sum_of_squares(np.moveaxis(pts @ m.T, -1, 0))) <= 1.0,
        "ellipsoid",
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Counts of a concavity run.  A run that made no check is advisory,
    with the ``reason``, and does not pass."""

    segments: int
    checks: int
    violations: int
    skipped: int
    worst_deficit: float
    reason: str | None = None

    @property
    def advisory(self) -> bool:
        return self.reason is not None

    @property
    def passed(self) -> bool:
        return self.violations == 0 and not self.advisory

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "advisory": self.advisory}


def concavity_reason(orthogonal_dim: int, segments: int, checks: int) -> str | None:
    """Why a concavity run checked nothing, or None when it checked."""
    if checks:
        return None
    if orthogonal_dim == 0:
        return "the subspace has no orthogonal direction"
    if segments == 0:
        return "no segment had both end sections at the hit floor"
    return "no midpoint section reached the hit floor"


def section_concavity_check(
    body: ConvexBody,
    space: Subspace,
    segments: int = 200,
    samples: int = 20_000,
    seed: int = 0,
) -> ConcavityReport:
    """Check midpoint-type concavity of psi(v) = H^n(C ∩ (v+S))^(1/n) along
    random segments in the orthogonal parameter space.

    The ``samples`` points of the sections are drawn once per call (tag
    ``concavity-points``) and every section of every segment counts its hits
    on them (common random numbers).  A segment's five counts share one
    uniform draw, as they would with a draw per segment, so each segment's
    counts have the same joint distribution; the independent standard errors
    then overestimate the error of the concavity deficit.  What the shared
    set gives up is independence between segments, which no count of the
    report relies on: each check is judged within its own segment."""
    require_counts(segments=segments, samples=samples)
    basis = space.orthonormal_basis()
    n = space.dim
    q = body.ambient_dim
    u_full, _, _ = np.linalg.svd(np.hstack([basis, np.eye(q)]))
    perp = u_full[:, n:q] if n < q else np.zeros((q, 0))

    min_hits = 25

    def psi(hits: int) -> tuple[float, float] | None:
        if hits < min_hits:
            return None
        area = _section_estimate(hits, samples, n, body.radius, seed, None)
        val = area.value ** (1.0 / n)
        err = area.stderr / (n * area.value ** ((n - 1.0) / n))
        return val, err

    def shifted(v: np.ndarray):
        return lambda pts: body.member(_shifted(v, pts))

    rng = stream(seed, "concavity-segments")
    checks = violations = skipped = 0
    worst = 0.0
    done = 0
    attempts = 0
    shared = list(_section_points(basis, body.radius, samples, seed, "concavity-points") if perp.shape[1] else ())
    while perp.shape[1] and done < segments and attempts < 20 * segments:
        attempts += 1
        v = (rng.standard_normal(perp.shape[1]) * body.radius * 0.5) @ perp.T
        w = (rng.standard_normal(perp.shape[1]) * body.radius * 0.5) @ perp.T
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
        segments=done, checks=checks, violations=violations, skipped=skipped, worst_deficit=worst,
        reason=concavity_reason(perp.shape[1], done, checks),
    )


# ---------------------------------------------------------------------------
# Vertical translation invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranslationReport:
    """H^n(A) and H^n(p . A) for a box A of a vertical subgroup, and the
    largest |det DF - 1| of the map that carries A onto p . A.  The check
    passes when that is within the policy's rtol; ``reason`` says why not."""

    volume_before: Estimate
    volume_after: Estimate
    max_det_deviation: float
    passed: bool
    reason: str | None

    def as_dict(self) -> dict:
        volumes = {"volume_before": self.volume_before.as_dict(), "volume_after": self.volume_after.as_dict()}
        return {**asdict(self), **volumes}


def vertical_translation_check(
    group: GradedGroup,
    nspace: Subspace,
    p,
    box=None,
    samples: int = 100_000,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> TranslationReport:
    """Compare H^n(A) with H^n(p . A) for a box A inside a vertical subgroup
    N (vertical at ``policy.rtol``); p None is the identity.  In coordinates
    of the coset p . N, the translation is F(a) = P_N(p . a - P_V p), and
    H^n(p . A) = vol(A) * mean |det DF| over A by the area formula.  At step
    2, d/dt p . (a + t v) = v + [p, v]/2 does not depend on a, so DF is one
    exact matrix; at higher step det DF is evaluated at ``samples`` uniform
    points of A, one block at a time."""
    require_counts(samples=samples)
    n = nspace.dim
    box = _box(np.stack([-np.ones(n), np.ones(n)], axis=1) if box is None else box, n, "box")
    if not classify_subspace(group, nspace, policy.rtol).vertical:
        raise NotVertical("translation invariance requires a vertical subgroup")
    basis = nspace.orthonormal_basis()
    p = np.asarray(p if p is not None else np.zeros(group.q), dtype=float)

    def jacobian_dets(a: np.ndarray) -> np.ndarray:
        # row k of DF^T is P_N of d/dt p . (a + t b_k); step 2 drops a
        columns = group.product_derivative_y(p, (a @ basis.T)[:, None, :], basis.T)
        return np.linalg.det(columns @ basis).reshape(-1)

    if not np.any(p):
        dets = np.ones(1)  # left translation by the identity is the identity
    elif group.step == 2:
        dets = jacobian_dets(box.mean(axis=1)[None])
    else:
        dets = np.concatenate([*draw_blocks(
            lambda rng, count: jacobian_dets(box_points(box, rng.random((count, n)))), samples, seed, "translate-jacobian"
        )])
    dev = np.abs(dets) - 1.0
    worst = float(np.abs(dets - 1.0).max())
    vol = float(np.prod(box[:, 1] - box[:, 0]))
    before = Estimate(value=vol, stderr=0.0, samples=0, seed=seed, method="box-volume")
    rounding = n * group.q * float(np.finfo(float).eps)
    after = Estimate(
        vol * (1.0 + float(dev.mean())), vol * max(float(dev.std()) / sqrt(dets.size), rounding),
        samples=dets.size, seed=seed, method="jacobian-mean",
    )
    passed = worst <= policy.rtol
    reason = None if passed else f"max |det DF - 1| = {worst:.3g} exceeds rtol {policy.rtol:g}"
    return TranslationReport(before, after, max_det_deviation=worst, passed=passed, reason=reason)


# ---------------------------------------------------------------------------
# Beta constancy across a family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstancyReport:
    """Factors of a family and their largest pairwise z-score.  A family of
    one member compares no pair: the report is advisory and does not pass."""

    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    spread: float
    max_pairwise_z: float

    @property
    def reason(self) -> str | None:
        return "a single member compares no pair" if len(self.values) < 2 else None

    @property
    def advisory(self) -> bool:
        return self.reason is not None

    @property
    def passed(self) -> bool:
        return self.max_pairwise_z <= 3.0 and not self.advisory

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "advisory": self.advisory, "reason": self.reason}


def beta_constancy_check(
    dist: HomogeneousDistance,
    family: list[Subspace],
    samples: int = 200_000,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ConstancyReport:
    if not family:
        raise ValueError("the family is empty")
    require_counts(samples=samples)
    dims = {s.dim for s in family}
    if len(dims) != 1:
        raise ValueError("all family members must have the same dimension")
    estimates = [
        spherical_factor(dist, s, samples=samples, seed=seed + i, policy=policy)
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
        return {**asdict(self), "passed": self.passed}


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
    require_counts(resolution=resolution)
    q = group.q
    j0 = graph_coord - 1
    if not 0 <= j0 < q:
        raise LevelSetNotGraph(f"graph coordinate {graph_coord} out of range")
    domain = _box(np.reshape(domain, (q, 2)), q, "domain")
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

    # the level set at t is the chart at t = 0 shifted by t in coordinate j
    names = iter(f"y{k + 1}" for k in range(n))
    exprs = [f"({g_expr})" if i == j0 else next(names) for i in range(q)]
    chart = parse_parametrization("; ".join(exprs), n, sub_domain, group)

    def rhs_of_t(t: float) -> float:
        def integrand(ys: np.ndarray) -> np.ndarray:
            pts = chart.value(ys)
            pts[:, j0] += t
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
    return _grid_sum(fn, ys) * vol / len(ys)


def _grid_sum(fn, ys: np.ndarray) -> float:
    """The sum of ``fn`` over the rows of a grid ``ys``, ``BLOCK`` rows at a
    time, so that a fine grid's Jacobians are never held at once."""
    total = 0.0
    for lo in range(0, len(ys), BLOCK):
        total += float(np.sum(fn(ys[lo : lo + BLOCK])))
    return total
