"""Test oracles for ``nilgeom.measure``.

The projected-wedge route to the hypersurface density cross-checks
``hypersurface_density`` (the unit-normal route).  The full-scan cover
measures every probe's spacing and every new centre's distances over the
whole cloud, one centre at a time (``farthest_point_loop``);
``covering_estimate`` evaluates only the points of each probe's and
centre's candidate box, a batch of centres at a time, and must give the
same estimate or the same error, and ``measure._farthest_point_net`` the
same centres and distances.  The full-window Federer density takes the
intrinsic density and every centre's distances on every window sample;
``federer_density`` takes them only where a ball can reach, and must give
the same estimate and trace or the same error.  The full-scan ball query
(``within_full_scan``) takes the distance on every point; ``measure._within``
takes it only on the points of the centre's coordinate box, and must return
the same positions, so that a spherical-factor search patched onto the full
scan makes the same steps.  The draw-per-call section
area and concavity loops redraw every block for every volume and take the
group product at every centre; the production estimators share each block
and skip the identity product, and must agree with them bit for bit.  The
hit-or-miss translation volumes measure H^n(p . A) with no Jacobian, and
``vertical_translation_check`` must agree with them within their
Monte-Carlo error; taken one point and one derivative call at a time, its
Jacobian route must give the same report bit for bit.  The per-block
intrinsic Monte-Carlo loop and the chunked midpoint sums
(``intrinsic_mc_per_block``, ``intrinsic_tensor_chunked``,
``box_midpoint_chunked``) are the grid and sample sums of
``intrinsic_measure`` and ``coarea_check`` as plain loops, and must agree
with them bit for bit.  Every oracle here draws with the row-wise samplers of
``oracles.mc``, shifts points by broadcasting (``shift_rows``), and is
given bodies whose members are the row-wise box and ellipsoid formulas
(``box_body_rows``, ``ellipsoid_body_rows``), so a bit that the library's
column-wise kernels moved would show.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from nilgeom.errors import BoundaryTooClose, CloudTooSparse, DegenerateTangent, EmptySection, RadiusTooSmall
from nilgeom.manifold import cell_centers, classify_point, degree_echelon
from nilgeom.mc import Estimate, blocks, stream
from nilgeom.measure import (
    ConcavityReport,
    ConvexBody,
    RadiusTracePoint,
    TranslationReport,
    box_body,
    concavity_reason,
    covering_estimate,
    ellipsoid_body,
    intrinsic_density,
    projected_wedge_norms,
    unit_ball_volume,
)
from nilgeom.metrics import ball_bounding_radius
from nilgeom.policy import DEFAULT_POLICY

from .mc import uniform_ball_rows, uniform_box_rows


def shift_rows(v: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``v`` added to every point ``(count, q)`` by broadcasting."""
    return v[None, :] + pts


def box_body_rows(halfwidths) -> ConvexBody:
    """``box_body`` whose member reduces over each point's coordinates."""
    h = np.asarray(halfwidths, dtype=float)
    body = box_body(h)
    return ConvexBody(body.ambient_dim, body.radius, lambda pts: np.all(np.abs(pts) <= h, axis=-1), body.label)


def ellipsoid_body_rows(matrix) -> ConvexBody:
    """``ellipsoid_body`` whose member takes ``np.linalg.norm`` of each point."""
    m = np.asarray(matrix, dtype=float)
    body = ellipsoid_body(m)
    return ConvexBody(
        body.ambient_dim, body.radius, lambda pts: np.linalg.norm(pts @ m.T, axis=-1) <= 1.0, body.label
    )


def hypersurface_density_multivector(chart, y) -> float:
    """Spherical-measure density of a hypersurface as the norm of the
    top-degree projection of its unit tangent n-vector."""
    group = chart.group
    p = chart.value(y)
    jac = chart.jacobian(y)
    coeffs = group.frame_coefficients(p, jac)
    raw = projected_wedge_norms(group, coeffs, group.hom_dimension - 1)
    gram = float(np.sqrt(max(np.linalg.det(jac.T @ jac), 0.0)))
    if gram == 0.0:
        raise DegenerateTangent("tangent map is rank deficient")
    return raw / gram


def hit_fraction(hits, total, volume, seed, method, meta=None) -> Estimate:
    """``volume`` times the fraction of ``total`` points hit, with binomial
    standard error."""
    p = hits / total
    stderr = volume * float(np.sqrt(max(p * (1.0 - p), 0.0) / total))
    return Estimate(value=volume * p, stderr=stderr, samples=total, seed=seed, method=method, meta=meta or {})


def _hits(draw, member, samples, seed, tag) -> int:
    return sum(
        int(np.sum(member(draw(stream(seed, tag, b), count)))) for b, count in blocks(samples)
    )


def section_area_per_call(dist, space, u, samples=200_000, seed=0, tag="section"):
    """``section_area`` with membership ``||u^-1 . x|| <= 1`` through the
    group product at every centre.  The bounding radius still comes from
    ``ball_bounding_radius``; its identity-centre distances are checked
    against the product in ``tests/test_metrics.py``."""
    u = np.asarray(u, dtype=float)
    n = space.dim
    try:
        radius = ball_bounding_radius(dist, space, u)
    except EmptySection:
        return Estimate(0.0, 0.0, 0, seed, "empty-section")
    basis = space.orthonormal_basis()
    g = dist.group
    hits = _hits(
        lambda rng, count: uniform_ball_rows(rng, n, count, radius) @ basis.T,
        lambda pts: dist.norm(g.product(g.inverse(u), pts)) <= 1.0 + 1e-14,
        samples,
        seed,
        f"{tag}:{(np.round(u, 12) + 0.0).tobytes().hex()}",
    )
    return hit_fraction(
        hits, samples, unit_ball_volume(n, radius), seed, "mc-section", {"radius": radius}
    )


def concavity_per_call(body, space, segments=200, samples=20_000, seed=0) -> ConcavityReport:
    """``section_concavity_check`` drawing the call's ``concavity-points``
    blocks anew for every section."""
    basis = space.orthonormal_basis()
    n = space.dim
    q = body.ambient_dim
    u_full, _, _ = np.linalg.svd(np.hstack([basis, np.eye(q)]))
    perp = u_full[:, n:q] if n < q else np.zeros((q, 0))

    def psi(v):
        hits = _hits(
            lambda rng, count: shift_rows(v, uniform_ball_rows(rng, n, count, body.radius) @ basis.T),
            body.member,
            samples,
            seed,
            "concavity-points",
        )
        if hits < 25:
            return None
        area = hit_fraction(hits, samples, unit_ball_volume(n, body.radius), seed, "mc-section")
        return area.value ** (1.0 / n), area.stderr / (n * area.value ** ((n - 1.0) / n))

    rng = stream(seed, "concavity-segments")
    checks = violations = skipped = 0
    worst = 0.0
    done = attempts = 0
    while done < segments and attempts < 20 * segments:
        attempts += 1
        if perp.shape[1] == 0:
            break
        v = (rng.standard_normal(perp.shape[1]) * body.radius * 0.5) @ perp.T
        w = (rng.standard_normal(perp.shape[1]) * body.radius * 0.5) @ perp.T
        ends = psi(v), psi(w)
        if ends[0] is None or ends[1] is None:
            continue
        done += 1
        for theta in (0.25, 0.5, 0.75):
            mid = psi(theta * v + (1 - theta) * w)
            if mid is None:
                skipped += 1
                continue
            checks += 1
            bound = theta * ends[0][0] + (1 - theta) * ends[1][0]
            err = float(
                np.sqrt(mid[1] ** 2 + (theta * ends[0][1]) ** 2 + ((1 - theta) * ends[1][1]) ** 2)
            )
            deficit = bound - mid[0]
            if deficit > 3.0 * err:
                violations += 1
                worst = max(worst, deficit / max(err, 1e-300))
    return ConcavityReport(
        segments=done, checks=checks, violations=violations, skipped=skipped, worst_deficit=worst,
        reason=concavity_reason(perp.shape[1], done, checks),
    )


def translation_per_call(group, nspace, p, box=None, samples=100_000, seed=0) -> tuple[Estimate, Estimate]:
    """H^n(A) and H^n(p . A) for a box A of a vertical subgroup as two
    hit-or-miss volumes, each on uniforms drawn anew: the second counts the
    points of a bounding box of the image whose translate by p^-1 lies in A."""
    basis = nspace.orthonormal_basis()
    n = nspace.dim
    box = np.asarray(box if box is not None else np.stack([-np.ones(n), np.ones(n)], axis=1), dtype=float)
    p = np.asarray(p, dtype=float)
    v_part = p - basis @ (basis.T @ p)

    def in_a(zeta):
        return np.all((zeta >= box[:, 0]) & (zeta <= box[:, 1]), axis=-1)

    if not np.any(p):
        image_box = box
    else:
        dense = uniform_box_rows(stream(seed, "translate-bounds"), box, 4096)
        image = (group.product(p, dense @ basis.T) - v_part) @ basis
        lo, hi = image.min(axis=0), image.max(axis=0)
        margin = 0.05 * (hi - lo) + 1e-9
        image_box = np.stack([lo - margin, hi + margin], axis=1)

    def mc_volume(target_box, member):
        hits = _hits(
            lambda rng, count: uniform_box_rows(rng, target_box, count), member, samples, seed, "translate-mc"
        )
        vol = float(np.prod(target_box[:, 1] - target_box[:, 0]))
        return hit_fraction(hits, samples, vol, seed, "mc-box")

    def in_image(zeta):
        back = group.product(group.inverse(p), shift_rows(v_part, zeta @ basis.T))
        return in_a(back @ basis)

    return mc_volume(box, in_a), mc_volume(image_box, in_image)


def translation_jacobian_per_call(group, nspace, p, box=None, samples=100_000, seed=0, policy=DEFAULT_POLICY):
    """``vertical_translation_check`` one point and one derivative call at a
    time: row k of DF^T at a point a is P_N of d/dt p . (a + t b_k), taken
    by its own ``product_derivative_y`` call.  The points are the box centre
    at step 2 and each block's uniforms drawn anew at higher step."""
    basis = nspace.orthonormal_basis()
    n = nspace.dim
    box = np.asarray(box if box is not None else np.stack([-np.ones(n), np.ones(n)], axis=1), dtype=float)
    p = np.asarray(p, dtype=float)

    def det_at(a):
        rows = np.stack([group.product_derivative_y(p, basis @ a, b) for b in basis.T])
        return float(np.linalg.det(rows @ basis))

    if not np.any(p):
        dets = np.ones(1)
    elif group.step == 2:
        dets = np.array([det_at(box.mean(axis=1))])
    else:
        dets = np.array([
            det_at(a)
            for b, count in blocks(samples)
            for a in uniform_box_rows(stream(seed, "translate-jacobian", b), box, count)
        ])
    dev = np.abs(dets) - 1.0
    worst = float(np.abs(dets - 1.0).max())
    vol = float(np.prod(box[:, 1] - box[:, 0]))
    rounding = n * group.q * float(np.finfo(float).eps)
    after = Estimate(
        vol * (1.0 + float(dev.mean())), vol * max(float(dev.std()) / np.sqrt(dets.size), rounding),
        samples=dets.size, seed=seed, method="jacobian-mean",
    )
    passed = worst <= policy.rtol
    return TranslationReport(
        Estimate(value=vol, stderr=0.0, samples=0, seed=seed, method="box-volume"), after,
        max_det_deviation=worst, passed=passed,
        reason=None if passed else f"max |det DF - 1| = {worst:.3g} exceeds rtol {policy.rtol:g}",
    )


def farthest_point_loop(dist, cloud, radius):
    """The farthest-point net one centre at a time, each over the whole
    cloud: the centres' indices and every point's distance to its nearest
    centre."""
    dist_to_centers = np.asarray(dist.distance(cloud[0], cloud))
    centres = [0]
    while True:
        idx = int(np.argmax(dist_to_centers))
        if dist_to_centers[idx] <= radius:
            return np.array(centres), dist_to_centers
        centres.append(idx)
        dist_to_centers = np.minimum(dist_to_centers, np.asarray(dist.distance(cloud[idx], cloud)))


def covering_full_scan(chart, dist, region, exponent, delta, cloud_size=4000, seed=0) -> Estimate:
    """``covering_estimate`` with every probe scanned over the whole cloud."""
    region = np.asarray(region, dtype=float)
    rng = stream(seed, "cover-cloud")
    cloud = chart.value(uniform_box_rows(rng, region, cloud_size))
    probe = cloud[rng.choice(cloud_size, size=min(256, cloud_size), replace=False)]
    nn = np.full(len(probe), np.inf)
    for lo in range(0, cloud_size, 1 << 12):
        d = np.asarray(dist.distance(probe[:, None, :], cloud[None, lo : lo + (1 << 12), :]))
        d[d == 0.0] = np.inf
        nn = np.minimum(nn, d.min(axis=1))
    if float(np.max(nn)) > delta / 4.0:
        raise CloudTooSparse(f"cloud spacing {float(np.max(nn)):.3g} exceeds delta/4 = {delta / 4:.3g}")
    radius = delta / 2.0
    count = len(farthest_point_loop(dist, cloud, radius)[0])
    return Estimate(
        count * radius**exponent, 0.0, cloud_size, seed, "greedy-cover",
        {"delta": delta, "balls": count, "upper_proxy": True},
    )


def cover_leg_from(chart, dist, region, exponent, delta, first, seed=0) -> tuple[Estimate, int]:
    """A covering leg of ``area_check`` by plain doubling from ``first``:
    ``covering_estimate`` at ``first``, twice that, ... up to ``first << 6``,
    the first cloud dense enough; the estimate and the number of calls."""
    for attempt in range(7):
        size = first << attempt
        try:
            return covering_estimate(chart, dist, region, exponent, delta, size, seed), attempt + 1
        except CloudTooSparse:
            if attempt == 6:
                raise


def _window_per_face(chart, y0, p, dist, radius, exponents):
    """``_parameter_window`` building the face grid for every axis, sign and
    growth step."""
    rho = 2.5 * radius ** exponents.astype(float)
    lo_dom, hi_dom = chart.domain[:, 0], chart.domain[:, 1]
    for _ in range(80):
        boundary = []
        for axis in range(chart.n):
            for sign in (-1.0, 1.0):
                face = np.linspace(-1.0, 1.0, 5)
                grid = np.stack(np.meshgrid(*[face] * chart.n, indexing="ij"), axis=-1).reshape(-1, chart.n)
                grid[:, axis] = sign
                boundary.append(y0 + grid * rho)
        bpts = np.vstack(boundary)
        if np.any(bpts < lo_dom) or np.any(bpts > hi_dom):
            raise BoundaryTooClose(f"radius {radius} needs a parameter window leaving the chart domain")
        vals = dist.distance(p, chart.value(bpts))
        if np.all(vals > 2.0 * radius):
            return rho
        rho = rho * 1.5
    raise BoundaryTooClose("parameter window would not close around the metric ball")


def within_full_scan(dist, reach, columns, center, radius) -> np.ndarray:
    """``measure._within`` with the distance taken on every column: the
    positions of the coordinate-first ``columns`` at most ``radius`` from
    ``center``; ``reach`` is not read."""
    return np.flatnonzero(np.asarray(dist.distance(center, columns.T)) <= radius)


def federer_full_window(chart, dist, y0, radii=None, centers_per_radius=8, samples=40_000, seed=0,
                        policy=DEFAULT_POLICY, flat_window=5):
    """``federer_density`` with the intrinsic density and every centre's
    distances taken on the whole window, the leading window searched anew
    for the first radius, and the exponents from a frame solve and echelon
    of its own, not the pivots that ``classify_point`` carries."""
    y0 = np.asarray(y0, dtype=float)
    analysis = classify_point(chart, y0, policy)
    n_deg = analysis.degree
    p = analysis.p
    group = chart.group
    coeffs = group.frame_coefficients(p, chart.jacobian(y0))
    ech = degree_echelon(group, coeffs, policy)
    exponents = np.array([group.degrees[r] for r in ech.pivots], dtype=float)

    if radii is None:
        r0 = 0.5
        while r0 > 1e-4:
            try:
                _window_per_face(chart, y0, p, dist, r0, exponents)
                break
            except BoundaryTooClose:
                r0 *= 0.5
        else:
            raise BoundaryTooClose("no workable leading radius at this probe")
        radii = [r0 * 2.0 ** (-k) for k in range(10)]
    radii = sorted((float(r) for r in radii), reverse=True)

    trace = []
    for k, r in enumerate(radii):
        rho = _window_per_face(chart, y0, p, dist, r, exponents)
        window = np.stack([y0 - rho, y0 + rho], axis=1)
        vol = float(np.prod(window[:, 1] - window[:, 0]))
        rng = stream(seed, f"federer:{k}")
        ys = uniform_box_rows(rng, window, samples)
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
            ratio = vol * mean / r**n_deg
            err = vol * float(np.sqrt(var / samples)) / r**n_deg
            if best is None or ratio > best[0]:
                best = (ratio, err, hits)
        if best[2] < 100:
            raise RadiusTooSmall(f"only {best[2]} Monte-Carlo hits at radius {r}; increase samples")
        trace.append(RadiusTracePoint(r, *best))

    chosen = trace[-1]
    flat_found = False
    for k in range(len(trace) - 1, flat_window - 2, -1):
        window_pts = trace[k - flat_window + 1 : k + 1]
        ref = window_pts[-1]
        if all(abs(t.ratio - ref.ratio) <= 3.0 * float(np.hypot(t.stderr, ref.stderr)) for t in window_pts):
            chosen, flat_found = ref, True
            break
    meta = {"radius": chosen.radius, "degree": n_deg, "flat_window_found": flat_found,
            "classification": analysis.classification}
    return Estimate(chosen.ratio, chosen.stderr, samples, seed, "federer-flat-radius", meta), trace


def intrinsic_mc_per_block(chart, region, samples, seed, degree) -> Estimate:
    """``intrinsic_measure(quadrature="mc")`` at a given degree, drawing each
    block on its own ``intrinsic-mc`` stream in a plain loop."""
    region = np.asarray(region, dtype=float)
    volume = float(np.prod(region[:, 1] - region[:, 0]))
    total = totalsq = 0.0
    count = 0
    for b, cnt in blocks(samples):
        vals = intrinsic_density(chart, uniform_box_rows(stream(seed, "intrinsic-mc", b), region, cnt), degree)
        total += float(np.sum(vals))
        totalsq += float(np.sum(vals * vals))
        count += cnt
    mean = total / count
    var = max(totalsq / count - mean * mean, 0.0)
    return Estimate(volume * mean, volume * float(np.sqrt(var / count)), count, seed, "mc", {"degree": degree})


def chunked_sum(fn, ys) -> float:
    """The sum of ``fn`` over the rows of ``ys``, 16,384 rows at a time."""
    total = 0.0
    for lo in range(0, len(ys), 1 << 14):
        total += float(np.sum(fn(ys[lo : lo + (1 << 14)])))
    return total


def intrinsic_tensor_chunked(chart, region, resolution, degree, seed=0) -> Estimate:
    """``intrinsic_measure``'s tensor route at a given degree, each midpoint
    rule summed by ``chunked_sum``."""
    region = np.asarray(region, dtype=float)
    volume = float(np.prod(region[:, 1] - region[:, 0]))
    n = chart.n

    density = partial(intrinsic_density, chart, target_degree=degree)

    def midpoint(res):
        cell = volume / res**n
        return chunked_sum(density, cell_centers(region, [res] * n)) * cell

    coarse, fine = midpoint(max(resolution // 2, 1)), midpoint(resolution)
    meta = {"degree": degree, "coarse": coarse, "fine": fine, "richardson_delta": abs(fine - coarse) / 3.0}
    samples = resolution**n + max(resolution // 2, 1) ** n
    return Estimate(fine + (fine - coarse) / 3.0, 0.0, samples, seed, "tensor-midpoint-richardson", meta)


def box_midpoint_chunked(fn, box, per_axis) -> float:
    """``measure._box_midpoint``: the midpoint rule of ``fn`` on a grid of
    ``max(2, per_axis)`` cells per axis of ``box``, summed by ``chunked_sum``."""
    ys = cell_centers(box, [max(2, per_axis)] * box.shape[0])
    return chunked_sum(fn, ys) * float(np.prod(box[:, 1] - box[:, 0])) / len(ys)
