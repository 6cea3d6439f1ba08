"""Test oracles for ``nilgeom.measure``.

The projected-wedge route to the hypersurface density cross-checks
``hypersurface_density`` (the unit-normal route).  The draw-per-call section
area, concavity and translation loops redraw every block for every volume
and take the group product at every centre; the production estimators share
each block and skip the identity product, and must agree with them bit for
bit.
"""
from __future__ import annotations

import numpy as np

from nilgeom.errors import DegenerateTangent, EmptySection
from nilgeom.mc import Estimate, blocks, hit_fraction_estimate, stream, uniform_ball, uniform_box
from nilgeom.measure import (
    ConcavityReport,
    TranslationReport,
    projected_wedge_norms,
    unit_ball_volume,
)
from nilgeom.metrics import ball_bounding_radius


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


def _hits(draw, member, samples, seed, tag) -> int:
    return sum(
        int(np.sum(member(draw(stream(seed, tag, b), count)))) for b, count in blocks(samples)
    )


def section_area_per_call(dist, space, u, samples=200_000, seed=0, tag="section", radius_hint=None):
    """``section_area`` with membership ``||u^-1 . x|| <= 1`` through the
    group product at every centre.  The bounding radius still comes from
    ``ball_bounding_radius``; its identity-centre distances are checked
    against the product in ``tests/test_metrics.py``."""
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
    g = dist.group
    hits = _hits(
        lambda rng, count: uniform_ball(rng, n, count, radius) @ basis.T,
        lambda pts: dist.norm(g.product(g.inverse(u), pts)) <= 1.0 + 1e-14,
        samples,
        seed,
        f"{tag}:{np.round(u, 12).tobytes().hex()}",
    )
    return hit_fraction_estimate(
        hits, samples, unit_ball_volume(n, radius), seed, "mc-section", {"radius": radius}
    )


def concavity_per_call(body, space, segments=200, samples=20_000, seed=0) -> ConcavityReport:
    """``section_concavity_check`` drawing each section's blocks anew."""
    basis = space.orthonormal_basis()
    n = space.dim
    q = body.ambient_dim
    u_full, _, _ = np.linalg.svd(np.hstack([basis, np.eye(q)]))
    perp = u_full[:, n:q] if n < q else np.zeros((q, 0))

    def psi(v, tag):
        hits = _hits(
            lambda rng, count: v[None, :] + uniform_ball(rng, n, count, body.radius) @ basis.T,
            body.member,
            samples,
            seed,
            f"concavity:{tag}",
        )
        if hits < 25:
            return None
        area = hit_fraction_estimate(hits, samples, unit_ball_volume(n, body.radius), seed, "mc-section")
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
        tag = f"seg{attempts}"
        ends = psi(v, tag), psi(w, tag)
        if ends[0] is None or ends[1] is None:
            continue
        done += 1
        for theta in (0.25, 0.5, 0.75):
            mid = psi(theta * v + (1 - theta) * w, tag)
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
        segments=done, checks=checks, violations=violations, skipped=skipped, worst_deficit=worst
    )


def translation_per_call(group, nspace, p, box=None, samples=100_000, seed=0) -> TranslationReport:
    """``vertical_translation_check`` drawing the uniforms of each volume
    anew (vertical subgroups only)."""
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
        dense = uniform_box(stream(seed, "translate-bounds"), box, 4096)
        image = (group.product(p, dense @ basis.T) - v_part) @ basis
        lo, hi = image.min(axis=0), image.max(axis=0)
        margin = 0.05 * (hi - lo) + 1e-9
        image_box = np.stack([lo - margin, hi + margin], axis=1)

    def mc_volume(target_box, member):
        hits = _hits(
            lambda rng, count: uniform_box(rng, target_box, count), member, samples, seed, "translate-mc"
        )
        vol = float(np.prod(target_box[:, 1] - target_box[:, 0]))
        return hit_fraction_estimate(hits, samples, vol, seed, "mc-box")

    def in_image(zeta):
        back = group.product(group.inverse(p), v_part[None, :] + zeta @ basis.T)
        return in_a(back @ basis)

    before = mc_volume(box, in_a)
    after = mc_volume(image_box, in_image)
    passed = abs(before.value - after.value) <= 3.0 * float(np.hypot(before.stderr, after.stderr)) + 1e-12
    return TranslationReport(volume_before=before, volume_after=after, passed=passed)
