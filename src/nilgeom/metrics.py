"""Explicitly evaluable homogeneous distances and their empirical validation.

All catalog kinds are multiradial: the norm is a coercive function
``phi(|x_1|, ..., |x_iota|)`` of the per-layer Euclidean magnitudes, monotone
nondecreasing in each and 1-homogeneous under the intrinsic dilations.
Homogeneity and inversion symmetry then hold by construction; the triangle
inequality is validated by seeded sampling (necessary, not sufficient) and
the box weights can be calibrated layer by layer on quotient groups.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import GradedGroup, Subspace, load_group
from .errors import BadDimensions, CalibrationFailed, EmptySection
from .exprparse import is_monotone_safe, parse_expression
from .mc import stream
from .optimize import bisect_largest_passing, nelder_mead

TRIANGLE_SLACK = 1e-12


@dataclass(frozen=True)
class HomogeneousDistance:
    """Homogeneous norm/distance on a graded group.

    ``phi`` maps an (..., iota) array of layer magnitudes to norms.
    ``convex_ball``: True/False when known, None when undetermined.
    """

    group: GradedGroup
    kind: str
    params: tuple[float, ...]
    phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    convex_ball: bool | None = None
    multiradial: bool = True

    @property
    def n_vertically_symmetric(self) -> bool:
        """Declared metadata, never inferred: multiradial distances are
        n-vertically symmetric for every n."""
        return self.multiradial

    def layer_magnitudes(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mags = [
            np.linalg.norm(x[..., self.group.layer_slice(j)], axis=-1)
            for j in range(1, self.group.step + 1)
        ]
        return np.stack(mags, axis=-1)

    def norm(self, x) -> np.ndarray:
        return self.phi(self.layer_magnitudes(x))

    def distance(self, x, y) -> np.ndarray:
        """d(x, y) = ||x^-1 . y||; left invariant by construction.

        At the identity centre (every entry of x zero) and finite y the
        product is skipped: 0^-1 . y equals y up to the signs of zeros, which
        no norm sees.  A non-finite y takes the product, where 0 * inf
        makes nan.
        """
        g = self.group
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.any(x) and np.all(np.isfinite(y)):
            g._check_dim(x)
            g._check_dim(y)
            return self.norm(np.broadcast_to(y, np.broadcast_shapes(x.shape, y.shape)))
        return self.norm(g.product(g.inverse(x), y))

    def ball_contains(self, center, x, radius: float = 1.0) -> np.ndarray:
        return self.distance(center, x) <= radius * (1.0 + 1e-14)

    def unit_normalize(self, x) -> np.ndarray:
        """Dilate x onto the unit sphere of the norm."""
        x = np.asarray(x, dtype=float)
        n = np.asarray(self.norm(x))
        factor = 1.0 / np.where(n == 0, 1.0, n)
        return x * factor[..., None] ** self.group.degrees


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def box_distance(group: GradedGroup, epsilons) -> HomogeneousDistance:
    """Box norm max_j eps_j |x_j|^(1/j); the unit ball is a product of
    per-layer Euclidean balls, hence convex."""
    eps = np.asarray(epsilons, dtype=float).reshape(-1)
    if eps.size != group.step or np.any(eps <= 0):
        raise BadDimensions(
            f"box distance needs {group.step} positive weights, got {epsilons!r}"
        )
    powers = 1.0 / np.arange(1, group.step + 1)

    def phi(mags: np.ndarray) -> np.ndarray:
        return np.max(eps * mags**powers, axis=-1)

    return HomogeneousDistance(
        group=group, kind="box", params=tuple(float(e) for e in eps), phi=phi, convex_ball=True
    )


def euclidean_ball_distance(group: GradedGroup, radius: float) -> HomogeneousDistance:
    """Homogeneous norm whose unit ball is the Euclidean ball of the given
    (suitably small) radius: ||x|| solves |delta_{1/r} x| = radius."""
    if radius <= 0:
        raise BadDimensions("euclidean_ball radius must be positive")
    r0 = float(radius)
    iota = group.step
    js = np.arange(1, iota + 1, dtype=float)

    def phi(mags: np.ndarray) -> np.ndarray:
        mags = np.asarray(mags, dtype=float)
        flat = mags.reshape(-1, iota)
        out = np.zeros(flat.shape[0])
        active = np.any(flat > 0, axis=1)
        if np.any(active):
            t = flat[active]
            # bracket: largest single-layer bound below, sqrt(iota)-inflated above
            lo = np.max((t / r0) ** (1.0 / js) / np.sqrt(iota) ** (1.0 / js), axis=1)
            hi = np.max((np.sqrt(iota) * t / r0) ** (1.0 / js), axis=1)
            lo = np.minimum(lo, hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                f = np.sum((t / mid[:, None] ** js) ** 2, axis=1) - r0 * r0
                too_small = f > 0
                lo = np.where(too_small, mid, lo)
                hi = np.where(too_small, hi, mid)
            out[active] = 0.5 * (lo + hi)
        return out.reshape(mags.shape[:-1])

    return HomogeneousDistance(
        group=group, kind="euclidean_ball", params=(r0,), phi=phi, convex_ball=True
    )


def cygan_koranyi_distance(group: GradedGroup) -> HomogeneousDistance:
    """Cygan-Koranyi norm (|x_1|^4 + c |x_2|^2)^(1/4) on a step-2 group whose
    bracket is H-type up to a uniform scale s (J_z^2 = -s^2 |z|^2 Id); the
    weight c = 16 / s^2 makes the triangle inequality hold."""
    if group.step != 2:
        raise BadDimensions("cygan_koranyi requires a step-2 group")
    s2 = _h_type_scale_squared(group)
    c = 16.0 / s2

    def phi(mags: np.ndarray) -> np.ndarray:
        return (mags[..., 0] ** 4 + c * mags[..., 1] ** 2) ** 0.25

    return HomogeneousDistance(
        group=group, kind="cygan_koranyi", params=(c,), phi=phi, convex_ball=True
    )


def _h_type_scale_squared(group: GradedGroup) -> float:
    """The constant s^2 with J_z^2 = -s^2 |z|^2 Id, or raise BadDimensions."""
    m, k = group.layers[0], group.layers[1]
    jmats = np.zeros((k, m, m))
    for (i, j), vec in group.bracket_table().items():
        if j >= m:
            raise BadDimensions("bracket sources outside the first layer are not H-type")
        for a in range(k):
            jmats[a, j, i] += vec[m + a]
            jmats[a, i, j] -= vec[m + a]
    s2 = None
    for a in range(k):
        for b in range(a, k):
            anti = jmats[a] @ jmats[b] + jmats[b] @ jmats[a]
            if a == b:
                diag = -anti[0, 0] / 2.0
                if diag <= 0 or np.max(np.abs(anti + 2.0 * diag * np.eye(m))) > 1e-9 * max(diag, 1.0):
                    raise BadDimensions("group bracket is not H-type up to scale")
                if s2 is None:
                    s2 = diag
                elif abs(diag - s2) > 1e-9 * s2:
                    raise BadDimensions("H-type scale differs across the second layer")
            elif np.max(np.abs(anti)) > 1e-9 * max(s2 or 1.0, 1.0):
                raise BadDimensions("J maps do not anticommute; not H-type")
    if s2 is None:
        raise BadDimensions("no second-layer bracket entries found")
    return float(s2)


def multiradial_distance(group: GradedGroup, phi_expr: str) -> HomogeneousDistance:
    """Multiradial norm from an expression in t1..t_iota (layer magnitudes).

    The expression is restricted to monotone-safe constructs (+, *, max,
    positive constants, positive powers); 1-homogeneity under the intrinsic
    dilations and coercivity are verified on samples at 1e-12.
    """
    variables = [f"t{j}" for j in range(1, group.step + 1)]
    node = parse_expression(phi_expr, variables)
    if not is_monotone_safe(node):
        raise BadDimensions(
            "phi expression uses constructs outside the monotone-safe grammar "
            "(+, *, max, positive constants, positive powers)"
        )

    def phi(mags: np.ndarray) -> np.ndarray:
        return node.eval(np.asarray(mags, dtype=float))

    rng = stream(0, f"phi-check:{phi_expr}")
    t = rng.random((64, group.step)) * 2.0
    js = np.arange(1, group.step + 1, dtype=float)
    for r in (0.25, 0.5, 2.0, 3.0):
        lhs = phi(t * r**js)
        rhs = r * phi(t)
        if np.max(np.abs(lhs - rhs)) > 1e-12 * max(1.0, float(np.max(np.abs(rhs)))):
            raise BadDimensions(
                f"phi expression is not 1-homogeneous under dilations: {phi_expr!r}"
            )
    unit = np.eye(group.step)
    if np.any(phi(unit) <= 0):
        raise BadDimensions("phi must be positive on each layer axis (coercivity)")
    return HomogeneousDistance(
        group=group,
        kind="multiradial",
        params=(),
        phi=phi,
        convex_ball=None,
    )


_DISTANCE_KEYS = {"kind", "params", "phi", "phi_expr", "seed"}


def distance_from_spec(group: GradedGroup, spec: dict) -> HomogeneousDistance:
    """Build a distance from a {kind, params?, phi?} block."""
    unknown = set(spec) - _DISTANCE_KEYS
    if unknown:
        raise BadDimensions(f"unknown distance keys: {sorted(unknown)}")
    kind = spec.get("kind")
    if kind == "box":
        params = spec.get("params")
        if params is None:
            params = calibrate_box(group, samples=20000, seed=int(spec.get("seed", 0))).epsilons
        return box_distance(group, params)
    if kind == "euclidean_ball":
        return euclidean_ball_distance(group, float(spec.get("params", [0.5])[0]))
    if kind == "cygan_koranyi":
        return cygan_koranyi_distance(group)
    if kind == "multiradial":
        expr = spec.get("phi", spec.get("phi_expr"))
        if expr is None:
            raise BadDimensions("multiradial distance needs a 'phi' expression")
        return multiradial_distance(group, expr)
    raise BadDimensions(f"unknown distance kind {kind!r}")


# ---------------------------------------------------------------------------
# Axiom verification and calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    triangle_violations: int
    worst_ratio: float
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.triangle_violations == 0

    def as_dict(self) -> dict:
        return {
            "triangle_violations": self.triangle_violations,
            "worst_ratio": self.worst_ratio,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }


def verify_distance_axioms(
    dist: HomogeneousDistance, samples: int = 20000, seed: int = 0
) -> AxiomReport:
    """Sampled triangle-inequality check; homogeneity reduces general pairs to
    pairs with ||x|| + ||y|| = 1.  Necessary, not sufficient."""
    g = dist.group
    rng = stream(seed, f"axioms:{dist.kind}:{dist.params}")
    worst = 0.0
    violations = 0
    remaining = samples
    while remaining > 0:
        count = min(remaining, 1 << 15)
        remaining -= count
        x = dist.unit_normalize(rng.standard_normal((count, g.q)))
        y = dist.unit_normalize(rng.standard_normal((count, g.q)))
        lam = rng.random(count)
        xs = _dilate_rows(g, lam, x)
        ys = _dilate_rows(g, 1.0 - lam, y)
        ratios = dist.norm(g.product(xs, ys))
        worst = max(worst, float(np.max(ratios)))
        violations += int(np.sum(ratios > 1.0 + TRIANGLE_SLACK))
    return AxiomReport(
        triangle_violations=violations, worst_ratio=worst, samples=samples, seed=seed
    )


def _dilate_rows(group: GradedGroup, factors: np.ndarray, points: np.ndarray) -> np.ndarray:
    return points * factors[:, None] ** group.degrees[None, :]


@dataclass(frozen=True)
class BoxCalibration:
    epsilons: tuple[float, ...]
    samples: int
    seed: int
    report: AxiomReport


def _quotient_group(group: GradedGroup, step: int) -> GradedGroup:
    """Quotient by the layers above `step` (they form an ideal)."""
    if step == group.step:
        return group
    q_new = int(np.sum(group.layers[:step]))
    brackets = []
    for (i, j), vec in group.bracket_table().items():
        if i >= q_new or j >= q_new:
            continue
        for k in np.nonzero(vec)[0]:
            if k < q_new:
                brackets.append([i + 1, j + 1, int(k) + 1, float(vec[k])])
    return load_group(
        {"name": f"{group.name}/step{step}", "layers": list(group.layers[:step]), "brackets": brackets}
    )


def calibrate_box(
    group: GradedGroup, samples: int = 20000, seed: int = 0, floor: float = 1e-3
) -> BoxCalibration:
    """Calibrate box weights layer by layer: eps_1 = 1 and each eps_j is the
    largest value in (floor, 1] passing a zero-violation triangle check on the
    step-j quotient group, holding the earlier weights fixed."""
    eps = [1.0]
    for j in range(2, group.step + 1):
        quotient = _quotient_group(group, j)

        def passes(candidate: float) -> bool:
            d = box_distance(quotient, eps + [candidate])
            return verify_distance_axioms(d, samples=samples, seed=seed).passed

        best = bisect_largest_passing(passes, floor, 1.0, iters=24)
        if best is None:
            raise CalibrationFailed(
                f"no box weight above {floor} passes the triangle check for layer {j}"
            )
        eps.append(round(best, 6))
    report = verify_distance_axioms(box_distance(group, eps), samples=samples, seed=seed)
    if not report.passed:
        raise CalibrationFailed("final full-group verification failed after calibration")
    return BoxCalibration(
        epsilons=tuple(eps), samples=samples, seed=seed, report=report
    )


# ---------------------------------------------------------------------------
# Ball geometry helpers
# ---------------------------------------------------------------------------

def section_nonempty(dist: HomogeneousDistance, space: Subspace, u, radius: float = 1.0) -> bool:
    """Whether B(u, radius) meets the linear subspace (0 is always in S)."""
    u = np.asarray(u, dtype=float)
    if float(dist.distance(u, np.zeros(dist.group.q))) <= radius:
        return True
    basis = space.orthonormal_basis()

    def f(c):
        return float(dist.distance(u, basis @ c))

    best = np.inf
    rng = stream(0, "section-min")
    for start in [np.zeros(space.dim)] + [rng.standard_normal(space.dim) for _ in range(4)]:
        _, val = nelder_mead(f, start, scale=0.5 * radius, max_iter=200)
        best = min(best, val)
        if best <= radius:
            return True
    return best <= radius


def ball_bounding_radius(
    dist: HomogeneousDistance,
    space: Subspace,
    u,
    safety: float = 1.5,
    ball_radius: float = 1.0,
) -> float:
    """Euclidean radius R (within the subspace) with B(u, ball_radius) ∩ S
    contained in the ball of radius R, by a directional grid sweep times a
    safety factor."""
    u = np.asarray(u, dtype=float)
    if not section_nonempty(dist, space, u, radius=ball_radius):
        raise EmptySection("the metric ball does not meet the subspace")
    basis = space.orthonormal_basis()
    n = space.dim
    rng = stream(0, "bounding-dirs")
    dirs = rng.standard_normal((32 + 16 * n, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n), -np.eye(n)])

    # geometric radius grid, extended until every direction is well outside
    base = 0.125 * ball_radius
    best = np.zeros(len(dirs))
    t = base
    tail_out = 0
    while tail_out < 4 and t < 1e9:
        pts = (dirs * t) @ basis.T
        vals = np.asarray(dist.distance(u, pts))
        inside = vals <= ball_radius
        best = np.where(inside, t, best)
        tail_out = tail_out + 1 if not np.any(vals <= 3.0 * ball_radius) else 0
        t *= 1.25
    if t >= 1e9:
        raise EmptySection("norm does not grow along the subspace; not coercive?")
    if not np.any(best > 0):
        return float(safety * base)

    # refine each crossing between the largest inside radius and the next grid point
    lo = np.where(best > 0, best, 0.0)
    hi = np.where(best > 0, best * 1.25, base)
    active = best > 0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        pts = (dirs * mid[:, None]) @ basis.T
        inside = np.asarray(dist.distance(u, pts)) <= ball_radius
        lo = np.where(active & inside, mid, lo)
        hi = np.where(active & ~inside, mid, hi)
    return float(safety * np.max(hi))
