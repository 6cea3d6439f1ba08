"""Explicitly evaluable homogeneous distances and their empirical validation.

All catalog kinds are multiradial: the norm is a coercive function
``phi(|x_1|, ..., |x_iota|)`` of the per-layer Euclidean magnitudes, monotone
nondecreasing in each and 1-homogeneous under the intrinsic dilations.
Homogeneity and inversion symmetry then hold by construction; the triangle
inequality is validated by seeded sampling (necessary, not sufficient) and
the box weights can be calibrated layer by layer on quotient groups.

``phi`` takes layer-first magnitudes, an ``(iota, ...)`` array, so the box
norm is a chain of ``np.maximum`` across layers.  ``norm`` and ``distance``
run on the block loop of the group law: each block of at most
``BLOCK_ROWS`` rows, coordinate-first, takes its product (for a distance)
and then its norm, layer by layer, and only the ``(...)`` norms are written.
``distance_columns`` takes points that are already coordinate-first, as
the sampled counts hold them, in blocks of ``mc.BLOCK`` columns.
Results are bit-identical to ``phi`` of the stacked ``np.linalg.norm``
magnitudes of the whole product, the oracle in ``tests/oracles/metrics.py``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import GradedGroup, Subspace, _blocked, load_group
from .errors import BadDimensions, CalibrationFailed, EmptySection
from .exprparse import is_monotone_safe, parse_expression
from .mc import BLOCK, require_counts, stream, sum_of_squares
from .optimize import bisect_largest_passing, nelder_mead

TRIANGLE_SLACK = 1e-12
BALL_SLACK = 1e-14  # the closed unit ball B(u, 1) holds distances up to 1 + BALL_SLACK
BOX_WEIGHT_FLOOR = 1e-3  # the smallest box weight that calibrate_box tries


@dataclass(frozen=True)
class HomogeneousDistance:
    """Homogeneous norm/distance on a graded group.

    ``phi`` maps layer-first magnitudes, an ``(iota, ...)`` array, to norms
    ``(...)``.
    ``convex_ball``: True/False when known, None when undetermined.
    """

    group: GradedGroup
    kind: str
    params: tuple[float, ...]
    phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    convex_ball: bool | None = None

    @cached_property
    def layer_radii(self) -> np.ndarray:
        """``rho_j = phi(e_j)^(-j)`` per layer j, with ``e_j`` the unit
        magnitude of layer j alone: every z with ``||z|| <= D`` has layer
        magnitudes ``|z_j| <= rho_j D^j``.

        Every kind's ``phi`` is monotone in each magnitude and 1-homogeneous
        under the dilations (box, Cygan-Koranyi and euclidean-ball by
        construction, multiradial by its monotone-safe grammar and the
        homogeneity check), so ``||z|| >= phi(|z_j| e_j) = |z_j|^(1/j)
        phi(e_j)``.  ``measure._coordinate_reach`` builds on them the boxes of
        the cover, the Federer density and the factor search, which also
        bounds its centres with them.
        """
        iota = self.group.step
        return np.asarray(self.phi(np.eye(iota)), dtype=float) ** -np.arange(1.0, iota + 1)

    def _norm_rows(self, rows: np.ndarray) -> np.ndarray:
        """Norms of coordinate-first points ``(q, rows, ...)``: ``phi`` of
        their layer-first magnitudes ``(iota, rows, ...)``.  A single point
        is one row, so its norm rounds as it does inside a batch.

        Each magnitude is the square root of ``mc.sum_of_squares`` of its
        layer's coordinates, which is ``np.linalg.norm(..., axis=-1)`` of the
        layer bit for bit.
        """
        mags = np.empty((self.group.step,) + rows.shape[1:])
        for j, layer in enumerate(self.group.layer_slices):
            np.sqrt(sum_of_squares(rows[layer]), out=mags[j])
        return self.phi(mags)

    def norm(self, x) -> np.ndarray:
        """Norms of points ``(..., q)``, evaluated in blocks."""
        x = np.asarray(x, dtype=float)
        self.group._check_dim(x)
        return _blocked(self._norm_rows, (x,), reduce=True)

    def distance(self, x, y) -> np.ndarray:
        """d(x, y) = ||x^-1 . y||; left invariant by construction.

        Each block of rows takes its product and its norm in turn, so
        neither the ``(..., q)`` product nor its magnitudes are ever built.
        At the identity centre (every entry of x zero) and finite y the
        product is skipped: 0^-1 . y equals y up to the signs of zeros, which
        no norm sees.  A non-finite y takes the product, where 0 * inf
        makes nan.
        """
        g = self.group
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        g._check_dim(x)
        g._check_dim(y)
        if not np.any(x) and np.all(np.isfinite(y)):
            y = np.broadcast_to(y, np.broadcast_shapes(x.shape, y.shape))
            return _blocked(self._norm_rows, (y,), reduce=True)

        def kernel(xb, yb):
            return self._norm_rows(g._product_rows(xb, yb))

        return _blocked(kernel, (g.inverse(x), y), reduce=True)

    def distance_columns(self, center, cols: np.ndarray) -> np.ndarray:
        """``distance(center, cols.T)`` bit for bit, for one centre ``(q,)``
        and coordinate-first points ``cols`` ``(q, m)``: one norm call per
        ``mc.BLOCK`` columns, after a product call unless the centre is all
        zero and the block finite (``distance``'s identity rule)."""
        g = self.group
        center = np.asarray(center, dtype=float)
        g._check_dim(center)
        g._check_dim(cols.T)
        out = np.empty(cols.shape[1])
        for lo in range(0, cols.shape[1], BLOCK):
            block = cols[:, lo : lo + BLOCK]
            if np.any(center) or not np.isfinite(block).all():
                block = g._product_rows(np.broadcast_to(g.inverse(center)[:, None], block.shape), block)
            out[lo : lo + BLOCK] = self._norm_rows(block)
        return out

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
    if eps.size != group.step or not np.all(np.isfinite(eps) & (eps > 0)):
        raise BadDimensions(
            f"box distance needs {group.step} finite positive weights, got {epsilons!r}"
        )
    powers = 1.0 / np.arange(1, group.step + 1)

    def phi(mags: np.ndarray) -> np.ndarray:
        # A maximum across the layers, exact in any order.  The power of
        # layer 1 is 1.0, which is exact; the others take a full-length
        # exponent, as the elementwise mags ** powers does.  Like np.max over
        # the layers, a nan in layer 1 gives the canonical nan.
        flat = mags.reshape(len(mags), -1)
        out = eps[0] * flat[0]
        if len(flat) > 1:
            first_nan = np.isnan(out)
            for e, p, m in zip(eps[1:], powers[1:], flat[1:]):
                np.maximum(out, e * np.power(m, np.full(m.shape, p)), out=out)
            out[first_nan] = np.nan
        return out.reshape(mags.shape[1:])[()]

    return HomogeneousDistance(
        group=group, kind="box", params=tuple(float(e) for e in eps), phi=phi, convex_ball=True
    )


def euclidean_ball_distance(group: GradedGroup, radius: float) -> HomogeneousDistance:
    """Homogeneous norm whose unit ball is the Euclidean ball of the given
    (suitably small) radius: ||x|| solves |delta_{1/r} x| = radius.

    With ``w_j = |x_j| / radius``, m solves ``sum_j (w_j / m^j)^2 = 1``, a
    convex decreasing left side: Newton's method from below rises to the
    root and never passes it (Ortega & Rheinboldt, 1970).  A row starts just
    below its largest ``w_j^(1/j)`` and stops at its first step that does not
    grow, which it would take again, so it does not depend on its batch.
    ``m^j = f^j 2^(jk)`` with ``f, k = frexp(m)`` never under- or overflows.
    A nan magnitude gives nan, an inf one inf."""
    if not (radius > 0 and np.isfinite(radius)):
        raise BadDimensions(f"euclidean_ball radius must be finite and positive, got {radius!r}")
    r0 = float(radius)
    iota = group.step

    def phi(mags: np.ndarray) -> np.ndarray:
        mags = np.asarray(mags, dtype=float)
        w = mags.reshape(iota, -1) / r0
        m = np.max([w[j] ** (1.0 / (j + 1)) for j in range(iota)], axis=0)
        live = np.isfinite(m) & (m > 0)
        w, root = w[:, live], m[live] * (1.0 - 2.0**-40)
        for _ in range(32):  # a bound only: rows settle within about ten steps
            f, k = np.frexp(root)
            total = moment = 0.0
            for j, wj in enumerate(w, start=1):
                a = (np.ldexp(wj, -j * k) / f**j) ** 2
                total, moment = total + a, moment + j * a
            new = root + root * (total - 1.0) / (2.0 * moment)
            if not np.any(new > root):
                break
            root = np.where(new > root, new, root)
        m[live] = root
        return np.where(np.isnan(m), np.nan, m + 0.0).reshape(mags.shape[1:])

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
        return (mags[0] ** 4 + c * mags[1] ** 2) ** 0.25

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
        return node.eval(np.moveaxis(np.asarray(mags, dtype=float), 0, -1))

    rng = stream(0, f"phi-check:{phi_expr}")
    t = (rng.random((64, group.step)) * 2.0).T
    js = np.arange(1, group.step + 1, dtype=float)[:, None]
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


_DISTANCE_KEYS = {"kind", "params", "phi", "seed"}


def distance_from_spec(group: GradedGroup, spec: dict) -> HomogeneousDistance:
    """Build a distance from a {kind, params?, seed?, phi?} block; a box
    without params is calibrated at ``seed``, and only a multiradial kind
    reads ``phi``.  A malformed block, or a key its kind does not read, is
    BadDimensions."""
    if not isinstance(spec, dict):
        raise BadDimensions(f"a distance must be an object, got {spec!r}")
    unknown = set(spec) - _DISTANCE_KEYS
    if unknown:
        raise BadDimensions(f"unknown distance keys: {sorted(unknown)}")
    kind, params, seed = spec.get("kind"), spec.get("params"), spec.get("seed", 0)
    counts = {"box": group.step, "euclidean_ball": 1, "cygan_koranyi": 0, "multiradial": 0}
    if not isinstance(kind, str) or kind not in counts:
        raise BadDimensions(f"unknown distance kind {kind!r}")
    read = {"seed": kind == "box" and params is None, "phi": kind == "multiradial"}
    unread = sorted(key for key in spec if key in read and not read[key])
    if unread:
        raise BadDimensions(f"{kind} distance does not read {unread}")
    numbers = isinstance(params, list) and all(type(v) in (int, float) for v in params)
    if params is not None and not (numbers and 0 < len(params) == counts[kind]):
        raise BadDimensions(f"{kind} distance takes {counts[kind]} params as a list of numbers, got {params!r}")
    if type(seed) is not int:
        raise BadDimensions(f"distance seed must be an integer, got {seed!r}")
    if kind == "box":
        if params is None:
            params = calibrate_box(group, samples=20000, seed=seed).epsilons
        return box_distance(group, params)
    if kind == "euclidean_ball":
        return euclidean_ball_distance(group, 0.5 if params is None else params[0])
    if kind == "cygan_koranyi":
        return cygan_koranyi_distance(group)
    if not isinstance(spec.get("phi"), str):
        raise BadDimensions(f"multiradial distance needs a 'phi' expression string, got {spec.get('phi')!r}")
    return multiradial_distance(group, spec["phi"])


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
        return {**asdict(self), "passed": self.passed}


def verify_distance_axioms(
    dist: HomogeneousDistance, samples: int = 20000, seed: int = 0
) -> AxiomReport:
    """Sampled triangle-inequality check; homogeneity reduces general pairs to
    pairs with ||x|| + ||y|| = 1.  Necessary, not sufficient."""
    require_counts(samples=samples)
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


def _six_decimals(weight: float) -> float:
    """The weight floored to six decimals."""
    return math.floor(weight * 1e6) / 1e6


def calibrate_box(group: GradedGroup, samples: int = 20000, seed: int = 0) -> BoxCalibration:
    """Calibrate box weights layer by layer: eps_1 = 1 and each eps_j is the
    largest value in (BOX_WEIGHT_FLOOR, 1], floored to six decimals, passing
    a zero-violation triangle check on the step-j quotient group, holding the
    earlier weights fixed.  The bisection checks each candidate as floored,
    so every returned weight was checked; the last layer's quotient is the
    group itself, so from step 2 on its check is the final check."""
    require_counts(samples=samples)
    eps = [1.0]
    checked: dict[tuple[float, ...], AxiomReport] = {}
    for j in range(2, group.step + 1):
        quotient = _quotient_group(group, j)

        def passes(candidate: float) -> bool:
            weights = (*eps, _six_decimals(candidate))
            if weights not in checked:
                checked[weights] = verify_distance_axioms(box_distance(quotient, weights), samples=samples, seed=seed)
            return checked[weights].passed

        best = bisect_largest_passing(passes, BOX_WEIGHT_FLOOR, 1.0)
        if best is None:
            raise CalibrationFailed(
                f"no box weight above {BOX_WEIGHT_FLOOR} passes the triangle check for layer {j}"
            )
        eps.append(_six_decimals(best))
    report = checked.get(tuple(eps)) or verify_distance_axioms(box_distance(group, eps), samples=samples, seed=seed)
    if not report.passed:
        raise CalibrationFailed("final full-group verification failed after calibration")
    return BoxCalibration(epsilons=tuple(eps), samples=samples, seed=seed, report=report)


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


# radius-sweep levels, and bisection-tree levels, per distance call
SWEEP_LEVELS = 8
BISECT_DEPTH = 3


def ball_bounding_radius(
    dist: HomogeneousDistance,
    space: Subspace,
    u,
    safety: float = 1.5,
    ball_radius: float = 1.0,
) -> float:
    """Euclidean radius R (within the subspace) with B(u, ball_radius) ∩ S
    contained in the ball of radius R, by a directional grid sweep times a
    safety factor.

    One distance call takes ``SWEEP_LEVELS`` grid radii, or every midpoint
    of a ``BISECT_DEPTH``-level bisection tree; the steps then read their
    outcomes in turn, so R is that of one call per step bit for bit (the
    loop in ``tests/oracles/metrics.py``)."""
    u = np.asarray(u, dtype=float)
    if not section_nonempty(dist, space, u, radius=ball_radius):
        raise EmptySection("the metric ball does not meet the subspace")
    basis = space.orthonormal_basis()
    n = space.dim
    rng = stream(0, "bounding-dirs")
    dirs = rng.standard_normal((32 + 16 * n, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n), -np.eye(n)])

    def distances(scales: np.ndarray) -> np.ndarray:  # (k, dirs, 1) -> (k, dirs)
        cols = basis @ (dirs * scales).reshape(-1, n).T
        return dist.distance_columns(u, cols).reshape(len(scales), len(dirs))

    # geometric radius grid, extended until every direction is well outside
    base = 0.125 * ball_radius
    best = np.zeros(len(dirs))
    t = base
    tail_out = 0
    while tail_out < 4 and t < 1e9:
        levels = []
        while len(levels) < SWEEP_LEVELS and t < 1e9:
            levels.append(t)
            t *= 1.25
        for level, vals in zip(levels, distances(np.array(levels)[:, None, None])):
            best = np.where(vals <= ball_radius, level, best)
            tail_out = tail_out + 1 if not np.any(vals <= 3.0 * ball_radius) else 0
            if tail_out == 4:
                t = level * 1.25
                break
    if t >= 1e9:
        raise EmptySection("norm does not grow along the subspace; not coercive?")
    if not np.any(best > 0):
        return float(safety * base)

    # refine each crossing between the largest inside radius and the next grid
    # point: 30 halvings, in trees whose breadth-first node 2i + 1 (2i + 2)
    # follows node i's midpoint inside (outside) the ball
    lo = np.where(best > 0, best, 0.0)
    hi = np.where(best > 0, best * 1.25, base)
    active = best > 0
    for _ in range(30 // BISECT_DEPTH):
        lows, highs, mids = lo[None], hi[None], []
        for _ in range(BISECT_DEPTH):
            mids.append(0.5 * (lows + highs))
            lows = np.stack([np.where(active, mids[-1], lows), lows], axis=1).reshape(-1, len(dirs))
            highs = np.stack([highs, np.where(active, mids[-1], highs)], axis=1).reshape(-1, len(dirs))
        vals = distances(np.concatenate(mids)[:, :, None])
        node = np.zeros(len(dirs), dtype=int)
        for depth in range(BISECT_DEPTH):
            inside = vals[2**depth - 1 + node, np.arange(len(dirs))] <= ball_radius
            mid = 0.5 * (lo + hi)
            lo = np.where(active & inside, mid, lo)
            hi = np.where(active & ~inside, mid, hi)
            node = 2 * node + ~inside
    return float(safety * np.max(hi))
