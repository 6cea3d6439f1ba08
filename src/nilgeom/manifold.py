"""Parametrized C^1 submanifolds and their pointwise algebraic structure.

A submanifold is given by a parsed parametrization ``Psi: U -> G`` in graded
coordinates.  At a parameter point the tangent n-vector lifted to the
left-invariant frame has, on X_I, the n x n minor of the frame-coefficient
matrix on the rows I; the pointwise degree is read off its degree-graded
projections, the homogeneous tangent space is the kernel of the wedge map
with its top-degree part, and the point is classified (horizontal /
transversal / regular / low degree / irregular).  A batch of points (a
degree map's grid, or one point) builds each h-tangent on its own and
classifies them all in one ``classify_subspaces`` call.  ``degree_echelon``,
the degree-ordered echelon reduction of the frame-coefficient matrix, is
production code for the alpha profile, blow-up rates and Federer exponents;
its degree identity against the minors route is a consistency check.  A
``PointAnalysis`` carries its frame coefficients and pivots for its
consumers; ``blowup_case`` holds the blow-up hypotheses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .algebra import GradedGroup, Subspace, classify_subspace, classify_subspaces
from .errors import (
    DegenerateTangent,
    DomainViolation,
    InconsistentDegree,
    NonFinite,
    NonSimpleProjection,
)
from .exprparse import parse_expression_list
from .policy import DEFAULT_POLICY, NumericPolicy

# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParamMap:
    """Differentiable parametrization of an n-manifold in a graded group."""

    group: GradedGroup
    n: int
    exprs: tuple
    derivs: tuple  # derivs[j][i] = d expr_j / d y_i
    domain: np.ndarray  # (n, 2)
    _cache: dict = field(default_factory=dict, repr=False)

    def contains(self, y) -> bool:
        y = np.asarray(y, dtype=float)
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        return bool(np.all(y >= lo - 1e-12) and np.all(y <= hi + 1e-12))

    def check_domain(self, y) -> None:
        if not self.contains(y):
            raise DomainViolation(f"parameter {np.asarray(y)} outside domain")

    def value(self, y) -> np.ndarray:
        """Evaluate Psi; broadcasts over leading axes of y."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.stack([np.broadcast_to(e.eval(y), y.shape[:-1]) for e in self.exprs], axis=-1)
        if not np.all(np.isfinite(out)):
            raise NonFinite("parametrization evaluates to a non-finite value")
        return out

    def jacobian(self, y) -> np.ndarray:
        """Analytic Jacobian (q, n) at a single parameter point."""
        return self.jacobian_batch(np.asarray(y, dtype=float)[None, :])[0]

    def jacobian_batch(self, ys) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        q, n = len(self.exprs), self.n
        out = np.empty(ys.shape[:-1] + (q, n))
        for j in range(q):
            for i in range(n):
                out[..., j, i] = np.broadcast_to(self.derivs[j][i].eval(ys), ys.shape[:-1])
        if not np.all(np.isfinite(out)):
            raise NonFinite("Jacobian evaluates to a non-finite value")
        return out


def parse_parametrization(src: str, n: int, domain, group: GradedGroup) -> ParamMap:
    """Parse ``q`` semicolon-separated expressions in variables y1..yn."""
    variables = [f"y{i + 1}" for i in range(n)]
    exprs = parse_expression_list(src, variables)
    if len(exprs) != group.q:
        raise DomainViolation(
            f"expected {group.q} expressions for group of dimension {group.q}, got {len(exprs)}"
        )
    derivs = tuple(tuple(e.diff(i) for i in range(n)) for e in exprs)
    dom = np.asarray(domain, dtype=float).reshape(n, 2)
    if np.any(dom[:, 0] >= dom[:, 1]):
        raise DomainViolation("domain intervals must have positive length")
    return ParamMap(group=group, n=n, exprs=tuple(exprs), derivs=derivs, domain=dom)


class TransformedChart:
    """Chart of p . delta_r(Sigma) in parameters u with y = shift + mat @ u.

    Wraps any chart (a ``ParamMap`` or another ``TransformedChart``) with an
    optional left translation by ``translate``, dilation by ``dilate`` and
    affine reparametrization ``mat``, ``shift``; a part left unset is the
    identity.  Under a reparametrization the domain is the axis-aligned box
    inscribed in the preimage of the base domain around its center.
    """

    def __init__(self, base, translate=None, dilate=None, mat=None, shift=None):
        self.base = base
        self.group = base.group
        self.n = base.n
        self._cache: dict = {}
        self.p = None if translate is None else np.asarray(translate, dtype=float)
        self.weights = None if dilate is None else float(dilate) ** self.group.degrees
        self.mat = None
        self.domain = base.domain
        if mat is not None or shift is not None:
            self.mat = np.eye(self.n) if mat is None else np.asarray(mat, dtype=float)
            self.shift = np.zeros(self.n) if shift is None else np.asarray(shift, dtype=float)
            base_center = base.domain.mean(axis=1)
            center = np.linalg.inv(self.mat) @ (base_center - self.shift)
            half = base.domain[:, 1] - base_center
            rho = float(np.min(half / np.sum(np.abs(self.mat), axis=1)))
            self.domain = np.stack([center - rho, center + rho], axis=1)

    def _params(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u if self.mat is None else self.shift + u @ self.mat.T

    def contains(self, u) -> bool:
        return self.base.contains(self._params(u))

    def check_domain(self, u) -> None:
        self.base.check_domain(self._params(u))

    def _dilated(self, x) -> np.ndarray:
        return x if self.weights is None else x * self.weights

    def value(self, u) -> np.ndarray:
        x = self._dilated(self.base.value(self._params(u)))
        return x if self.p is None else self.group.product(self.p, x)

    def jacobian(self, u) -> np.ndarray:
        return self.jacobian_batch(np.asarray(u, dtype=float)[None, :])[0]

    def jacobian_batch(self, us) -> np.ndarray:
        ys = self._params(us)
        jac = self.base.jacobian_batch(ys)
        if self.mat is not None:
            jac = jac @ self.mat
        if self.weights is not None:
            jac = jac * self.weights[:, None]
        if self.p is not None:
            # columns dL_p(x) j_i, one row per column
            x = self._dilated(self.base.value(ys))
            cols = self.group.product_derivative_y(self.p, x[..., None, :], np.swapaxes(jac, -1, -2))
            jac = np.swapaxes(cols, -1, -2)
        return jac


def horizontal_tangency(chart, y, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Frame tangency test: the tangent space lies in the horizontal fiber iff
    every frame coefficient of the Jacobian columns above layer 1 vanishes."""
    group = chart.group
    coeffs = group.frame_coefficients(chart.value(y), chart.jacobian(y))
    m = group.layers[0]
    scale = float(np.max(np.abs(coeffs), initial=0.0)) or 1.0
    return bool(np.max(np.abs(coeffs[m:, :]), initial=0.0) <= policy.rtol * scale)


def cell_centers(box, counts) -> np.ndarray:
    """Centers of the cells of a counts[0] x ... grid on an (n, 2) box, (N, n)."""
    box = np.asarray(box, dtype=float)
    axes = [
        box[i, 0] + (np.arange(c) + 0.5) * (box[i, 1] - box[i, 0]) / c
        for i, c in enumerate(counts)
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(counts))


# ---------------------------------------------------------------------------
# Pointwise analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointAnalysis:
    y: np.ndarray
    p: np.ndarray
    degree: int
    htangent: Subspace | None
    regular: bool
    classification: str
    alpha: tuple[int, ...]
    q_n: int
    characteristic: bool
    coeffs: np.ndarray               # (q, n) frame coefficients of the Jacobian columns
    pivots: tuple[int, ...]          # the echelon's pivot row per column
    notes: tuple[str, ...] = ()


def tangent_minors(group: GradedGroup, coeffs, degree: int | None = None):
    """The lifted tangent n-vector c_1 ^ ... ^ c_n of frame coefficients.

    ``coeffs`` is a (..., q, n) batch of frame-coefficient columns; the
    coefficient of the n-vector on X_I is the n x n minor on the rows I.
    Returns the degrees of the increasing n-tuples I (only those of degree
    ``degree`` when it is given) and the minors, shape (..., len(tuples)).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    q, n = coeffs.shape[-2:]
    deg = group.degrees
    tuples = [
        rows
        for rows in combinations(range(q), n)
        if degree is None or int(deg[list(rows)].sum()) == degree
    ]
    minors = np.empty(coeffs.shape[:-2] + (len(tuples),))
    for t, rows in enumerate(tuples):
        minors[..., t] = np.linalg.det(coeffs[..., list(rows), :])
    tuple_degrees = np.array([int(deg[list(rows)].sum()) for rows in tuples], dtype=int)
    return tuple_degrees, minors


def lifted_degree(group: GradedGroup, coeffs, policy: NumericPolicy = DEFAULT_POLICY):
    """Pointwise degree and top-degree part of the lifted tangent n-vector.

    The degree is the largest M whose degree-M projection has a g-norm above
    ``policy.rtol`` times the norm of the whole n-vector (0 where it
    vanishes).  Returns the degrees (...,) and the top-degree coefficients
    (..., T) over all increasing n-tuples, zero off the top degree.
    """
    tuple_degrees, minors = tangent_minors(group, coeffs)
    squares = minors * minors
    total = np.sqrt(np.sum(squares, axis=-1))
    degree = np.zeros(total.shape, dtype=int)
    for m in np.unique(tuple_degrees):
        norm = np.sqrt(np.sum(squares[..., tuple_degrees == m], axis=-1))
        degree = np.where(norm > policy.rtol * total, m, degree)
    top = np.where(tuple_degrees == degree[..., None], minors, 0.0)
    return degree, top


class _Tangents(NamedTuple):
    """Tangent data of a chart at a (B, n) batch of parameter points."""

    p: np.ndarray       # (B, q) image points
    coeffs: np.ndarray  # (B, q, n) frame coefficients of the Jacobian columns
    full: np.ndarray    # (B,) the Jacobian has rank n under the policy
    degree: np.ndarray  # (B,) pointwise degrees
    top: np.ndarray     # (B, T) top-degree coefficients over the n-tuples


def _tangents(chart, ys, policy: NumericPolicy) -> _Tangents:
    p = chart.value(ys)
    jac = chart.jacobian_batch(ys)
    s = np.linalg.svd(jac, compute_uv=False)
    full = np.all(s > policy.rtol * s[..., :1], axis=-1)
    coeffs = chart.group.frame_coefficients(p, jac)
    degree, top = lifted_degree(chart.group, coeffs, policy)
    return _Tangents(p, coeffs, full, degree, top)


def _require_full(t: _Tangents, b: int) -> None:
    if not t.full[b]:
        raise DegenerateTangent("Jacobian is rank deficient at this point")


def _tangent_at(chart, y, policy: NumericPolicy) -> _Tangents:
    y = np.asarray(y, dtype=float)
    chart.check_domain(y)
    t = _tangents(chart, y[None, :], policy)
    _require_full(t, 0)
    return t


def pointwise_degree(chart, y, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Largest M with a nonzero degree-M projection of the lifted tangent."""
    return int(_tangent_at(chart, y, policy).degree[0])


def homogeneous_tangent(
    chart, y, policy: NumericPolicy = DEFAULT_POLICY
) -> tuple[Subspace, bool]:
    """Lie h-tangent space A = {X : X ^ pi_N(xi) = 0} and its regularity flag."""
    t = _tangent_at(chart, y, policy)
    space = _htangent_from_top(chart.group, t.top[0], chart.n, policy)
    return space, classify_subspace(chart.group, space, max(policy.rtol, 1e-8)).subalgebra


def _htangent_from_top(group: GradedGroup, top, n: int, policy: NumericPolicy) -> Subspace:
    """Kernel of the wedge map X -> X ^ xi_top, from the dense top-degree
    coefficients of xi over the increasing n-tuples."""
    q = group.q
    top = np.asarray(top, dtype=float)
    cut = policy.rtol * float(np.max(np.abs(top), initial=0.0))
    count, tup, row, col, sign = _wedge_table(q, n)
    live = ~(np.abs(top[tup]) <= cut)  # only coefficients at most the cut drop; nan stays
    mat = np.zeros((count, q))
    mat[row[live], col[live]] = sign[live] * top[tup[live]]
    mat = mat[np.any(mat != 0.0, axis=1)]
    if mat.size == 0:
        raise NonSimpleProjection("top-degree projection is zero")
    u, s, vt = np.linalg.svd(mat)
    kernel_dim = int(np.sum(s <= policy.rtol * s[0])) + max(q - len(s), 0)
    if kernel_dim != n:
        raise NonSimpleProjection(
            f"wedge kernel has dimension {kernel_dim}, expected {n}: "
            "top-degree projection is not simple"
        )
    return Subspace(group, vt[q - kernel_dim :].T)


@lru_cache(maxsize=None)
def _wedge_table(q: int, n: int) -> tuple:
    """The entries of the wedge map X -> X ^ xi, cached per (q, n): the number
    of increasing (n+1)-tuples, and for each increasing n-tuple I (by its
    index) and coordinate i not in I, the row of I + {i}, the column i and
    the sign of moving i into place."""
    row_of = {key: r for r, key in enumerate(combinations(range(q), n + 1))}
    table = np.array(
        [
            (t, row_of[tuple(sorted(key + (i,)))], i, (-1) ** sum(k < i for k in key))
            for t, key in enumerate(combinations(range(q), n))
            for i in range(q)
            if i not in key
        ],
        dtype=float,
    ).reshape(-1, 4)
    return (len(row_of), *table[:, :3].T.astype(int), table[:, 3])


def q_n_max_degree(group: GradedGroup, n: int) -> int:
    """Closed-form maximum degree Q_n of an n-dimensional submanifold."""
    if not 1 <= n <= group.q:
        raise ValueError(f"n must be in 1..{group.q}")
    h = group.layers
    iota = group.step
    if n <= h[-1]:
        return iota * n
    # find the layer index l with sum_{j>l} h_j < n <= sum_{j>=l} h_j
    suffix = 0
    for l in range(iota, 0, -1):
        if suffix < n <= suffix + h[l - 1]:
            r = n - suffix
            tail = sum(j * h[j - 1] for j in range(l + 1, iota + 1))
            return l * r + tail
        suffix += h[l - 1]
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Alpha profile by degree-ordered echelon reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Echelon:
    alpha: tuple[int, ...]
    pivots: tuple[int, ...]          # pivot row per column, in column order
    column_transform: np.ndarray     # V with C @ V in echelon form


def degree_echelon(group: GradedGroup, coeffs: np.ndarray, policy: NumericPolicy) -> Echelon:
    """Column-reduce the frame-coefficient matrix, scanning rows from the
    highest degree down; each column's pivot row is its top-degree support."""
    c = np.array(coeffs, dtype=float)
    q, n = c.shape
    v = np.eye(n)
    scale = float(np.max(np.abs(c), initial=0.0)) or 1.0
    pivot_of_col: dict[int, int] = {}
    used: set[int] = set()
    for row in range(q - 1, -1, -1):
        candidates = [j for j in range(n) if j not in used and abs(c[row, j]) > policy.rtol * scale]
        if not candidates:
            continue
        piv = max(candidates, key=lambda j: abs(c[row, j]))
        fac = c[row, piv]
        c[:, piv] /= fac
        v[:, piv] /= fac
        for j in range(n):
            if j != piv and abs(c[row, j]) > 0.0:
                f = c[row, j]
                c[:, j] -= f * c[:, piv]
                v[:, j] -= f * v[:, piv]
        used.add(piv)
        pivot_of_col[piv] = row
    if len(used) < n:
        raise DegenerateTangent("coefficient matrix is rank deficient")
    deg = group.degrees
    alpha = [0] * group.step
    for piv, row in pivot_of_col.items():
        alpha[int(deg[row]) - 1] += 1
    pivots = tuple(pivot_of_col[j] for j in range(n))
    return Echelon(alpha=tuple(alpha), pivots=pivots, column_transform=v)


def _checked_echelon(group: GradedGroup, coeffs, degree: int, policy: NumericPolicy, y, where: str) -> Echelon:
    """``degree_echelon`` of ``coeffs`` at y, checked to imply ``degree``; the error ends in
    ``where.format(y)``, formatted only on failure: an array's text costs more than the echelon."""
    ech = degree_echelon(group, coeffs, policy)
    implied = sum((j + 1) * a for j, a in enumerate(ech.alpha))
    if implied != degree:
        raise InconsistentDegree(f"echelon degree {implied} != multivector degree {degree}" + where.format(y))
    return ech


def alpha_profile(chart, y, policy: NumericPolicy = DEFAULT_POLICY) -> tuple[int, ...]:
    """Layer profile alpha_1..alpha_iota with sum alpha_j = n and
    sum j*alpha_j = pointwise degree (cross-checked)."""
    t = _tangent_at(chart, y, policy)
    where = "; the point is too ill-conditioned for this tolerance"
    return _checked_echelon(chart.group, t.coeffs[0], int(t.degree[0]), policy, y, where).alpha


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------

def sampled_max_degree(
    chart,
    region=None,
    per_axis: int | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
    strict: bool = False,
) -> int:
    """Largest pointwise degree over the cell centers of a grid on ``region``
    (the chart domain by default) with ``per_axis`` cells per axis (default 7
    up to n = 3, else 5).  Cached on the chart.

    Cells with a degenerate tangent are skipped.  A lenient sample also skips
    cells outside the chart domain or with non-finite values and returns 0
    when no cell has a degree; a strict one lets those errors through and
    raises ``DegenerateTangent`` instead of returning 0.
    """
    region = np.asarray(chart.domain if region is None else region, dtype=float)
    counts = per_axis or (7 if chart.n <= 3 else 5)
    key = ("max_degree", region.tobytes(), counts, policy.rtol, strict)
    if key in chart._cache:
        return chart._cache[key]
    ys = cell_centers(region, [counts] * chart.n)
    degrees = None
    if chart.contains(ys):
        try:
            t = _tangents(chart, ys, policy)
            degrees = list(t.degree[t.full])
        except NonFinite:
            pass  # the batch fails as a whole; judge the cells one by one
    if degrees is None:
        skip = (DegenerateTangent,) if strict else (DegenerateTangent, NonFinite, DomainViolation)
        degrees = []
        for y in ys:
            try:
                degrees.append(pointwise_degree(chart, y, policy))
            except skip:
                continue
    best = int(max(degrees, default=0))
    if strict and best == 0:
        raise DegenerateTangent("no sample point in the region has a nondegenerate tangent")
    chart._cache[key] = best
    return best


def classify_point(chart, y, policy: NumericPolicy = DEFAULT_POLICY) -> PointAnalysis:
    y = np.asarray(y, dtype=float)
    chart.check_domain(y)
    t = _tangents(chart, y[None, :], policy)
    return _analyse(chart, y, t, 0, _htangents(chart, t, policy)[0], policy)


def _htangents(chart, t: _Tangents, policy: NumericPolicy) -> list:
    """``(space, kinds, notes)`` for every full-rank row of a tangent batch
    (None on the others): the row's h-tangent and its classification, all
    classified in one ``classify_subspaces`` call, or no space and the note
    that says why."""
    out: list = [None] * len(t.full)
    spaces = {}
    for b in np.flatnonzero(t.full).tolist():
        try:
            spaces[b] = _htangent_from_top(chart.group, t.top[b], chart.n, policy)
        except NonSimpleProjection as err:
            out[b] = (None, None, [f"non_simple_projection: {err}"])
    if spaces:
        bases = np.stack([space.basis for space in spaces.values()])
        for (b, space), kinds in zip(spaces.items(), classify_subspaces(chart.group, bases, max(policy.rtol, 1e-8))):
            out[b] = (space, kinds, [])
    return out


def _analyse(chart, y, t: _Tangents, b: int, htangent: tuple | None, policy: NumericPolicy) -> PointAnalysis:
    """Classify row ``b`` of a tangent batch at parameter point ``y``, given
    the row's entry of ``_htangents``."""
    group = chart.group
    _require_full(t, b)
    p, coeffs, degree = t.p[b], t.coeffs[b], int(t.degree[b])
    qn = q_n_max_degree(group, chart.n)

    space, kinds, notes = htangent
    regular = kinds is not None and kinds.subalgebra

    ech = _checked_echelon(group, coeffs, degree, policy, y, " at y={}")

    m = group.layers[0]
    # characteristic: the horizontal fiber is contained in the tangent space
    characteristic = False
    if chart.n >= m:
        horiz = np.zeros((group.q, m))
        horiz[:m] = np.eye(m)
        stacked = np.hstack([coeffs, horiz])
        characteristic = policy.rank(stacked) == chart.n

    if not regular:
        cls = "irregular"
    elif degree < sampled_max_degree(chart, policy=policy):
        # the point sits in the characteristic set of the submanifold; its
        # own h-tangent structure is still reported via the other fields
        cls = "low_degree"
    elif kinds.horizontal:
        cls = "horizontal"
    elif degree == qn:
        cls = "transversal"
    else:
        # regular point of maximum degree below Q_n whose h-tangent space is
        # not horizontal
        cls = "regular"

    return PointAnalysis(
        y=y,
        p=p,
        degree=degree,
        htangent=space,
        regular=regular,
        classification=cls,
        alpha=ech.alpha,
        q_n=qn,
        characteristic=characteristic,
        coeffs=coeffs,
        pivots=ech.pivots,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Blow-up rate verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateRate:
    index: int
    expected_exponent: int
    in_tangent_set: bool
    identically_zero: bool
    fitted_slope: float | None
    ratios: tuple[float, ...]
    passed: bool


@dataclass(frozen=True)
class BlowupReport:
    case: str
    advisory: bool
    tangent_rows: tuple[int, ...]
    rates: tuple[CoordinateRate, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rates)


def blowup_case(group: GradedGroup, analysis: PointAnalysis) -> str:
    """The blow-up hypothesis that covers the point, or ``"not_covered"``."""
    if not analysis.regular:
        return "not_covered"
    if analysis.classification == "horizontal":
        return "horizontal"
    if group.step == 2:
        return "step2"
    if len(analysis.y) == 1:
        return "curve"
    if analysis.classification == "transversal":
        return "transversal"
    return "not_covered"


def blowup_rates(
    chart,
    y0,
    ray,
    scales=None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> BlowupReport:
    """Empirical verification of the local blow-up expansion along one ray.

    The translated curve t -> Psi(y0)^-1 . Psi(y0 + V eta(t * ray)) is read in
    a per-layer rotated basis adapted to the h-tangent space.  Coordinates on
    the tangent index set must show log-log slope within 0.1 of their
    degree; the others must have |coord| / t^degree decreasing to zero.  A
    ray of None is the diagonal, all ones.  A ray whose norm rounds to 0, or
    fewer than two distinct positive scales, is a ``ValueError``.
    """
    group = chart.group
    y0 = np.asarray(y0, dtype=float)
    ray = np.asarray(ray if ray is not None else np.ones(chart.n), dtype=float)
    if scales is None:
        scales = [2.0 ** (-k) for k in range(13)]
    scales = sorted({float(s) for s in scales}, reverse=True)
    norm = np.linalg.norm(ray)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"ray must have a finite norm above 0, got {ray}")
    if len(scales) < 2 or not all(0.0 < s < np.inf for s in scales):
        raise ValueError(f"scales must be two or more distinct positive finite numbers, got {scales}")
    ray = ray / norm
    scales = np.asarray(scales)
    analysis = classify_point(chart, y0, policy)
    case = blowup_case(group, analysis)
    advisory = case == "not_covered"

    # per-layer rotation sending the h-tangent layer components to the leading
    # basis vectors of each layer
    rot = np.eye(group.q)
    if analysis.htangent is not None:
        a_basis = analysis.htangent.orthonormal_basis()
        for sl in group.layer_slices:
            rot[sl, sl] = np.linalg.svd(a_basis[sl], full_matrices=True)[0]

    ech = degree_echelon(group, rot.T @ analysis.coeffs, policy)
    exponents = group.degrees[list(ech.pivots)]
    tangent_rows = tuple(sorted(ech.pivots))
    axis_of_row = {row: j for j, row in enumerate(ech.pivots)}

    # shrink the leading scale so the whole warped ray fits in the chart domain
    t0 = scales[0]
    for _ in range(60):
        ts = t0 * scales / scales[0]
        u = ech.column_transform @ _eta(ts, ray, exponents)
        ys = y0[None, :] + u.T
        if chart.contains(ys):
            break
        t0 *= 0.5
    else:
        raise DomainViolation("could not fit blow-up scales inside the chart domain")

    gamma = group.product(-analysis.p, chart.value(ys)) @ rot  # components in the adapted basis

    deg = group.degrees
    log_t = np.log(ts)
    rates = []
    scale_ref = float(np.max(np.abs(gamma), initial=0.0)) or 1.0
    for s in range(group.q):
        vals = np.abs(gamma[:, s])
        zero = bool(np.all(vals <= 1e-13 * scale_ref))
        in_set = s in tangent_rows
        ratios = vals / ts ** float(deg[s])
        if in_set:
            if abs(ray[axis_of_row[s]]) <= 1e-12:
                # this tangent direction is not excited by the chosen ray
                rates.append(CoordinateRate(s, int(deg[s]), True, zero, None, tuple(ratios), True))
                continue
            if zero:
                slope, ok = None, False
            else:
                good = vals > 0
                slope = float(np.polyfit(log_t[good], np.log(vals[good]), 1)[0])
                ok = abs(slope - float(deg[s])) <= 0.1
            rates.append(CoordinateRate(s, int(deg[s]), True, zero, slope, tuple(ratios), ok))
        else:
            if zero:
                rates.append(CoordinateRate(s, int(deg[s]), False, True, None, tuple(ratios), True))
                continue
            window = ratios[-7:]  # two smallest dyadic decades
            decreasing = bool(np.all(np.diff(window) <= 1e-12 + 0.05 * window[:-1]))
            vanishing = bool(window[-1] <= 0.6 * window[0] or window[-1] <= 1e-10 * scale_ref)
            rates.append(
                CoordinateRate(
                    s, int(deg[s]), False, False, None, tuple(ratios), decreasing and vanishing
                )
            )
    return BlowupReport(case=case, advisory=advisory, tangent_rows=tangent_rows, rates=tuple(rates))


def _eta(ts: np.ndarray, ray: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Per-axis power warp eta_i(t * ray_i) = |t ray_i|^{b_i} sgn(ray_i) / b_i,
    returned as an (n, len(ts)) array."""
    t_row = np.asarray(ts, dtype=float)[None, :]
    b = exponents.astype(float)[:, None]
    return np.sign(ray)[:, None] * np.abs(t_row * ray[:, None]) ** b / b


# ---------------------------------------------------------------------------
# Degree maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeMapResult:
    points: tuple[PointAnalysis, ...]
    max_degree: int
    low_degree_fraction: float
    failures: tuple[tuple[tuple[float, ...], str], ...]


def degree_map(chart, grid_counts, policy: NumericPolicy = DEFAULT_POLICY) -> DegreeMapResult:
    """Classify the chart on a grid of cell centers and summarize degrees."""
    counts = [int(c) for c in np.atleast_1d(grid_counts)]
    if len(counts) == 1:
        counts = counts * chart.n
    ys = cell_centers(chart.domain, counts)
    try:
        t = _tangents(chart, ys, policy)
    except NonFinite:
        t = None  # the batch fails as a whole; classify the cells one by one
    htangents = None if t is None else _htangents(chart, t, policy)
    analyses = []
    failures = []
    for b, y in enumerate(ys):
        try:
            if t is None:
                analyses.append(classify_point(chart, y, policy))
            else:
                analyses.append(_analyse(chart, y, t, b, htangents[b], policy))
        except (DegenerateTangent, NonFinite, InconsistentDegree) as err:
            failures.append((tuple(float(v) for v in y), type(err).__name__))
    if not analyses:
        raise DegenerateTangent("no grid cell could be analyzed")
    max_deg = max(a.degree for a in analyses)
    low = sum(1 for a in analyses if a.degree < max_deg) / len(analyses)
    return DegreeMapResult(
        points=tuple(analyses),
        max_degree=max_deg,
        low_degree_fraction=low,
        failures=tuple(failures),
    )
