"""Brute-force oracle for the maximal degree Q_n, and the per-cell analysis
that ``degree_map`` and ``classify_point`` batch: each cell's frame
coefficients solved at that cell alone, and its h-tangent from a wedge
matrix built entry by entry, classified on its own (once for ``regular`` and
again for its kinds)."""
from __future__ import annotations

from itertools import combinations

import numpy as np

from nilgeom.algebra import GradedGroup, Subspace
from nilgeom.errors import DegenerateTangent, InconsistentDegree, NonFinite, NonSimpleProjection
from nilgeom.manifold import (
    DegreeMapResult,
    PointAnalysis,
    _require_full,
    _tangents,
    cell_centers,
    degree_echelon,
    q_n_max_degree,
    sampled_max_degree,
)
from nilgeom.policy import DEFAULT_POLICY, NumericPolicy
from oracles.algebra import classify_one


def q_n_bruteforce(group: GradedGroup, n: int) -> int:
    """Max degree over all n-element index tuples."""
    deg = group.degrees
    return max(int(sum(deg[list(c)])) for c in combinations(range(group.q), n))


def htangent_per_cell(group: GradedGroup, top, n: int, policy: NumericPolicy) -> tuple[Subspace, bool]:
    """Kernel of the wedge map X -> X ^ xi_top, its matrix filled one entry
    at a time, and whether it is a subalgebra."""
    q = group.q
    top = np.asarray(top, dtype=float)
    cut = policy.rtol * float(np.max(np.abs(top), initial=0.0))
    row_of = {key: r for r, key in enumerate(combinations(range(q), n + 1))}
    mat = np.zeros((len(row_of), q))
    for key, c in zip(combinations(range(q), n), top):
        if abs(c) <= cut:
            continue
        for i in range(q):
            if i not in key:
                sign = -1.0 if sum(k < i for k in key) % 2 else 1.0
                mat[row_of[tuple(sorted(key + (i,)))], i] = sign * c
    mat = mat[np.any(mat != 0.0, axis=1)]
    if mat.size == 0:
        raise NonSimpleProjection("top-degree projection is zero")
    _, s, vt = np.linalg.svd(mat)
    kernel_dim = int(np.sum(s <= policy.rtol * s[0])) + max(q - len(s), 0)
    if kernel_dim != n:
        raise NonSimpleProjection(
            f"wedge kernel has dimension {kernel_dim}, expected {n}: "
            "top-degree projection is not simple"
        )
    space = Subspace(group, vt[q - kernel_dim :].T)
    return space, classify_one(group, space, tol=max(policy.rtol, 1e-8)).subalgebra


def analyse_per_cell(chart, y, t, b: int, policy: NumericPolicy) -> PointAnalysis:
    """Row ``b`` of a tangent batch, analysed and classified on its own; the
    frame coefficients are solved again at ``y`` alone."""
    group = chart.group
    _require_full(t, b)
    p, degree = t.p[b], int(t.degree[b])
    coeffs = group.frame_coefficients(chart.value(y), chart.jacobian(y))
    qn = q_n_max_degree(group, chart.n)
    notes: list[str] = []
    try:
        space, regular = htangent_per_cell(group, t.top[b], chart.n, policy)
    except NonSimpleProjection as err:
        space, regular = None, False
        notes.append(f"non_simple_projection: {err}")
    ech = degree_echelon(group, coeffs, policy)
    implied = sum((j + 1) * a for j, a in enumerate(ech.alpha))
    if implied != degree:
        raise InconsistentDegree(f"echelon degree {implied} != multivector degree {degree} at y={y}")
    m = group.layers[0]
    characteristic = False
    if chart.n >= m:
        horiz = np.zeros((group.q, m))
        horiz[:m] = np.eye(m)
        characteristic = policy.rank(np.hstack([coeffs, horiz])) == chart.n
    if not regular:
        cls = "irregular"
    elif degree < sampled_max_degree(chart, policy=policy):
        cls = "low_degree"
    else:
        kinds = classify_one(group, space, tol=max(policy.rtol, 1e-8))
        if kinds.horizontal:
            cls = "horizontal"
        elif degree == qn:
            cls = "transversal"
        else:
            cls = "regular"
    return PointAnalysis(
        y=y, p=p, degree=degree, htangent=space, regular=regular, classification=cls,
        alpha=ech.alpha, q_n=qn, characteristic=characteristic, coeffs=coeffs, pivots=ech.pivots,
        notes=tuple(notes),
    )


def classify_point_per_cell(chart, y, policy: NumericPolicy = DEFAULT_POLICY) -> PointAnalysis:
    y = np.asarray(y, dtype=float)
    chart.check_domain(y)
    return analyse_per_cell(chart, y, _tangents(chart, y[None, :], policy), 0, policy)


def degree_map_per_cell(chart, grid_counts, policy: NumericPolicy = DEFAULT_POLICY) -> DegreeMapResult:
    """``degree_map`` with every cell analysed by ``analyse_per_cell``."""
    counts = [int(c) for c in np.atleast_1d(grid_counts)]
    if len(counts) == 1:
        counts = counts * chart.n
    ys = cell_centers(chart.domain, counts)
    try:
        t = _tangents(chart, ys, policy)
    except NonFinite:
        t = None
    analyses, failures = [], []
    for b, y in enumerate(ys):
        try:
            if t is None:
                analyses.append(classify_point_per_cell(chart, y, policy))
            else:
                analyses.append(analyse_per_cell(chart, y, t, b, policy))
        except (DegenerateTangent, NonFinite, InconsistentDegree) as err:
            failures.append((tuple(float(v) for v in y), type(err).__name__))
    max_deg = max(a.degree for a in analyses)
    low = sum(1 for a in analyses if a.degree < max_deg) / len(analyses)
    return DegreeMapResult(
        points=tuple(analyses), max_degree=max_deg, low_degree_fraction=low, failures=tuple(failures)
    )
