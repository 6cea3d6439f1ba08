"""Sparse exterior algebra over the left-invariant frame: the cross-check oracle.

nilgeom reads degrees, homogeneous tangents and densities off the minors of
the frame-coefficient matrix (``manifold.tangent_minors``); this module
computes the same n-vectors independently, by wedging, for the tests to
compare against.  The library never imports it.

A ``Multivector`` stores a k-vector as a map from strictly increasing index
tuples ``I = (i_1 < ... < i_k)`` to real coefficients ``c_I``, representing
``sum_I c_I X_{i_1} ^ ... ^ X_{i_k}`` in the left-invariant frame of a graded
group.  The degree of a tuple is the sum of the coordinate degrees, which
drives the degree projections and the pointwise-degree machinery.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nilgeom.algebra import GradedGroup
from nilgeom.errors import DegenerateTangent, NilgeomError
from nilgeom.policy import DEFAULT_POLICY

Key = tuple[int, ...]


class GradeOverflow(NilgeomError):
    """A wedge whose grade would exceed the group dimension."""


def _merge_sign(a: Key, b: Key) -> tuple[Key, int]:
    """Merge two disjoint increasing tuples, returning the shuffle sign."""
    merged = list(a)
    sign = 1
    for x in b:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > x:
            pos -= 1
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, x)
    return tuple(merged), sign


@dataclass(frozen=True)
class Multivector:
    """Sparse k-vector in the left-invariant frame of ``group``."""

    group: GradedGroup
    k: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        pruned = {}
        scale = max((abs(c) for c in self.terms.values()), default=0.0)
        cut = DEFAULT_POLICY.rtol * max(scale, 1.0e-300) if scale else 0.0
        for key, c in self.terms.items():
            key = tuple(int(i) for i in key)
            if len(key) != self.k or any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"tuple key {key} is not strictly increasing of length {self.k}")
            if abs(c) > cut:
                pruned[key] = float(c)
        object.__setattr__(self, "terms", pruned)

    # -- basic algebra --------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if other.group != self.group or other.k != self.k:
            raise ValueError("grade/group mismatch in multivector sum")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return Multivector(self.group, self.k, out)

    def __mul__(self, scalar: float) -> "Multivector":
        return Multivector(self.group, self.k, {k: scalar * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Multivector":
        return self * -1.0

    def is_zero(self) -> bool:
        return not self.terms

    def tuple_degree(self, key: Key) -> int:
        deg = self.group.degrees
        return int(sum(deg[i] for i in key))

    def degrees_present(self) -> list[int]:
        return sorted({self.tuple_degree(key) for key in self.terms})

    def max_degree(self, rtol: float = DEFAULT_POLICY.rtol) -> int:
        """Largest M with a degree-M component above the relative threshold."""
        total = g_norm(self)
        if total == 0.0:
            raise ValueError("zero multivector has no degree")
        best = 0
        for m in self.degrees_present():
            if g_norm(project_degree(self, m)) > rtol * total:
                best = max(best, m)
        return best


def basis_vector(group: GradedGroup, i: int) -> Multivector:
    """The frame vector X_i as a grade-1 multivector (0-based index)."""
    return Multivector(group, 1, {(i,): 1.0})


def from_vector(group: GradedGroup, v) -> Multivector:
    v = np.asarray(v, dtype=float)
    return Multivector(group, 1, {(i,): float(v[i]) for i in np.nonzero(v)[0]})


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; antisymmetric, associative, shuffle signs."""
    if a.group != b.group:
        raise ValueError("wedge of multivectors over different groups")
    k = a.k + b.k
    if k > a.group.q:
        raise GradeOverflow(f"grade {k} exceeds group dimension {a.group.q}")
    out: dict[Key, float] = {}
    for ka, ca in a.terms.items():
        sa = set(ka)
        for kb, cb in b.terms.items():
            if sa.intersection(kb):
                continue
            key, sign = _merge_sign(ka, kb)
            out[key] = out.get(key, 0.0) + sign * ca * cb
    return Multivector(a.group, k, out)


def wedge_all(vectors: list[Multivector]) -> Multivector:
    acc = vectors[0]
    for v in vectors[1:]:
        acc = wedge(acc, v)
    return acc


def project_degree(v: Multivector, m: int) -> Multivector:
    """Keep exactly the terms whose tuple degree equals m."""
    return Multivector(
        v.group, v.k, {key: c for key, c in v.terms.items() if v.tuple_degree(key) == m}
    )


def g_norm(v: Multivector) -> float:
    """Norm induced by g: the frame tuples X_I are orthonormal."""
    return float(np.sqrt(sum(c * c for c in v.terms.values())))


def lift_tangent(group: GradedGroup, p, tangent_basis) -> Multivector:
    """Left-invariant n-vector field ξ with ξ(p) = wedge of the given tangent basis.

    Each column is rewritten in the left-invariant frame at p, then wedged;
    the coefficients c_I are exactly the frame coefficients of the lift, so
    the result also represents the translated n-vector at the origin.
    """
    basis = np.atleast_2d(np.asarray(tangent_basis, dtype=float))
    if basis.shape[0] != group.q:
        basis = basis.T
    n = basis.shape[1]
    if DEFAULT_POLICY.rank(basis) < n:
        raise DegenerateTangent(f"tangent basis has rank < {n}")
    coeffs = group.frame_coefficients(p, basis)
    return wedge_all([from_vector(group, coeffs[:, i]) for i in range(n)])
