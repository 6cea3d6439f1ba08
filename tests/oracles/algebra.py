"""Word-by-word group-law oracle for the compiled BCH evaluator, and the
one-subspace classification that ``classify_subspaces`` batches: per-layer
ranks through ``NumericPolicy.rank`` and the pair-by-pair subalgebra test."""
from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from nilgeom.algebra import GradedGroup, Subspace, SubspaceClassification
from nilgeom.policy import DEFAULT_POLICY, NumericPolicy


def nested(group: GradedGroup, word: Sequence[int], *letters: np.ndarray) -> np.ndarray:
    """Right-nested bracket ``[w0, [w1, ... wk]]`` word by word, one public
    ``bracket`` call per letter.  ``letters[s]`` is letter ``s``."""
    acc = letters[word[-1]]
    for s in word[-2::-1]:
        acc = group.bracket(letters[s], acc)
    return acc


def orthonormal_basis(space: Subspace) -> np.ndarray:
    """The orthonormal basis of one subspace, one SVD of its own basis."""
    u, _, _ = np.linalg.svd(space.basis, full_matrices=False)
    return u[:, : space.dim]


def classify_one(
    group: GradedGroup, space: Subspace, tol: float = DEFAULT_POLICY.rtol
) -> SubspaceClassification:
    """Classify one subspace, one layer rank and one projection at a time."""
    policy = NumericPolicy(rtol=tol)
    b = orthonormal_basis(space)
    n = space.dim

    # dim(S ∩ H^j) via rank of the stacked bases
    eye = np.eye(group.q)
    inter_dims = []
    for j in range(1, group.step + 1):
        hbasis = eye[:, group.layer_slices[j - 1]]
        inter = n + hbasis.shape[1] - policy.rank(np.hstack([b, hbasis]))
        inter_dims.append(int(inter))
    homogeneous = sum(inter_dims) == n

    # subalgebra: the brackets of all basis pairs, in one batch, stay in the
    # span up to a projection residual relative to each bracket's largest entry
    pairs = np.array(list(combinations(range(n), 2)), dtype=int).reshape(-1, 2)
    w = group.bracket(*b.T[pairs.T])
    residual = np.abs(w - (w @ b) @ b.T).max(axis=-1, initial=0.0)
    subalgebra = bool((residual <= tol * np.abs(w).max(axis=-1, initial=0.0)).all())

    horizontal = bool(np.max(np.abs(b[group.layers[0] :, :]), initial=0.0) <= tol)

    vertical = False
    if homogeneous:
        nonzero = [j for j, dj in enumerate(inter_dims, start=1) if dj > 0]
        if nonzero:
            low = nonzero[0]
            vertical = all(
                inter_dims[j - 1] == group.layers[j - 1] for j in range(low + 1, group.step + 1)
            ) and all(inter_dims[j - 1] == 0 for j in range(1, low))

    return SubspaceClassification(
        homogeneous=homogeneous,
        subalgebra=subalgebra,
        horizontal=horizontal,
        vertical=vertical,
        layer_dims=tuple(inter_dims),
    )


def subalgebra_pairwise(group: GradedGroup, space: Subspace, tol: float) -> bool:
    """Whether the bracket of every pair of orthonormal basis vectors lies in
    ``space``, one public ``bracket`` call and one projection per pair: the
    residual off the span is at most ``tol`` times the bracket's largest
    entry.  Stops at the first pair outside."""
    b = space.orthonormal_basis()
    n = space.dim
    for i in range(n):
        for j in range(i + 1, n):
            w = group.bracket(b[:, i], b[:, j])
            if not np.max(np.abs(w - (w @ b) @ b.T)) <= tol * np.max(np.abs(w)):
                return False
    return True
