"""Word-by-word group-law oracle for the compiled BCH evaluator, and the
pair-by-pair subalgebra test for ``classify_subspace``."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from nilgeom.algebra import GradedGroup, Subspace


def nested(group: GradedGroup, word: Sequence[int], *letters: np.ndarray) -> np.ndarray:
    """Right-nested bracket ``[w0, [w1, ... wk]]`` word by word, one public
    ``bracket`` call per letter.  ``letters[s]`` is letter ``s``."""
    acc = letters[word[-1]]
    for s in word[-2::-1]:
        acc = group.bracket(letters[s], acc)
    return acc


def subalgebra_pairwise(group: GradedGroup, space: Subspace, tol: float) -> bool:
    """Whether the bracket of every pair of orthonormal basis vectors lies in
    ``space``, one public ``bracket`` call and one ``Subspace.contains`` per
    pair, stopping at the first pair outside."""
    b = space.orthonormal_basis()
    n = space.dim
    for i in range(n):
        for j in range(i + 1, n):
            if not space.contains(group.bracket(b[:, i], b[:, j]), rtol=tol):
                return False
    return True
