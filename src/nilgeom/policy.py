"""Numeric zero-decision policy.

All "is this zero" decisions are made relative to the largest magnitude in
the object under test, so that rescaling a problem does not flip any
classification.  The default relative tolerance is 1e-9 and can be
overridden per call site.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RTOL = 1e-9


@dataclass(frozen=True)
class NumericPolicy:
    """Relative-tolerance policy for rank / degree / zero decisions."""

    rtol: float = DEFAULT_RTOL

    def rank(self, matrix) -> int:
        """Rank via singular values, thresholded relative to the largest one."""
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.size == 0:
            return 0
        s = np.linalg.svd(m, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > self.rtol * s[0]))


DEFAULT_POLICY = NumericPolicy()
