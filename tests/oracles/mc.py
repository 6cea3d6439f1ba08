"""Row-wise test oracles for the ``nilgeom.mc`` samplers.

The samplers as first written: each point's norm by ``np.linalg.norm`` over
its trailing coordinate axis, and the scalings broadcast against that axis.
The library runs the same arithmetic one column at a time and must agree
with these bit for bit, on the same random draws.
"""
from __future__ import annotations

import numpy as np


def uniform_ball_rows(rng: np.random.Generator, n: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Uniform samples ``(count, n)`` in the n-dimensional Euclidean ball."""
    g = rng.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random(count) ** (1.0 / n)
    return g / norms * r[:, None]


def box_points_rows(bounds, unit: np.ndarray) -> np.ndarray:
    """Unit-cube points ``(..., n)`` mapped affinely into an (n, 2) box."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    return lo + (hi - lo) * unit


def uniform_box_rows(rng: np.random.Generator, bounds, count: int) -> np.ndarray:
    """Uniform samples ``(count, n)`` in an (n, 2) box."""
    bounds = np.asarray(bounds, dtype=float)
    return box_points_rows(bounds, rng.random((count, bounds.shape[0])))
