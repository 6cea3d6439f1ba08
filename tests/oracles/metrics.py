"""Test oracle for ``nilgeom.metrics``.

Distances as first written: the whole product x^-1 . y, its layer
magnitudes by ``np.linalg.norm`` stacked on a trailing axis ``(..., iota)``,
and the norm function on that stack (the box and Cygan-Koranyi formulas
written out from the distance's parameters).  The production kernel takes
the product and the norm block by block on coordinate-first rows and must
agree with it bit for bit.
"""
from __future__ import annotations

import numpy as np


def layer_magnitudes(dist, x) -> np.ndarray:
    """Per-layer Euclidean magnitudes of points ``(..., q)``, as ``(..., iota)``."""
    g = dist.group
    return np.stack(
        [np.linalg.norm(x[..., g.layer_slice(j)], axis=-1) for j in range(1, g.step + 1)], axis=-1
    )


def phi(dist, mags: np.ndarray) -> np.ndarray:
    """The norm function on trailing-axis magnitudes ``(..., iota)``."""
    if dist.kind == "box":
        eps = np.asarray(dist.params)
        return np.max(eps * mags ** (1.0 / np.arange(1, eps.size + 1)), axis=-1)
    if dist.kind == "cygan_koranyi":
        (c,) = dist.params
        return (mags[..., 0] ** 4 + c * mags[..., 1] ** 2) ** 0.25
    # euclidean_ball and multiradial evaluate on the trailing-axis stack inside
    return dist.phi(np.moveaxis(mags, -1, 0))


def norm(dist, x) -> np.ndarray:
    return phi(dist, layer_magnitudes(dist, np.asarray(x, dtype=float)))


def distance(dist, x, y) -> np.ndarray:
    g = dist.group
    return norm(dist, g.product(g.inverse(x), y))


def ball_contains(dist, center, x, radius: float = 1.0) -> np.ndarray:
    return distance(dist, center, x) <= radius * (1.0 + 1e-14)


def unit_normalize(dist, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = np.asarray(norm(dist, x))
    factor = 1.0 / np.where(n == 0, 1.0, n)
    return x * factor[..., None] ** dist.group.degrees
