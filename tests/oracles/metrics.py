"""Test oracle for ``nilgeom.metrics``.

Distances as first written: the whole product x^-1 . y, its layer
magnitudes by ``np.linalg.norm`` stacked on a trailing axis ``(..., iota)``,
and the norm function on that stack (the box and Cygan-Koranyi formulas
written out from the distance's parameters; the multiradial and
euclidean-ball kinds through their own ``phi``).  The production kernel
takes the product and the norm block by block on coordinate-first rows and
must agree with it bit for bit.  ``euclidean_ball_phi_loop`` is the
euclidean-ball norm as first written, an 80-step bisection; the Newton
solve must agree with it within a few ulps where no power of its midpoint
under- or overflows.  ``ball_bounding_radius_loop`` makes one
distance call per sweep level and per bisection step; the production sweep
and bisection batch the calls and must return the same radius bit for bit.
"""
from __future__ import annotations

import numpy as np

from nilgeom.errors import EmptySection
from nilgeom.mc import stream
from nilgeom.metrics import section_nonempty


def layer_magnitudes(dist, x) -> np.ndarray:
    """Per-layer Euclidean magnitudes of points ``(..., q)``, as ``(..., iota)``."""
    g = dist.group
    return np.stack(
        [np.linalg.norm(x[..., layer], axis=-1) for layer in g.layer_slices], axis=-1
    )


def phi(dist, mags: np.ndarray) -> np.ndarray:
    """The norm function on trailing-axis magnitudes ``(..., iota)``."""
    if dist.kind == "box":
        eps = np.asarray(dist.params)
        return np.max(eps * mags ** (1.0 / np.arange(1, eps.size + 1)), axis=-1)
    if dist.kind == "cygan_koranyi":
        (c,) = dist.params
        return (mags[..., 0] ** 4 + c * mags[..., 1] ** 2) ** 0.25
    # multiradial evaluates on the trailing-axis stack inside, and the
    # euclidean ball is checked against its bisection in test_metrics
    return dist.phi(np.moveaxis(mags, -1, 0))


def euclidean_ball_phi_loop(r0: float, mags: np.ndarray) -> np.ndarray:
    """The euclidean-ball ``phi`` of layer-first magnitudes ``(iota, ...)``
    as first written: always 80 halvings of every row's bracket.  A power
    of the midpoint that under- or overflows makes it wrong, and a row with
    no positive magnitude, nan ones included, gives 0."""
    mags = np.moveaxis(np.asarray(mags, dtype=float), 0, -1)
    iota = mags.shape[-1]
    js = np.arange(1, iota + 1, dtype=float)
    flat = mags.reshape(-1, iota)
    out = np.zeros(flat.shape[0])
    active = np.any(flat > 0, axis=1)
    if np.any(active):
        t = flat[active]
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


def norm(dist, x) -> np.ndarray:
    """Norms of points ``(..., q)``; a single point ``(q,)`` is a batch of
    one row, so its powers round as they do inside a batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return norm(dist, x[None])[0]
    return phi(dist, layer_magnitudes(dist, x))


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


def ball_bounding_radius_loop(dist, space, u, safety: float = 1.5, ball_radius: float = 1.0) -> float:
    """``ball_bounding_radius`` with one distance call per sweep level and per
    bisection step, as first written."""
    u = np.asarray(u, dtype=float)
    if not section_nonempty(dist, space, u, radius=ball_radius):
        raise EmptySection("the metric ball does not meet the subspace")
    basis = space.orthonormal_basis()
    n = space.dim
    rng = stream(0, "bounding-dirs")
    dirs = rng.standard_normal((32 + 16 * n, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n), -np.eye(n)])

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
