"""Monte-Carlo plumbing: estimates and counter-based random streams.

Every stochastic result is an ``Estimate`` carrying its standard error,
sample count and seed.  Randomness comes from Philox streams keyed by
``(seed, task tag, block index)``: sample blocks are indexed deterministically,
so results do not depend on how work is partitioned across workers.
``count_hits`` is the one hit-or-miss loop, for section and box volumes.
Common random numbers are drawn once per block by ``draw_blocks`` and shared
by every member that ``count_hits`` tests on that block.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

BLOCK = 1 << 14


@dataclass(frozen=True)
class Estimate:
    """A numeric result with uncertainty and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int
    method: str
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"estimate value is not finite: {self.value}")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def as_dict(self) -> dict:
        d = {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "method": self.method,
        }
        if self.meta:
            d["meta"] = self.meta
        return d


def _key(seed: int, tag: str, block: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}:{tag}:{block}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def stream(seed: int, tag: str, block: int = 0) -> np.random.Generator:
    """Deterministic generator for one sample block of one task."""
    return np.random.Generator(np.random.Philox(key=_key(seed, tag, block)))


def blocks(total: int) -> list[tuple[int, int]]:
    """Fixed partition of `total` samples into (block index, size) chunks."""
    out = []
    b = 0
    while total > 0:
        size = min(BLOCK, total)
        out.append((b, size))
        total -= size
        b += 1
    return out


def uniform_ball(rng: np.random.Generator, n: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Uniform samples in the n-dimensional Euclidean ball."""
    g = rng.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random(count) ** (1.0 / n)
    return g / norms * r[:, None]


def box_points(bounds: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Points of the unit cube ``unit`` (count, n) mapped affinely into a box
    given as an (n, 2) array of [lo, hi] rows."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    return lo + (hi - lo) * unit


def uniform_box(rng: np.random.Generator, bounds: np.ndarray, count: int) -> np.ndarray:
    """Uniform samples in a box given as an (n, 2) array of [lo, hi] rows."""
    bounds = np.asarray(bounds, dtype=float)
    return box_points(bounds, rng.random((count, bounds.shape[0])))


def draw_blocks(draw, samples: int, seed: int, tag: str):
    """The `samples` points block by block, lazily: block b is drawn as
    ``draw(stream(seed, tag, b), count)`` when the consumer reaches it."""
    return (draw(stream(seed, tag, b), count) for b, count in blocks(samples))


def count_hits(sample_blocks, *members) -> list[int]:
    """Number of points in `sample_blocks` that each member accepts.

    Every member is tested on the same blocks (common random numbers), and
    each block is read once, so a lazy ``draw_blocks`` keeps one block alive
    at a time.
    """
    hits = [0] * len(members)
    for pts in sample_blocks:
        for i, member in enumerate(members):
            hits[i] += int(np.count_nonzero(member(pts)))
        del pts  # let a lazy block go before the next one is drawn
    return hits


def hit_fraction_estimate(
    hits: int, total: int, volume: float, seed: int, method: str, meta: dict | None = None
) -> Estimate:
    """Estimate `volume * P(hit)` with binomial standard error."""
    p = hits / total
    stderr = volume * float(np.sqrt(max(p * (1.0 - p), 0.0) / total))
    return Estimate(
        value=volume * p,
        stderr=stderr,
        samples=total,
        seed=seed,
        method=method,
        meta=meta or {},
    )
