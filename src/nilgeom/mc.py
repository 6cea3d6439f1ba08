"""Monte-Carlo plumbing: estimates and counter-based random streams.

Every stochastic result is an ``Estimate`` carrying its standard error,
sample count and seed.  Randomness comes from Philox streams keyed by
``(seed, task tag, block index)``: sample blocks are indexed deterministically,
so results do not depend on how work is partitioned across workers.
``count_hits`` is the one hit-or-miss loop, for section and box volumes.
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


def uniform_box(rng: np.random.Generator, bounds: np.ndarray, count: int) -> np.ndarray:
    """Uniform samples in a box given as an (n, 2) array of [lo, hi] rows."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    return lo + (hi - lo) * rng.random((count, bounds.shape[0]))


def count_hits(draw, member, samples: int, seed: int, tag: str) -> int:
    """Number of `samples` points that `member` accepts, the points of block
    b drawn as ``draw(stream(seed, tag, b), count)``."""
    return sum(
        int(np.sum(member(draw(stream(seed, tag, b), count)))) for b, count in blocks(samples)
    )


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
