"""Monte-Carlo plumbing: estimates and counter-based random streams.

Every stochastic result is an ``Estimate`` carrying its standard error,
sample count and seed.  Randomness comes from Philox streams keyed by
``(seed, task tag, block index)``: sample blocks are indexed deterministically,
so results do not depend on how work is partitioned across workers.
``count_hits`` is the one hit-or-miss loop, for section volumes.
Common random numbers are drawn once per block by ``draw_blocks`` and shared
by every member that ``count_hits`` tests on that block.

Box samples are ``(count, n)`` rows, ball samples coordinate-first
``(n, count)``.  The per-point work runs one coordinate at a time: numpy
reduces over, or broadcasts against, a short trailing axis in a slow inner
loop, while a whole coordinate is one fast loop.  Each such kernel gives,
bit for bit, what its row-wise form did; ``sum_of_squares`` holds the one
summation order that makes the Euclidean norms agree.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

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
        """The fields as a record; an empty ``meta`` is left out."""
        d = asdict(self)
        if not self.meta:
            del d["meta"]
        return d


def _key(seed: int, tag: str, block: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}:{tag}:{block}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def stream(seed: int, tag: str, block: int = 0) -> np.random.Generator:
    """Deterministic generator for one sample block of one task."""
    return np.random.Generator(np.random.Philox(key=_key(seed, tag, block)))


def require_counts(**counts: int) -> None:
    """Reject a sample, segment or grid count below 1 before any work: a
    loop over no samples would report a check that tested nothing."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1")


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


def sum_of_squares(columns: np.ndarray) -> np.ndarray:
    """Sum of the squares of ``columns`` ``(k, ...)`` over its first axis,
    added in the order of ``np.linalg.norm(..., axis=-1)`` on the same values
    as C-ordered rows ``(..., k)``: in sequence below 8 entries, pairwise
    (``np.add.reduce`` over each row's contiguous squares) from 8 on.  Its
    square root is therefore that norm, bit for bit.  The squares are taken
    as one array, as the norm takes them: numpy's scalar product of two
    nans can drop the sign that its array product keeps."""
    squares = columns * columns
    if len(squares) < 8:
        total = squares[0]
        for square in squares[1:]:
            total = total + square
        return total
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(squares, 0, -1)), axis=-1)


def uniform_ball(rng: np.random.Generator, n: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Uniform samples ``(n, count)``, coordinate-first, in the n-ball.

    The ``(count, n)`` normals ``g`` are normalised on their contiguous
    transpose, so the columns are the rows of ``g / norm(g, axis=1) * r``
    with ``r = radius * U^(1/n)``, bit for bit.  A zero normal stays zero.
    """
    g = np.ascontiguousarray(rng.standard_normal((count, n)).T)
    norms = np.sqrt(sum_of_squares(g))
    norms[norms == 0] = 1.0
    g /= norms
    g *= radius * rng.random(count) ** (1.0 / n)
    return g


def box_points(bounds: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Points of the unit cube ``unit`` (count, n) mapped affinely into a box
    given as an (n, 2) array of [lo, hi] rows: ``lo + (hi - lo) * unit``,
    one column at a time."""
    bounds = np.asarray(bounds, dtype=float)
    out = np.empty(np.shape(unit))
    for k, (lo, hi) in enumerate(bounds):
        np.multiply(hi - lo, unit[..., k], out=out[..., k])
        out[..., k] += lo
    return out


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
