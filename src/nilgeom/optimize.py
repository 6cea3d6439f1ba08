"""Derivative-free helpers: Nelder-Mead simplex and monotone bisection."""
from __future__ import annotations

from typing import Callable

import numpy as np

FTOL = 1e-10


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    scale: float = 0.25,
    max_iter: int = 200,
) -> tuple[np.ndarray, float]:
    """Minimize f from x0; returns (best point, best value).

    Standard reflection/expansion/contraction/shrink coefficients; stops
    early once the simplex values agree to ``FTOL`` relative.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [x0]
    for i in range(n):
        pt = x0.copy()
        pt[i] += scale
        simplex.append(pt)
    values = [f(p) for p in simplex]

    for _ in range(max_iter):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) <= FTOL * (abs(values[0]) + FTOL):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        fr = f(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (p - best) for p in simplex[1:]]
                values = [values[0]] + [f(p) for p in simplex[1:]]
    i = int(np.argmin(values))
    return simplex[i], values[i]


def bisect_largest_passing(predicate: Callable[[float], bool], lo: float, hi: float) -> float | None:
    """Largest x in [lo, hi] with predicate(x) true, assuming monotone
    predicate, to 24 halvings of [lo, hi].

    Returns None when even `lo` fails.
    """
    if predicate(hi):
        return hi
    if not predicate(lo):
        return None
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo
