"""Brute-force oracle for the maximal degree Q_n."""
from __future__ import annotations

from itertools import combinations

from nilgeom.algebra import GradedGroup


def q_n_bruteforce(group: GradedGroup, n: int) -> int:
    """Max degree over all n-element index tuples."""
    deg = group.degrees
    return max(int(sum(deg[list(c)])) for c in combinations(range(group.q), n))
