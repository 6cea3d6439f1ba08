"""Reported standard errors against exact values, over seeds.

For an estimator with a known exact value, seeds 0-24 give
z = (value - exact) / stderr.  Under an honest stderr the mean of 25 such z
has standard deviation 1/5, so it must lie within 3/5 of 0, and a z beyond
2 has probability about 4.6%, so at most 4 of 25 may lie there (an honest
stderr fails that with probability about 2.5%).  Every run is seeded, so
the test is deterministic.
"""
import numpy as np
import pytest

from nilgeom.algebra import Subspace, heisenberg
from nilgeom.measure import section_area
from nilgeom.metrics import box_distance, multiradial_distance

H1 = heisenberg(1)
VERTICAL = Subspace(H1, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
SEEDS = range(25)


@pytest.mark.parametrize(
    "dist, exact",
    [(box_distance(H1, [1.0, 1.0]), 4.0), (multiradial_distance(H1, "max(t1, 1.2*t2^0.5)"), 25.0 / 9.0)],
    ids=["box", "multiradial"],
)
def test_section_area_stderr(dist, exact):
    # the section span(e1, e3) at u = 0 is the rectangle |x1| <= 1,
    # |x3| <= r^2 with r = 1 (box) or 1/1.2 (multiradial), of area 4 r^2
    estimates = [section_area(dist, VERTICAL, np.zeros(3), samples=20_000, seed=seed) for seed in SEEDS]
    z = np.array([(est.value - exact) / est.stderr for est in estimates])
    assert abs(z.mean()) <= 0.6
    assert np.count_nonzero(np.abs(z) > 2.0) <= 4
