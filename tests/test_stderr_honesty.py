"""Reported standard errors against exact values, over seeds.

For an estimator with a known exact value (or a reference far more
accurate than its Monte-Carlo error), seeds 0-24 give
z = (value - exact) / stderr.  Under an honest stderr the mean of 25 such z
has standard deviation 1/5, so it must lie within 3/5 of 0, and a z beyond
2 has probability about 4.6%, so at most 4 of 25 may lie there (an honest
stderr fails that with probability about 2.5%).  Every run is seeded, so
the test is deterministic.
"""
import numpy as np
import pytest

from nilgeom.algebra import Subspace, heisenberg
from nilgeom.manifold import parse_parametrization
from nilgeom.measure import intrinsic_measure, section_area
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


@pytest.mark.parametrize("exprs", ["y1; y2; y1^2 + y2^2", "y1; sin(y2); y1*y2"], ids=["paraboloid", "sine"])
def test_intrinsic_mc_stderr(exprs):
    # the tensor quadrature at resolution 512 is the reference: its error is
    # far below the Monte-Carlo stderr of 20,000 samples
    chart = parse_parametrization(exprs, 2, [[-1, 1], [-1, 1]], H1)
    exact = intrinsic_measure(chart, resolution=512).value
    estimates = [intrinsic_measure(chart, quadrature="mc", samples=20_000, seed=seed) for seed in SEEDS]
    z = np.array([(est.value - exact) / est.stderr for est in estimates])
    assert abs(z.mean()) <= 0.6
    assert np.count_nonzero(np.abs(z) > 2.0) <= 4
