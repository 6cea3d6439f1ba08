"""Projected-wedge route to the hypersurface density, for cross-checking
``nilgeom.measure.hypersurface_density`` (the unit-normal route)."""
from __future__ import annotations

import numpy as np

from nilgeom.errors import DegenerateTangent
from nilgeom.measure import projected_wedge_norms


def hypersurface_density_multivector(chart, y) -> float:
    """Spherical-measure density of a hypersurface as the norm of the
    top-degree projection of its unit tangent n-vector."""
    group = chart.group
    p = chart.value(y)
    jac = chart.jacobian(y)
    coeffs = group.frame_coefficients(p, jac)
    raw = projected_wedge_norms(group, coeffs, group.hom_dimension - 1)
    gram = float(np.sqrt(max(np.linalg.det(jac.T @ jac), 0.0)))
    if gram == 0.0:
        raise DegenerateTangent("tangent map is rank deficient")
    return raw / gram
