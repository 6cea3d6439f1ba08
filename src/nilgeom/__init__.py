"""Calculus and geometric measure theory on graded nilpotent groups.

The package builds graded nilpotent (homogeneous) groups from structure
constants, evaluates their group law exactly by the truncated BCH series,
analyzes parametrized C^1 submanifolds (pointwise degree, homogeneous
tangent spaces, blow-up rates) and estimates the associated measures:
intrinsic measure, spherical factors and spherical Federer densities, with
verification suites for the area-type identities.
"""

__version__ = "0.1.0"

from .algebra import (
    CATALOG,
    GradedGroup,
    Subspace,
    abelian,
    catalog_group,
    classify_subspace,
    engel,
    free2,
    h_type,
    heisenberg,
    load_group,
)
from .manifold import (
    ParamMap,
    PointAnalysis,
    TransformedChart,
    alpha_profile,
    blowup_rates,
    classify_point,
    degree_map,
    homogeneous_tangent,
    horizontal_tangency,
    parse_parametrization,
    pointwise_degree,
    q_n_max_degree,
)
from .mc import Estimate
from .measure import (
    AreaReport,
    area_check,
    beta_constancy_check,
    coarea_check,
    covering_estimate,
    federer_density,
    hypersurface_density,
    intrinsic_measure,
    section_area,
    section_concavity_check,
    spherical_factor,
    vertical_translation_check,
)
from .metrics import (
    HomogeneousDistance,
    ball_bounding_radius,
    box_distance,
    calibrate_box,
    cygan_koranyi_distance,
    distance_from_spec,
    euclidean_ball_distance,
    multiradial_distance,
    verify_distance_axioms,
)
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "CATALOG",
    "GradedGroup",
    "Subspace",
    "ParamMap",
    "PointAnalysis",
    "TransformedChart",
    "Estimate",
    "AreaReport",
    "HomogeneousDistance",
    "NumericPolicy",
    "DEFAULT_POLICY",
    "abelian",
    "alpha_profile",
    "area_check",
    "ball_bounding_radius",
    "beta_constancy_check",
    "blowup_rates",
    "box_distance",
    "calibrate_box",
    "catalog_group",
    "classify_point",
    "classify_subspace",
    "coarea_check",
    "covering_estimate",
    "cygan_koranyi_distance",
    "degree_map",
    "distance_from_spec",
    "engel",
    "euclidean_ball_distance",
    "federer_density",
    "free2",
    "h_type",
    "heisenberg",
    "homogeneous_tangent",
    "horizontal_tangency",
    "hypersurface_density",
    "intrinsic_measure",
    "load_group",
    "multiradial_distance",
    "parse_parametrization",
    "pointwise_degree",
    "q_n_max_degree",
    "section_area",
    "section_concavity_check",
    "spherical_factor",
    "verify_distance_axioms",
    "vertical_translation_check",
]
