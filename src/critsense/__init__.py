"""Critical-point detection, classification, and tracking for scalar fields."""

__version__ = "0.1.0"

from .domains import Ball, Box, Interval
from .fields import ScalarField
from .gallery import catalogue, entry, gallery, limit_field
from .detect import (CriticalPoint, boundary_min_gradient,
                     find_critical_points, improper_extrema, refine_newton,
                     resolution)
from .homindex import (boundary_index, homological_index,
                       poincare_hopf_audit, winding_index_2d)
from .morse import (FlowChart, corollary_constants, flow_pair_distance,
                    make_chart, morse_classify, morse_flow_map,
                    morse_flow_trajectory, morse_statistic, verify_morse_chart)
from .mountainpass import PassResult, mountain_pass_point
from .sequence import (Matching, SequenceReport, ck_distance,
                       convergence_experiment, match_critical_points)
from .randfield import (BasisField, BasisSpec, empirical_mean_field,
                        monte_carlo_convergence, sample_limit_field)

__all__ = [
    "__version__",
    "Ball", "Box", "Interval",
    "ScalarField",
    "catalogue", "entry", "gallery", "limit_field",
    "CriticalPoint", "boundary_min_gradient", "find_critical_points",
    "improper_extrema", "refine_newton", "resolution",
    "boundary_index", "homological_index", "poincare_hopf_audit",
    "winding_index_2d",
    "FlowChart", "corollary_constants", "flow_pair_distance", "make_chart",
    "morse_classify", "morse_flow_map", "morse_flow_trajectory",
    "morse_statistic", "verify_morse_chart",
    "PassResult", "mountain_pass_point",
    "Matching", "SequenceReport", "ck_distance", "convergence_experiment",
    "match_critical_points",
    "BasisField", "BasisSpec", "empirical_mean_field",
    "monte_carlo_convergence", "sample_limit_field",
]
