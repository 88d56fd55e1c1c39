"""Exact-arithmetic centered vs non-centered maximal averages on finite metric spaces."""

from .metric import (
    Rational,
    as_rational,
    MetricViolation,
    MetricAxiomError,
    FiniteMetricSpace,
    Ball,
    BallFamily,
    MidpointConfig,
    metric_violations,
    validate_space,
    line_space,
    is_ultrametric,
    ultrametric_violation,
    closed_ball,
    open_ball,
    enumerate_balls,
    find_midpoint_configs,
)
from .measure import (
    DiscreteMeasure,
    SampleFunction,
    measure_of,
    integrate,
    ball_average,
    dirac,
    normalized_indicator,
)
from .maximal import (
    MaximalValue,
    PointMaximal,
    MaximalReport,
    centered_maximal,
    noncentered_maximal,
    centered_maximal_measure,
    noncentered_maximal_measure,
    inf_ball_measure_pair,
    maximal_field,
)
from .theorems import (
    Witness,
    HullCertificate,
    CoincidenceVerdict,
    PairBallCheck,
    BallInfimumReport,
    LowerSemicontinuityReport,
    GridDemoReport,
    construct_witness,
    coincidence_randomized,
    coincidence_exact,
    verify_witness,
    verify_hull_certificates,
    check_ball_infimum,
    check_lower_semicontinuity,
    build_grid_demo,
    bump_function,
    check_bump_bound,
)
from . import simplex  # no decision uses the LP; bench/spans.py still traces it by name
from .generators import (
    Dendrogram,
    gen_ultrametric,
    gen_taxicab,
    gen_graph_metric,
    gen_measure,
    gen_function,
    shortest_path_metric,
)

__version__ = "0.1.0"
