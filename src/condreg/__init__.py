"""condreg: fit polynomial-term linear models and interpret them.

Beyond ordinary least squares with full inference, the package derives
one-factor conditional response functions and unit-change effects,
relates simple-regression slopes to multivariate coefficients (including
the residualized-predictor equivalence and the correlation-adjusted
effect sum that collapses back to the simple slope), searches model
spaces, codes designed-experiment doses, and classifies predictor-domain
geometry and combined factor action.
"""

from .conditional import (
    ConditionalResponse,
    TCoefficients,
    derive,
    resolve_assignment,
    t_coefficients,
    unit_effect,
)
from .dataset import (
    ColumnQuartiles,
    CorrelationReport,
    Dataset,
    centered_moments,
    correlation_p_value,
    load_csv,
    pearson_matrix,
    quartiles,
)
from .errors import CondregError
from .formula import parse_formula, parse_terms, print_formula
from .geometry import (
    ActionClass,
    ConfidenceEllipse,
    boundary,
    classify_action,
    classify_point,
    ellipse,
)
from .ols import FittedModel, NestedComparison, compare, fit, predict
from .relations import (
    AbbottCarrollResult,
    BridgeReport,
    Finding,
    Residualization,
    abbott_carroll,
    bridge,
    detect_paradox,
    residualize,
    two_predictor_bridge,
)
from .selection import (
    SearchResult,
    StepwiseResult,
    StepwiseStep,
    advisories,
    backward_stepwise,
    best_subset,
)
from .terms import (
    CodedScale,
    ModelSpec,
    Term,
    canonical_order,
    check_hierarchy,
    expand,
    full_quadratic,
    full_quadratic_terms,
)

__version__ = "0.1.0"

__all__ = [
    "AbbottCarrollResult",
    "ActionClass",
    "BridgeReport",
    "CodedScale",
    "ColumnQuartiles",
    "ConditionalResponse",
    "CondregError",
    "ConfidenceEllipse",
    "CorrelationReport",
    "Dataset",
    "Finding",
    "FittedModel",
    "ModelSpec",
    "NestedComparison",
    "Residualization",
    "SearchResult",
    "StepwiseResult",
    "StepwiseStep",
    "TCoefficients",
    "Term",
    "abbott_carroll",
    "advisories",
    "backward_stepwise",
    "best_subset",
    "boundary",
    "bridge",
    "canonical_order",
    "centered_moments",
    "check_hierarchy",
    "classify_action",
    "classify_point",
    "compare",
    "correlation_p_value",
    "derive",
    "detect_paradox",
    "ellipse",
    "expand",
    "fit",
    "full_quadratic",
    "full_quadratic_terms",
    "load_csv",
    "parse_formula",
    "parse_terms",
    "pearson_matrix",
    "predict",
    "print_formula",
    "quartiles",
    "resolve_assignment",
    "residualize",
    "t_coefficients",
    "two_predictor_bridge",
    "unit_effect",
]
