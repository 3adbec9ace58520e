"""condreg: fit polynomial-term linear models and interpret them.

Beyond ordinary least squares with full inference, the package derives
one-factor conditional response functions and unit-change effects,
relates simple-regression slopes to multivariate coefficients (including
the residualized-predictor equivalence and the correlation-adjusted
effect sum that collapses back to the simple slope), searches model
spaces, and classifies predictor-domain geometry and combined factor
action.
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
    ellipse,
)
from .ols import FittedModel, fit, predict
from .relations import (
    BridgeReport,
    Finding,
    Residualization,
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
    ModelSpec,
    Term,
    canonical_order,
    check_hierarchy,
    full_quadratic,
    full_quadratic_terms,
)

__version__ = "0.1.0"

__all__ = [
    "ActionClass",
    "BridgeReport",
    "ColumnQuartiles",
    "ConditionalResponse",
    "CondregError",
    "ConfidenceEllipse",
    "CorrelationReport",
    "Dataset",
    "Finding",
    "FittedModel",
    "ModelSpec",
    "Residualization",
    "SearchResult",
    "StepwiseResult",
    "StepwiseStep",
    "TCoefficients",
    "Term",
    "advisories",
    "backward_stepwise",
    "best_subset",
    "boundary",
    "bridge",
    "canonical_order",
    "centered_moments",
    "check_hierarchy",
    "classify_action",
    "correlation_p_value",
    "derive",
    "detect_paradox",
    "ellipse",
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
    "residualize",
    "resolve_assignment",
    "t_coefficients",
    "two_predictor_bridge",
    "unit_effect",
]
