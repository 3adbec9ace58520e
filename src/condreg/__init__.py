"""condreg: fit polynomial-term linear models and interpret them.

Beyond ordinary least squares with full inference, the package derives
one-factor conditional response functions and unit-change effects,
relates simple-regression slopes to multivariate coefficients (including
the residualized-predictor equivalence and the correlation-adjusted
effect sum that collapses back to the simple slope), searches model
spaces, and classifies predictor-domain geometry and combined factor
action.

Every public name is imported from its module on first access, so
``import condreg`` loads none of the package's modules (and not numpy);
``from condreg import fit`` loads only what ``fit`` needs.  Within the
package, :func:`on_demand` gives a module a function that imports its
target only when called.
"""

# Each public name and the module of this package it is defined in.
_SOURCES = {
    "ActionClass": "geometry",
    "BridgeReport": "relations",
    "ColumnQuartiles": "dataset",
    "ConditionalResponse": "conditional",
    "CondregError": "errors",
    "ConfidenceEllipse": "geometry",
    "CorrelationReport": "dataset",
    "Dataset": "dataset",
    "Finding": "relations",
    "FittedModel": "ols",
    "ModelSpec": "terms",
    "Residualization": "relations",
    "SearchResult": "selection",
    "StepwiseResult": "selection",
    "StepwiseStep": "selection",
    "TCoefficients": "conditional",
    "Term": "terms",
    "advisories": "selection",
    "backward_stepwise": "selection",
    "best_subset": "selection",
    "boundary": "geometry",
    "bridge": "relations",
    "canonical_order": "terms",
    "centered_moments": "dataset",
    "check_hierarchy": "terms",
    "classify_action": "geometry",
    "correlation_p_value": "dataset",
    "derive": "conditional",
    "detect_paradox": "relations",
    "ellipse": "geometry",
    "fit": "ols",
    "full_quadratic_terms": "terms",
    "load_csv": "dataset",
    "parse_formula": "formula",
    "parse_terms": "formula",
    "pearson_matrix": "dataset",
    "predict": "ols",
    "print_formula": "formula",
    "quartiles": "dataset",
    "residualize": "relations",
    "resolve_assignment": "conditional",
    "t_coefficients": "conditional",
    "two_predictor_bridge": "relations",
    "unit_effect": "conditional",
}

__version__ = "0.1.0"
__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: `python -X importtime` lists
    # only the modules the former imports.
    value = getattr(__import__(f"{__name__}.{_SOURCES[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def on_demand(module: str, name: str):
    """A function that calls ``condreg.<module>.<name>``, importing the
    module on its first call.  Bound as a module attribute, it can be read
    and replaced without importing anything."""

    def stub(*args, **kwargs):
        return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)(*args, **kwargs)

    stub.__module__, stub.__name__, stub.__qualname__ = f"{__name__}.{module}", name, name
    return stub
