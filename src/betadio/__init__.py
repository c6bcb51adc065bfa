"""Digit expansions, beta-shifts, and uniform approximation exponents.

Certified interval arithmetic underneath; exact rational bookkeeping for the
run schedules and cylinder masses; a CLI (``betadio``) on top.

The names below are re-exported from their layers on first use (PEP 562):
``import betadio`` loads no layer, and each name loads only its own.
"""

__version__ = "0.1.0"

_LAYERS = {
    "bary": "DigitSet ExponentEstimate Run RunDecomposition check_relations estimate_exponents"
            " expand_lacunary expand_rational exponents_of_word run_decomposition",
    "beta_shift": "AdmissibilityAutomaton BetaSystem CylinderInterval count_admissible cylinder"
                  " expansion_of_one_star greedy_expand is_admissible is_full"
                  " is_self_admissible parry_invert renyi_bounds_check",
    "constructions": "BaryConstruction BetaConstruction BetaLayout ConstructionSpec FillPolicy"
                     " ParamSpaceResult ScheduledRuns Segment beta_layout generate_bary"
                     " generate_beta generate_parameter_space layout_segments schedule",
    "errors": "BetadioError DegenerateApproximant DepthExceeded DomainError HorizonTooDeep"
              " InfeasibleParameters InsufficientDepth InvalidDigitSet NoRoot NoRuns"
              " NotInSupport NotSelfAdmissible PrecisionError PrecisionExhausted"
              " PrefixConditionFailed UndecidedFiniteness",
    "measures_dim": "DimensionReport MeasureValue critical_exponent_s0 digit_set_scale"
                    " dim_formula dim_formula_sup local_dimension_bary local_dimension_beta"
                    " measure_bary measure_beta measure_of_word reprove_dim_limit"
                    " stolz_cesaro_ratios verify_sup_by_calculus",
    "numerics": "Comparison Dyadic PolyRoot Scalar isolate_root ln ln_int",
    "words": "DigitWord DigitStream PeriodicWord read_digit_file write_digit_file",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
# the layer modules count as exported too: ``record`` is the layers' base class
__all__ = [*_HOME, *_LAYERS, "record"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{_HOME.get(name, name)}", __name__)
    if name in _HOME:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    # dunders and exports: a submodule that is not a layer stays out once imported
    return sorted({name for name in globals() if name.startswith("__")}
                  - {"__all__", "__getattr__", "__dir__"} | set(__all__))
