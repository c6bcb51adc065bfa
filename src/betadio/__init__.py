"""Digit expansions, beta-shifts, and uniform approximation exponents:
certified interval arithmetic underneath, exact rational bookkeeping for the
run schedules and cylinder masses, a CLI (``betadio``) on top.

The names below are re-exported from their modules on first use (PEP 562):
``import betadio`` loads none, and each name loads only its own; the layers
of the first package, and ``record``, are exported as modules too."""

__version__ = "0.1.0"

_LAYERS = {  # each exported name by the module that defines it
    "bary": "expand_lacunary expand_rational lacunary_blocks rational_blocks",
    "exponents": "ExponentEstimate Run check_relations exponents_of_blocks exponents_of_word",
    "automaton": "AdmissibilityAutomaton PeriodicWord is_self_admissible",
    "beta_constructions": "BetaConstruction ParamSpaceResult beta_blocks generate_beta"
                          " generate_parameter_space",
    "beta_shift": "BetaSystem count_admissible expansion_of_one_star is_admissible"
                  " renyi_bounds_check",
    "beta_values": "CylinderInterval cylinder", "orbits": "greedy_expand",
    "closed_forms": "critical_exponent_s0 digit_set_scale dim_formula dim_formula_sup"
                    " reprove_dim_limit",
    "constructions": "BaryConstruction bary_blocks generate_bary", "fills": "FillPolicy",
    "digit_files": "read_digit_blocks read_digit_file write_digit_blocks write_digit_file",
    "digit_sets": "DigitSet",
    "errors": "BetadioError DegenerateApproximant DepthExceeded DomainError HorizonTooDeep"
              " InfeasibleParameters InvalidDigitSet NoRoot NotSelfAdmissible PrecisionError"
              " PrecisionExhausted PrefixConditionFailed",
    "layout": "BetaLayout ScheduledRuns Segment beta_layout layout_segments schedule",
    "measures_dim": "DimensionReport MeasureValue local_dimension_bary local_dimension_beta"
                    " measure_beta",
    "numerics": "Comparison Scalar", "logarithm": "ln ln_int",
    "roots": "PolyRoot isolate_root parry_invert",
    "words": "DigitWord",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = [*_HOME, "bary", "beta_shift", "constructions", "errors", "measures_dim", "numerics",
           "words", "record"]


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
