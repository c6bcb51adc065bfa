"""Digit expansions, beta-shifts, and uniform approximation exponents.

Certified interval arithmetic underneath; exact rational bookkeeping for the
run schedules and cylinder masses; a CLI (``betadio``) on top.
"""

__version__ = "0.1.0"

from .bary import (
    DigitSet,
    ExponentEstimate,
    Run,
    RunDecomposition,
    check_relations,
    estimate_exponents,
    expand_lacunary,
    expand_rational,
    exponents_of_word,
    run_decomposition,
)
from .beta_shift import (
    AdmissibilityAutomaton,
    BetaSystem,
    CylinderInterval,
    count_admissible,
    cylinder,
    expansion_of_one_star,
    greedy_expand,
    is_admissible,
    is_full,
    is_self_admissible,
    parry_invert,
    renyi_bounds_check,
)
from .constructions import (
    BaryConstruction,
    BetaConstruction,
    BetaLayout,
    ConstructionSpec,
    FillPolicy,
    ParamSpaceResult,
    ScheduledRuns,
    Segment,
    beta_layout,
    generate_bary,
    generate_beta,
    generate_parameter_space,
    layout_segments,
    schedule,
)
from .errors import (
    BetadioError,
    DegenerateApproximant,
    DepthExceeded,
    DomainError,
    HorizonTooDeep,
    InfeasibleParameters,
    InsufficientDepth,
    InvalidDigitSet,
    NoRoot,
    NoRuns,
    NotInSupport,
    NotSelfAdmissible,
    PrecisionError,
    PrecisionExhausted,
    PrefixConditionFailed,
    UndecidedFiniteness,
)
from .measures_dim import (
    DimensionReport,
    MeasureValue,
    critical_exponent_s0,
    digit_set_scale,
    dim_formula,
    dim_formula_sup,
    local_dimension_bary,
    local_dimension_beta,
    measure_bary,
    measure_beta,
    measure_of_word,
    reprove_dim_limit,
    stolz_cesaro_ratios,
    verify_sup_by_calculus,
)
from .numerics import (
    Comparison,
    Dyadic,
    PolyRoot,
    Scalar,
    isolate_root,
    ln,
    ln_int,
)
from .words import DigitWord, DigitStream, PeriodicWord, read_digit_file, write_digit_file
