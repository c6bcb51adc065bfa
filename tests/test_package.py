"""The package surface: ``import betadio`` resolves its re-exports on first
use, with the names and the submodule attributes of an eager package."""

import os
import subprocess
import sys
from pathlib import Path

import betadio

SRC = str(Path(betadio.__file__).resolve().parent.parent)

# ``from betadio import *`` of the eager package, which imported every layer,
# less ``ConstructionSpec`` (``generate_bary`` takes its parameters directly)
# and ``DigitStream`` (producers yield blocks), with the block producers and
# readers, and less the names nothing in the library called: the second run
# scan and mass count, two checks of the paper, and the errors only they raised
STAR = """
AdmissibilityAutomaton BaryConstruction BetaConstruction BetaLayout BetaSystem BetadioError
Comparison CylinderInterval DegenerateApproximant DepthExceeded DigitSet DigitWord
DimensionReport DomainError Dyadic ExponentEstimate FillPolicy HorizonTooDeep
InfeasibleParameters InvalidDigitSet MeasureValue NoRoot NotSelfAdmissible ParamSpaceResult
PeriodicWord PolyRoot PrecisionError PrecisionExhausted PrefixConditionFailed Run Scalar
ScheduledRuns Segment bary bary_blocks beta_blocks beta_layout beta_shift check_relations
constructions count_admissible critical_exponent_s0 cylinder digit_set_scale dim_formula
dim_formula_sup errors expand_lacunary expand_rational expansion_of_one_star exponents_of_blocks
exponents_of_word generate_bary generate_beta generate_parameter_space greedy_expand
is_admissible is_self_admissible isolate_root lacunary_blocks layout_segments ln ln_int
local_dimension_bary local_dimension_beta measure_beta measures_dim numerics parry_invert
rational_blocks read_digit_blocks read_digit_file record renyi_bounds_check reprove_dim_limit
schedule words write_digit_blocks write_digit_file
""".split()
# dir(betadio) of the eager package, just imported
DIR = sorted(STAR + """
__builtins__ __cached__ __doc__ __file__ __loader__ __name__ __package__ __path__ __spec__
__version__
""".split())


def _fresh(code: str) -> list[str]:
    """Run code in a new interpreter (-S: nothing imported first); its stdout lines."""
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dir_and_star_names_are_the_eager_ones():
    out = _fresh("import sys, betadio\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('betadio.')))\n"
                 "print(*dir(betadio))\n"
                 "names = {}\n"
                 "exec('from betadio import *', names)\n"
                 "print(*sorted(set(names) - {'__builtins__'}))\n"
                 "print(*dir(betadio))\n")
    assert out[0] == ""  # import betadio loads no layer
    assert out[1].split() == DIR
    assert out[2].split() == sorted(STAR)
    assert out[3].split() == DIR  # the same once every name is resolved


def test_a_layer_is_an_attribute_without_its_import():
    assert _fresh("import betadio; print(betadio.numerics.Scalar.__module__)") == \
        ["betadio.numerics"]


def test_from_import_of_layers_and_names():
    out = _fresh("from betadio import numerics, Scalar, cli\n"
                 "print(Scalar is numerics.Scalar, cli.__name__)")
    assert out == ["True betadio.cli"]


def test_an_unknown_name_is_an_attribute_error():
    out = _fresh("import betadio\n"
                 "print(hasattr(betadio, 'nope'))\n"
                 "try:\n"
                 "    betadio.nope\n"
                 "except AttributeError as exc:\n"
                 "    print(exc)\n")
    assert out == ["False", "module 'betadio' has no attribute 'nope'"]
