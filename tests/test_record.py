"""The slotted value types give callers keyword construction, defaults
(fresh per instance where mutable), equality by class and fields, a hash on
the immutable ones, and a repr of the fields."""

from fractions import Fraction as F

import pytest

from betadio.constructions import FillPolicy
from betadio.digit_sets import DigitSet
from betadio.exponents import Run
from betadio.layout import schedule
from betadio.measures_dim import DimensionReport, MeasureValue


def test_run_is_a_hashable_value_without_a_dict():
    r = Run(start=1, end=4, kind="zeros")
    assert not hasattr(r, "__dict__")
    assert r == Run(1, 4, "zeros") and r.gap == 3
    assert r != Run(1, 4, "top")
    assert r != (1, 4, "zeros")  # equal only to its own class
    assert len({r, Run(1, 4, "zeros")}) == 1
    assert repr(r) == "Run(start=1, end=4, kind='zeros')"


@pytest.mark.parametrize("make", [
    lambda: Run(start=1, end=4, kind="zeros"),
    lambda: DigitSet(3, [0, 2]),
])
def test_immutable_values_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)


def test_digit_set_keeps_a_frozenset():
    assert DigitSet(3, [2, 0]).digits == frozenset({0, 2})


@pytest.mark.parametrize("value", [
    FillPolicy(),
    MeasureValue(n=3, factors=[]),
    schedule((3, 1), (1, 3), 2),
])
def test_mutable_values_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_defaults_are_fresh_per_instance():
    assert FillPolicy() == FillPolicy(kind="constant", digit=1, seed=None)
    r1 = DimensionReport(F(1, 4), [], F(1, 50), None)
    r2 = DimensionReport(F(1, 4), [], F(1, 50), None)
    assert r1 == r2 and r1.params == {} and r1.params is not r2.params
