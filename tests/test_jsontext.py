"""``jsontext.dumps`` is ``json.dumps(value, indent=2)`` byte for byte, so
that a command writes the JSON it wrote with ``json`` without importing it."""

import json
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadio.jsontext import dumps

# every code point, lone surrogates included: quotes, backslashes, control
# characters, non-ASCII and astral ones among them
TEXT = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\b\f\n\r\t", "é", " ", "\U0001F600", "\ud800"])
LEAVES = (TEXT | st.none() | st.booleans() | st.floats()
          | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1])
          | st.integers() | st.integers(min_value=-10 ** 5000, max_value=10 ** 5000)
          | st.integers(10 ** 4300, 10 ** 4400))  # past CPython's int-to-str limit
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(TEXT, inner, max_size=4), max_leaves=20)


@contextmanager
def no_int_limit():
    """The command line lifts the int-to-str limit; so does json here."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


@settings(max_examples=400, deadline=None)
@given(value=VALUES)
def test_dumps_is_json_dumps_with_indent_2(value):
    with no_int_limit():
        assert dumps(value) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(value=st.dictionaries(TEXT, VALUES, max_size=6))
def test_a_command_s_document_is_json_dumps_with_indent_2(value):
    document = {"version": "0.1.0", "config": {"cmd": "x", "precision_bits": 256}, **value}
    with no_int_limit():
        assert dumps(document) == json.dumps(document, indent=2)


def test_empty_containers_and_tuples():
    for value in ({}, [], (), {"a": []}, [{}], (1, (2, "3")), {"k": (None, True, 1.5)}):
        assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_a_key_that_is_not_a_str_raises(key):
    with pytest.raises(TypeError):
        dumps({key: 1})
    with pytest.raises(TypeError):
        dumps([{"a": {key: "b"}}])


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), [1, frozenset()]])
def test_a_value_json_cannot_write_raises(value):
    with pytest.raises(TypeError):
        dumps(value)
