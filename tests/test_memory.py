"""Peak memory of the producers of long digit words, traced in process.

Each producer fills one buffer and hands it to its word, so a call holds
its word about once, at one byte per digit: the traced peak stays at or
below 1.25 bytes per digit plus a fixed slack for the layout, the
schedule and the bounded blocks a producer writes or reads through.
"""

import tracemalloc
from fractions import Fraction

import pytest

from betadio.bary import expand_rational
from betadio.beta_shift import BetaSystem
from betadio.beta_values import greedy_expand
from betadio.constructions import FillPolicy, generate_bary, generate_beta
from betadio.digit_files import read_digit_file, write_digit_file
from betadio.words import DigitWord

PER_DIGIT = 1.25
SLACK = 512 * 1024


def traced_peak(call):
    """call()'s result, and the most memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("fill", ["const:1", "random"])
def test_generate_bary_holds_its_word_once(fill):
    policy = FillPolicy.parse(fill, seed=0)
    construction, peak = traced_peak(
        lambda: generate_bary(3, Fraction(3), Fraction(1, 3), 12, policy))
    n = len(construction.word)
    assert n == 3 ** 13
    assert peak <= PER_DIGIT * n + SLACK


def test_generate_beta_holds_its_word_once():
    base = BetaSystem.parse("root:1,1", 256)
    construction, peak = traced_peak(
        lambda: generate_beta(base, 3, Fraction(3), Fraction(1, 3), 10))
    n = len(construction.word)
    assert n > 170_000
    # the walk's fixed cost is ~50 KB: at this length the full slack would
    # cover a second copy of the word
    assert peak <= PER_DIGIT * n + SLACK // 4


def test_read_digit_file_holds_its_word_once(tmp_path):
    n = 1_600_000
    word = DigitWord.from_bytes(3, bytes(range(3)) * (n // 3) + b"\x01")
    path = tmp_path / "long.digits"
    with open(path, "w") as fh:
        write_digit_file(fh, 3, word)

    def read():
        with open(path) as fh:
            return read_digit_file(fh)

    back, peak = traced_peak(read)
    assert back == word and type(back.data) is bytes
    assert peak <= PER_DIGIT * n + SLACK


def test_read_digit_file_token_fallback_holds_its_word_once(tmp_path):
    """A file off the writer's layout (one line, two spaces between digits)
    is split into tokens a block at a time, not held as text and tokens."""
    n = 1_600_000
    word = DigitWord.from_bytes(3, bytes(range(3)) * (n // 3) + b"\x01")
    path = tmp_path / "spaced.digits"
    path.write_text("base=3\n" + "  ".join(map(str, word.data)) + "\n")

    def read():
        with open(path) as fh:
            return read_digit_file(fh)

    back, peak = traced_peak(read)
    assert back == word and type(back.data) is bytes
    assert peak <= PER_DIGIT * n + SLACK


def test_expand_rational_holds_its_word_once():
    n = 10 ** 6
    word, peak = traced_peak(lambda: expand_rational(1, 7, 10, n))
    assert word[:6].digits() == (1, 4, 2, 8, 5, 7) and len(word) == n
    assert peak <= PER_DIGIT * n + SLACK


@pytest.mark.parametrize("n", [5_000, 10_000])
def test_a_rational_base_orbit_holds_no_past_states(n):
    """The greedy orbit of x under 3/2 never closes a cycle, and its states'
    denominators grow with every digit: it keeps none of them, so one bound
    holds whatever n."""
    system = BetaSystem.parse("rat:3/2", 256)
    word, peak = traced_peak(lambda: greedy_expand(system, Fraction(1, 3), n))
    assert len(word) == n
    assert peak <= SLACK
