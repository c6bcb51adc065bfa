"""Peak memory of the producers of long digit words, traced in process,
and of the console commands that stream them, from ``os.wait4``.

A word the library returns is its producer's blocks drained into one
buffer, so a call holds its word about once, at one byte per digit: the
traced peak stays at or below 1.25 bytes per digit plus a fixed slack for
the layout, the schedule and the bounded blocks a producer writes or reads
through.  Streamed, the blocks are written, read and scanned as they come,
and the peak does not grow with the word at all.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import betadio
from betadio.bary import expand_rational, lacunary_blocks, rational_blocks
from betadio.beta_constructions import beta_blocks, generate_beta
from betadio.beta_shift import BetaSystem, expansion_of_one_star
from betadio.constructions import FillPolicy, bary_blocks, generate_bary
from betadio.digit_files import read_digit_blocks, read_digit_file, write_digit_blocks, write_digit_file
from betadio.exponents import exponents_of_blocks
from betadio.orbits import greedy_expand
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


def test_greedy_expand_packs_its_digits_as_they_come():
    """Off an integer base the orbit is stepped without its own list of the
    digits (8 bytes each), and the word takes one byte per digit: the peak
    is that byte and the orbit's state, a number of about one bit per digit
    for 3/2, against 10.6 bytes per digit with the list and 19.6 with a
    second one."""
    system = BetaSystem.parse("rat:3/2", 256)
    n = 20_000
    word, peak = traced_peak(lambda: greedy_expand(system, Fraction(1, 3), n))
    assert len(word) == n
    assert peak <= 2 * n


@pytest.mark.parametrize("spec", ["int:10", "root:1,1"])
def test_a_closed_orbit_is_read_off_its_period(spec):
    """The orbit of 1/7 cycles, with period 6 in base 10 and 16 under the
    golden ratio: the digits past the cycle are read off its period, not
    copied into the orbit's list (8 bytes each), so the peak is the word's
    byte per digit, against 9.7 bytes per digit with the copies."""
    system = BetaSystem.parse(spec)
    n = 20_000
    word, peak = traced_peak(lambda: greedy_expand(system, Fraction(1, 7), n))
    assert len(word) == n
    assert peak <= 2 * n


@pytest.mark.parametrize("spec", ["int:10", "root:1,1"])
def test_the_expansion_of_one_is_packed_as_it_is_read(spec):
    """Its digits go into the word as they are read, with no list of them
    (10.7 bytes per digit with one)."""
    system = BetaSystem.parse(spec)
    n = 20_000
    word, peak = traced_peak(lambda: expansion_of_one_star(system, n))
    assert len(word) == n
    assert peak <= 3 * n


# ---------------------------------------------------------------------------
# streamed: one bound at two lengths 9x apart

STREAM_BOUND = 640 * 1024  # under a seventh of the 13-stage word


class Sink:
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fill", ["const:1", "random"])
@pytest.mark.parametrize("stages", [11, 13])
def test_a_streamed_construction_is_written_and_scanned_in_fixed_memory(fill, stages):
    policy = FillPolicy.parse(fill, seed=0)

    def blocks():
        return bary_blocks(3, Fraction(3), Fraction(1, 3), stages, policy)[2]

    _, write_peak = traced_peak(lambda: write_digit_blocks(Sink(), 3, blocks()))
    est, scan_peak = traced_peak(lambda: exponents_of_blocks(blocks(), 3))
    assert est.horizon == 3 ** (stages + 1) and est.v_hat_lower == Fraction(1, 3)
    assert write_peak <= STREAM_BOUND and scan_peak <= STREAM_BOUND


@pytest.mark.parametrize("stages", [9, 11])
def test_a_streamed_real_base_construction_is_walked_in_fixed_memory(stages):
    base = BetaSystem.parse("root:1,1", 256)

    def walk():
        out, _size, blocks = beta_blocks(base, 3, Fraction(3), Fraction(1, 3), stages)
        return sum(map(len, blocks))

    n, peak = traced_peak(walk)
    assert n > 3 ** (stages - 1)
    assert peak <= STREAM_BOUND


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
def test_a_streamed_expansion_is_written_in_fixed_memory(n):
    _, peak = traced_peak(lambda: write_digit_blocks(Sink(), 10, rational_blocks(1, 7, 10, n)))
    assert peak <= STREAM_BOUND
    _, peak = traced_peak(lambda: write_digit_blocks(
        Sink(), 10, lacunary_blocks(10, Fraction(1, 2), n)))
    assert peak <= STREAM_BOUND


@pytest.mark.parametrize("stages", [11, 13])
def test_a_digit_file_is_read_and_scanned_in_fixed_memory(tmp_path, stages):
    path = tmp_path / "w.digits"
    with open(path, "w") as fh:
        write_digit_blocks(fh, 3, bary_blocks(3, Fraction(3), Fraction(1, 3), stages,
                                              FillPolicy.parse("random", seed=1))[2])

    def scan():
        with open(path) as fh:
            base, blocks = read_digit_blocks(fh)
            return exponents_of_blocks(blocks, base)

    est, peak = traced_peak(scan)
    assert est.horizon == 3 ** (stages + 1)
    assert peak <= STREAM_BOUND


# the console commands, each started by a small process of its own: Linux
# counts the memory of the process that starts a child in the child's
# max-RSS, and the test process is large
LAUNCH = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "betadio.cli", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def max_rss_kb(argv, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(betadio.__file__)))
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    code, rss = map(int, proc.stdout.split()[-2:])
    assert code == 0, proc.stderr
    return rss


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB (Linux)")
def test_construct_and_exponents_do_not_grow_with_the_word(tmp_path):
    """13 stages hold 4.8 million digits, 11 stages 0.5 million: holding
    the word, the longer run took about 4 MB more."""
    rss = {}
    for stages in (11, 13):
        out = f"w{stages}.digits"
        rss["construct", stages] = max_rss_kb(
            ["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3",
             "--stages", str(stages), "-o", out], tmp_path)
        assert os.path.getsize(tmp_path / out) > 2 * 3 ** (stages + 1)
        rss["exponents", stages] = max_rss_kb(["exponents", "--input", out], tmp_path)
    for command in ("construct", "exponents"):
        assert rss[command, 13] - rss[command, 11] < 1024, rss
