"""Digit files and run scans against frozen copies of the code they replaced.

``oracle_*`` below are the per-digit writer and per-line reader of the
``base=<b>`` format, the thinning loop of ``run_decomposition`` and the
run-cap pass of ``generate_bary`` as they stood before the bulk ``bytes``
versions.  They are frozen: the tests assert that the library gives the same
text, the same word or the same exception type, the same monotone runs and
exponent estimates, and the same words and clamp lists.
"""

import bisect
import io
import random
import re
import tracemalloc

import pytest

from betadio.bary import (
    Run,
    RunDecomposition,
    estimate_exponents,
    exponents_of_word,
    run_decomposition,
)
from betadio.constructions import FREE, MARKER, RUN, Segment, _enforce_run_caps
from betadio.errors import NoRuns
from betadio.words import DigitWord, read_digit_file, write_digit_file


# ---------------------------------------------------------------------------
# frozen references


def oracle_write_digit_file(stream, base, digits, per_line=40):
    stream.write(f"base={base}\n")
    line = []
    for d in digits:
        line.append(str(d))
        if len(line) == per_line:
            stream.write(" ".join(line) + "\n")
            line.clear()
    if line:
        stream.write(" ".join(line) + "\n")


def oracle_read_digit_file(stream):
    header = stream.readline().strip()
    if not header.startswith("base="):
        raise ValueError("missing `base=<b>` header line")
    base = int(header.split()[0][5:])
    if base <= 256:
        digits = b"".join(bytes(map(int, line.split())) for line in stream)
    else:
        digits = [int(tok) for line in stream for tok in line.split()]
    return DigitWord(base, digits)


def oracle_monotone(digits, b=None, kinds=("zeros", "top")):
    b = b or digits.base
    data = bytes(digits.data)
    symbols = [0] if "zeros" in kinds else []
    if "top" in kinds and b >= 2:
        symbols.append(b - 1)
    runs = []
    if symbols:
        pat = re.compile(b"|".join(re.escape(bytes([d])) + b"+" for d in symbols))
        for m in pat.finditer(data):
            s, e = m.span()
            runs.append(Run(start=s, end=e + 1, kind="zeros" if data[s] == 0 else "top",
                            complete=s >= 1 and e < len(data)))
    monotone = []
    record = None
    for r in runs:
        if not r.complete:
            continue
        if record is None or r.gap >= record:
            monotone.append(r)
            record = r.gap
    return runs, monotone


def oracle_break_digit(run_symbol, allowed, b):
    neutral = [a for a in allowed if a not in (0, b - 1)]
    if neutral:
        return neutral[0]
    return [a for a in allowed if a != run_symbol][0]


def oracle_enforce_run_caps(arr, segs, free, b, allowed, clamps):
    starts = [seg.lo for seg in segs]
    free_starts = [seg.lo for seg in free]
    free_ends = [seg.hi for seg in free]
    for symbol in {0, b - 1}:
        pat = re.compile(re.escape(bytes([symbol])) + b"+")
        for mt in pat.finditer(arr):
            s, e = mt.start() + 1, mt.end()
            cap = max(segs[bisect.bisect_right(starts, s) - 1].cap, 1)
            if e - s + 1 <= cap:
                continue
            breaker = oracle_break_digit(symbol, allowed, b)
            pos = s + cap
            while pos <= e:
                i = bisect.bisect_right(free_starts, pos) - 1
                target = pos
                if i < 0 or target > free_ends[i]:
                    nxt = bisect.bisect_right(free_starts, pos)
                    if nxt >= len(free_starts) or free_starts[nxt] > e:
                        break
                    target = free_starts[nxt]
                arr[target - 1] = breaker
                clamps.append(target)
                pos = target + cap + 1


# ---------------------------------------------------------------------------
# helpers


def written(writer, base, digits, per_line):
    buf = io.StringIO()
    writer(buf, base, digits, per_line)
    return buf.getvalue()


def outcome(reader, text):
    """The word read from ``text``, or the type of the exception raised."""
    try:
        return reader(io.StringIO(text))
    except Exception as exc:  # the oracle and the library must fail alike
        return type(exc)


def runny_word(rng, base, n, touch_ends=False):
    """Random digits with runs of 0 and b-1 of random lengths mixed in."""
    out = []
    while len(out) < n:
        r = rng.random()
        if r < 0.3:
            out.extend([rng.choice((0, base - 1))] * rng.randint(1, 12))
        else:
            out.append(rng.randrange(base))
    out = out[:n]
    if touch_ends:
        out[:3] = [0, 0, 0][:len(out)]
        out[-3:] = [base - 1] * min(3, len(out))
    return DigitWord(base, out)


# ---------------------------------------------------------------------------
# writer


@pytest.mark.parametrize("base", range(2, 301))
def test_writer_matches_oracle(base):
    rng = random.Random(base)
    per_lines = sorted({1, 2, 40, 50, *rng.sample(range(1, 51), 3)})
    for per_line in per_lines:
        lengths = {0, 1, 199, 200, per_line - 1, per_line, per_line + 1,
                   2 * per_line, 3 * per_line, rng.randint(0, 200)}
        for n in sorted(x for x in lengths if 0 <= x <= 200):
            word = DigitWord(base, (rng.randrange(base) for _ in range(n)))
            want = written(oracle_write_digit_file, base, word, per_line)
            assert written(write_digit_file, base, word, per_line) == want, (per_line, n)
            assert written(write_digit_file, base, list(word), per_line) == want


def test_writer_matches_oracle_on_long_words_and_odd_inputs():
    rng = random.Random(1)
    long3 = DigitWord(3, (rng.randrange(3) for _ in range(200_001)))
    # one block of two-digit values amid blocks of one-digit ones
    mixed = DigitWord(20, [rng.randrange(10) for _ in range(150_000)] + [17] + [3] * 9)
    cases = [  # (base, a fresh copy of the digits, per_line)
        (3, lambda: long3, 40), (3, lambda: long3, 7), (20, lambda: mixed, 40),
        (20, lambda: mixed, 1),
        (3, lambda: long3[:99], 0), (3, lambda: long3[:99], -2),  # below 1: one line
        (3, lambda: bytearray(long3.data[:500]), 40), (3, lambda: long3.data[:500], 33),
        (3, lambda: iter(long3.digits()[:333]), 40), (10, lambda: [1, 4, 2, 8, 5, 7], 4),
        (1000, lambda: DigitWord(1000, [999, 0, 5] * 50), 40),
    ]
    for base, digits, per_line in cases:
        want = written(oracle_write_digit_file, base, digits(), per_line)
        assert written(write_digit_file, base, digits(), per_line) == want, (base, per_line)


# ---------------------------------------------------------------------------
# reader

NON_CANONICAL = [
    "1 0 2",             # no final newline
    "1\t0 2\n",          # tab
    "1 0\r\n2 1\r\n",    # CRLF, as StringIO keeps it
    "1  0 2\n",          # repeated spaces
    "1 0\n\n2\n",        # blank line
    "\n1 0 2\n",
    "1 0 2 \n",          # trailing space before the newline
    " 1 0 2\n",          # leading space
    "10 2\n",            # multi-character token in base 3
    "1 \u0663 0\n",      # ARABIC-INDIC DIGIT THREE: int() reads 3
    "1 \u0661 0\n",      # ... and ONE: a valid digit
    "1 -1 0\n",
    "1 x 0\n",
    "1 3 0\n",           # a digit equal to the base
    "1 300 0\n",         # above 255
    "1 0 2\n\x0b1\n",    # vertical tab
    "1 0\n",        # line separator
    "+1 0\n",
    "1_0 0\n",
    "",
    "\n",
    "1 0 2\n",           # canonical
    "1 0 2 ",            # canonical, ends in a space
]


@pytest.mark.parametrize("header", ["base=3\n", "base=3 extra\n", " base=3\r\n", "base=10\n",
                                    "base=2\n", "base=1\n", "base=0\n", "base=-3\n",
                                    "base=300\n", "base=x\n", "base=\n", "digits\n"])
@pytest.mark.parametrize("body", NON_CANONICAL)
def test_reader_matches_oracle(header, body):
    want = outcome(oracle_read_digit_file, header + body)
    got = outcome(read_digit_file, header + body)
    assert got == want
    if isinstance(want, DigitWord):
        assert type(got.data) is type(want.data)


@pytest.mark.parametrize("base", [2, 3, 7, 10, 11, 256, 257, 1000])
@pytest.mark.parametrize("per_line", [1, 7, 40])
def test_reader_matches_oracle_on_written_files(base, per_line):
    rng = random.Random(base * 100 + per_line)
    for n in (0, 1, per_line, 3 * per_line + 1, 200):
        text = written(oracle_write_digit_file, base, [rng.randrange(base) for _ in range(n)],
                       per_line)
        assert outcome(read_digit_file, text) == outcome(oracle_read_digit_file, text)


def test_reader_falls_back_after_canonical_blocks():
    rng = random.Random(3)
    text = written(oracle_write_digit_file, 3, [rng.randrange(3) for _ in range(100_000)], 40)
    cut = len(text) - 333  # past the first bulk blocks
    cases = [text, text[:-1], text + "1", text + "\n\n2 2\n", text[:cut] + "12 " + text[cut:],
             text[:cut] + " x " + text[cut:], text[:cut] + " 5 " + text[cut:],
             text[:cut] + "\t" + text[cut:], text.replace("\n", "\r\n")]
    for body in cases:
        assert outcome(read_digit_file, body) == outcome(oracle_read_digit_file, body)


def test_reader_reads_crlf_files_through_universal_newlines(tmp_path):
    path = tmp_path / "crlf.digits"
    path.write_bytes(b"base=3\r\n" + b"1 0 2 2\r\n" * 20_000 + b"0 1\r\n")
    with open(path) as fh:
        got = read_digit_file(fh)
    with open(path) as fh:
        assert got == oracle_read_digit_file(fh)


# ---------------------------------------------------------------------------
# monotone runs

KINDS = [("zeros",), ("top",), ("zeros", "top")]


@pytest.mark.parametrize("kinds", KINDS)
@pytest.mark.parametrize("base", [2, 3, 5, 10])
def test_monotone_runs_match_oracle(kinds, base):
    rng = random.Random(base)
    for trial in range(150):
        n = rng.randint(2, 400)
        w = runny_word(rng, base, n, touch_ends=trial % 3 == 0)
        want_runs, want_mono = oracle_monotone(w, kinds=kinds)
        if want_runs:
            dec = run_decomposition(w, kinds=kinds)
            assert dec.runs == want_runs
            assert dec.monotone == want_mono
        else:
            with pytest.raises(NoRuns):
                run_decomposition(w, kinds=kinds)
        got = exponents_of_word(w, kinds=kinds)
        if len(want_mono) >= 2:
            assert got.trajectory and got.trajectory[-1][0] == len(want_mono)
            assert got == exponents_of_word_oracle(w, kinds)
        else:
            assert (got.v_lower, got.v_hat_lower, got.trajectory, got.window) == (0, 0, [], 0)


def exponents_of_word_oracle(w, kinds):
    runs, mono = oracle_monotone(w, kinds=kinds)
    return estimate_exponents(RunDecomposition(runs, mono, len(w), w))


def test_monotone_runs_at_the_word_ends():
    for digits, want in [([0, 0, 1, 0, 1], [(3, 5)]),         # leading run skipped
                         ([1, 0, 1, 0, 0], [(1, 3)]),         # trailing run skipped
                         ([0, 0, 0], []), ([1, 1], []), ([1, 0], []),
                         ([2, 0, 2, 2, 2, 1, 0, 0, 1], [(1, 3), (2, 6)])]:
        w = DigitWord(3, digits)
        assert [(r.start, r.end) for r in oracle_monotone(w)[1]] == want
        if oracle_monotone(w)[0]:
            assert [(r.start, r.end) for r in run_decomposition(w).monotone] == want


def test_monotone_runs_on_a_long_word():
    rng = random.Random(11)
    w = runny_word(rng, 3, 300_000)
    for kinds in KINDS:
        assert run_decomposition(w, kinds=kinds).monotone == oracle_monotone(w, kinds=kinds)[1]


# ---------------------------------------------------------------------------
# run caps


def random_segments(rng, length):
    segs, lo = [], 1
    while lo <= length:
        hi = min(length, lo + rng.randint(0, 30))
        kind = rng.choice((FREE, FREE, RUN, MARKER))
        segs.append(Segment(lo, hi, kind, b"" if kind == FREE else b"\x01", rng.randint(0, 9)))
        lo = hi + 1
    return segs


@pytest.mark.parametrize("b,allowed", [(2, (0, 1)), (3, (0, 1, 2)), (3, (0, 2)),
                                       (10, tuple(range(10))), (4, (0, 3))])
def test_run_caps_match_oracle_on_random_layouts(b, allowed):
    rng = random.Random(b * 7 + len(allowed))
    for _trial in range(200):
        word = runny_word(rng, b, rng.randint(1, 600)).data
        word = bytes(allowed[d % len(allowed)] if d not in (0, b - 1) else d for d in word)
        segs = random_segments(rng, len(word))
        if rng.random() < 0.5:  # caps that never decrease, as the schedules make them
            caps = sorted(seg.cap for seg in segs)
            segs = [seg._replace(cap=c) for seg, c in zip(segs, caps)]
        free = [seg for seg in segs if seg.kind == FREE]
        want, want_clamps = bytearray(word), []
        oracle_enforce_run_caps(want, segs, free, b, allowed, want_clamps)
        got, clamps = bytearray(word), []
        _enforce_run_caps(got, segs, free, b, allowed, clamps)
        assert (bytes(got), clamps) == (bytes(want), want_clamps)


# ---------------------------------------------------------------------------
# memory


def test_write_and_read_stay_near_the_word_size(tmp_path):
    rng = random.Random(5)
    n = 1_000_000
    word = DigitWord.from_bytes(3, bytes(rng.choices(range(3), k=n)))
    path = tmp_path / "big.digits"
    tracemalloc.start()
    try:
        with open(path, "w") as fh:
            write_digit_file(fh, 3, word)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with open(path) as fh:
            back = read_digit_file(fh)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == word
    # the word itself is n bytes; a whole-file text copy alone would be 2n
    assert write_peak < n // 2
    assert read_peak < 3 * n
