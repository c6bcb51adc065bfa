"""Digit files and run scans against frozen copies of the code they replaced.

``oracle_*`` below are the per-digit writer and per-line reader of the
``base=<b>`` format, a regex scan of every run with the thinning loop that
keeps the monotone ones, and the run-cap pass and the random fill (one draw
per free segment) of ``generate_bary``, as they stood before the bulk
``bytes`` and bounded-block versions.  They are frozen: the tests assert that
the library gives the same text, the same word or the same exception type,
the same monotone runs and exponent estimates from the scan ``exponents``
makes, and the same words and clamp lists.  The run-cap pass has one rule
changed since: a cap of 0 reads as 1 only where no digit other than 0 and
b-1 is allowed.
"""

import bisect
import io
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from betadio import bary, constructions, digit_files
from betadio.bary import Run, exponents_of_word
from betadio.constructions import (
    FillPolicy,
    _enforce_run_caps,
    _prescribed,
)
from betadio.digit_sets import DigitSet
from betadio.digit_files import read_digit_file, write_digit_blocks, write_digit_file
from betadio.layout import FREE, MARKER, RUN, Segment, layout_segments, schedule
from betadio.words import DigitWord


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
            runs.append((Run(start=s, end=e + 1, kind="zeros" if data[s] == 0 else "top"),
                         s >= 1 and e < len(data)))  # complete: a digit on each side
    monotone = []
    record = None
    for r, complete in runs:
        if not complete:
            continue
        if record is None or r.gap >= record:
            monotone.append(r)
            record = r.gap
    return monotone


def scanned_monotone(w, kinds=("zeros", "top")):
    """The monotone runs of w as ``exponents_of_blocks`` scans them."""
    return bary._monotone_runs([bary._run_view(w.data, w.base)],
                               bary._run_symbols(w.base, kinds))[0]


def oracle_break_digit(run_symbol, allowed, b):
    neutral = [a for a in allowed if a not in (0, b - 1)]
    if neutral:
        return neutral[0]
    return [a for a in allowed if a != run_symbol][0]


def oracle_enforce_run_caps(arr, segs, free, b, allowed, clamps):
    starts = [seg.lo for seg in segs]
    free_starts = [seg.lo for seg in free]
    free_ends = [seg.hi for seg in free]
    # a cap of 0 holds where a digit other than 0 and b-1 can break runs
    least = 0 if any(a not in (0, b - 1) for a in allowed) else 1
    for symbol in {0, b - 1}:
        pat = re.compile(re.escape(bytes([symbol])) + b"+")
        for mt in pat.finditer(arr):
            s, e = mt.start() + 1, mt.end()
            cap = max(segs[bisect.bisect_right(starts, s) - 1].cap, least)
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


def oracle_random_fill(arr, free, seed, allowed):
    rng = random.Random(seed)
    for lo, hi, _kind, _digits, _cap in free:
        arr[lo - 1:hi] = bytes(rng.choices(allowed, k=hi - lo + 1))


# ---------------------------------------------------------------------------
# helpers


def written(writer, base, digits, *layout):
    buf = io.StringIO()
    writer(buf, base, digits, *layout)
    return buf.getvalue()


def written_in_blocks(base, digits, cuts):
    """The library's file of ``digits`` handed to the writer in blocks cut
    at the positions ``cuts``."""
    buf = io.StringIO()
    edges = (0, *cuts, len(digits))
    write_digit_blocks(buf, base, [digits[a:b] for a, b in zip(edges, edges[1:])])
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
    """Whole, and as a first block of ``lead`` digits and the rest: the
    lines of the rest then start ``lead`` digits into its blocks."""
    rng = random.Random(base)
    leads = sorted({1, 2, 40, 50, *rng.sample(range(1, 51), 3)})
    for lead in leads:
        lengths = {0, 1, 199, 200, lead - 1, lead, lead + 1,
                   2 * lead, 3 * lead, rng.randint(0, 200)}
        for n in sorted(x for x in lengths if 0 <= x <= 200):
            word = DigitWord(base, (rng.randrange(base) for _ in range(n)))
            want = written(oracle_write_digit_file, base, word)
            assert written(write_digit_file, base, word) == want, (lead, n)
            assert written(write_digit_file, base, list(word)) == want
            assert written_in_blocks(base, word.data, [min(lead, n)]) == want, (lead, n)


def test_writer_matches_oracle_on_long_words_and_odd_inputs():
    rng = random.Random(1)
    long3 = DigitWord(3, (rng.randrange(3) for _ in range(200_001)))
    # one block of two-digit values amid blocks of one-digit ones
    mixed = DigitWord(20, [rng.randrange(10) for _ in range(150_000)] + [17] + [3] * 9)
    cases = [  # (base, a fresh copy of the digits)
        (3, lambda: long3), (20, lambda: mixed), (3, lambda: long3[:99]),
        (3, lambda: bytearray(long3.data[:500])), (3, lambda: long3.data[:500]),
        (3, lambda: iter(long3.digits()[:333])), (10, lambda: [1, 4, 2, 8, 5, 7]),
        (1000, lambda: DigitWord(1000, [999, 0, 5] * 50)),
    ]
    for base, digits in cases:
        want = written(oracle_write_digit_file, base, digits())
        assert written(write_digit_file, base, digits()) == want, base
    # the writer works in parts of _BLOCK digits from each block's start, and
    # _BLOCK is no whole number of lines: a part's lines start at any phase
    block = digit_files._BLOCK
    assert block % 40
    for cuts in ([7], [40, 47], [block - 1], [3, block + 5, 2 * block], [149_993]):
        for base, word in ((3, long3), (20, mixed)):
            want = written(oracle_write_digit_file, base, word)
            assert written_in_blocks(base, word.data, cuts) == want, (base, cuts)


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
        want_mono = oracle_monotone(w, kinds=kinds)
        assert scanned_monotone(w, kinds) == want_mono
        got = exponents_of_word(w, kinds=kinds)
        if len(want_mono) >= 2:
            assert got.trajectory and got.trajectory[-1][0] == len(want_mono)
            assert got == bary._estimate(want_mono, len(w))
        else:
            assert (got.v_lower, got.v_hat_lower, got.trajectory, got.window) == (0, 0, [], 0)


def test_monotone_runs_at_the_word_ends():
    for digits, want in [([0, 0, 1, 0, 1], [(3, 5)]),         # leading run skipped
                         ([1, 0, 1, 0, 0], [(1, 3)]),         # trailing run skipped
                         ([0, 0, 0], []), ([1, 1], []), ([1, 0], []),
                         ([2, 0, 2, 2, 2, 1, 0, 0, 1], [(1, 3), (2, 6)])]:
        w = DigitWord(3, digits)
        assert [(r.start, r.end) for r in oracle_monotone(w)] == want
        assert [(r.start, r.end) for r in scanned_monotone(w)] == want


def test_monotone_runs_on_a_long_word():
    rng = random.Random(11)
    w = runny_word(rng, 3, 300_000)
    for kinds in KINDS:
        assert scanned_monotone(w, kinds) == oracle_monotone(w, kinds=kinds)


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


@pytest.mark.parametrize("probe", [1, 3])
def test_run_scans_match_oracle_with_a_short_probe(monkeypatch, probe):
    """A run longer than the probe is found by its first copies and then
    measured: a probe of 1 or 3 copies finds the runs a full block finds."""
    monkeypatch.setattr(bary, "_PROBE", probe)
    rng = random.Random(probe)
    for b in (2, 3, 10):
        w = runny_word(rng, b, 20_000, touch_ends=True)
        for kinds in KINDS:
            assert scanned_monotone(w, kinds) == oracle_monotone(w, kinds=kinds)
        for _trial in range(100):
            word = runny_word(rng, b, rng.randint(1, 600)).data
            segs = random_segments(rng, len(word))
            free = [seg for seg in segs if seg.kind == FREE]
            want, want_clamps = bytearray(word), []
            oracle_enforce_run_caps(want, segs, free, b, tuple(range(b)), want_clamps)
            got, clamps = bytearray(word), []
            _enforce_run_caps(got, segs, free, b, tuple(range(b)), clamps)
            assert (got, clamps) == (want, want_clamps)


# ---------------------------------------------------------------------------
# random fills


def digit_sets(b):
    """No digit set, then for b >= 3 the sets {0, b-1} and the even digits."""
    yield None
    if b >= 3:
        yield DigitSet(b, {0, b - 1})
        yield DigitSet(b, set(range(0, b, 2)))


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("b", range(2, 11))
def test_random_fill_in_blocks_matches_one_draw_per_segment(monkeypatch, b, block):
    """choices draws one random() per digit, so drawing a free segment a
    window at a time gives the digits of one draw for the whole segment:
    ``generate_bary`` in windows of ``block`` positions makes the word of
    the oracle fill and run caps.  The free segments here are up to 6560
    digits long."""
    monkeypatch.setattr(constructions, "_BLOCK", block)
    runs = schedule(Fraction(3), Fraction(1, 3), 8)
    for S in digit_sets(b):
        allowed = tuple(range(b)) if S is None else tuple(sorted(S.digits))
        segs = layout_segments(runs, S or b)
        free = [seg for seg in segs if seg.kind == FREE]
        for seed in (0, 1, 17, 999):
            want = bytearray(segs[-1].hi)
            for seg in segs:
                if seg.kind != FREE:
                    want[seg.lo - 1:seg.hi] = seg.prescribed()
            oracle_random_fill(want, free, seed, allowed)
            oracle_enforce_run_caps(want, segs, free, b, allowed, [])
            fill = FillPolicy(kind="random", seed=seed)
            got = constructions.generate_bary(S or b, Fraction(3), Fraction(1, 3), 8, fill)
            assert got.word.data == want


def test_random_fill_of_a_long_word_is_the_one_draw_word():
    """The generator's own word, at the default block and with free segments
    many blocks long."""
    fill = FillPolicy(kind="random", seed=5)
    word = constructions.generate_bary(10, Fraction(3), Fraction(1, 3), 12, fill).word
    segs = layout_segments(schedule(Fraction(3), Fraction(1, 3), 12), 10)
    want, free = _prescribed(segs)
    oracle_random_fill(want, free, 5, tuple(range(10)))
    _enforce_run_caps(want, segs, free, 10, tuple(range(10)), [])
    assert max(seg.hi - seg.lo + 1 for seg in free) > 10 * constructions._BLOCK
    assert word.data == want


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
