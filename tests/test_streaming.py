"""The digit pipeline a block at a time.

Every producer of a long word yields bounded blocks, the writer takes them
as they come, the reader gives them back and the run scan reads them one
by one.  Each block-wise path must give what the whole-word path gives,
whatever the block size: the run-cap scan is checked window by window
against the frozen whole-word pass of ``test_digit_file_oracle``, and the
producers, writer, reader and scan at block sizes down to one digit
against themselves at one block.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from betadio import bary, digit_files, fills
from betadio.bary import lacunary_blocks, rational_blocks
from betadio.beta_constructions import generate_beta
from betadio.beta_shift import BetaSystem
from betadio.cli import main
from betadio.constructions import (
    FillPolicy,
    _enforce_run_caps,
    bary_blocks,
    generate_bary,
)
from betadio.digit_files import (
    read_digit_blocks,
    read_digit_file,
    write_digit_blocks,
    write_digit_file,
)
from betadio.exponents import exponents_of_blocks, exponents_of_word
from betadio.digit_sets import DigitSet
from betadio.errors import InfeasibleParameters
from betadio.words import DigitWord
from test_digit_file_oracle import oracle_enforce_run_caps, random_segments, runny_word

F = Fraction


def cut(data, rng, most):
    """data in consecutive blocks of random sizes from 1 to most."""
    i, out = 0, []
    while i < len(data):
        k = rng.randint(1, most)
        out.append(data[i:i + k])
        i += k
    return out


# ---------------------------------------------------------------------------
# the run-cap scan, window by window


@pytest.mark.parametrize("b,allowed", [(2, (0, 1)), (3, (0, 1, 2)), (3, (0, 2)),
                                       (10, tuple(range(10))), (4, (0, 3))])
@pytest.mark.parametrize("window", [1, 2, 3, 7, 50])
def test_run_caps_window_by_window_match_the_whole_word_oracle(b, allowed, window):
    """A run open at a window's end, and a break that falls past it, carry
    into the next window: the windows get the oracle's digits and clamps,
    the 0 breaks before the b-1 ones."""
    rng = random.Random(b * 31 + len(allowed) + window)
    for _trial in range(120):
        word = runny_word(rng, b, rng.randint(1, 400)).data
        word = bytes(allowed[d % len(allowed)] if d not in (0, b - 1) else d for d in word)
        segs = random_segments(rng, len(word))
        if rng.random() < 0.5:  # caps that never decrease, as the schedules make them
            caps = sorted(seg.cap for seg in segs)
            segs = [seg._replace(cap=c) for seg, c in zip(segs, caps)]
        free = [seg for seg in segs if seg.kind == "free"]
        want, want_clamps = bytearray(word), []
        oracle_enforce_run_caps(want, segs, free, b, allowed, want_clamps)
        got, clamps, carry = bytearray(), [], None
        for at in range(1, len(word) + 1, window):
            block = bytearray(word[at - 1:at - 1 + window])
            carry = _enforce_run_caps(block, segs, free, b, allowed, clamps, at, carry)
            got += block
        assert (bytes(got), clamps) == (bytes(want), want_clamps)


# ---------------------------------------------------------------------------
# producers


@pytest.mark.parametrize("window", [1, 5, 64])
@pytest.mark.parametrize("base", [2, 3, 10, DigitSet(3, {0, 2}), DigitSet(5, {0, 4})])
def test_generate_bary_in_small_windows_is_the_one_window_word(monkeypatch, base, window):
    for fill in ("random", "const:0", "const:1", "const:4", "const:9"):
        for theta, vhat in [(F(3), F(1, 3)), (F(2), F(1, 5)), (F(5, 2), F(1, 2))]:
            policy = FillPolicy.parse(fill, seed=7)
            monkeypatch.setattr(fills, "_BLOCK", 1 << 20)
            whole = generate_bary(base, theta, vhat, 5, policy)
            monkeypatch.setattr(fills, "_BLOCK", window)
            out = generate_bary(base, theta, vhat, 5, policy)
            assert (out.word, out.clamps) == (whole.word, whole.clamps), (fill, theta, vhat)
            assert out.to_dict() == whole.to_dict()


@pytest.mark.parametrize("window", [1, 5, 64])
@pytest.mark.parametrize("spec", ["root:1,1", "int:3", "rat:21/2", "rat:1000/3"])
def test_generate_beta_in_small_windows_is_the_one_window_word(monkeypatch, spec, window):
    """A free segment cut by a window's end walks on from its state."""
    base = BetaSystem.parse(spec)
    for fill in ("random", "const:0", "const:1"):
        policy = FillPolicy.parse(fill, seed=3)
        monkeypatch.setattr(fills, "_BLOCK", 1 << 20)
        whole = generate_beta(base, 3, F(3), F(1, 3), 4, policy)
        monkeypatch.setattr(fills, "_BLOCK", window)
        out = generate_beta(base, 3, F(3), F(1, 3), 4, policy)
        assert (out.word, out.clamps) == (whole.word, whole.clamps), fill
        assert type(out.word.data) is type(whole.word.data)


def test_bary_blocks_refuse_before_the_first_block_and_count_clamps_as_they_go():
    with pytest.raises(InfeasibleParameters):
        bary_blocks(3, F(1), F(1, 3), 4)
    out, b, blocks = bary_blocks(3, F(2), F(1, 5), 6, FillPolicy.parse("const:0"))
    assert out.word is None and out.clamps == [] and b == 3
    data = b"".join(blocks)
    assert out.clamps and data == generate_bary(3, F(2), F(1, 5), 6,
                                                FillPolicy.parse("const:0")).word.data


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_expansions_in_blocks_are_the_words(monkeypatch, block):
    monkeypatch.setattr(bary, "_BLOCK", block)
    for p, q, b, n in [(1, 7, 10, 2500), (2, 3, 2, 999), (5, 13, 1000, 300), (0, 5, 3, 17)]:
        blocks = list(rational_blocks(p, q, b, n))
        assert max(map(len, blocks)) <= block
        want = [(p * b ** (i + 1) // q) % b for i in range(n)]
        assert DigitWord.from_blocks(b, blocks).digits() == tuple(want)
    ones = set(bary.lacunary_positions(F(1, 2), 5000))
    word = DigitWord.from_blocks(10, lacunary_blocks(10, F(1, 2), 5000))
    assert [i + 1 for i, d in enumerate(word) if d] == sorted(ones)


def test_an_expansion_refuses_its_input_when_its_first_block_is_drawn():
    blocks = rational_blocks(3, 2, 10, 5)  # nothing runs yet
    with pytest.raises(ValueError, match="0 <= p < q"):
        next(blocks)


# ---------------------------------------------------------------------------
# writer and reader


@pytest.mark.parametrize("base", [3, 20, 1000])
@pytest.mark.parametrize("lead", [1, 7, 40, 0])
def test_writer_takes_blocks_of_any_size(base, lead):
    """A first block of ``lead`` digits (none, one, part of a line or a
    whole line) sets the line phase that the random cuts after it meet."""
    rng = random.Random(base + lead)
    for n in (0, 1, 39, 40, 41, 1234):
        digits = [rng.randrange(base) for _ in range(n)]
        word = DigitWord(base, digits)
        want = io.StringIO()
        write_digit_file(want, base, word)
        for most in (1, 3, 41, 5000):
            got = io.StringIO()
            write_digit_blocks(got, base, [word.data[:lead], *cut(word.data[lead:], rng, most)])
            assert got.getvalue() == want.getvalue(), (n, most)


@pytest.mark.parametrize("read_block", [1, 3, 8, 1000])
def test_reader_blocks_are_the_file_word(monkeypatch, read_block):
    """Bulk blocks, then tokens cut by a block's end, at read sizes down
    to two characters."""
    rng = random.Random(read_block)
    texts = []
    for base in (3, 10, 300):
        buf = io.StringIO()
        write_digit_file(buf, base, [rng.randrange(base) for _ in range(3000)])
        texts.append(buf.getvalue())
    canonical = texts[0]
    texts += [canonical[:2001] + " 1\t" + canonical[2001:], canonical.replace("\n", " \t\n"),
              canonical[:-1], "base=3\n"]
    for text in texts:
        want = read_digit_file(io.StringIO(text))
        monkeypatch.setattr(digit_files, "_BLOCK", read_block)
        base, blocks = read_digit_blocks(io.StringIO(text))
        blocks = list(blocks)
        monkeypatch.undo()
        assert base == want.base
        assert DigitWord.from_blocks(base, blocks) == want
        assert all(len(block) <= 2 * read_block + 1 for block in blocks)


def test_a_bad_token_is_named_when_its_block_is_read():
    base, blocks = read_digit_blocks(io.StringIO("base=3\n1 0 2\n"))
    assert base == 3 and b"".join(blocks) == bytes([1, 0, 2])
    with pytest.raises(ValueError, match="missing `base=<b>`"):
        read_digit_blocks(io.StringIO("1 0 2\n"))  # the header, at once
    base, blocks = read_digit_blocks(io.StringIO("base=3\n1 0 x\n"))
    with pytest.raises(ValueError, match="'x' is not a digit of base 3"):
        list(blocks)


# ---------------------------------------------------------------------------
# the run scan


@pytest.mark.parametrize("base", [2, 3, 10, 1000])
def test_exponents_of_blocks_match_the_whole_word(base):
    """Runs cut by a block's end, a run at either end of the word, and
    blocks of one digit."""
    rng = random.Random(base)
    for trial in range(60):
        w = runny_word(rng, base, rng.randint(2, 600), touch_ends=trial % 3 == 0)
        for kinds in [("zeros",), ("top",), ("zeros", "top")]:
            want = exponents_of_word(w, kinds=kinds)
            for most in (1, 2, 5, 64):
                got = exponents_of_blocks(cut(w.data, rng, most), base, kinds)
                assert got == want, (trial, kinds, most)


def test_exponents_of_a_construction_in_blocks():
    word = generate_bary(3, F(3), F(1, 3), 9).word
    want = exponents_of_word(word)
    assert len(want.trajectory) >= 5
    rng = random.Random(0)
    for most in (7, 1000, 40000):
        assert exponents_of_blocks(cut(word.data, rng, most), 3) == want


# ---------------------------------------------------------------------------
# the console: construct and expand stream to their file, exponents reads it


@pytest.mark.parametrize("argv, word", [
    ("construct bary --theta 3 --vhat 1/3 --base 2 --stages 7",
     lambda: generate_bary(2, F(3), F(1, 3), 7)),
    ("construct restricted --theta 2 --vhat 1/5 --base 5 --digit-set 0,4 --stages 5 --fill random",
     lambda: generate_bary(DigitSet(5, {0, 4}), F(2), F(1, 5), 5, FillPolicy.parse("random", 0))),
    ("construct beta --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 5 --fill random --seed 4",
     lambda: generate_beta(BetaSystem.parse("root:1,1"), 3, F(3), F(1, 3), 5,
                           FillPolicy.parse("random", 4))),
])
def test_construct_streams_the_library_word(monkeypatch, tmp_path, capsys, argv, word):
    monkeypatch.setattr(fills, "_BLOCK", 5)
    out = word()
    path = tmp_path / "w.digits"
    assert main(argv.split() + ["-o", str(path)]) == 0
    want = io.StringIO()
    write_digit_file(want, out.word.base, out.word)
    assert path.read_text() == want.getvalue()
    side = json.loads((tmp_path / "w.digits.json").read_text())
    assert {k: side[k] for k in out.to_dict()} == json.loads(json.dumps(out.to_dict()))
    capsys.readouterr()
    assert main(argv.split()) == 0  # to stdout
    assert capsys.readouterr().out == want.getvalue()
    assert main(["exponents", "--input", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["horizon"] == len(out.word)
    assert got["v_lower"] == str(exponents_of_word(out.word).v_lower)


@pytest.mark.parametrize("argv", [
    "construct bary --theta 1 --vhat 1/3 --base 3",        # infeasible theta
    "construct bary --theta 3 --vhat 1/3 --base 300",      # base above 256
    "construct beta --theta 3 --vhat 1/3 --beta rat:1/2",  # base below 1
    "construct beta --theta 3 --vhat 1/3 --beta int:1",
    "expand --base 10 --lacunary 0 --digits 5",
])
def test_a_producer_that_refuses_leaves_no_file(tmp_path, capsys, argv):
    path = tmp_path / "x.digits"
    assert main(argv.split() + ["-o", str(path)]) == 2
    assert not path.exists() and not (tmp_path / "x.digits.json").exists()
    assert capsys.readouterr().err.count("\n") == 1
