import io
import random

import pytest

from betadio.exponents import exponents_of_word
from betadio.cli import main
from betadio.digit_files import read_digit_file, write_digit_file
from betadio.automaton import PeriodicWord, compare_words
from betadio.words import DigitWord


def test_digit_word_basics():
    w = DigitWord(3, [1, 0, 2, 2])
    assert len(w) == 4
    assert w[2] == 2
    assert list(w[1:3]) == [0, 2]
    assert w == DigitWord(3, (1, 0, 2, 2))
    with pytest.raises(ValueError):
        DigitWord(3, [3])


def test_digit_word_large_alphabet():
    w = DigitWord(1000, [999, 0, 500])
    assert w[0] == 999 and len(w) == 3
    for digit in (-1, 1000):
        with pytest.raises(ValueError, match=f"digit {digit} out of range for base 1000"):
            DigitWord(1000, [5, digit, 7])


def test_digit_word_equality():
    w = DigitWord(3, [1, 0, 2, 2])
    assert w == DigitWord.from_bytes(3, b"\x01\x00\x02\x02")
    assert w == w[:]
    assert w != DigitWord(3, [1, 0, 2, 1])   # same length, one digit differs
    assert w != DigitWord(3, [1, 0, 2])      # a prefix
    assert w != DigitWord(4, [1, 0, 2, 2])   # same digits, another base
    assert w != (1, 0, 2, 2) and w != b"\x01\x00\x02\x02"
    # above base 256 the digits are a tuple
    big = DigitWord(1000, [999, 0, 500])
    assert big == DigitWord(1000, (999, 0, 500)) and big == big[:]
    assert big != DigitWord(1000, [999, 0, 501])
    assert big != DigitWord(1001, [999, 0, 500])
    assert hash(big) == hash(DigitWord(1000, (999, 0, 500)))
    assert {big: 1}[big[:]] == 1 and len({big, DigitWord(1000, [999, 0, 501])}) == 2
    # a packed word against a tuple word of the same base, as from_bytes can make
    assert DigitWord.from_bytes(300, b"\x01\x02") == DigitWord(300, [1, 2])
    assert DigitWord(300, [1, 2]) == DigitWord.from_bytes(300, b"\x01\x02")
    assert DigitWord.from_bytes(300, b"\x01\x02") != DigitWord(300, [1, 3])
    assert hash(DigitWord.from_bytes(300, b"\x01\x02")) == hash(DigitWord(300, [1, 2]))


def test_a_bytearray_word_behaves_like_its_bytes_twin():
    """A producer may hand its word the bytearray it filled."""
    raw = bytes(random.Random(3).choices(range(3), weights=(4, 1, 4), k=5000))
    filled, packed = DigitWord.from_bytes(3, bytearray(raw)), DigitWord.from_bytes(3, raw)
    assert filled == packed and packed == filled and hash(filled) == hash(packed)
    assert {packed: 1}[filled] == 1
    assert filled != DigitWord.from_bytes(4, raw) and filled != DigitWord(3, raw[:-1])
    for i in (0, 7, -1, slice(10, 400, 3), slice(-5, None), slice(None)):
        assert filled[i] == packed[i]
    assert list(filled) == list(packed) and filled.digits() == packed.digits()
    assert repr(filled) == repr(packed)
    texts = []
    for word in (filled, packed):
        buf = io.StringIO()
        write_digit_file(buf, 3, word)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    assert exponents_of_word(filled) == exponents_of_word(packed)


def test_periodic_word_indexing_and_shift():
    w = PeriodicWord((2,), (1, 0))
    assert [w[i] for i in range(6)] == [2, 1, 0, 1, 0, 1]
    assert [w.shift(1)[i] for i in range(4)] == [1, 0, 1, 0]
    assert [w.shift(4)[i] for i in range(3)] == [0, 1, 0]
    finite = PeriodicWord.from_finite([1, 1])
    assert [finite[i] for i in range(4)] == [1, 1, 0, 0]


def test_periodic_word_normalization():
    assert PeriodicWord((), (1, 0, 1, 0)).normalized().per == (1, 0)
    w = PeriodicWord((2, 1), (0, 1)).normalized()
    assert [w[i] for i in range(6)] == [2, 1, 0, 1, 0, 1]
    assert len(w.pre) == 1
    assert PeriodicWord((1, 0, 0), ()).normalized().pre == (1,)
    assert PeriodicWord((1,), (0,)).normalized().per == ()


def test_compare_words():
    a = PeriodicWord((), (1, 0))
    b = PeriodicWord((1, 1), ())
    assert compare_words(a, a) == 0
    assert compare_words(b, a) > 0   # 110^oo beats (10)^oo at index 1
    assert compare_words(a.shift(1), a) < 0
    assert compare_words(PeriodicWord((), (1, 0)), PeriodicWord((1,), (0, 1))) == 0


def test_digit_file_round_trip():
    buf = io.StringIO()
    write_digit_file(buf, 10, [1, 4, 2, 8, 5, 7])
    text = buf.getvalue()
    assert text.splitlines()[0] == "base=10"
    back = read_digit_file(io.StringIO(text))
    assert back.digits() == (1, 4, 2, 8, 5, 7)
    with pytest.raises(ValueError):
        read_digit_file(io.StringIO("digits 1 2 3"))


@pytest.mark.parametrize("base,digits", [
    (3, [(i * i + i // 7) % 3 for i in range(1000)]),
    (1000, [999, 0, 500, 256, 255, 1] * 30),
])
def test_digit_file_round_trip_by_line(base, digits):
    buf = io.StringIO()
    write_digit_file(buf, base, DigitWord(base, digits))
    buf.seek(0)
    back = read_digit_file(buf)
    assert back == DigitWord(base, digits)
    assert isinstance(back.data, bytes) == (base <= 256)


@pytest.mark.parametrize("body", ["1 2 x 0\n", "1 2\n3 0\n", "1 -1\n", "1 300\n"])
def test_digit_file_bad_token(body, tmp_path, capsys):
    with pytest.raises(ValueError):
        read_digit_file(io.StringIO("base=3\n" + body))
    path = tmp_path / "bad.digits"
    path.write_text("base=3\n" + body)
    assert main(["exponents", "--input", str(path)]) == 2
    bad = next(token for token in body.split() if token not in {"0", "1", "2"})
    assert capsys.readouterr() == ("", f"error: {path}: {bad!r} is not a digit of base 3\n")


@pytest.mark.parametrize("base, body, bad", [(10, "1 -1 5 0 0 7\n", "-1"),
                                             (1000, "-1 5 0 0 7 999 999 3\n", "-1"),
                                             (1000, "5 999 1000 -1\n", "1000")])
def test_digit_file_names_its_first_digit_outside_the_base(base, body, bad, tmp_path, capsys):
    path = tmp_path / "bad.digits"
    path.write_text(f"base={base}\n" + body)
    assert main(["exponents", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {bad!r} is not a digit of base {base}\n")


@pytest.mark.parametrize("header", ["", "base=1\n", "base=-3\n", "base=x\n", "digits 1 2 3\n"])
def test_digit_file_needs_a_base_above_one(header, tmp_path, capsys):
    path = tmp_path / "bad.digits"
    path.write_text(header + "0 0\n")
    assert main(["exponents", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: missing `base=<b>` header line with b >= 2\n")
