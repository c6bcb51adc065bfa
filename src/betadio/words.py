"""Finite digit words, eventually periodic words, and lazy digit streams.

Finite words over bases up to 256 are packed into ``bytes`` so that
multi-megabyte words stay cheap to store and scan; larger alphabets fall
back to tuples.  Positions are 0-based in code; run/schedule indices that
follow the 1-based convention of the expansion literature say so explicitly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


class DigitWord(Sequence[int]):
    """Immutable finite word over the alphabet {0, ..., base-1}."""

    __slots__ = ("base", "_data")

    def __init__(self, base: int, digits: Iterable[int]):
        if base < 2:
            raise ValueError("base must be >= 2")
        self.base = base
        data = bytes(digits) if base <= 256 else tuple(digits)
        mx = max(data, default=0)
        if mx >= base:
            raise ValueError(f"digit {mx} out of range for base {base}")
        self._data = data

    @staticmethod
    def from_bytes(base: int, data: bytes) -> "DigitWord":
        w = DigitWord.__new__(DigitWord)
        w.base = base
        w._data = data
        return w

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DigitWord.from_bytes(self.base, self._data[i]) \
                if isinstance(self._data, bytes) else DigitWord(self.base, self._data[i])
        return self._data[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __eq__(self, other):
        if not isinstance(other, DigitWord) or self.base != other.base:
            return False
        if isinstance(self._data, bytes) and isinstance(other._data, bytes):
            return self._data == other._data
        return tuple(self._data) == tuple(other._data)

    def __hash__(self):
        return hash((self.base, bytes(self._data) if not isinstance(self._data, bytes) else self._data))

    def __repr__(self):
        shown = " ".join(str(d) for d in itertools.islice(self, 24))
        tail = " ..." if len(self) > 24 else ""
        return f"DigitWord(base={self.base}, [{shown}{tail}], len={len(self)})"

    @property
    def data(self):
        return self._data

    def digits(self) -> tuple[int, ...]:
        return tuple(self._data)


class PeriodicWord:
    """Eventually periodic infinite word: preperiod then a repeated period.

    An empty period means the word continues with zeros, which is how a
    finite word is promoted to an infinite one.
    """

    __slots__ = ("pre", "per")

    def __init__(self, pre: Iterable[int], per: Iterable[int] = ()):
        self.pre = tuple(pre)
        self.per = tuple(per)

    @staticmethod
    def from_finite(digits: Iterable[int]) -> "PeriodicWord":
        return PeriodicWord(tuple(digits), ())

    @staticmethod
    def parse(text: str) -> "PeriodicWord":
        """``d1,...,dk`` or ``d1,...,dk,(p1,...,pq)``: comma-separated digits,
        then an optional periodic tail in parentheses.  ValueError when a
        digit is not an integer."""
        head, paren, tail = text.partition("(")
        if not paren:
            return PeriodicWord(int(t) for t in text.split(","))
        pre = [int(t) for t in head.rstrip(",").split(",")] if head.strip(",") else ()
        return PeriodicWord(pre, (int(t) for t in tail.rstrip(")").split(",")))

    def __getitem__(self, i: int) -> int:
        if i < len(self.pre):
            return self.pre[i]
        if not self.per:
            return 0
        return self.per[(i - len(self.pre)) % len(self.per)]

    def shift(self, k: int) -> "PeriodicWord":
        if k <= len(self.pre):
            return PeriodicWord(self.pre[k:], self.per)
        if not self.per:
            return PeriodicWord((), ())
        r = (k - len(self.pre)) % len(self.per)
        return PeriodicWord((), self.per[r:] + self.per[:r])

    def normalized(self) -> "PeriodicWord":
        """Minimal period, shortest preperiod, zero tails dropped."""
        pre, per = list(self.pre), list(self.per)
        if per:
            p = len(per)
            for d in range(1, p):
                if p % d == 0 and all(per[i] == per[i % d] for i in range(p)):
                    per = per[:d]
                    break
            while pre and per and pre[-1] == per[-1]:
                per = [per[-1]] + per[:-1]
                pre.pop()
        if all(v == 0 for v in per):
            per = []
            while pre and pre[-1] == 0:
                pre.pop()
        return PeriodicWord(tuple(pre), tuple(per))

    def __eq__(self, other):
        if not isinstance(other, PeriodicWord):
            return NotImplemented
        return compare_words(self, other) == 0

    def __hash__(self):
        n = self.normalized()
        return hash((n.pre, n.per))

    def __repr__(self):
        head = " ".join(map(str, self.pre[:16]))
        if self.per:
            return f"PeriodicWord({head} ({' '.join(map(str, self.per))})^oo)"
        return f"PeriodicWord({head} 0^oo)"


def compare_words(s: PeriodicWord, t: PeriodicWord) -> int:
    """Lexicographic three-way comparison of eventually periodic words.

    A finite scan up to the combined preperiod plus one period lcm decides
    equality, so the comparison always terminates.
    """
    import math as _math
    qs = len(s.per) if s.per else 1
    qt = len(t.per) if t.per else 1
    bound = max(len(s.pre), len(t.pre)) + _math.lcm(qs, qt)
    for i in range(bound):
        a, b = s[i], t[i]
        if a != b:
            return -1 if a < b else 1
    return 0


class DigitStream:
    """Pull-based infinite digit source with a cached prefix."""

    def __init__(self, gen: Iterator[int], base: int):
        self.base = base
        self._gen = gen
        self._cache: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._cache) <= i:
            self._cache.append(next(self._gen))
        return self._cache[i]

    def prefix(self, n: int) -> DigitWord:
        self[n - 1] if n else None
        return DigitWord(self.base, self._cache[:n])


# ---------------------------------------------------------------------------
# digit-sequence file format: a header line `base=<b>`, then the digits in
# decimal.  The writer puts 40 digits per line, separated by single spaces,
# with a newline after the last digit of each line.  The reader accepts any
# whitespace between digits and reads the writer's own layout in bulk.

_BLOCK = 1 << 15  # digits per bulk write, and characters per bulk read (even)
_DECIMAL = bytes(range(10))
_TO_ASCII = bytes.maketrans(_DECIMAL, b"0123456789")
_FROM_ASCII = bytes.maketrans(b"0123456789", _DECIMAL)


def write_digit_file(stream, base: int, digits: Iterable[int], per_line: int = 40) -> None:
    stream.write(f"base={base}\n")
    if per_line < 1:
        per_line = 1 << 62  # one line, however long the word
    data = digits.data if isinstance(digits, DigitWord) else digits
    if not isinstance(data, (bytes, bytearray, tuple)):
        data = tuple(data)
    # blocks of whole lines, so the memory used does not grow with the word
    step = per_line * max(1, _BLOCK // per_line)
    for i in range(0, len(data), step):
        block = data[i:i + step]
        # a digit above 9 takes several characters
        if isinstance(block, tuple) or block.translate(None, _DECIMAL):
            for j in range(0, len(block), per_line):
                stream.write(" ".join(map(str, block[j:j + per_line])) + "\n")
            continue
        # each digit, then a space or (after a full line and the last digit) a newline
        out = bytearray(b" ") * (2 * len(block))
        out[::2] = block.translate(_TO_ASCII)
        out[2 * per_line - 1::2 * per_line] = b"\n" * (len(block) // per_line)
        out[-1] = 10
        stream.write(out.decode())


def read_digit_file(stream) -> DigitWord:
    """Read a digit file into bytes (a list above base 256), so memory stays
    near one byte per digit; ValueError on a malformed file.

    Text that alternates one digit below the base and one space or newline,
    as the writer lays it out, is converted in blocks; from the first block
    that does not, the rest is parsed token by token.
    """
    header = stream.readline().strip()
    if not header.startswith("base="):
        raise ValueError("missing `base=<b>` header line")
    base = int(header.split()[0][5:])
    head, lines = b"", stream
    if 2 <= base <= 256:
        digit_chars = b"0123456789"[:base]
        parts = []
        while text := stream.read(_BLOCK):
            raw = text.encode()
            digits = raw[::2]
            if (not text.isascii() or len(raw) % 2 or raw[1::2].translate(None, b" \n")
                    or digits.translate(None, digit_chars)):
                # the block starts on a token; the rest of the text is parsed below
                head, lines = b"".join(parts), (text + stream.read()).splitlines()
                break
            parts.append(digits.translate(_FROM_ASCII))
        else:
            return DigitWord.from_bytes(base, b"".join(parts))
    if base <= 256:
        return DigitWord(base, head + b"".join(bytes(map(int, line.split())) for line in lines))
    return DigitWord(base, [int(tok) for line in lines for tok in line.split()])
