"""Finite digit words and eventually periodic words.

Finite words over bases up to 256 are packed one byte per digit, so that
multi-megabyte words stay cheap to store and scan; larger alphabets fall
back to tuples.  A packed word's data is ``bytes`` (or a ``bytearray``
handed over without a copy); any data that is not a tuple is packed.  The
producers of long words yield them in bounded blocks, and a word is those
blocks drained into one buffer (``DigitWord.from_blocks``).  Positions are
0-based in code; run/schedule indices that follow the 1-based convention of
the expansion literature say so explicitly.
"""

from __future__ import annotations

import itertools
import math
from io import BytesIO
from typing import Iterable, Iterator, Sequence


class DigitWord(Sequence[int]):
    """Finite word over the alphabet {0, ..., base-1}, immutable by
    convention: a packed word may hold the ``bytearray`` that a generator or
    reader filled, and nobody writes to it once it is a word."""

    __slots__ = ("base", "_data")

    def __init__(self, base: int, digits: Iterable[int]):
        if base < 2:
            raise ValueError("base must be >= 2")
        self.base = base
        data = bytes(digits) if base <= 256 else tuple(digits)
        # the digits outside 0..base-1, in order (bytes are never negative)
        bad = data.translate(None, bytes(range(base))) if base <= 256 \
            else [d for d in data if not 0 <= d < base]
        if bad:
            raise ValueError(f"digit {bad[0]} out of range for base {base}")
        self._data = data

    @staticmethod
    def from_bytes(base: int, data) -> "DigitWord":
        """The word of packed ``data`` (``bytes`` or ``bytearray``), taken
        as it is: no copy and no digit check."""
        w = DigitWord.__new__(DigitWord)
        w.base = base
        w._data = data
        return w

    @staticmethod
    def from_blocks(base: int, blocks: Iterable) -> "DigitWord":
        """The word of a producer's blocks, drained into one buffer: packed
        blocks (``bytes`` or ``bytearray``, taken unchecked as ``from_bytes``
        takes them) into one ``bytes``, blocks of ints into a checked tuple
        word.  ``BytesIO.getvalue()`` hands over its buffer without a copy."""
        blocks = iter(blocks)
        first = next(blocks, b"")
        if not isinstance(first, (bytes, bytearray)):
            return DigitWord(base, itertools.chain(first, itertools.chain.from_iterable(blocks)))
        data = BytesIO()
        data.write(first)
        for block in blocks:
            data.write(block)
        return DigitWord.from_bytes(base, data.getvalue())

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DigitWord(self.base, self._data[i]) if isinstance(self._data, tuple) \
                else DigitWord.from_bytes(self.base, self._data[i])
        return self._data[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __eq__(self, other):
        if not isinstance(other, DigitWord) or self.base != other.base:
            return False
        if isinstance(self._data, tuple) or isinstance(other._data, tuple):
            return tuple(self._data) == tuple(other._data)
        return self._data == other._data

    def __hash__(self):
        # bytes() of a bytes object is that object, not a copy; a tuple whose
        # digits fit in bytes hashes as the packed word it equals
        try:
            return hash((self.base, bytes(self._data)))
        except ValueError:  # a digit above 255
            return hash((self.base, self._data))

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
    bound = max(len(s.pre), len(t.pre)) + math.lcm(len(s.per) or 1, len(t.per) or 1)
    for i in range(bound):
        a, b = s[i], t[i]
        if a != b:
            return -1 if a < b else 1
    return 0
