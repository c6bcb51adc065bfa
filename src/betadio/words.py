"""Finite digit words, packed.

Words over bases up to 256 are packed one byte per digit, so that
multi-megabyte words stay cheap to store and scan; larger alphabets fall
back to tuples.  A packed word's data is ``bytes`` (or a ``bytearray``
handed over without a copy); any data that is not a tuple is packed.  The
producers of long words yield them in bounded blocks, and a word is those
blocks drained into one buffer (``DigitWord.from_blocks``).  Positions are
0-based in code; run/schedule indices that follow the 1-based convention of
the expansion literature say so explicitly.  The eventually periodic words
that bound a beta-shift are ``automaton.PeriodicWord``: a base's words are
counted and checked without this module.
"""

from __future__ import annotations

import itertools
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
