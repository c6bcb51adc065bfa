"""Lazy digit streams, and digit files: a line ``base=<b>``, then the digits
in decimal, 40 to a line, single spaces between them and a newline after
each line's last.  The reader accepts any whitespace between digits, and
reads the writer's own layout in bulk."""

from io import BytesIO
from typing import Iterable, Iterator

from .words import DigitWord


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
    """Read a digit file into bytes (a tuple above base 256), so memory stays
    near one byte per digit; ValueError on a malformed file, naming the file
    and its first token that is not a digit of the base.

    Text that alternates one digit below the base and one space or newline,
    as the writer lays it out, is converted in blocks; from the first block
    that does not, the rest is split into tokens a block at a time, a token
    cut by a block's end carried into the next.  The digits go into one
    ``BytesIO``, whose ``getvalue()`` hands over its buffer without a copy
    (a list above base 256).
    """
    name = getattr(stream, "name", "digit file")
    head = (stream.readline().split() or [""])[0]
    base = int(head[5:]) if head.startswith("base=") and head[5:].isdecimal() else 0
    if base < 2:
        raise ValueError(f"{name}: missing `base=<b>` header line with b >= 2")
    packed = base <= 256
    parts = BytesIO() if packed else []
    text = ""
    if packed:
        digit_chars = b"0123456789"[:base]
        while text := stream.read(_BLOCK):
            raw = text.encode()
            digits = raw[::2]
            if (not text.isascii() or len(raw) % 2 or raw[1::2].translate(None, b" \n")
                    or digits.translate(None, digit_chars)):
                break  # the block starts on a token; the rest is parsed below
            parts.write(digits.translate(_FROM_ASCII))
        else:
            return DigitWord.from_bytes(base, parts.getvalue())
    while True:
        more = stream.read(_BLOCK)
        tokens = (text + more).split()
        # a token at the end of a block may go on in the next
        text = tokens.pop() if more and not more[-1].isspace() else ""
        try:
            block = DigitWord(base, map(int, tokens)).data
        except ValueError:  # name the first token that is not a digit
            for token in tokens:
                try:
                    DigitWord(base, [int(token)])
                except ValueError:
                    raise ValueError(f"{name}: {token!r} is not a digit of base {base}") from None
        if packed:
            parts.write(block)
        else:
            parts.extend(block)
        if not more:
            # every block passed the digit check
            return DigitWord.from_bytes(base, parts.getvalue()) if packed \
                else DigitWord(base, parts)
