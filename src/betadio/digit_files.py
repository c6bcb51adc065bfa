"""Digit files: a line ``base=<b>``, then the digits in decimal, 40 to a
line, single spaces between them and a newline after each line's last.
The reader accepts any whitespace between digits, and reads the writer's
own layout in bulk.

Both ends work a bounded block at a time: ``write_digit_blocks`` writes a
producer's blocks as they come, and ``read_digit_blocks`` gives the digits
back in blocks, so a word passes through either in memory that does not
grow with it.  ``write_digit_file`` and ``read_digit_file`` are the same
for a word held whole."""

from typing import Iterable, Iterator

from .words import DigitWord

_BLOCK = 1 << 15  # digits per bulk write or read; a read takes 2 * _BLOCK characters
_PER_LINE = 40
_DECIMAL = bytes(range(10))
_TO_ASCII = bytes.maketrans(_DECIMAL, b"0123456789")
_FROM_ASCII = bytes.maketrans(b"0123456789", _DECIMAL)


def write_digit_file(stream, base: int, digits: Iterable[int]) -> None:
    data = digits.data if isinstance(digits, DigitWord) else digits
    if not isinstance(data, (bytes, bytearray, tuple)):
        data = tuple(data)
    write_digit_blocks(stream, base, [data])


def write_digit_blocks(stream, base: int, blocks: Iterable) -> None:
    """The digit file of the digits in ``blocks`` (each ``bytes``-like, or a
    sequence of ints), written as the blocks come, a bounded part at a time.

    Each digit is written after its separator: none for the word's first,
    a newline for a digit that starts a line, a space otherwise; the file
    ends with a newline after the last digit.  So a line may span blocks.
    """
    stream.write(f"base={base}\n")
    count = 0  # digits written
    for block in blocks:
        for i in range(0, len(block), _BLOCK):
            part = block[i:i + _BLOCK]
            first = -count % _PER_LINE  # the part's first digit that starts a line
            # a digit above 9 takes several characters
            if isinstance(part, (bytes, bytearray)) and not part.translate(None, _DECIMAL):
                out = bytearray(b" ") * (2 * len(part))
                out[1::2] = part.translate(_TO_ASCII)
                out[2 * first::2 * _PER_LINE] = b"\n" * len(range(first, len(part), _PER_LINE))
                text = out[count == 0:].decode()  # no separator before the word's first
            else:  # line by line, the part cut where a line starts
                cuts = (*range(first, len(part), _PER_LINE), len(part))
                text = "".join(("\n" if (count + j) % _PER_LINE == 0 else " ")
                               + " ".join(map(str, part[j:end]))
                               for j, end in zip((0, *cuts), cuts) if end > j)[count == 0:]
            stream.write(text)
            count += len(part)
    if count:
        stream.write("\n")


def read_digit_file(stream) -> DigitWord:
    """Read a digit file into bytes (a tuple above base 256), so memory stays
    near one byte per digit: ``read_digit_blocks`` drained into one buffer."""
    base, blocks = read_digit_blocks(stream)
    return DigitWord.from_blocks(base, blocks)


def read_digit_blocks(stream) -> tuple[int, Iterator]:
    """A digit file's base, and its digits in blocks as they are read:
    ``bytes`` (tuples above base 256) of ``_BLOCK`` digits or fewer, and
    where the text leaves the writer's layout, once up to twice that.
    ValueError on a malformed file, naming the file: at once for a header
    whose base is missing or below 2, and for its first token that is not
    a digit of the base when the block that holds it is read.

    Text that alternates one digit below the base and one space or newline,
    as the writer lays it out, is converted in blocks; from the first block
    that does not, the rest is split into tokens a block at a time, a token
    cut by a block's end carried into the next.
    """
    name = getattr(stream, "name", "digit file")
    head = (stream.readline().split() or [""])[0]
    base = int(head[5:]) if head.startswith("base=") and head[5:].isdecimal() else 0
    if base < 2:
        raise ValueError(f"{name}: missing `base=<b>` header line with b >= 2")
    return base, _digit_blocks(stream, base, name)


def _digit_blocks(stream, base: int, name: str) -> Iterator:
    text = ""
    if base <= 256:
        digit_chars = b"0123456789"[:base]
        while text := stream.read(2 * _BLOCK):
            raw = text.encode()
            digits = raw[::2]
            if (not text.isascii() or len(raw) % 2 or raw[1::2].translate(None, b" \n")
                    or digits.translate(None, digit_chars)):
                break  # the block starts on a token; the rest is parsed below
            yield digits.translate(_FROM_ASCII)
        else:
            return
    while True:
        more = stream.read(2 * _BLOCK)
        tokens = (text + more).split()
        # a token at the end of a block may go on in the next
        text = tokens.pop() if more and not more[-1].isspace() else ""
        try:
            yield DigitWord(base, map(int, tokens)).data
        except ValueError:  # name the first token that is not a digit
            for token in tokens:
                try:
                    DigitWord(base, [int(token)])
                except ValueError:
                    raise ValueError(f"{name}: {token!r} is not a digit of base {base}") from None
        if not more:
            return
