"""Integer-base expansions: the digits of a rational by long division and
of a lacunary series, in blocks as they come, or drained into a word.

Their run analysis, the approximation exponents, is ``exponents``'; an
expansion to a file compiles none of it.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterator

from .words import DigitWord


_BLOCK = 1 << 14  # digits per block of an expansion


def rational_blocks(p: int, q: int, b: int, n: int) -> Iterator:
    """First n digits of p/q in base b by long division (greedy convention),
    in blocks of at most ``_BLOCK``: ``bytearray``, lists above base 256.
    The input is checked when the first block is drawn."""
    if not (0 <= p < q):
        raise ValueError("need 0 <= p < q")
    if b < 2 or n < 1:
        raise ValueError("need b >= 2 and n >= 1")
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        digits = bytearray(k) if b <= 256 else [0] * k
        for i in range(k):
            p *= b
            digits[i] = p // q
            p %= q
        yield digits


def expand_rational(p: int, q: int, b: int, n: int) -> DigitWord:
    """First n digits of p/q in base b: ``rational_blocks`` drained."""
    return DigitWord.from_blocks(b, rational_blocks(p, q, b, n))


def lacunary_positions(rule, n: int) -> list[int]:
    """1-based positions of the nonzero digits up to depth n.

    ``rule`` is either a positive rational v (positions ``floor((1+v)**j)``)
    or the string ``"squared-power"`` (positions ``2**(j*j)``).
    """
    out = []
    if rule == "squared-power":
        j = 1
        while 2 ** (j * j) <= n:
            out.append(2 ** (j * j))
            j += 1
        return out
    v = Fraction(rule)
    if v <= 0:
        raise ValueError("lacunary exponent must be positive")
    power = 1 + v
    j = 1
    while True:
        pos = math.floor(power ** j)
        if pos > n:
            return out
        if not out or pos > out[-1]:
            out.append(pos)
        j += 1


def lacunary_blocks(b: int, rule, n: int) -> Iterator[bytearray]:
    """Digits of the lacunary series with 1s at the rule's positions, in
    blocks of at most ``_BLOCK``; the input is checked when the first block
    is drawn."""
    if b < 2 or n < 1:
        raise ValueError("need b >= 2 and n >= 1")
    ones = lacunary_positions(rule, n)
    for start in range(0, n, _BLOCK):
        digits = bytearray(min(_BLOCK, n - start))
        first, last = bisect.bisect_left(ones, start + 1), bisect.bisect_right(ones, start + _BLOCK)
        for pos in ones[first:last]:
            digits[pos - start - 1] = 1
        yield digits


def expand_lacunary(b: int, rule, n: int) -> DigitWord:
    """Digits of the lacunary series: ``lacunary_blocks`` drained."""
    return DigitWord.from_blocks(b, lacunary_blocks(b, rule, n))
