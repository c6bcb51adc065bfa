"""Certified arbitrary-precision real arithmetic.

There is one interval representation: a ``Scalar`` holds its two dyadic
endpoints ``man * 2**exp`` as raw integer pairs, and every operation rounds
them outward with ``_round``, so the interval always contains the exact real
result.  An endpoint is read as the exact ``Fraction`` of its pair.  The
logarithm (``logarithm``) sums its series on the same raw pairs, and the
roots that define irrational bases (``roots``) hand out such intervals; a
finer interval of a root is asked of the root, not of a Scalar.

Every certificate that an interval does not yet settle (a floor, a sign, an
order) is retried at twice the precision by one loop, ``_escalate``, which
gives up with ``PrecisionExhausted`` past ``_MAX_BITS``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import DEFAULT_PRECISION, PrecisionExhausted

# the working precision past which every certificate gives up
_MAX_BITS = 1 << 14


def _escalate(bits: int, what: str) -> Iterator[int]:
    """``bits, 2*bits, ...`` while at most ``_MAX_BITS``, then raise
    ``PrecisionExhausted(what)``; ``bits`` itself is always tried once."""
    yield bits
    while (bits := 2 * bits) <= _MAX_BITS:
        yield bits
    raise PrecisionExhausted(what)


# ---------------------------------------------------------------------------
# dyadic endpoints


def _norm(man: int, exp: int) -> tuple[int, int]:
    if man == 0:
        return 0, 0
    tz = (man & -man).bit_length() - 1  # trailing zero bits
    return man >> tz, exp + tz


def _value(man: int, exp: int) -> Fraction:
    """The exact value of the raw pair ``man * 2**exp``."""
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _round(man: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed rounding of ``man * 2**exp`` to ``bits`` significant bits.

    The result depends only on the value, not on whether ``man`` is odd:
    the grid is set by the position of the top bit.  Zero comes back as
    ``(0, 0)``, so its exponent cannot drift through a chain of products.
    """
    s = abs(man).bit_length() - bits
    if s <= 0:
        return (man, exp) if man else (0, 0)
    return (-((-man) >> s) if up else man >> s), exp + s


def _add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """Exact sum of two raw pairs."""
    if e1 > e2:
        return (m1 << (e1 - e2)) + m2, e2
    return m1 + (m2 << (e2 - e1)), e1


def _less(m1: int, e1: int, m2: int, e2: int) -> bool:
    return (m1 << (e1 - e2)) < m2 if e1 > e2 else m1 < (m2 << (e2 - e1))


def _ratio(p: int, q: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed approximation of ``p * 2**exp / q`` (p != 0, q > 0) with at
    least ``bits`` + 1 significant bits.

    When the odd parts of p and q are coprime this is ``_fraction_pair`` of
    the reduced fraction exactly: it scales by the bit lengths of the reduced
    fraction, whose difference is bl(p) - bl(q) + exp wherever the powers of
    two sit.
    """
    s = bits + 1 - p.bit_length() + q.bit_length() - exp
    sh = exp + s
    num, den = (p << sh, q) if sh >= 0 else (p, q << -sh)
    return (-((-num) // den) if up else num // den), -s


def _fraction_pair(x: Fraction, bits: int, up: bool) -> tuple[int, int]:
    return _ratio(x.numerator, x.denominator, 0, bits, up) if x else (0, 0)


# ---------------------------------------------------------------------------
# intervals


class Comparison(enum.Enum):
    LESS = -1
    UNRESOLVED = 0
    GREATER = 1


def _scalar(iv: tuple[int, int, int, int], prec: int) -> "Scalar":
    """A Scalar on the raw endpoints ``iv = (lo_man, lo_exp, hi_man, hi_exp)``."""
    s = object.__new__(Scalar)
    s.iv, s.prec = iv, prec
    return s


class Scalar:
    """Interval with dyadic endpoints.

    The endpoints are one tuple of raw integer pairs, ``iv = (lo_man,
    lo_exp, hi_man, hi_exp)``, not necessarily in normal form; arithmetic
    rounds them with ``_round`` and ``lo`` and ``hi`` read them as exact
    Fractions.  There is no way to refine a Scalar: a finer one is
    recomputed from finer inputs, such as a root's ``as_scalar``.
    """

    __slots__ = ("iv", "prec")

    @property
    def lo(self) -> Fraction:
        return _value(*self.iv[:2])

    @property
    def hi(self) -> Fraction:
        return _value(*self.iv[2:])

    # -- constructors

    @staticmethod
    def from_int(n: int, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return _scalar((n, 0, n, 0), prec)

    @staticmethod
    def from_fraction(x: Fraction, prec: int = DEFAULT_PRECISION) -> "Scalar":
        x = Fraction(x)
        return _scalar((*_fraction_pair(x, prec, False), *_fraction_pair(x, prec, True)), prec)

    # -- inspection

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def _within(self, bits: int) -> bool:
        """Whether the width is at most 2**-bits."""
        lm, le, hm, he = self.iv
        return not _less(1, -bits, *_add(hm, he, -lm, le))

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"Scalar[{float(self.lo)}, {float(self.hi)}]"

    # -- arithmetic (outward rounding at the weaker operand precision)

    def __add__(self, other: "Scalar") -> "Scalar":
        b = min(self.prec, other.prec)
        lm, le, hm, he = self.iv
        lm2, le2, hm2, he2 = other.iv
        return _scalar((*_round(*_add(lm, le, lm2, le2), b, False),
                        *_round(*_add(hm, he, hm2, he2), b, True)), b)

    def __neg__(self) -> "Scalar":
        lm, le, hm, he = self.iv
        return _scalar((-hm, he, -lm, le), self.prec)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        b = min(self.prec, other.prec)
        return _scalar(_mul(self.iv, other.iv, b), b)

    def scale_int(self, k: int) -> "Scalar":
        return _scalar(_mul(self.iv, (k, 0, k, 0), self.prec), self.prec)

    def reciprocal(self) -> "Scalar":
        lm, le, hm, he = self.iv
        if lm <= 0 <= hm:
            raise ZeroDivisionError("interval contains zero")
        one = 1 if lm > 0 else -1  # 1/x = one * 2**-exp / |man|
        return _scalar((*_ratio(one, abs(hm), -he, self.prec, False),
                        *_ratio(one, abs(lm), -le, self.prec, True)), self.prec)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.reciprocal()

    def pow_int(self, n: int) -> "Scalar":
        if n < 0:
            return self.pow_int(-n).reciprocal()
        b = self.prec
        result, base = (1, 0, 1, 0), self.iv
        while n:
            if n & 1:
                result = _mul(result, base, b)
            base = _mul(base, base, b) if n > 1 else base
            n >>= 1
        return _scalar(result, b)

    # -- certified queries

    def compare(self, threshold: Fraction) -> Comparison:
        t = Fraction(threshold)
        if self.hi < t:
            return Comparison.LESS
        if self.lo > t:
            return Comparison.GREATER
        return Comparison.UNRESOLVED

    def floor_certified(self, q: int) -> Optional[int]:
        """The common integer part of every point in the interval divided by
        q > 0, if any."""
        lm, le, hm, he = self.iv
        flo = (lm << le if le >= 0 else lm >> -le) // q
        return flo if flo == (hm << he if he >= 0 else hm >> -he) // q else None


def _mul(a: tuple, b: tuple, bits: int) -> tuple[int, int, int, int]:
    """Raw endpoints of the product of two raw intervals, rounded outward.

    Moore's endpoint-sign table picks the two products that bound it: with a
    non-straddling factor first, its sign and those of b's endpoints decide;
    only when both straddle 0 are two candidates compared for each bound.
    """
    if a[0] < 0 < a[2] and not b[0] < 0 < b[2]:
        a, b = b, a
    al, ale, ah, ahe = a
    bl, ble, bh, bhe = b
    if al >= 0:
        lo = (ah * bl, ahe + ble) if bl < 0 else (al * bl, ale + ble)
        hi = (al * bh, ale + bhe) if bh < 0 else (ah * bh, ahe + bhe)
    elif ah <= 0:
        lo = (al * bh, ale + bhe) if bh > 0 else (ah * bh, ahe + bhe)
        hi = (al * bl, ale + ble) if bl < 0 else (ah * bl, ahe + ble)
    else:
        p, q = (al * bh, ale + bhe), (ah * bl, ahe + ble)
        lo = p if _less(*p, *q) else q
        p, q = (al * bl, ale + ble), (ah * bh, ahe + bhe)
        hi = q if _less(*p, *q) else p
    return (*_round(*lo, bits, False), *_round(*hi, bits, True))


def _iv_horner(coeffs: Sequence[Fraction], x: Scalar, bits: int) -> Scalar:
    """``acc = acc * x + c`` over the coefficients, highest first, from 0, each
    ``c`` rounded outward to ``bits`` as ``Scalar.from_fraction`` does: the
    endpoints of those Scalar operations, without a Scalar per step."""
    b = min(bits, x.prec)
    xiv = x.iv
    lm, le, hm, he = acc = (0, 0, 0, 0)
    for c in reversed(coeffs):
        lm, le, hm, he = _mul(acc, xiv, b)
        acc = (*_round(*_add(lm, le, *_fraction_pair(c, bits, False)), b, False),
               *_round(*_add(hm, he, *_fraction_pair(c, bits, True)), b, True))
    return _scalar(acc, b)
