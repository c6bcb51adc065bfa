"""Certified arbitrary-precision real arithmetic.

There is one interval representation: a ``Scalar`` holds its two dyadic
endpoints ``man * 2**exp`` as raw integer pairs, and every operation rounds
them outward with ``_round``, so the interval always contains the exact real
result.  ``Dyadic`` is the normal form an endpoint is read, printed, hashed
and compared as; the endpoints are those the same steps in Dyadic arithmetic
give, bit for bit, and the tests keep that version as the reference.  The
logarithm sums its series on the same raw pairs.

Irrational expansion bases are represented as isolated roots of
``1 = sum c_i z**-i`` (finite sum, or with an eventually periodic tail).
The left-hand side is strictly increasing in ``z`` on ``(1, oo)`` whenever
the coefficients are nonnegative and not all zero, so a sign change brackets
a unique root and bisection with certified signs pins it down.  A sign is an
interval Horner at fixed point, exact integer arithmetic only when that
interval straddles 0.  Refinement does not run the halvings one by one: the
cell they end in is determined by the root alone, so a search over the cells
from a fixed-point Newton guess finds it, with the same signs.

Every certificate that an interval does not yet settle (a floor, a sign, an
order) is retried at twice the precision by one loop, ``_escalate``, which
gives up with ``PrecisionExhausted`` past ``_MAX_BITS``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .errors import DEFAULT_PRECISION, DegenerateApproximant, NoRoot, PrecisionExhausted
from .record import Record

# the working precision past which every certificate gives up
_MAX_BITS = 1 << 14

# PolyRoot.refine asks _newton for a guess of its cell beyond this many
# halvings (below it, the search is plain bisection); _newton starts from
# this many low-precision bisection steps
_REPLAY_MIN_STEPS = 16
_START_STEPS = 48


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


@functools.total_ordering
class Dyadic(Record):
    """Exact dyadic rational ``man * 2**exp``, kept in normal form: the type
    a ``Scalar`` endpoint is read, printed, hashed and compared as.

    Immutable by convention, hashed by value.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int):
        self.man = man
        self.exp = exp

    def __hash__(self):
        return hash(self._fields())

    @staticmethod
    def of(man: int, exp: int = 0) -> "Dyadic":
        return Dyadic(*_norm(man, exp))

    @property
    def value(self) -> Fraction:
        e = self.exp
        return Fraction(self.man << e) if e >= 0 else Fraction(self.man, 1 << -e)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.of(*_add(self.man, self.exp, other.man, other.exp))

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.of(self.man * other.man, self.exp + other.exp)

    def __lt__(self, other):
        return _less(self.man, self.exp, other.man, other.exp)


ZERO = Dyadic(0, 0)


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


def _scalar(iv: tuple[int, int, int, int], prec: int, refiner=None) -> "Scalar":
    """A Scalar on the raw endpoints ``iv = (lo_man, lo_exp, hi_man, hi_exp)``."""
    s = object.__new__(Scalar)
    s.iv, s.prec, s._refiner = iv, prec, refiner
    return s


class Scalar:
    """Interval with dyadic endpoints; optionally refinable.

    The endpoints are one tuple of raw integer pairs, ``iv = (lo_man,
    lo_exp, hi_man, hi_exp)``, not necessarily in normal form; arithmetic
    rounds them with ``_round`` and ``lo`` and ``hi`` read them as Dyadic.
    A refiner is a callback ``bits -> Scalar`` recomputing the same real
    number from its defining expression (exact rational, isolated root, ...).
    Scalars produced by arithmetic have no refiner: recompute them from
    refined inputs instead.
    """

    __slots__ = ("iv", "prec", "_refiner")

    def __init__(self, lo: Dyadic, hi: Dyadic, prec: int = DEFAULT_PRECISION,
                 refiner: Optional[Callable[[int], "Scalar"]] = None):
        if lo > hi:
            raise ValueError("inverted interval")
        self.iv = (lo.man, lo.exp, hi.man, hi.exp)
        self.prec = prec
        self._refiner = refiner

    @property
    def lo(self) -> Dyadic:
        return Dyadic.of(*self.iv[:2])

    @property
    def hi(self) -> Dyadic:
        return Dyadic.of(*self.iv[2:])

    # -- constructors

    @staticmethod
    def exact(d: Dyadic, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return Scalar(d, d, prec, refiner=lambda bits: Scalar.exact(d, bits))

    @staticmethod
    def from_int(n: int, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return _scalar((n, 0, n, 0), prec, lambda bits: Scalar.from_int(n, bits))

    @staticmethod
    def from_fraction(x: Fraction, prec: int = DEFAULT_PRECISION) -> "Scalar":
        x = Fraction(x)
        return _scalar((*_fraction_pair(x, prec, False), *_fraction_pair(x, prec, True)), prec,
                       lambda bits: Scalar.from_fraction(x, bits))

    @staticmethod
    def hull(lo: Fraction, hi: Fraction, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return _scalar((*_fraction_pair(Fraction(lo), prec, False),
                        *_fraction_pair(Fraction(hi), prec, True)), prec)

    # -- inspection

    @property
    def width(self) -> Fraction:
        return self.hi.value - self.lo.value

    def _within(self, bits: int) -> bool:
        """Whether the width is at most 2**-bits."""
        lm, le, hm, he = self.iv
        return not _less(1, -bits, *_add(hm, he, -lm, le))

    @property
    def mid(self) -> Fraction:
        return (self.lo.value + self.hi.value) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo.value <= x <= self.hi.value

    def __repr__(self):
        return f"Scalar[{float(self.lo.value)}, {float(self.hi.value)}]"

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
        if self.hi.value < t:
            return Comparison.LESS
        if self.lo.value > t:
            return Comparison.GREATER
        return Comparison.UNRESOLVED

    def floor_certified(self, q: int = 1) -> Optional[int]:
        """The common integer part of every point in the interval divided by
        q > 0, if any."""
        lm, le, hm, he = self.iv
        flo = (lm << le if le >= 0 else lm >> -le) // q
        return flo if flo == (hm << he if he >= 0 else hm >> -he) // q else None

    def refine(self, target_bits: int) -> "Scalar":
        if self._within(target_bits):
            return self
        if self._refiner is None:
            raise PrecisionExhausted(
                f"interval of width {float(self.width):.3e} has no defining expression")
        out = self._refiner(target_bits + 2)
        if not out._within(target_bits):
            raise PrecisionExhausted("refiner could not reach the requested width")
        return out


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


# ---------------------------------------------------------------------------
# certified logarithm
#
# ln is the one transcendental the dimension reports need (log-measure over
# log-length ratios).  Argument reduction x = m * 2**s with m in [1, 2),
# then ln m = 2 atanh((m-1)/(m+1)) summed with directed rounding and an
# explicit geometric tail bound; ln 2 = 2 atanh(1/3) the same way.
#
# The sums run on raw ``(man, exp)`` pairs with the rounding kernels above,
# so they make the same values as Dyadic arithmetic without building a
# Fraction or Dyadic per term.  A term p/k is not reduced first: it may then
# carry a bit more or less, but any grid of at least work + 1 bits is finer
# than the accumulator's work-bit grid, and directed rounding onto a finer
# grid and then onto the coarser one equals rounding onto the coarser one.


@functools.lru_cache(maxsize=512)
def _atanh_bound(p: int, q: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed bound ``(man, exp)`` for atanh(p/q).

    0 <= p/q <= 1/2, with q > 0 and the odd parts of p and q coprime.  The
    lower bound sums the series from z rounded down, the upper one from z
    rounded up plus the tail, so each direction is summed on its own.  The
    loop is ``_ratio``, ``_add`` and ``_round`` written out for positive
    values; memoized, since trajectories revisit the same endpoints.
    """
    if p == 0:
        return 0, 0
    work = bits + 16
    zm, ze = _ratio(p, q, 0, work, up)
    z2m, z2e = _round(zm * zm, 2 * ze, work, up)
    # enough terms that z**(2J+1) < 2**-(bits+8); z <= 1/2 so each term
    # gains at least 2 bits
    J = bits // 2 + 8
    am = ae = 0
    for k in range(1, 2 * J, 2):
        sh = work + 1 + k.bit_length() - zm.bit_length()  # z**k / k to work + 1 bits
        t, te = (-((-zm << sh) // k) if up else (zm << sh) // k), ze - sh
        if not up and am and ae > te and not t >> (ae - te):
            return am, ae  # rounded down, terms below the sum's last place add nothing
        m, e = ((am << (ae - te)) + t, te) if ae > te else (am + (t << (te - ae)), ae)
        s = m.bit_length() - work
        am, ae = ((-((-m) >> s) if up else m >> s), e + s) if s > 0 else (m, e)
        zm, ze = _round(zm * z2m, ze + z2e, work, up)
    if up:
        # tail: sum_{j>=J} z^(2j+1)/(2j+1) <= z^(2J+1) / ((2J+1)(1-z^2)), taken
        # with z^2 <= 9/16: the bound is p_up * 16 / (7 (2J+1))
        am, ae = _round(*_add(am, ae, *_ratio(zm, 7 * (2 * J + 1), ze + 4, work, True)), work, True)
    return am, ae


@functools.lru_cache(maxsize=1024)
def _ln_directed(man: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed bound for ln(man * 2**exp), ``man * 2**exp`` in normal form;
    memoized, since trajectories revisit the same endpoints."""
    if man <= 0:
        raise ValueError("log of non-positive endpoint")
    work = bits + 16
    man, exp = _round(man, exp, work, up)
    L = man.bit_length()
    s = exp + L - 1  # the value is m * 2**s with m in [1, 2)
    h = 1 << (L - 1)
    # z = (m-1)/(m+1) = (man-h)/(man+h): a common odd factor would divide 2h
    mm, me = _atanh_bound(man - h, man + h, bits, up)
    # ln m = 2 atanh(z), and ln 2 = 2 atanh(1/3) by the bound that moves s * ln 2
    # the way of ``up``; doubling a bound of work bits is exact: exponent + 1
    m2, e2 = _atanh_bound(1, 3, bits, up == (s >= 0))
    return _round(*_add(mm, me + 1, s * m2, e2 + 1), work, up)


def ln(x: Scalar, bits: Optional[int] = None) -> Scalar:
    """Certified natural log of a positive interval."""
    b = bits or x.prec
    lm, le, hm, he = x.iv
    if lm <= 0:
        raise ValueError("ln requires a strictly positive interval")
    return _scalar((*_ln_directed(*_norm(lm, le), b, False),
                    *_ln_directed(*_norm(hm, he), b, True)), b)


def ln_int(n: int, bits: int = DEFAULT_PRECISION) -> Scalar:
    """Certified ln of a (possibly huge) positive integer."""
    if n <= 0:
        raise ValueError("ln_int requires n >= 1")
    n, e = _norm(n, 0)
    return _scalar((*_ln_directed(n, e, bits, False), *_ln_directed(n, e, bits, True)), bits)


# ---------------------------------------------------------------------------
# polynomials over Q (ascending coefficient lists)


def poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_eval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    return poly_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    while len(poly_trim(r)) >= len(b):
        r = poly_trim(r)
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        q[k] = f
        for i, v in enumerate(b):
            r[i + k] -= f * v
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


# ---------------------------------------------------------------------------
# root isolation for expansion equations


def _defect(pre: Sequence[Fraction], per: Sequence[Fraction], z: Fraction) -> Fraction:
    """1 - sum_i pre_i z^-i - z^-|pre| (sum_j per_j z^-j) / (1 - z^-|per|), z > 1."""
    zi = 1 / z
    value = poly_eval((0, *pre), zi)
    if per:
        value += zi ** len(pre) * poly_eval((0, *per), zi) / (1 - zi ** len(per))
    return 1 - value


def _cleared_polynomial(pre: Sequence[Fraction], per: Sequence[Fraction]) -> list[Fraction]:
    """Integer-scalable polynomial whose roots include the expansion base.

    Finite case: z^p - sum c_i z^(p-i).  Periodic tail of length q:
    (z^p - sum pre_i z^(p-i)) (z^q - 1) - sum per_j z^(q-j), both ascending.
    """
    head = [-c for c in reversed(pre)] + [Fraction(1)]
    if not per:
        return head
    zq1 = [Fraction(-1)] + [Fraction(0)] * (len(per) - 1) + [Fraction(1)]
    return poly_sub(poly_mul(head, zq1), list(reversed(per)))


class PolyRoot:
    """The unique root > 1 of ``1 = sum c_i z**-i`` (optionally periodic tail).

    Holds the exact defining data, a rational bracket with a sign change,
    and a refined interval.  ``refine`` returns the bracket that halving it
    with certified sign evaluations until it is 2**-bits wide would leave:
    the cell [g_j, g_j+1] of the grid g_j = lo + j*w, w = (hi - lo) /
    2**steps, whose left end has sign < 0 (or is lo) and right end sign >= 0
    (or is hi).  The sign is monotone beyond 1, so exactly one cell
    qualifies, and a binary search over j with the same signs finds it.  It
    starts from a Newton guess of j: the signs at the guessed cell's ends
    confirm it, or else steps of 1, 2, 4, ... cells away bracket the cell
    for the binary search (Bentley and Yao, IPL 5, 1976), so a guess k cells
    off costs about 2 log2(k) signs.  Below a few halvings there is no guess
    and the search spans the whole grid: that is bisection.
    """

    __slots__ = ("pre", "per", "poly", "int_poly", "lo", "hi", "refined")

    def __init__(self, pre: Sequence[Fraction], per: Sequence[Fraction],
                 lo: Fraction, hi: Fraction, precision: int = DEFAULT_PRECISION):
        self.pre = tuple(Fraction(c) for c in pre)
        self.per = tuple(Fraction(c) for c in per)
        self.poly = _cleared_polynomial(self.pre, self.per)
        scale = math.lcm(*(c.denominator for c in self.poly)) if self.poly else 1
        self.int_poly = [int(c * scale) for c in self.poly]
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        self.refined = self.refine(precision)

    def _sign_at(self, z: Fraction) -> int:
        """Sign of the value-equation defect at z > 1.

        Uses the cleared integer polynomial: its extra factors z**m and
        (z**q - 1) are positive beyond 1, so the sign agrees with ``_defect``.
        An interval Horner at fixed point, a few bits finer than z, settles
        it unless the interval straddles 0; only then is the exact integer
        Horner run, whose integers grow to about degree x bits of z.
        """
        num, den = z.numerator, z.denominator
        p = den.bit_length() + 2 * len(self.int_poly).bit_length() + 32
        lo, hi = _fixed_bounds(self.int_poly, num, den, p)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        acc, dp = 0, 1
        for c in reversed(self.int_poly):
            acc = acc * num + c * dp
            dp *= den
        return (acc > 0) - (acc < 0)

    def refine(self, target_bits: int) -> Scalar:
        lo, hi = self.lo, self.hi
        steps = _halvings(hi - lo, target_bits)
        cells = 1 << steps
        w = (hi - lo) / cells

        def up(j: int) -> bool:  # bisection's test: the root is at or left of g_j
            return j >= cells or j > 0 and self._sign_at(lo + w * j) >= 0

        a, b = 0, cells  # the cell is in [a, b]: not up(a), up(b)
        prec = w.denominator.bit_length() - w.numerator.bit_length() + 16
        guess = _newton(self.int_poly, lo, hi, prec) if steps > _REPLAY_MIN_STEPS else None
        if guess is not None:  # gallop away from the guessed cell [j, j + 1]
            t = (guess - lo) / w
            j, d = min(max(-(-t.numerator // t.denominator) - 1, 0), cells - 1), 1
            if up(j):
                b = j
                while up(a := max(b - d, 0)):
                    b, d = a, 2 * d
            else:
                a = j
                while not up(b := min(a + d, cells)):
                    a, d = b, 2 * d
        while b - a > 1:
            m = (a + b) >> 1
            a, b = (a, m) if up(m) else (m, b)
        self.lo, self.hi = lo + w * a, lo + w * b
        return _scalar((*_fraction_pair(self.lo, target_bits + 8, False),
                        *_fraction_pair(self.hi, target_bits + 8, True)), target_bits, self.refine)

    def as_scalar(self, bits: int = DEFAULT_PRECISION) -> Scalar:
        if self.refined._within(bits):
            return self.refined
        self.refined = self.refine(bits)
        return self.refined

    def exact_equals(self, x: Fraction) -> bool:
        return _defect(self.pre, self.per, Fraction(x)) == 0

    def __repr__(self):
        return f"PolyRoot(~{float(self.refined.mid):.12f})"


def _halvings(width: Fraction, bits: int) -> int:
    """Bisection steps that take ``width`` down to at most 2**-bits."""
    n, d = width.numerator << bits, width.denominator
    k = max(0, n.bit_length() - d.bit_length() - 1)
    while n > d << k:
        k += 1
    return k


def _fixed_bounds(poly: Sequence[int], num: int, den: int, p: int) -> tuple[int, int]:
    """Bounds on ``poly(num / den) * 2**p`` (num / den > 0) by interval Horner
    on p-bit fixed point: each bound takes the endpoint of z that moves it
    outward, and rounds outward."""
    zl, zh = (num << p) // den, -((-num << p) // den)
    lo = hi = 0
    for c in reversed(poly):
        c <<= p
        lo = ((lo * (zl if lo >= 0 else zh)) >> p) + c
        hi = c - ((-hi * (zh if hi >= 0 else zl)) >> p)
    return lo, hi


def _horner(poly: Sequence[int], z: int, p: int) -> tuple[int, int]:
    """Fixed-point ``poly(z / 2**p)`` and its derivative, both scaled by 2**p
    (truncated, not rounded outward: for guesses only)."""
    v = d = 0
    for c in reversed(poly):
        d = ((d * z) >> p) + v
        v = ((v * z) >> p) + (c << p)
    return v, d


def _newton(poly: Sequence[int], lo: Fraction, hi: Fraction, prec: int) -> Optional[Fraction]:
    """A guess, to about 2**-prec, of the root of increasing ``poly`` in [lo, hi].

    Starts from bisection on fixed-point values at low precision, then takes
    fixed-point Newton steps, doubling the precision each step.  None when
    the derivative is not positive at an iterate.
    """
    width = hi - lo
    p = max(0, width.denominator.bit_length() - width.numerator.bit_length()) + 64
    a = (lo.numerator << p) // lo.denominator
    b = -((-hi.numerator << p) // hi.denominator)
    scaled = [c << p for c in reversed(poly)]
    for _ in range(_START_STEPS):
        m, v = (a + b) >> 1, 0
        for c in scaled:
            v = ((v * m) >> p) + c
        if v >= 0:
            b = m
        else:
            a = m
    z = (a + b) >> 1
    precs = [max(prec, p)]
    while precs[-1] // 2 + 16 > p:
        precs.append(precs[-1] // 2 + 16)
    for q in reversed(precs):
        z <<= q - p
        p = q
        v, d = _horner(poly, z, p)
        if d <= 0:
            return None
        z -= (v << p) // d
    return Fraction(z, 1 << p)


def isolate_root(coefficients: Sequence[Fraction], search: tuple[Fraction, Fraction] = None,
                 precision: int = DEFAULT_PRECISION, periodic_tail: Sequence[Fraction] = ()) -> PolyRoot:
    """Bracket and certify the root > 1 of ``1 = sum c_i z**-i``.

    Raises NoRoot when the value function does not cross 1 on the search
    interval, DegenerateApproximant when the crossing is at z <= 1.
    """
    pre = [Fraction(c) for c in coefficients]
    per = [Fraction(c) for c in periodic_tail]
    if any(c < 0 for c in pre + per):
        raise ValueError("expansion coefficients must be nonnegative")
    if not any(pre) and not any(per):
        raise NoRoot("all coefficients vanish")
    if per and any(per):
        # value function has a pole at 1+, root > 1 always exists
        top = max(max(pre, default=Fraction(0)), max(per))
        lo, hi = Fraction(1), top + 2
    else:
        total = sum(pre)
        if total <= 1:
            raise DegenerateApproximant(
                f"coefficient sum {total} <= 1 forces the root to z <= 1")
        lo, hi = Fraction(1), total + 1
    if search is not None:
        slo, shi = Fraction(search[0]), Fraction(search[1])
        if shi <= 1:
            raise DegenerateApproximant("search interval lies at or below 1")
        if _defect(pre, per, shi) < 0:
            raise NoRoot("value function stays above 1 on the search interval")
        if slo > 1 and _defect(pre, per, slo) > 0:
            raise NoRoot("value function is already below 1 at the left end")
        lo, hi = max(lo, slo), min(hi, shi)
    return PolyRoot(pre, per, lo, hi, precision)


def is_exact_root(poly: Sequence[Fraction], root: PolyRoot) -> bool:
    """Decide exactly whether the certified root annihilates ``poly``.

    gcd of ``poly`` with the root's defining polynomial either has no root in
    the bracket (value provably nonzero) or has the bracketed root as a simple
    root (sign change appears under refinement).
    """
    c = poly_trim(list(Fraction(v) for v in poly))
    if not c:
        return True
    g = poly_gcd(c, root.poly)
    if len(g) <= 1:
        return False
    for bits in _escalate(root.refined.prec, "exact-zero test did not resolve"):
        s = root.as_scalar(bits)
        glo = poly_eval(g, s.lo.value)
        ghi = poly_eval(g, s.hi.value)
        if glo == 0 or ghi == 0:
            # endpoint hit: nudge by refining further, dyadic endpoints are
            # never the algebraic root itself unless the root is rational
            if root.exact_equals(s.lo.value) or root.exact_equals(s.hi.value):
                return True
        if glo * ghi < 0:
            return True
        # no sign change; the value is nonzero once the interval evaluation
        # of poly excludes zero
        val = _iv_horner(c, s, s.prec)
        if not val.iv[0] <= 0 <= val.iv[2]:
            return False
