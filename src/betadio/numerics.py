"""Certified arbitrary-precision real arithmetic.

Values are intervals with dyadic endpoints (``man * 2**exp`` with integer
``man``, ``exp``), every operation rounds outward, so the interval always
contains the exact real result.  Dyadic endpoints make bisection halving
exact, which is what the root-isolation code below relies on.

Irrational expansion bases are represented as isolated roots of
``1 = sum c_i z**-i`` (finite sum, or with an eventually periodic tail).
The left-hand side is strictly increasing in ``z`` on ``(1, oo)`` whenever
the coefficients are nonnegative and not all zero, so a sign change brackets
a unique root and bisection with exact rational sign evaluations certifies it.
Refinement does not run the halvings one by one: because the sign is
monotone, the cell they end in is determined by the root alone, so a
fixed-point Newton iteration locates that cell and two exact sign
evaluations certify it.  The brackets are the ones bisection gives.

The logarithm sums its series on plain integer pairs; its endpoints are bit
for bit those that the same steps in Dyadic arithmetic give, and the tests
keep that version as the reference.

Every certificate that an interval does not yet settle (a floor, a sign, an
order) is retried at twice the precision by one loop, ``_escalate``, which
gives up with ``PrecisionExhausted`` past ``_MAX_BITS``.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .errors import DegenerateApproximant, NoRoot, PrecisionExhausted
from .record import Record

DEFAULT_PRECISION = 256

# the working precision past which every certificate gives up
_MAX_BITS = 1 << 14

# PolyRoot.refine replays bisection with a Newton guess beyond this many
# halvings; _newton starts from this many low-precision bisection steps, and
# _replay moves a guess next to a grid point at most this often
_REPLAY_MIN_STEPS = 16
_START_STEPS = 48
_REPLAY_TRIES = 4


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


class Dyadic(Record):
    """Exact dyadic rational ``man * 2**exp``, kept in normal form.

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
        if self.exp >= 0:
            return Fraction(self.man * (1 << self.exp))
        return Fraction(self.man, 1 << -self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exp, other.exp)
        return Dyadic.of((self.man << (self.exp - e)) + (other.man << (other.exp - e)), e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.of(self.man * other.man, self.exp + other.exp)

    def _cmp(self, other: "Dyadic") -> int:
        a, b, shift = self.man, other.man, self.exp - other.exp
        if shift > 0:
            a <<= shift
        elif shift < 0:
            b <<= -shift
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"Dyadic({self.man}*2^{self.exp})"


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def _round(man: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed rounding of ``man * 2**exp`` to ``bits`` significant bits.

    The result depends only on the value, not on whether ``man`` is odd:
    the grid is set by the position of the top bit.
    """
    s = abs(man).bit_length() - bits
    if s <= 0:
        return man, exp
    return (-((-man) >> s) if up else man >> s), exp + s


def _add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """Exact sum of two raw pairs."""
    if e1 > e2:
        return (m1 << (e1 - e2)) + m2, e2
    return m1 + (m2 << (e2 - e1)), e1


def _ratio(p: int, q: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed approximation of ``p * 2**exp / q`` (p != 0, q > 0) with at
    least ``bits`` + 1 significant bits.

    When the odd parts of p and q are coprime this is dyadic_from_fraction
    exactly: it scales by the bit lengths of the reduced fraction, whose
    difference is bl(p) - bl(q) + exp wherever the powers of two sit.
    """
    s = bits + 1 - p.bit_length() + q.bit_length() - exp
    sh = exp + s
    num, den = (p << sh, q) if sh >= 0 else (p, q << -sh)
    return (-((-num) // den) if up else num // den), -s


def round_down(d: Dyadic, bits: int) -> Dyadic:
    """Largest dyadic with at most ``bits`` mantissa bits that is <= d."""
    man, exp = _round(d.man, d.exp, bits, False)
    return d if man == d.man else Dyadic.of(man, exp)


def round_up(d: Dyadic, bits: int) -> Dyadic:
    man, exp = _round(d.man, d.exp, bits, True)
    return d if man == d.man else Dyadic.of(man, exp)


def dyadic_from_fraction(x: Fraction, bits: int, up: bool) -> Dyadic:
    """Directed dyadic approximation of an arbitrary rational."""
    if x.numerator == 0:
        return ZERO
    return Dyadic.of(*_ratio(x.numerator, x.denominator, 0, bits, up))


# ---------------------------------------------------------------------------
# intervals


class Comparison(enum.Enum):
    LESS = -1
    UNRESOLVED = 0
    GREATER = 1


class Scalar:
    """Interval with dyadic endpoints; optionally refinable.

    A refiner is a callback ``bits -> Scalar`` recomputing the same real
    number from its defining expression (exact rational, isolated root, ...).
    Scalars produced by arithmetic have no refiner: recompute them from
    refined inputs instead.
    """

    __slots__ = ("lo", "hi", "prec", "_refiner")

    def __init__(self, lo: Dyadic, hi: Dyadic, prec: int = DEFAULT_PRECISION,
                 refiner: Optional[Callable[[int], "Scalar"]] = None):
        if lo > hi:
            raise ValueError("inverted interval")
        self.lo = lo
        self.hi = hi
        self.prec = prec
        self._refiner = refiner

    # -- constructors

    @staticmethod
    def exact(d: Dyadic, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return Scalar(d, d, prec, refiner=lambda bits: Scalar.exact(d, bits))

    @staticmethod
    def from_int(n: int, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return Scalar.exact(Dyadic.of(n), prec)

    @staticmethod
    def from_fraction(x: Fraction, prec: int = DEFAULT_PRECISION) -> "Scalar":
        x = Fraction(x)
        lo = dyadic_from_fraction(x, prec, up=False)
        hi = dyadic_from_fraction(x, prec, up=True)
        return Scalar(lo, hi, prec, refiner=lambda bits: Scalar.from_fraction(x, bits))

    @staticmethod
    def hull(lo: Fraction, hi: Fraction, prec: int = DEFAULT_PRECISION) -> "Scalar":
        return Scalar(dyadic_from_fraction(Fraction(lo), prec, up=False),
                      dyadic_from_fraction(Fraction(hi), prec, up=True), prec)

    # -- inspection

    @property
    def width(self) -> Fraction:
        return (self.hi - self.lo).value

    @property
    def mid(self) -> Fraction:
        return (self.lo.value + self.hi.value) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo.value <= x <= self.hi.value

    def __repr__(self):
        return f"Scalar[{float(self.lo.value)}, {float(self.hi.value)}]"

    # -- arithmetic (outward rounding at the weaker operand precision)

    def _bits(self, other: "Scalar") -> int:
        return min(self.prec, other.prec)

    def __add__(self, other: "Scalar") -> "Scalar":
        b = self._bits(other)
        return Scalar(round_down(self.lo + other.lo, b), round_up(self.hi + other.hi, b), b)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.hi, -self.lo, self.prec)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        b = self._bits(other)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return Scalar(round_down(min(prods), b), round_up(max(prods), b), b)

    def scale_int(self, k: int) -> "Scalar":
        d = Dyadic.of(k)
        if k >= 0:
            return Scalar(round_down(self.lo * d, self.prec), round_up(self.hi * d, self.prec), self.prec)
        return Scalar(round_down(self.hi * d, self.prec), round_up(self.lo * d, self.prec), self.prec)

    def reciprocal(self) -> "Scalar":
        if self.lo.man <= 0 <= self.hi.man:
            raise ZeroDivisionError("interval contains zero")
        lo = dyadic_from_fraction(1 / self.hi.value, self.prec, up=False)
        hi = dyadic_from_fraction(1 / self.lo.value, self.prec, up=True)
        return Scalar(lo, hi, self.prec)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.reciprocal()

    def pow_int(self, n: int) -> "Scalar":
        if n < 0:
            return self.pow_int(-n).reciprocal()
        result = Scalar.exact(ONE, self.prec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- certified queries

    def compare(self, threshold: Fraction) -> Comparison:
        t = Fraction(threshold)
        if self.hi.value < t:
            return Comparison.LESS
        if self.lo.value > t:
            return Comparison.GREATER
        return Comparison.UNRESOLVED

    def floor_certified(self) -> Optional[int]:
        """The common integer part of every point in the interval, if any."""
        flo = self.lo.value.numerator // self.lo.value.denominator
        fhi = self.hi.value.numerator // self.hi.value.denominator
        return flo if flo == fhi else None

    def refine(self, target_bits: int) -> "Scalar":
        if self.width <= Fraction(1, 1 << target_bits):
            return self
        if self._refiner is None:
            raise PrecisionExhausted(
                f"interval of width {float(self.width):.3e} has no defining expression")
        out = self._refiner(target_bits + 2)
        if out.width > Fraction(1, 1 << target_bits):
            raise PrecisionExhausted("refiner could not reach the requested width")
        return out


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


def _atanh_bounds(p: int, q: int, bits: int) -> tuple[int, int, int, int]:
    """Directed bounds ``(lo_man, lo_exp, hi_man, hi_exp)`` for atanh(p/q).

    0 <= p/q <= 1/2, with q > 0 and the odd parts of p and q coprime.
    """
    if p == 0:
        return 0, 0, 0, 0
    work = bits + 16
    dm, de = _ratio(p, q, 0, work, False)
    um, ue = _ratio(p, q, 0, work, True)
    z2dm, z2de = _round(dm * dm, 2 * de, work, False)
    z2um, z2ue = _round(um * um, 2 * ue, work, True)
    # enough terms that z**(2J+1) < 2**-(bits+8); z <= 1/2 so each term
    # gains at least 2 bits
    J = bits // 2 + 8
    lm = le = hm = he = 0
    for j in range(J):
        k = 2 * j + 1
        lm, le = _round(*_add(lm, le, *_ratio(dm, k, de, work, False)), work, False)
        hm, he = _round(*_add(hm, he, *_ratio(um, k, ue, work, True)), work, True)
        dm, de = _round(dm * z2dm, de + z2de, work, False)
        um, ue = _round(um * z2um, ue + z2ue, work, True)
    # tail: sum_{j>=J} z^(2j+1)/(2j+1) <= z^(2J+1) / ((2J+1)(1-z^2)), taken
    # with z^2 <= 9/16: the bound is p_up * 16 / (7 (2J+1))
    tail = _ratio(um, 7 * (2 * J + 1), ue + 4, work, True)
    hm, he = _round(*_add(hm, he, *tail), work, True)
    return lm, le, hm, he


@functools.lru_cache(maxsize=64)
def _ln2(bits: int) -> tuple[int, int, int, int]:
    lm, le, hm, he = _atanh_bounds(1, 3, bits)
    return (*_round(2 * lm, le, bits + 16, False), *_round(2 * hm, he, bits + 16, True))


@functools.lru_cache(maxsize=1024)
def _ln_directed(man: int, exp: int, bits: int, up: bool) -> Dyadic:
    """Directed bound for ln(man * 2**exp); memoized, since trajectories
    revisit the same endpoints."""
    if man <= 0:
        raise ValueError("log of non-positive endpoint")
    work = bits + 16
    man, exp = _round(man, exp, work, up)
    L = man.bit_length()
    s = exp + L - 1  # the value is m * 2**s with m in [1, 2)
    h = 1 << (L - 1)
    # z = (m-1)/(m+1) = (man-h)/(man+h): a common odd factor would divide 2h
    lm, le, hm, he = _atanh_bounds(man - h, man + h, bits)
    l2lm, l2le, l2hm, l2he = _ln2(bits)
    if up:
        mm, me = _round(2 * hm, he, work, True)
        m2, e2 = (l2hm, l2he) if s >= 0 else (l2lm, l2le)
    else:
        mm, me = _round(2 * lm, le, work, False)
        m2, e2 = (l2lm, l2le) if s >= 0 else (l2hm, l2he)
    return Dyadic.of(*_round(*_add(mm, me, s * m2, e2), work, up))


def ln(x: Scalar, bits: Optional[int] = None) -> Scalar:
    """Certified natural log of a positive interval."""
    b = bits or x.prec
    if x.lo.man <= 0:
        raise ValueError("ln requires a strictly positive interval")
    return Scalar(_ln_directed(x.lo.man, x.lo.exp, b, False),
                  _ln_directed(x.hi.man, x.hi.exp, b, True), b)


def ln_int(n: int, bits: int = DEFAULT_PRECISION) -> Scalar:
    """Certified ln of a (possibly huge) positive integer."""
    if n <= 0:
        raise ValueError("ln_int requires n >= 1")
    n, e = _norm(n, 0)
    return Scalar(_ln_directed(n, e, bits, False), _ln_directed(n, e, bits, True), bits)


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
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return poly_trim(out)


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


def _tail_value(pre: Sequence[Fraction], per: Sequence[Fraction], z: Fraction) -> Fraction:
    """sum_i pre_i z^-i + z^-|pre| * (sum_j per_j z^-j) / (1 - z^-|per|), z > 1."""
    zi = 1 / z
    acc = Fraction(0)
    p = zi
    for c in pre:
        acc += c * p
        p *= zi
    if per:
        geo = Fraction(0)
        q = zi
        for c in per:
            geo += c * q
            q *= zi
        acc += (zi ** len(pre)) * geo / (1 - zi ** len(per))
    return acc


def _cleared_polynomial(pre: Sequence[Fraction], per: Sequence[Fraction]) -> list[Fraction]:
    """Integer-scalable polynomial whose roots include the expansion base.

    Finite case: z^p - sum c_i z^(p-i).  Periodic tail of length q:
    (z^p - sum pre_i z^(p-i)) (z^q - 1) - sum per_j z^(q-j), both ascending.
    """
    p = len(pre)
    head = [Fraction(0)] * (p + 1)
    head[p] = Fraction(1)
    for i, c in enumerate(pre, start=1):
        head[p - i] -= c
    head = poly_trim(head)
    if not per:
        return head
    q = len(per)
    zq1 = [Fraction(-1)] + [Fraction(0)] * (q - 1) + [Fraction(1)]
    tail = [Fraction(0)] * q
    for j, c in enumerate(per, start=1):
        tail[q - j] += c
    return poly_sub(poly_mul(head, zq1), poly_trim(tail))


class PolyRoot:
    """The unique root > 1 of ``1 = sum c_i z**-i`` (optionally periodic tail).

    Holds the exact defining data, a rational bracket with a sign change,
    and a refined interval.  ``refine`` returns the bracket that halving it
    with exact sign evaluations until it is 2**-bits wide would leave: Newton
    locates that cell of the halving grid and the exact signs at its two
    ends certify it (``_replay``); plain halving runs for a few steps, or
    when the certificate fails.
    """

    __slots__ = ("pre", "per", "poly", "int_poly", "lo", "hi", "refined")

    def __init__(self, pre: Sequence[Fraction], per: Sequence[Fraction],
                 lo: Fraction, hi: Fraction, precision: int = DEFAULT_PRECISION):
        self.pre = tuple(Fraction(c) for c in pre)
        self.per = tuple(Fraction(c) for c in per)
        self.poly = _cleared_polynomial(self.pre, self.per)
        scale = math.lcm(*(c.denominator for c in self.poly)) if self.poly else 1
        self.int_poly = [int(c * scale) for c in self.poly]
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.refined = self.refine(precision)

    def _f(self, z: Fraction) -> Fraction:
        return 1 - _tail_value(self.pre, self.per, z)

    def _sign_at(self, z: Fraction) -> int:
        """Sign of the value-equation defect at z > 1.

        Uses the cleared integer polynomial: its extra factors z**m and
        (z**q - 1) are positive beyond 1, so the sign agrees with ``_f``,
        and integer Horner is much cheaper than rational arithmetic for
        high-degree words.
        """
        num, den = z.numerator, z.denominator
        acc, dp = 0, 1
        for c in reversed(self.int_poly):
            acc = acc * num + c * dp
            dp *= den
        return (acc > 0) - (acc < 0)

    def refine(self, target_bits: int) -> Scalar:
        lo, hi = self.lo, self.hi
        steps = _halvings(hi - lo, target_bits)
        cell = self._replay(lo, hi, steps) if steps > _REPLAY_MIN_STEPS else None
        self.lo, self.hi = cell or self._bisect(lo, hi, steps)
        out = Scalar(dyadic_from_fraction(self.lo, target_bits + 8, up=False),
                     dyadic_from_fraction(self.hi, target_bits + 8, up=True),
                     target_bits, refiner=self.refine)
        return out

    def _bisect(self, lo: Fraction, hi: Fraction, steps: int) -> tuple[Fraction, Fraction]:
        for _ in range(steps):
            mid = (lo + hi) / 2
            if self._sign_at(mid) >= 0:
                hi = mid
            else:
                lo = mid
        return lo, hi

    def _replay(self, lo: Fraction, hi: Fraction,
                steps: int) -> Optional[tuple[Fraction, Fraction]]:
        """The cell that ``steps`` bisection steps on [lo, hi] end in, or None.

        The halvings only ever probe points g_i = lo + i*w of the grid with
        w = (hi - lo) / 2**steps, and keep a cell [g_j, g_j+1] with
        sign(g_j) < 0 (or j = 0) and sign(g_j+1) >= 0 (or j + 1 = 2**steps).
        The sign is monotone beyond 1 (see the module docstring), so exactly
        one cell qualifies.  Newton guesses j; the same exact signs that
        bisection uses certify it, stepping to a neighbour a few times when
        the guess sits next to a grid point.  None when the certificate does
        not hold for the guess or the sign is not known to be monotone.
        """
        if lo < 1 or min(self.pre + self.per, default=0) < 0:
            return None
        cells = 1 << steps
        w = (hi - lo) / cells
        guess = _newton(self.int_poly, lo, hi,
                        w.denominator.bit_length() - w.numerator.bit_length() + 16)
        if guess is None:
            return None
        t = (guess - lo) / w
        j = min(max(-(-t.numerator // t.denominator) - 1, 0), cells - 1)
        for _ in range(_REPLAY_TRIES):
            if j > 0 and self._sign_at(lo + w * j) >= 0:
                j -= 1
            elif j + 1 < cells and self._sign_at(lo + w * (j + 1)) < 0:
                j += 1
            else:
                return lo + w * j, lo + w * (j + 1)
        return None

    def as_scalar(self, bits: int = DEFAULT_PRECISION) -> Scalar:
        if self.refined.width <= Fraction(1, 1 << bits):
            return self.refined
        self.refined = self.refine(bits)
        return self.refined

    def exact_equals(self, x: Fraction) -> bool:
        return self._f(Fraction(x)) == 0

    def __repr__(self):
        return f"PolyRoot(~{float(self.refined.mid):.12f})"


def _halvings(width: Fraction, bits: int) -> int:
    """Bisection steps that take ``width`` down to at most 2**-bits."""
    n, d = width.numerator << bits, width.denominator
    k = max(0, n.bit_length() - d.bit_length() - 1)
    while n > d << k:
        k += 1
    return k


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
    for _ in range(_START_STEPS):
        m = (a + b) >> 1
        if _horner(poly, m, p)[0] >= 0:
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
    def f(z: Fraction) -> Fraction:
        return 1 - _tail_value(pre, per, z)

    if search is not None:
        slo, shi = Fraction(search[0]), Fraction(search[1])
        if shi <= 1:
            raise DegenerateApproximant("search interval lies at or below 1")
        if f(shi) < 0:
            raise NoRoot("value function stays above 1 on the search interval")
        if slo > 1 and f(slo) > 0:
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
        val = _interval_poly_eval(c, s)
        if not (val.lo.value <= 0 <= val.hi.value):
            return False


def _interval_poly_eval(c: Sequence[Fraction], x: Scalar) -> Scalar:
    acc = Scalar.from_fraction(Fraction(0), x.prec)
    for coef in reversed(c):
        acc = acc * x + Scalar.from_fraction(Fraction(coef), x.prec)
    return acc
