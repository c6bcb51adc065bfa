"""Certified isolation of the roots that define irrational expansion bases.

Irrational expansion bases are represented as isolated roots of
``1 = sum c_i z**-i`` (finite sum, or with an eventually periodic tail).
The left-hand side is strictly increasing in ``z`` on ``(1, oo)`` whenever
the coefficients are nonnegative and not all zero, so a sign change brackets
a unique root and bisection with certified signs pins it down.  A sign is an
interval Horner at fixed point, exact integer arithmetic only when that
interval straddles 0.  Refinement does not run the halvings one by one: the
cell they end in is determined by the root alone, so a search over the cells
from a fixed-point Newton guess finds it, with the same signs.

The intervals a root hands out are ``numerics`` Scalars; a certificate that
one does not settle is retried by ``numerics._escalate``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DEFAULT_PRECISION, DegenerateApproximant, NoRoot
from .numerics import Scalar, _escalate, _fraction_pair, _iv_horner, _scalar
from .polynomials import _cleared_polynomial, _defect, poly_eval, poly_gcd, poly_trim

# PolyRoot.refine asks _newton for a guess of its cell beyond this many
# halvings (below it, the search is plain bisection); _newton starts from
# this many low-precision bisection steps
_REPLAY_MIN_STEPS = 16
_START_STEPS = 48


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


def isolate_root(coefficients: Sequence[Fraction], precision: int = DEFAULT_PRECISION,
                 periodic_tail: Sequence[Fraction] = ()) -> PolyRoot:
    """Bracket and certify the root > 1 of ``1 = sum c_i z**-i``.

    Raises NoRoot when every coefficient vanishes, DegenerateApproximant
    when the root is at z <= 1.
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
    return PolyRoot(pre, per, lo, hi, precision)


def _integer_part(root: PolyRoot) -> tuple[int, bool]:
    """Certified integer part k of an isolated root, and whether the root is
    k (the cleared polynomial is monic, so any rational root is an integer).

    A bracket at most 2**-64 wide holds at most one integer, and a later
    bracket can hold only that one, so the error names the first bracket's."""
    bits = max(root.refined.prec, 64)
    hi = root.as_scalar(bits).hi.value
    k = hi.numerator // hi.denominator
    for bits in _escalate(bits, f"cannot tell beta from the integer {k}"):
        s = root.as_scalar(bits)
        hi = s.hi.value
        k = hi.numerator // hi.denominator
        if s.lo.value > k:
            return k, False
        if root.exact_equals(Fraction(k)):
            return k, True


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
