"""Certified isolation of the roots that define irrational expansion bases.

Irrational expansion bases are represented as isolated roots of
``1 = sum c_i z**-i`` (finite sum, or with an eventually periodic tail).
The left-hand side is strictly increasing in ``z`` on ``(1, oo)`` whenever
the coefficients are nonnegative and not all zero, so a sign change brackets
a unique root and bisection with certified signs pins it down.  A sign is an
interval Horner at fixed point, exact integer arithmetic only when that
interval straddles 0.  Refinement does not run the halvings one by one: the
cell they end in is determined by the root alone, so a search over the cells
from a fixed-point Newton guess finds it, with the same signs.  The base
of a self-admissible word (``parry_invert``) is the root of the word's
value equation.

The intervals a root hands out are ``numerics`` Scalars; a certificate that
one does not settle is retried by ``numerics._escalate``.  A root keeps one
polynomial, the value equation cleared of denominators in ints
(``automaton._cleared_polynomial``), and evaluates it exactly in one way,
the integer Horner of ``_exact_sign``: the sign of a point, and whether a
rational is the root.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .automaton import PeriodicWord, _cleared_polynomial, is_self_admissible
from .errors import DEFAULT_PRECISION, DegenerateApproximant, NoRoot, NotSelfAdmissible
from .numerics import Comparison, Scalar, _escalate, _fraction_pair, _scalar

# PolyRoot.refine asks _newton for a guess of its cell beyond this many
# halvings (below it, the search is plain bisection); _newton starts from
# this many low-precision bisection steps
_REPLAY_MIN_STEPS = 16
_START_STEPS = 48


class PolyRoot:
    """The unique root > 1 of ``1 = sum c_i z**-i`` (optionally periodic tail).

    Holds the cleared integer polynomial, a rational bracket with a sign
    change, and a refined interval.  ``refine`` returns the bracket that
    halving it with certified sign evaluations until it is 2**-bits wide
    would leave: the cell [g_j, g_j+1] of the grid g_j = lo + j*w, w = (hi -
    lo) / 2**steps, whose left end has sign < 0 (or is lo) and right end sign
    >= 0 (or is hi).  The sign is monotone beyond 1, so exactly one cell
    qualifies, and a binary search over j with the same signs finds it.  It
    starts from a Newton guess of j: the signs at the guessed cell's ends
    confirm it, or else steps of 1, 2, 4, ... cells away bracket the cell
    for the binary search (Bentley and Yao, IPL 5, 1976), so a guess k cells
    off costs about 2 log2(k) signs.  Below a few halvings there is no guess
    and the search spans the whole grid: that is bisection.

    The cleared polynomial is negative at 1 (a periodic tail is not all
    zeros) and has the root as its one zero beyond 1, a simple one, so the
    bracket's left end is 1 or a point where it is negative, and its right
    end one where it is >= 0: ``orbits.is_exact_root`` reads the bracket
    on that precondition.
    """

    __slots__ = ("int_poly", "lo", "hi", "refined")

    def __init__(self, int_poly: Sequence[int], lo: Fraction, hi: Fraction,
                 precision: int = DEFAULT_PRECISION):
        self.int_poly = int_poly
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        self.refined = self.refine(precision)

    def _exact_sign(self, z: Fraction) -> int:
        """Sign of the cleared polynomial at z, by exact integer Horner: its
        integers grow to about degree x bits of z."""
        num, den = z.numerator, z.denominator
        acc, dp = 0, 1
        for c in reversed(self.int_poly):
            acc = acc * num + c * dp
            dp *= den
        return (acc > 0) - (acc < 0)

    def _sign_at(self, z: Fraction) -> int:
        """Sign of the value equation's defect ``1 - sum c_i z**-i`` at z > 1.

        Uses the cleared integer polynomial: its extra factors z**m and
        (z**q - 1) are positive beyond 1, so the signs agree.  An interval
        Horner at fixed point, a few bits finer than z, settles it unless
        the interval straddles 0; only then is ``_exact_sign`` run.
        """
        p = z.denominator.bit_length() + 2 * len(self.int_poly).bit_length() + 32
        lo, hi = _fixed_bounds(self.int_poly, z.numerator, z.denominator, p)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        return self._exact_sign(z)

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
                        *_fraction_pair(self.hi, target_bits + 8, True)), target_bits)

    def as_scalar(self, bits: int = DEFAULT_PRECISION) -> Scalar:
        if self.refined._within(bits):
            return self.refined
        self.refined = self.refine(bits)
        return self.refined

    def exact_equals(self, x: Fraction) -> bool:
        """Whether the root is the rational x: the root is the one zero of
        the cleared polynomial beyond 1."""
        return x > 1 and self._exact_sign(x) == 0

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


def isolate_root(coefficients: Sequence[int], precision: int = DEFAULT_PRECISION,
                 periodic_tail: Sequence[int] = ()) -> PolyRoot:
    """Bracket and certify the root > 1 of ``1 = sum c_i z**-i``, the
    coefficients (and those of the periodic tail) nonnegative integers.

    Raises NoRoot when every coefficient vanishes, DegenerateApproximant
    when the root is at z <= 1.
    """
    pre, per = list(coefficients), list(periodic_tail)
    if any(c < 0 for c in pre + per):
        raise ValueError("expansion coefficients must be nonnegative")
    if not any(pre) and not any(per):
        raise NoRoot("all coefficients vanish")
    if any(per):
        # value function has a pole at 1+, root > 1 always exists
        hi = max(pre + per) + 2
    else:  # a tail of zeros ends the word; kept, it would make 1 a zero
        per, total = [], sum(pre)
        if total <= 1:
            raise DegenerateApproximant(
                f"coefficient sum {total} <= 1 forces the root to z <= 1")
        hi = total + 1
    return PolyRoot(_cleared_polynomial(pre, per), 1, hi, precision)


def parry_invert(word: Union[Sequence[int], PeriodicWord],
                 precision: int = DEFAULT_PRECISION) -> PolyRoot:
    """The unique base beta > 1 whose expansion of 1 matches the word.

    The word must be self-admissible; the base is returned as a certified
    root of the value equation ``1 = sum w_i z**-i``.
    """
    w = word if isinstance(word, PeriodicWord) else PeriodicWord.from_finite(word)
    w = w.normalized()
    if not (w.pre or w.per):
        raise DegenerateApproximant("empty word")
    if not is_self_admissible(w):
        raise NotSelfAdmissible(f"{w} has a shift exceeding the word")
    return isolate_root(w.pre, periodic_tail=w.per, precision=precision)


def _integer_part(root: PolyRoot) -> tuple[int, bool]:
    """Certified integer part k of an isolated root, and whether the root is
    k (the cleared polynomial is monic, so any rational root is an integer).

    A bracket at most 2**-64 wide holds at most one integer, and a later
    bracket can hold only that one, so the error names the first bracket's."""
    bits = max(root.refined.prec, 64)
    hi = root.as_scalar(bits).hi
    k = hi.numerator // hi.denominator
    for bits in _escalate(bits, f"cannot tell beta from the integer {k}"):
        s = root.as_scalar(bits)
        hi = s.hi
        k = hi.numerator // hi.denominator
        if s.lo > k:
            return k, False
        if root.exact_equals(k):
            return k, True


def _renyi_interval_check(system, n: int, count: int, bits: int) -> dict:
    """``beta_shift.renyi_bounds_check`` off an integer base: beta as the
    interval ``system.beta_scalar(bits)``, escalated until both bounds settle."""
    for bits in _escalate(bits, "Renyi bound check did not resolve"):
        beta = system.beta_scalar(bits)
        lower = beta.pow_int(n)
        upper = beta.pow_int(n + 1) / (beta - Scalar.from_int(1, bits))
        lower_ok = lower.compare(count) if n else Comparison.LESS  # beta^0 = c_0 = 1
        upper_ok = upper.compare(count)
        if lower_ok is not Comparison.UNRESOLVED and upper_ok is not Comparison.UNRESOLVED:
            return {"n": n, "count": count,
                    "lower_ok": lower_ok is Comparison.LESS,
                    "upper_ok": upper_ok is Comparison.GREATER,
                    "bits": bits}
