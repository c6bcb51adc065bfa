"""The certified queries that need a real base as a number: the base of a
word (``parry_invert``), greedy digits of a point, cylinder endpoints,
lengths and fullness.

``beta_shift`` holds the base's words, which its expansion of 1 alone
decides; it imports this module only for the certified orbit of 1 of a base
not given by that expansion.  The interval Rényi check is ``roots``', so
that ``--renyi`` loads ``roots`` and ``numerics`` alone, and ``words`` is
imported only where a digit word is built.  The exact zero test of a
polynomial at a root (``is_exact_root``: the signs, at the ends of the
root's bracket, of its gcd with the root's cleared polynomial) is here,
beside the greedy orbit whose ties it decides.

Digits are certified: greedy iteration takes x exact, and off a rational
base carries its orbit both as an interval and as an integer polynomial in
beta, so ties at the discontinuities of the map (orbit hitting an integer
exactly) are decided by exact algebra instead of ever being guessed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .automaton import PeriodicWord, is_self_admissible, poly_sub, poly_trim
from .beta_shift import BetaSystem, _Orbit, _RationalOrbit, is_admissible
from .errors import DEFAULT_PRECISION, DegenerateApproximant, NotSelfAdmissible
from .numerics import Scalar, _escalate, _iv_horner, _scalar
from .record import Record
from .roots import PolyRoot, isolate_root

F = Fraction


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


# ---------------------------------------------------------------------------
# exact zero tests: polynomials over Q, ascending, divided as Fractions


def poly_eval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def poly_gcd(a: Sequence, b: Sequence) -> list[Fraction]:
    """The monic gcd over Q: Euclid's algorithm, which keeps remainders only."""
    a, b = poly_trim([F(v) for v in a]), poly_trim([F(v) for v in b])
    while b:
        while len(a) >= len(b):  # a becomes its remainder modulo b
            f, k = a[-1] / b[-1], len(a) - len(b)
            for i, v in enumerate(b):
                a[i + k] -= f * v
            poly_trim(a)
        a, b = b, a
    return [v / a[-1] for v in a] if a else a


def is_exact_root(poly: Sequence, root: PolyRoot) -> bool:
    """Decide exactly whether the root annihilates ``poly`` (integer or
    Fraction coefficients), without refining it.

    The gcd g of ``poly`` with the root's cleared polynomial P vanishes at the
    root exactly when ``poly`` does.  P has one zero beyond 1, the root, and a
    simple one, and is negative at the bracket's left end (1 or a point its
    sign found negative), so g is nonzero there and in the bracket vanishes
    at the root alone: its signs at the two ends differ, or it is 0 at the
    right end, exactly when it vanishes there.
    """
    g = poly_gcd(poly, root.int_poly)
    return poly_eval(g, root.lo) * poly_eval(g, root.hi) <= 0


# ---------------------------------------------------------------------------
# certified greedy orbits


class _AlgebraicOrbit(_Orbit):
    """Greedy digit generator for exact x = p/q and an algebraic base.

    q times the orbit value after n steps is an integer polynomial in beta,
    kept reduced modulo the defining polynomial, which is monic with integer
    coefficients (every base comes from integer digits), so its degree stays
    bounded.  Digits are certified interval floors divided by q, with exact
    algebra deciding the case where the orbit hits an integer.
    """

    def __init__(self, root: PolyRoot, x: Fraction):
        self.root = root
        self.q = x.denominator
        self.poly = [x.numerator]  # q * orbit value, in beta, reduced
        self._bits = root.refined.prec
        super().__init__(tuple(self.poly))

    def _step(self) -> tuple[int, Optional[tuple]]:
        shifted, monic, q = [0] + self.poly, self.root.int_poly, self.q
        if len(shifted) == len(monic):  # beta * orbit has the degree of the monic poly
            shifted = [a - shifted[-1] * m for a, m in zip(shifted, monic)]
        shifted = poly_trim(shifted)
        for self._bits in _escalate(self._bits, "orbit digit straddles an integer"):
            val = _iv_horner(shifted, self.root.as_scalar(self._bits), self._bits)
            fl = val.floor_certified(q)
            if fl is not None:
                break
            lo = val.lo
            candidate = lo.numerator // (lo.denominator * q) + 1
            if is_exact_root(poly_sub(shifted, [q * candidate]), self.root):
                # beta * orbit equals the integer exactly: digit = candidate,
                # the orbit hits 0 and the expansion terminates
                self.poly = []
                return candidate, None
        self.poly = poly_sub(shifted, [q * fl])
        return fl, tuple(self.poly) or None  # an orbit at 0 terminates


def greedy_expand(system: BetaSystem, x, n: int) -> DigitWord:
    """First n certified digits of the greedy expansion of the exact x
    (a Fraction or an int; anything else raises TypeError) in the base.

    Ties, where the orbit hits a jump of the map exactly, are decided by exact
    algebra.  For an integer base and x = 1 the conventional digits
    ``(b-1)^oo`` are returned, matching the infinite expansion of 1.
    """
    from .words import DigitWord
    top, x = system.alphabet_top, F(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    if system.kind == "int" and x == 1:
        return DigitWord(top + 1, [top] * n)
    if system.kind == "algebraic":
        orbit = _AlgebraicOrbit(system.root, x)
    else:
        orbit = _RationalOrbit(F(system.int_base or system.fraction_base), x)
    # into the word as they come.  The orbit keeps its own list of them,
    # but off an integer base it never closes a cycle (and one that hits
    # 0 steps on as 0), so it is stepped without that list
    digit = orbit.digit if system.kind != "rational" else lambda _i: orbit._step()[0]
    if top >= 256:
        return DigitWord(top + 1, map(digit, range(n)))
    # greedy digits lie in 0..top, as x lies in [0, 1]: packed unchecked
    digits = bytearray(n)
    for i in range(n):
        digits[i] = digit(i)
    return DigitWord.from_bytes(top + 1, digits)


# ---------------------------------------------------------------------------
# cylinders


class CylinderInterval(Record):
    __slots__ = ("word", "left", "right", "length", "full")

    def __init__(self, word: DigitWord, left: Scalar, right: Scalar, length: Scalar,
                 full: Optional[bool]):
        self.word = word
        self.left = left
        self.right = right
        self.length = length
        self.full = full  # None when no finite automaton decides fullness


def _tail_supremum(system: BetaSystem, state: int, bits: int) -> Scalar:
    """Value of the largest admissible continuation from the given state.

    That continuation is the shifted bound word itself; its value is 1
    exactly on full states.
    """
    beta = system.beta_scalar(bits)
    D = system.automaton.bound_word.shift(state).normalized()
    return _periodic_value(D, beta, bits)


def _periodic_value(w: PeriodicWord, beta: Scalar, bits: int) -> Scalar:
    inv = beta.reciprocal()
    # (acc + c) * inv from the last digit is Horner in inv over (0, w_1, ...)
    acc = _iv_horner((0, *w.pre), inv, bits)
    if w.per:
        per = _iv_horner((0, *w.per), inv, bits)
        q = len(w.per)
        tail = per / (Scalar.from_int(1, bits) - inv.pow_int(q))
        acc = acc + inv.pow_int(len(w.pre)) * tail
    return acc


def word_value(system: BetaSystem, word: Sequence[int], bits: int = DEFAULT_PRECISION) -> Scalar:
    """Certified value of ``sum w_i beta**-i``."""
    return _iv_horner((0, *word), system.beta_scalar(bits).reciprocal(), bits)


def cylinder(system: BetaSystem, word: Sequence[int],
             bits: int = DEFAULT_PRECISION) -> CylinderInterval:
    """The basic interval of points whose expansion starts with the word;
    ``full`` says whether its length is ``beta**-n`` (None when no finite
    automaton decides it)."""
    from .words import DigitWord
    digits = list(word)
    if system.automaton is not None:
        state = system.automaton.walk(digits)
        if state is None:
            raise ValueError("word is not admissible")
    else:
        if not is_admissible(system, digits):
            raise ValueError("word is not admissible")
        state = None
    left = word_value(system, digits, bits)
    beta = system.beta_scalar(bits)
    scale = beta.pow_int(-len(digits))
    if state is not None:
        tail = _tail_supremum(system, state, bits)
        full = state in system.automaton.full_states
    else:
        # bound the tail by digits known to the horizon plus a geometric rest
        top = system.alphabet_top
        H = min(system.horizon, 512)
        partial = word_value(system, [system.d1_star_digit(i) for i in range(H)], bits)
        rest = beta.pow_int(-H).scale_int(top) / (beta - Scalar.from_int(1, bits))
        tail = _scalar((*partial.iv[:2], *(partial + rest).iv[2:]), bits)
        full = None
    length = scale * tail
    right = left + length
    return CylinderInterval(word=DigitWord(system.alphabet_top + 1, digits),
                            left=left, right=right, length=length, full=full)
