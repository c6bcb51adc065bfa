"""The certified queries that need a real base as a number: the base of a
word (``parry_invert``), greedy digits of a point, cylinder endpoints,
lengths and fullness.

``beta_shift`` holds the base's words, which its expansion of 1 alone
decides; it imports this module only for the certified orbit of 1 of a base
not given by that expansion.  The interval Rényi check is ``roots``', so
that ``--renyi`` loads ``roots`` and ``numerics`` alone, and ``words`` is
imported only where a digit word is built.  The exact zero test of a
polynomial at a root (``is_exact_root``, by its gcd with the root's cleared
polynomial) is here, beside the greedy orbit whose ties it decides.

Digits are certified: greedy iteration carries the orbit of x both as an
interval and, when x and beta are exact, as an integer polynomial in beta,
so ties at the discontinuities of the map (orbit hitting an integer exactly)
are decided by exact algebra instead of ever being guessed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .automaton import PeriodicWord, is_self_admissible, poly_sub, poly_trim
from .beta_shift import BetaSystem, _Orbit, _RationalOrbit, is_admissible
from .errors import DEFAULT_PRECISION, DegenerateApproximant, NotSelfAdmissible, PrecisionExhausted
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


def is_exact_root(poly: Sequence[Fraction], root: PolyRoot) -> bool:
    """Decide exactly whether the certified root annihilates ``poly``.

    gcd of ``poly`` with the root's defining polynomial either has no root in
    the bracket (value provably nonzero) or has the bracketed root as a simple
    root (sign change appears under refinement).
    """
    c = poly_trim(list(Fraction(v) for v in poly))
    if not c:
        return True
    g = poly_gcd(c, [Fraction(v) for v in root.int_poly])
    if len(g) <= 1:
        return False
    for bits in _escalate(root.refined.prec, "exact-zero test did not resolve"):
        s = root.as_scalar(bits)
        glo = poly_eval(g, s.lo)
        ghi = poly_eval(g, s.hi)
        if glo == 0 or ghi == 0:
            # endpoint hit: nudge by refining further, dyadic endpoints are
            # never the algebraic root itself unless the root is rational
            if root.exact_equals(s.lo) or root.exact_equals(s.hi):
                return True
        if glo * ghi < 0:
            return True
        # no sign change; the value is nonzero once the interval evaluation
        # of poly excludes zero
        val = _iv_horner(c, s, s.prec)
        if not val.iv[0] <= 0 <= val.iv[2]:
            return False


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
    """First n certified digits of the greedy expansion of x in the base.

    x may be a Fraction (exact, enables tie resolution by exact algebra) or a
    Scalar interval.  For an integer base and x = 1 the conventional digits
    ``(b-1)^oo`` are returned, matching the infinite expansion of 1.
    """
    from .words import DigitWord
    top = system.alphabet_top
    if isinstance(x, int):
        x = F(x)
    if isinstance(x, F):
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
    # interval input: no exact tie-breaking available
    digits = []
    val = x
    beta = system.beta_scalar(max(x.prec, DEFAULT_PRECISION))
    for _ in range(n):
        y = beta * val
        fl = y.floor_certified()
        if fl is None:
            raise PrecisionExhausted(
                "orbit straddles a discontinuity; supply x exactly or refine it")
        digits.append(fl)
        val = y - Scalar.from_int(fl, y.prec)
    return DigitWord(top + 1, digits)


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
