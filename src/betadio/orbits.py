"""Greedy orbits: the expansion of 1 of a base not given by it, and the
certified greedy digits of an exact point.

``beta_shift`` reads a base's words off its expansion of 1; it imports this
module only for a base given as a rational (``rat:``) or as coefficients
that are not that expansion (a ``root:`` word that is not
self-admissible), whose expansion of 1 is the greedy orbit of 1, and
``greedy_expand`` (``expand --beta``) steps the orbit of a point.  Counts,
checks and lists on a base given by its expansion of 1, and cylinders,
compile none of this; a rational base's orbit loads neither ``roots`` nor
``numerics``, which only the algebraic orbit reads.

Digits are certified: greedy iteration takes x exact, and off a rational
base carries its orbit both as an interval and as an integer polynomial in
beta, so ties at the discontinuities of the map (orbit hitting an integer
exactly) are decided by exact algebra instead of ever being guessed: the
exact zero test of a polynomial at a root (``is_exact_root``: the signs, at
the ends of the root's bracket, of its gcd with the root's cleared
polynomial).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .automaton import PeriodicWord, poly_sub, poly_trim
from .errors import DegenerateApproximant, PrecisionExhausted

F = Fraction


# ---------------------------------------------------------------------------
# exact orbits


class _Orbit:
    """Greedy digits of an exact orbit, noting where it terminates or cycles.

    ``_step`` advances the orbit by one digit and returns the digit with the
    new orbit state, or with None when the orbit hit 0 (the expansion
    terminates there).  A repeated state closes a cycle ``(preperiod,
    period)``.  Once either event has closed the orbit, ``digits`` stops
    growing: a digit past it is read off the period, or is 0.  An orbit
    built with ``cycles=False`` keeps no states and never closes a cycle:
    its digits are the same, each one stepped.
    """

    def __init__(self, state, cycles: bool = True):
        self.digits: list[int] = []
        self.terminated: Optional[int] = None  # index after which all digits are 0
        self.cycle: Optional[tuple[int, int]] = None  # (preperiod, period)
        self._seen: Optional[dict] = {state: 0} if cycles else None

    def digit(self, i: int) -> int:
        digits = self.digits
        while len(digits) <= i and self.terminated is None and self.cycle is None:
            d, state = self._step()
            digits.append(d)
            if state is None:
                self.terminated = len(digits)
            elif self._seen is not None:
                j = self._seen.setdefault(state, len(digits))
                if j < len(digits):
                    self.cycle = (j, len(digits) - j)
        if i < len(digits):
            return digits[i]
        if self.cycle is None:
            return 0
        p, q = self.cycle
        return digits[p + (i - p) % q]

    def closed(self) -> Optional[PeriodicWord]:
        """The normalized expansion once the orbit terminated or cycled, else None."""
        if self.terminated is not None:
            return PeriodicWord.from_finite(self.digits[:self.terminated])
        if self.cycle is not None:
            p, q = self.cycle
            return PeriodicWord(self.digits[:p], self.digits[p:p + q]).normalized()
        return None


class _RationalOrbit(_Orbit):
    """Greedy digits for exact x (an int or a Fraction) under a rational base.

    Off an integer base no state is kept: the orbit of 1 never closes
    (Parry 1960), and for any other x a cycle would only save steps, while
    the states' denominators grow with every digit.
    """

    def __init__(self, base: Fraction, x: Fraction):
        self._p, self._q = base.numerator, base.denominator
        # x = num / den unreduced: each step multiplies den by q, so in an
        # integer base den stays put and num alone is the state
        self._num, self._den = x.numerator, x.denominator
        super().__init__(self._num, cycles=self._q == 1)

    def _step(self) -> tuple[int, Optional[int]]:
        self._den *= self._q
        d, self._num = divmod(self._p * self._num, self._den)
        return d, (self._num or None)


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
        from .numerics import _escalate, _iv_horner  # not for a rational base's orbit
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


# ---------------------------------------------------------------------------
# the expansion of 1 of a base not given by it, and greedy digits of a point


def rational_base(system: BetaSystem, base: Fraction) -> BetaSystem:
    """``BetaSystem.from_rational``, the empty ``system`` filled in: an
    integer gives that integer base, any other rational above 1 its greedy
    orbit of 1.  No closed form is looked for: a finite or periodic d(1)
    would make beta an algebraic integer (Parry 1960), and a rational one is
    an int."""
    base = F(base)
    if base.denominator == 1:
        return system.from_int(base.numerator)
    if base <= 1:
        raise DegenerateApproximant("base must exceed 1")
    system.kind = "rational"
    system.fraction_base = base
    system.alphabet_top = base.numerator // base.denominator
    system._orbit = _RationalOrbit(base, 1)
    system.spec_string = f"rat:{base}"
    return system


def algebraic_base(system: BetaSystem, coeffs: list[int], precision: int) -> BetaSystem:
    """``BetaSystem.from_root`` of coefficients that are not the expansion
    of 1, the empty ``system`` filled in: an integer root gives that integer
    base, any other its certified greedy orbit of 1, advanced 256 digits and
    adopted as a finite or periodic d(1) if it closes by then."""
    from .roots import _integer_part, isolate_root
    root = isolate_root(coeffs, precision=precision)
    k, is_int = _integer_part(root)
    if is_int:
        return system.from_int(k)
    system.kind = "algebraic"
    system._root = root
    system.alphabet_top = k
    system._orbit = orbit = _AlgebraicOrbit(root, 1)
    system.spec_string = "root:" + ",".join(map(str, coeffs))
    try:
        orbit.digit(256)
    except PrecisionExhausted:
        return system
    if (d1 := orbit.closed()) is not None:
        system._adopt(d1)
    return system


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
