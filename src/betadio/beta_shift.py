"""Expansions in a real base beta > 1 and the associated shift space.

A base is one of: an integer, a non-integer rational, or the certified root
of ``1 = sum c_i z**-i`` (finite or eventually periodic coefficients).  The
expansion of 1 determines everything else: a word is admissible exactly when
each of its shifts is lexicographically at most the infinite expansion of 1
(the quasi-greedy form ``(e_1 .. e_{m-1} (e_m - 1))^oo`` when the greedy
expansion of 1 terminates).  When that expansion is eventually periodic,
Parry's automaton (``automaton``) recognizes and counts the words; otherwise
they are read and counted off the expansion itself, to a horizon.

So this module is combinatorics.  It needs beta as a number only to find
the expansion of 1 of a base not given by it, for the Rényi check off an
integer base, and when a caller reads beta itself (``root``,
``beta_scalar``); only then does it import ``roots`` and ``numerics``, and
for the first two ``beta_values``, the certified queries.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Optional, Sequence, Union

from .automaton import AdmissibilityAutomaton, _parry_counts, is_self_admissible
from .errors import (
    DEFAULT_PRECISION,
    DegenerateApproximant,
    HorizonTooDeep,
    NoRoot,
    NotSelfAdmissible,
    PrecisionExhausted,
)
from .words import DigitWord, PeriodicWord

F = Fraction

DEFAULT_HORIZON = 4096


# ---------------------------------------------------------------------------
# greedy orbits


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


class _RationalOrbit(_Orbit):
    """Greedy digits for exact x under a rational base.

    Off an integer base no state is kept: the orbit of 1 never closes
    (Parry 1960), and for any other x a cycle would only save steps, while
    the states' denominators grow with every digit.
    """

    def __init__(self, base: Fraction, x: Fraction):
        x = F(x)
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
# the base together with its expansion-of-1 data


class BetaSystem:
    """A base beta with its expansion of 1, alphabet, and admissibility data.

    Use the classmethods: ``from_int``, ``from_root`` (coefficients of
    ``1 = sum c_i z**-i``), ``from_word`` (a self-admissible word, the
    inverse direction), ``from_rational``, or ``parse`` for the CLI grammar
    ``int:<k>`` | ``rat:<p/q>`` | ``root:<c1,...,cm>`` | ``word:<digits>``
    (with an optional ``(...)`` periodic tail) | ``approx:<spec>:<N>``.
    """

    def __init__(self):
        self.kind = None
        self.int_base: Optional[int] = None
        self.fraction_base: Optional[Fraction] = None
        self._root: Optional[PolyRoot] = None
        self._root_word = None  # (pre, per, precision) of a root not yet isolated
        self.alphabet_top: int = 0
        self.d1: Optional[PeriodicWord] = None
        self.d1_star: Optional[PeriodicWord] = None
        self.simple_parry: Optional[bool] = None
        self.automaton: Optional[AdmissibilityAutomaton] = None
        self.horizon = DEFAULT_HORIZON
        self.spec_string = ""
        self._orbit = None  # lazy d1 digits when no closed form is known
        self._lock = threading.Lock()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, b: int) -> "BetaSystem":
        if b < 2:
            raise ValueError("integer base must be >= 2")
        sys = cls()
        sys.kind = "int"
        sys.int_base = b
        sys.alphabet_top = b - 1
        sys.d1_star = PeriodicWord((), (b - 1,))
        sys.d1 = sys.d1_star
        sys.simple_parry = True
        sys.automaton = AdmissibilityAutomaton(sys.d1_star)
        sys.spec_string = f"int:{b}"
        return sys

    @classmethod
    def from_rational(cls, base: Fraction) -> "BetaSystem":
        base = F(base)
        if base.denominator == 1:
            return cls.from_int(base.numerator)
        if base <= 1:
            raise DegenerateApproximant("base must exceed 1")
        sys = cls()
        sys.kind = "rational"
        sys.fraction_base = base
        sys.alphabet_top = base.numerator // base.denominator
        # no closed form to look for: a finite or periodic d(1) would make
        # beta an algebraic integer (Parry 1960), and a rational one is an int
        sys._orbit = _RationalOrbit(base, F(1))
        sys.spec_string = f"rat:{base}"
        return sys

    @classmethod
    def from_word(cls, word: Union[Sequence[int], PeriodicWord],
                  precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        w = (word if isinstance(word, PeriodicWord) else PeriodicWord.from_finite(word)).normalized()
        if not is_self_admissible(w):
            raise NotSelfAdmissible(f"{w} is not self-admissible")
        if not (w.pre or w.per):
            raise DegenerateApproximant("zero word")
        if not w.pre:
            # purely periodic: the quasi-greedy form of a finite expansion
            return cls.from_word(w.per[:-1] + (w.per[-1] + 1,), precision)
        if min(w.pre + w.per) < 0:
            raise ValueError("expansion coefficients must be nonnegative")
        # w now has no shift equal to it, so it is d(1) of exactly one base
        # (Parry 1960), and d(1) of an integer k is the word k: the word
        # decides whether the base is an integer, without its root
        if len(w.pre) == 1 and not w.per:
            if w.pre[0] == 1:
                raise DegenerateApproximant("coefficient sum 1 <= 1 forces the root to z <= 1")
            return cls.from_int(w.pre[0])
        sys = cls()
        sys.kind = "algebraic"
        sys._root_word = (w.pre, w.per, precision)
        sys.alphabet_top = w.pre[0]
        sys._adopt(w)
        tail = ",(" + ",".join(map(str, w.per)) + ")" if w.per else ""
        sys.spec_string = "word:" + ",".join(map(str, w.pre)) + tail
        return sys

    @classmethod
    def from_root(cls, coefficients: Sequence[int],
                  precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            raise NoRoot("no nonzero coefficients")
        if any(c < 0 for c in coeffs):
            raise ValueError("digit coefficients must be nonnegative")
        if is_self_admissible(coeffs):
            sys = cls.from_word(coeffs, precision)
            sys.spec_string = "root:" + ",".join(map(str, coeffs))
            return sys
        from .beta_values import _AlgebraicOrbit
        from .roots import _integer_part, isolate_root
        root = isolate_root([F(c) for c in coeffs], precision=precision)
        k, is_int = _integer_part(root)
        if is_int:
            return cls.from_int(k)
        # the coefficient word is not the expansion of 1; fall back to the
        # certified greedy orbit for d(1)
        sys = cls()
        sys.kind = "algebraic"
        sys._root = root
        sys.alphabet_top = k
        sys._orbit = _AlgebraicOrbit(root, F(1))
        sys.spec_string = "root:" + ",".join(map(str, coeffs))
        sys._try_close_form()
        return sys

    @classmethod
    def parse(cls, spec: str, precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        spec = spec.strip()

        def read(convert, text: str):  # a ValueError that names the spec
            try:
                return convert(text)
            except (ValueError, ZeroDivisionError) as exc:
                what = "zero denominator in" if isinstance(exc, ZeroDivisionError) else "malformed"
                raise ValueError(f"{what} base spec {spec!r}") from None
        if spec.startswith("int:"):
            return cls.from_int(read(int, spec[4:]))
        if spec.startswith("rat:"):
            return cls.from_rational(read(F, spec[4:]))
        if spec.startswith("root:"):
            return cls.from_root([read(int, t) for t in spec[5:].split(",")], precision)
        if spec.startswith("word:"):
            return cls.from_word(read(PeriodicWord.parse, spec[5:]), precision)
        if spec.startswith("approx:"):
            body, _, n = spec[7:].rpartition(":")
            return cls.parse(body, precision).approximant(read(int, n), precision)
        raise ValueError(f"unrecognized base spec {spec!r}")

    # -- closing the orbit into a finite description ------------------------

    def _try_close_form(self) -> None:
        """Advance the greedy orbit 256 digits; adopt a finite/periodic d(1)."""
        try:
            self._orbit.digit(256)
        except PrecisionExhausted:
            return
        self._finalize_orbit()

    def _finalize_orbit(self) -> None:
        orb = self._orbit
        if orb.terminated is not None:
            self._adopt(PeriodicWord.from_finite(orb.digits[:orb.terminated]))
        elif orb.cycle is not None:
            p, q = orb.cycle
            self._adopt(PeriodicWord(orb.digits[:p], orb.digits[p:p + q]).normalized())

    def _adopt(self, d1: PeriodicWord) -> None:
        """Take d1, the normalized expansion of 1, with its quasi-greedy form
        (``(e_1 .. e_{m-1} (e_m - 1))^oo`` when d1 terminates) and automaton."""
        self.d1 = d1
        self.simple_parry = not d1.per
        self.d1_star = d1 if d1.per else PeriodicWord(
            (), d1.pre[:-1] + (d1.pre[-1] - 1,)).normalized()
        self.automaton = AdmissibilityAutomaton(self.d1_star)
        self._orbit = None

    # -- basic queries -------------------------------------------------------

    @property
    def root(self) -> Optional[PolyRoot]:
        """The certified root of an algebraic base; one given by its
        expansion of 1 is isolated on the first read."""
        if self._root is None and self._root_word is not None:
            with self._lock:
                if self._root is None:
                    from .roots import _integer_part, isolate_root
                    pre, per, precision = self._root_word
                    root = isolate_root(pre, periodic_tail=per, precision=precision)
                    # the word already says beta is no integer; certifying
                    # it too makes the refinements the printed intervals
                    # depend on, and raises PrecisionExhausted when beta is
                    # within 2**-_MAX_BITS of an integer
                    _integer_part(root)
                    self._root = root
        return self._root

    def beta_scalar(self, bits: int = DEFAULT_PRECISION) -> Scalar:
        from .numerics import Scalar
        if self.kind == "int":
            return Scalar.from_int(self.int_base, bits)
        if self.kind == "rational":
            return Scalar.from_fraction(self.fraction_base, bits)
        return self.root.as_scalar(bits)

    def d1_star_digit(self, i: int) -> int:
        """i-th symbol (0-based) of the infinite expansion of 1."""
        if self.d1_star is not None:
            return self.d1_star[i]
        with self._lock:
            if i >= self.horizon:
                raise HorizonTooDeep(
                    f"expansion of 1 requested past horizon {self.horizon}")
            d = self._orbit.digit(i)
            self._finalize_orbit()
            return d if self.d1_star is None else self.d1_star[i]

    def approximant(self, N: int, precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        """The base defined by the first N symbols of the expansion of 1.

        Always a simple Parry number; strictly below this base and increasing
        towards it in N.  Degenerate when the truncated word collapses
        (all-but-first symbols zero).
        """
        if N < 1:
            raise ValueError("N must be >= 1")
        prefix = [self.d1_star_digit(i) for i in range(N)]
        try:
            sub = BetaSystem.from_word(prefix, precision)
        except DegenerateApproximant as exc:
            raise DegenerateApproximant(
                f"N={N} is too small for {self.spec_string}: its first {N} symbols of "
                f"the expansion of 1 give no base above 1; use a larger N") from exc
        sub.spec_string = f"approx:{self.spec_string}:{N}"
        return sub

    def __repr__(self):
        return f"BetaSystem({self.spec_string or self.kind})"


# ---------------------------------------------------------------------------
# spec operations


def expansion_of_one_star(system: BetaSystem, n: int) -> DigitWord:
    """First n symbols of the infinite (quasi-greedy) expansion of 1."""
    return DigitWord(system.alphabet_top + 1, map(system.d1_star_digit, range(n)))


def is_admissible(system: BetaSystem, word: Sequence[int]) -> bool:
    """Whether every shift of the word stays lexicographically below the bound.

    Finite words are compared against the matching-length prefix of the
    infinite expansion of 1, so this recognizes exactly the words that occur
    inside expansions of points of the unit interval.
    """
    digits = list(word)
    if any(d < 0 or d > system.alphabet_top for d in digits):
        return False
    if system.automaton is not None:
        return system.automaton.walk(digits) is not None
    state = 0  # Parry's automaton, reading its bounds off the expansion of 1
    for d in digits:
        b = system.d1_star_digit(state)
        if d > b:
            return False
        state = state + 1 if d == b else 0
    return True


def count_admissible(system: BetaSystem, n: int) -> int:
    """Exact number of admissible words of length n, by ``c_0 = 1`` and
    ``c_n = 1 + sum_{i<=n} t*_i c_{n-i}`` (Rényi 1957, Parry 1960): a word is
    the prefix of ``t*`` or first drops below ``t*_i`` at some i, then goes on
    admissibly.  Without an automaton ``t*`` is known to the horizon only."""
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if system.automaton is not None:
        return system.automaton.count_words(n)
    if n > system.horizon:
        raise HorizonTooDeep(f"no finite automaton for {system}; length {n} "
                             f"needs the expansion of 1 past horizon {system.horizon}")
    return _parry_counts(system.d1_star_digit, n, system.alphabet_top)[n]


def renyi_bounds_check(system: BetaSystem, n: int, bits: int = DEFAULT_PRECISION) -> dict:
    """Certified check of ``beta^n <= count <= beta^(n+1)/(beta-1)``."""
    count = count_admissible(system, n)
    if system.kind != "int":
        from .beta_values import _renyi_interval_check
        return _renyi_interval_check(system, n, count, bits)
    # exact integer arithmetic: beta^n == count, which intervals never
    # resolve, is a legitimate equality case
    b = system.int_base
    return {"n": n, "count": count,
            "lower_ok": b ** n <= count,
            "upper_ok": F(b ** (n + 1), b - 1) >= count,
            "bits": bits}
