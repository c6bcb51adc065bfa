"""Expansions in a real base beta > 1 and the associated shift space.

A base is one of: an integer, a non-integer rational, or the certified root
of ``1 = sum c_i z**-i`` (finite or eventually periodic coefficients).  The
expansion of 1 determines everything else: a word is admissible exactly when
each of its shifts is lexicographically at most the infinite expansion of 1
(the quasi-greedy form ``(e_1 .. e_{m-1} (e_m - 1))^oo`` when the greedy
expansion of 1 terminates).  When that expansion is eventually periodic,
Parry's automaton (``automaton``) recognizes and counts the words; otherwise
they are read and counted off the expansion itself, to a horizon.

So this module is combinatorics, in ints.  The expansion of 1 of a base
not given by it, a rational or a root of coefficients that are not that
expansion, is its greedy orbit of 1 (``orbits``), imported only for such a
base.  Beta as a number (``root``, ``beta_scalar``) and the Rényi check off
an integer base import ``roots`` and ``numerics``.  It imports
``fractions`` only to read a ``rat:`` base, and ``words`` only to build a
digit word (``expansion_of_one_star``): counting, checking and listing the
words of a base given by its expansion of 1 compiles none of these.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

from .automaton import AdmissibilityAutomaton, PeriodicWord, _parry_counts, is_self_admissible
from .errors import (
    DEFAULT_PRECISION,
    DegenerateApproximant,
    HorizonTooDeep,
    NoRoot,
    NotSelfAdmissible,
)

DEFAULT_HORIZON = 4096


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
        from .orbits import rational_base
        return rational_base(cls(), base)

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
        # the coefficient word is not the expansion of 1: the certified
        # greedy orbit of 1 gives it
        from .orbits import algebraic_base
        return algebraic_base(cls(), coeffs, precision)

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
            from fractions import Fraction
            return cls.from_rational(read(Fraction, spec[4:]))
        if spec.startswith("root:"):
            return cls.from_root([read(int, t) for t in spec[5:].split(",")], precision)
        if spec.startswith("word:"):
            return cls.from_word(read(PeriodicWord.parse, spec[5:]), precision)
        if spec.startswith("approx:"):
            body, _, n = spec[7:].rpartition(":")
            return cls.parse(body, precision).approximant(read(int, n), precision)
        raise ValueError(f"unrecognized base spec {spec!r}")

    # -- the expansion of 1 --------------------------------------------------

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
            if (d1 := self._orbit.closed()) is not None:
                self._adopt(d1)
            return d if self.d1_star is None else self.d1_star[i]

    def approximant(self, N: int, precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        """The base defined by the first N symbols of the expansion of 1.

        Always a simple Parry number; strictly below this base and increasing
        towards it in N.  Degenerate when the truncated word collapses
        (all-but-first symbols zero).
        """
        if N < 1:
            raise ValueError("N must be >= 1")
        if N > self.horizon:  # before reading N digits, which a Parry base gives without end
            raise HorizonTooDeep(f"approximant N={N} is past the horizon {self.horizon}")
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
    from .words import DigitWord
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
        from .roots import _renyi_interval_check
        return _renyi_interval_check(system, n, count, bits)
    # exact integer arithmetic: beta^n == count, which intervals never
    # resolve, is a legitimate equality case
    b = system.int_base
    return {"n": n, "count": count,
            "lower_ok": b ** n <= count,
            "upper_ok": b ** (n + 1) >= count * (b - 1),
            "bits": bits}
