"""Expansions in a real base beta > 1 and the associated shift space.

A base is one of: an integer, a non-integer rational, or the certified root
of ``1 = sum c_i z**-i`` (finite or eventually periodic coefficients).  The
expansion of 1 determines everything else: a word is admissible exactly when
each of its shifts is lexicographically at most the infinite expansion of 1
(the quasi-greedy form ``(e_1 .. e_{m-1} (e_m - 1))^oo`` when the greedy
expansion of 1 terminates).  For eventually periodic expansions of 1 the
admissible words form a finite-automaton language; the automaton is the
follower-set construction with states "length of the longest suffix matching
a prefix of the bound word", collapsed modulo the period.  Admissible words
are counted by the recurrence of Rényi (1957) and Parry (1960) on that
expansion, jumped ahead by Fiduccia's (1985) powering once it is periodic.

Digits are certified: greedy iteration carries the orbit of x both as an
interval and, when x and beta are exact, as an integer polynomial in beta,
so ties at the discontinuities of the map (orbit hitting an integer exactly)
are decided by exact algebra instead of ever being guessed.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate, compress
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DegenerateApproximant,
    HorizonTooDeep,
    NoRoot,
    NotSelfAdmissible,
    PrecisionExhausted,
    UndecidedFiniteness,
)
from .numerics import (
    DEFAULT_PRECISION,
    Comparison,
    PolyRoot,
    Scalar,
    _cleared_polynomial,
    _escalate,
    _iv_horner,
    is_exact_root,
    isolate_root,
    poly_sub,
    poly_trim,
)
from .record import Record
from .words import DigitWord, PeriodicWord, compare_words

F = Fraction

DEFAULT_HORIZON = 4096


# ---------------------------------------------------------------------------
# word-level predicates


def is_self_admissible(word: Union[Sequence[int], PeriodicWord]) -> bool:
    """Every shift of the word is lexicographically <= the word itself.

    Finite words are read with an implicit zero tail.  For an eventually
    periodic word with preperiod p and period q the shifts repeat after
    p + q, so the finitely many comparisons below decide the property.
    """
    w = word if isinstance(word, PeriodicWord) else PeriodicWord.from_finite(word)
    w = w.normalized()
    p, q = len(w.pre), max(1, len(w.per))
    for k in range(1, p + q):
        if compare_words(w.shift(k), w) > 0:
            return False
    return True


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
    return isolate_root([F(c) for c in w.pre], periodic_tail=[F(c) for c in w.per],
                        precision=precision)


# ---------------------------------------------------------------------------
# admissibility automaton


class AdmissibilityAutomaton:
    """Follower automaton for the shift bounded by an eventually periodic word.

    State s encodes "the longest suffix of the input read so far equals the
    first s symbols of the bound word D"; allowed next digits are 0..D[s].
    Reading D[s] extends the match; a smaller digit drops to the longest
    shorter suffix match (computed KMP-style); matches past the preperiod p
    collapse modulo the period q because the tails of D repeat there.
    """

    def __init__(self, bound_word: PeriodicWord):
        D = bound_word
        p, q = len(D.pre), len(D.per)
        if q == 0:
            raise ValueError("bound word must have a nonzero period")
        self.bound_word = D
        self.num_states = p + q
        self.bound = [D[s] for s in range(self.num_states)]

        def collapse(l: int) -> int:
            return l if l < p + q else p + (l - p) % q

        trans: list[list[int]] = []
        for s in range(self.num_states):
            row = []
            for c in range(self.bound[s] + 1):
                if c == self.bound[s]:
                    row.append(collapse(s + 1))
                    continue
                t = 0
                for k in range(s, 0, -1):
                    if D[k - 1] == c and all(D[i] == D[s - k + 1 + i] for i in range(k - 1)):
                        t = k
                        break
                row.append(t)
            trans.append(row)
        self.transitions = trans
        self.full_states = frozenset(
            s for s in range(self.num_states)
            if compare_words(D.shift(s), D) == 0)
        # count_words: the cleared polynomial of D (monic; x^d dropped) and
        # the counts c_0 .. c_{p+q-1}
        f = _cleared_polynomial(D.pre, D.per)
        self._taps = [(i, int(c)) for i, c in enumerate(f[:-1]) if c]
        self._head = _parry_counts(self.bound.__getitem__, p + q - 1, max(self.bound))
        self._count_cache: dict[int, int] = {}

    def step(self, state: int, digit: int) -> Optional[int]:
        if digit < 0 or digit > self.bound[state]:
            return None
        return self.transitions[state][digit]

    def walk(self, word: Iterable[int], state: int = 0) -> Optional[int]:
        for d in word:
            state = self.step(state, d)
            if state is None:
                return None
        return state

    def count_words(self, n: int) -> int:
        """Exact number of accepted words of length n (paths from state 0).

        The counts have the generating function ``(1 + .. + z^(q-1)) / E(z)``,
        E the reverse of D's cleared polynomial, so ``c_n`` is ``x^n`` modulo
        it applied to ``c_0 .. c_{p+q-1}`` (Fiduccia, SIAM J. Comput. 14, 1985).
        """
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        if n not in self._count_cache:
            d = self.num_states
            r = [1] + [0] * (d - 1)  # x^n mod the polynomial, by binary powering
            for bit in bin(n)[2:]:
                sq = [0] * (2 * d - 1)
                for i, ri in enumerate(r):
                    sq[2 * i] += ri * ri
                    for j in range(i + 1, d):
                        sq[i + j] += ri * r[j] << 1
                if bit == "1":
                    sq.insert(0, 0)
                for k in range(len(sq) - 1, d - 1, -1):
                    for i, e in self._taps:  # x^d = -sum e x^i
                        sq[k - d + i] -= e * sq[k]
                r = sq[:d]
            self._count_cache[n] = sum(map(mul, r, self._head))
        return self._count_cache[n]

    def enumerate_words(self, n: int) -> Iterator[tuple]:
        """Accepted words of length n, in lexicographic order."""
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        word = [0] * n
        while True:
            yield tuple(word)
            # an odometer: the last digit below its bound goes up, the digits
            # after it restart at 0 (which every state allows)
            states = list(accumulate(word, self.step, initial=0))
            i = n - 1
            while i >= 0 and word[i] == self.bound[states[i]]:
                i -= 1
            if i < 0:
                return
            word[i:] = [word[i] + 1] + [0] * (n - 1 - i)

    def sample_word(self, n: int, rng) -> tuple:
        state, out = 0, []
        for _ in range(n):
            c = rng.randint(0, self.bound[state])
            out.append(c)
            state = self.transitions[state][c]
        return tuple(out)


# ---------------------------------------------------------------------------
# certified greedy orbits


class _Orbit:
    """Greedy digits of an exact orbit, noting where it terminates or cycles.

    ``_step`` advances the orbit by one digit and returns the digit with the
    new orbit state, or with None when the orbit hit 0 (the expansion
    terminates there).  A repeated state closes a cycle ``(preperiod,
    period)``; after either event the digits are continued without stepping.
    """

    def __init__(self, state):
        self.digits: list[int] = []
        self.terminated: Optional[int] = None  # index after which all digits are 0
        self.cycle: Optional[tuple[int, int]] = None  # (preperiod, period)
        self._seen: dict = {state: 0}

    def digit(self, i: int) -> int:
        digits = self.digits
        while len(digits) <= i:
            if self.terminated is not None:
                digits.append(0)
            elif self.cycle is not None:
                p, q = self.cycle
                digits.append(digits[p + (len(digits) - p) % q])
            else:
                d, state = self._step()
                digits.append(d)
                if state is None:
                    self.terminated = len(digits)
                elif state in self._seen:
                    j = self._seen[state]
                    self.cycle = (j, len(digits) - j)
                else:
                    self._seen[state] = len(digits)
        return digits[i]


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
            lo = val.lo.value
            candidate = lo.numerator // (lo.denominator * q) + 1
            if is_exact_root(poly_sub(shifted, [q * candidate]), self.root):
                # beta * orbit equals the integer exactly: digit = candidate,
                # the orbit hits 0 and the expansion terminates
                self.poly = []
                return candidate, None
        self.poly = poly_sub(shifted, [q * fl])
        return fl, tuple(self.poly) or None  # an orbit at 0 terminates


class _RationalOrbit(_Orbit):
    """Greedy digits for exact x under a rational non-integer base."""

    def __init__(self, base: Fraction, x: Fraction):
        self.base = base
        self.x = F(x)
        super().__init__(self.x)

    def _step(self) -> tuple[int, Optional[Fraction]]:
        y = self.base * self.x
        d = y.numerator // y.denominator
        self.x = y - d
        return d, (self.x if self.x != 0 else None)


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
        self.root: Optional[PolyRoot] = None
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
    def from_rational(cls, base: Fraction, horizon: int = DEFAULT_HORIZON) -> "BetaSystem":
        base = F(base)
        if base.denominator == 1:
            return cls.from_int(base.numerator)
        if base <= 1:
            raise DegenerateApproximant("base must exceed 1")
        sys = cls()
        sys.kind = "rational"
        sys.fraction_base = base
        sys.alphabet_top = base.numerator // base.denominator
        sys.horizon = horizon
        sys._orbit = _RationalOrbit(base, F(1))
        sys.spec_string = f"rat:{base}"
        sys._try_close_form()
        return sys

    @classmethod
    def from_word(cls, word: Union[Sequence[int], PeriodicWord],
                  precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        w = (word if isinstance(word, PeriodicWord) else PeriodicWord.from_finite(word)).normalized()
        if not is_self_admissible(w):
            raise NotSelfAdmissible(f"{w} is not self-admissible")
        if not w.per:
            # finite expansion of 1: a simple Parry number
            if not w.pre:
                raise DegenerateApproximant("zero word")
            star = PeriodicWord((), w.pre[:-1] + (w.pre[-1] - 1,)).normalized()
            tail = ""
        elif not w.pre:
            # purely periodic: the quasi-greedy form of a finite expansion
            u = w.per
            lifted = u[:-1] + (u[-1] + 1,)
            return cls.from_word(PeriodicWord.from_finite(lifted), precision)
        else:
            # genuine preperiod: a Parry number with non-terminating d(1)
            star = w
            tail = ",(" + ",".join(map(str, w.per)) + ")"
        root = isolate_root(w.pre, periodic_tail=w.per, precision=precision)
        k, is_int = _integer_part(root)
        if is_int:
            return cls.from_int(k)
        sys = cls()
        sys.kind = "algebraic"
        sys.root = root
        sys.d1 = w
        sys.d1_star = star
        sys.simple_parry = not w.per
        sys.alphabet_top = w.pre[0]
        sys.automaton = AdmissibilityAutomaton(star)
        sys.spec_string = "word:" + ",".join(map(str, w.pre)) + tail
        return sys

    @classmethod
    def from_root(cls, coefficients: Sequence[int], precision: int = DEFAULT_PRECISION,
                  horizon: int = DEFAULT_HORIZON) -> "BetaSystem":
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
        root = isolate_root([F(c) for c in coeffs], precision=precision)
        k, is_int = _integer_part(root)
        if is_int:
            return cls.from_int(k)
        # the coefficient word is not the expansion of 1; fall back to the
        # certified greedy orbit for d(1)
        sys = cls()
        sys.kind = "algebraic"
        sys.root = root
        sys.horizon = horizon
        sys.alphabet_top = k
        sys._orbit = _AlgebraicOrbit(root, F(1))
        sys.spec_string = "root:" + ",".join(map(str, coeffs))
        sys._try_close_form()
        return sys

    @classmethod
    def parse(cls, spec: str, precision: int = DEFAULT_PRECISION) -> "BetaSystem":
        spec = spec.strip()
        if spec.startswith("int:"):
            return cls.from_int(int(spec[4:]))
        if spec.startswith("rat:"):
            return cls.from_rational(F(spec[4:]))
        if spec.startswith("root:"):
            return cls.from_root([int(t) for t in spec[5:].split(",")], precision)
        if spec.startswith("word:"):
            return cls.from_word(PeriodicWord.parse(spec[5:]), precision)
        if spec.startswith("approx:"):
            body, _, n = spec[7:].rpartition(":")
            return cls.parse(body, precision).approximant(int(n))
        raise ValueError(f"unrecognized base spec {spec!r}")

    # -- closing the orbit into a finite description ------------------------

    def _try_close_form(self, probe: int = 256) -> None:
        """Advance the greedy orbit a little; adopt a finite/periodic d(1)."""
        if self._orbit is None:
            return
        try:
            self._orbit.digit(probe)
        except PrecisionExhausted:
            return
        self._finalize_orbit()

    def _finalize_orbit(self) -> None:
        orb = self._orbit
        if orb is None:
            return
        if orb.terminated is not None:
            digits = tuple(orb.digits[:orb.terminated])
            self.d1 = PeriodicWord.from_finite(digits)
            self.d1_star = PeriodicWord((), digits[:-1] + (digits[-1] - 1,)).normalized()
            self.simple_parry = True
            self.automaton = AdmissibilityAutomaton(self.d1_star)
            self._orbit = None
        elif orb.cycle is not None:
            p, q = orb.cycle
            w = PeriodicWord(tuple(orb.digits[:p]), tuple(orb.digits[p:p + q])).normalized()
            self.d1 = w
            self.d1_star = w
            self.simple_parry = False
            self.automaton = AdmissibilityAutomaton(w)
            self._orbit = None

    # -- basic queries -------------------------------------------------------

    def beta_scalar(self, bits: int = DEFAULT_PRECISION) -> Scalar:
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
        if root.exact_equals(F(k)):
            return k, True


# ---------------------------------------------------------------------------
# spec operations


def greedy_expand(system: BetaSystem, x, n: int) -> DigitWord:
    """First n certified digits of the greedy expansion of x in the base.

    x may be a Fraction (exact, enables tie resolution by exact algebra) or a
    Scalar interval.  For an integer base and x = 1 the conventional digits
    ``(b-1)^oo`` are returned, matching the infinite expansion of 1.
    """
    top = system.alphabet_top
    if isinstance(x, int):
        x = F(x)
    if isinstance(x, F):
        if not 0 <= x <= 1:
            raise ValueError("x must lie in [0, 1]")
        if system.kind == "int":
            b = system.int_base
            if x == 1:
                return DigitWord(b, [b - 1] * n)
            orbit = _RationalOrbit(F(b), x)
            return DigitWord(b, [orbit.digit(i) for i in range(n)])
        if system.kind == "rational":
            orbit = _RationalOrbit(system.fraction_base, x)
            return DigitWord(top + 1, [orbit.digit(i) for i in range(n)])
        orbit = _AlgebraicOrbit(system.root, x)
        return DigitWord(top + 1, [orbit.digit(i) for i in range(n)])
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


def expansion_of_one_star(system: BetaSystem, n: int) -> DigitWord:
    """First n symbols of the infinite (quasi-greedy) expansion of 1."""
    return DigitWord(system.alphabet_top + 1,
                     [system.d1_star_digit(i) for i in range(n)])


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
    n = len(digits)
    for k in range(n):
        for i in range(n - k):
            b = system.d1_star_digit(i)
            if digits[k + i] > b:
                return False
            if digits[k + i] < b:
                break
    return True


# the largest digit for which _parry_counts sums without multiplying: at
# n = 4096 that took 0.26-0.78 of the product form's time for rat:p/q bases
# with tops 1-3, and 1.12-1.57 of it for tops 4-5
_FREE_SUM_TOP = 3


def _parry_counts(digit, n: int, top: int) -> list[int]:
    """``c_0 .. c_n`` of ``c_m = 1 + sum_{i<=m} t*_i c_{m-i}``; digit(i) is
    t*_{i+1}, at most top.

    Up to ``_FREE_SUM_TOP`` the sum is taken without multiplying, as
    ``sum_v sum_{i: t*_i >= v} c_{m-i}``: ``at_least[v-1][i-1]`` says whether
    ``t*_i >= v``.  That is one pass over c for each v, so larger alphabets
    take the products."""
    c = [1]
    if top > _FREE_SUM_TOP:
        t = []
        for m in range(n):
            t.append(digit(m))
            c.append(1 + sum(map(mul, t, reversed(c))))
        return c
    at_least = [[] for _ in range(top)]
    for m in range(n):
        d = digit(m)
        for v, row in enumerate(at_least, 1):
            row.append(d >= v)
        c.append(1 + sum(sum(compress(reversed(c), row)) for row in at_least))
    return c


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
    if system.kind == "int":
        # exact integer arithmetic: beta^n == count, which intervals never
        # resolve, is a legitimate equality case
        b = system.int_base
        return {"n": n, "count": count,
                "lower_ok": b ** n <= count,
                "upper_ok": F(b ** (n + 1), b - 1) >= count,
                "bits": bits}
    for bits in _escalate(bits, "Renyi bound check did not resolve"):
        beta = system.beta_scalar(bits)
        lower = beta.pow_int(n)
        upper = beta.pow_int(n + 1) / (beta - Scalar.from_int(1, bits))
        lower_ok = lower.compare(F(count))
        upper_ok = upper.compare(F(count))
        if lower_ok is not Comparison.UNRESOLVED and upper_ok is not Comparison.UNRESOLVED:
            return {"n": n, "count": count,
                    "lower_ok": lower_ok is Comparison.LESS,
                    "upper_ok": upper_ok is Comparison.GREATER,
                    "bits": bits}


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
    """The basic interval of points whose expansion starts with the word."""
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
        tail = Scalar(partial.lo, (partial + rest).hi, bits)
        full = None
    length = scale * tail
    right = left + length
    return CylinderInterval(word=DigitWord(system.alphabet_top + 1, digits),
                            left=left, right=right, length=length, full=full)


def is_full(system: BetaSystem, word: Sequence[int]) -> bool:
    """Whether the word's cylinder has the maximal length ``beta**-n``.

    Equivalent (follower-set argument) to: every admissible word concatenates
    admissibly after it, i.e. the automaton returns to the initial follower
    set.
    """
    if system.automaton is None:
        raise UndecidedFiniteness("fullness needs a finite-type base")
    state = system.automaton.walk(list(word))
    if state is None:
        raise ValueError("word is not admissible")
    return state in system.automaton.full_states
