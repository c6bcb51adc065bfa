"""Integer-base expansions, run structure, and approximation exponents.

The two exponents of interest measure how well ``b**n x`` approaches an
integer: the asymptotic exponent is governed by ``limsup (m_k - n_k)/n_k``
and the uniform exponent by ``liminf (m_k - n_k)/n_{k+1}``, where the
``(n_k, m_k)`` bracket maximal blocks of the digit 0 or the digit b-1 and
are thinned so the block lengths are non-decreasing.  Finite-horizon
surrogates of those limits are exact rationals computed here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

from .errors import InsufficientDepth, InvalidDigitSet, NoRuns
from .record import Record
from .words import DigitWord

ZEROS = "zeros"
TOP = "top"


# ---------------------------------------------------------------------------
# expansions


def expand_rational(p: int, q: int, b: int, n: int) -> DigitWord:
    """First n digits of p/q in base b by long division (greedy convention)."""
    if not (0 <= p < q):
        raise ValueError("need 0 <= p < q")
    if b < 2 or n < 1:
        raise ValueError("need b >= 2 and n >= 1")
    digits = []
    for _ in range(n):
        p *= b
        digits.append(p // q)
        p %= q
    return DigitWord(b, digits)


def lacunary_positions(rule, n: int) -> list[int]:
    """1-based positions of the nonzero digits up to depth n.

    ``rule`` is either a positive rational v (positions ``floor((1+v)**j)``)
    or the string ``"squared-power"`` (positions ``2**(j*j)``).
    """
    out = []
    if rule == "squared-power":
        j = 1
        while 2 ** (j * j) <= n:
            out.append(2 ** (j * j))
            j += 1
        return out
    v = Fraction(rule)
    if v <= 0:
        raise ValueError("lacunary exponent must be positive")
    power = 1 + v
    j = 1
    while True:
        pos = math.floor(power ** j)
        if pos > n:
            return out
        if not out or pos > out[-1]:
            out.append(pos)
        j += 1


def expand_lacunary(b: int, rule, n: int) -> DigitWord:
    """Digits of the lacunary series with 1s at the rule's positions."""
    if b < 2 or n < 1:
        raise ValueError("need b >= 2 and n >= 1")
    digits = bytearray(n)
    for pos in lacunary_positions(rule, n):
        digits[pos - 1] = 1
    return DigitWord.from_bytes(b, bytes(digits))


# ---------------------------------------------------------------------------
# run decomposition


class Run(Record):
    """Maximal block of 0s (or of b-1s) with its bracketing indices.

    ``start``/``end`` are the 1-based positions of the digits immediately
    before and after the block, so the block interior has length
    ``end - start - 1``.  Runs touching the word boundary are incomplete:
    their true bracket is unknown.  Immutable by convention, hashed by value.
    """

    __slots__ = ("start", "end", "kind", "complete")

    def __init__(self, start: int, end: int, kind: str, complete: bool):
        self.start = start
        self.end = end
        self.kind = kind
        self.complete = complete

    def __hash__(self):
        return hash(self._fields())

    @property
    def gap(self) -> int:
        return self.end - self.start


class RunDecomposition(Record):
    __slots__ = ("runs", "monotone", "horizon", "word")

    def __init__(self, runs: list[Run], monotone: list[Run], horizon: int, word: DigitWord):
        self.runs = runs
        self.monotone = monotone
        self.horizon = horizon
        self.word = word


def _next_run(data, symbol: int, length: int, pos: int,
              stop: Optional[int] = None) -> Optional[tuple[int, int]]:
    """0-based span ``(start, end)`` of the first maximal run of at least
    ``length`` copies of ``symbol`` that starts at or after ``pos``, or None;
    with ``stop``, only a run whose first ``length`` copies end by ``stop``.

    ``bytes.find`` skips the shorter runs in C; one anchored match finds the
    end of the run.
    """
    block = bytes((symbol,)) * length
    run = re.compile(re.escape(block[:1]) + b"+")
    p = data.find(block, pos, stop)
    if 0 < p == pos and data[p - 1] == symbol:  # that run started before pos
        p = data.find(block, run.match(data, p).end(), stop)
    return None if p < 0 else (p, run.match(data, p).end())


def _run_symbols(b: int, kinds: tuple[str, ...]) -> list[int]:
    symbols = [0] if ZEROS in kinds else []
    if TOP in kinds and b >= 2:
        symbols.append(b - 1)
    return symbols


def _monotone_runs(data: bytes, symbols: list[int]) -> list[Run]:
    """The greedy non-decreasing subsequence of the complete maximal runs:
    in order, each run at least as long as the last one taken.

    Each search asks for a run as long as the last one taken, so the loop
    turns once per monotone run (and once for a run at the start of the
    word), not once per run.
    """
    n = len(data)
    ahead = dict.fromkeys(symbols, (-1, 0))  # per symbol, the next run long enough
    monotone: list[Run] = []
    pos, length = 0, 1
    while True:
        for sym, span in ahead.items():
            if span is not None and (span[0] < pos or span[1] - span[0] < length):
                ahead[sym] = _next_run(data, sym, length, max(pos, span[1]))
        found = [(span, sym) for sym, span in ahead.items() if span is not None]
        if not found:
            return monotone
        (s, e), sym = min(found)
        if e == n:  # the last run; it is incomplete
            return monotone
        if s > 0:  # a run at the start of the word is incomplete
            monotone.append(Run(start=s, end=e + 1, kind=ZEROS if sym == 0 else TOP,
                                complete=True))
            length = e - s
        pos = e


def run_decomposition(digits: DigitWord, b: Optional[int] = None,
                      kinds: tuple[str, ...] = (ZEROS, TOP)) -> RunDecomposition:
    """Locate all maximal runs and the greedy non-decreasing subsequence.

    Raises NoRuns when no digit equals 0 or b-1 (full-alphabet words have
    exponent 0 trivially and no run structure to analyse).
    """
    b = b or digits.base
    if len(digits) < 2:
        raise NoRuns("need at least two digits")
    data = digits.data if isinstance(digits.data, bytes) else bytes(digits.data)
    symbols = _run_symbols(b, kinds)
    # one scan finds the runs in order, with no list of spans beside them:
    # a long word has a run every few digits
    runs = []
    if symbols:
        pat = re.compile(b"|".join(re.escape(bytes([d])) + b"+" for d in symbols))
        for m in pat.finditer(data):
            s, e = m.span()
            runs.append(Run(start=s, end=e + 1, kind=ZEROS if data[s] == 0 else TOP,
                            complete=s >= 1 and e < len(data)))
    if not runs:
        raise NoRuns("no digit equals 0 or b-1")
    return RunDecomposition(runs=runs, monotone=_monotone_runs(data, symbols),
                            horizon=len(data), word=digits)


# ---------------------------------------------------------------------------
# exponent estimates


class ExponentEstimate(Record):
    __slots__ = ("v_lower", "v_hat_lower", "trajectory", "horizon", "window", "k_over_log_n")

    def __init__(self, v_lower: Fraction, v_hat_lower: Fraction,
                 trajectory: list[tuple[int, Fraction, Optional[Fraction]]], horizon: int,
                 window: int, k_over_log_n: Optional[float] = None):
        self.v_lower = v_lower
        self.v_hat_lower = v_hat_lower
        self.trajectory = trajectory
        self.horizon = horizon
        self.window = window
        self.k_over_log_n = k_over_log_n


def estimate_exponents(dec: RunDecomposition, window: Optional[int] = None) -> ExponentEstimate:
    """Finite-horizon surrogates for the limsup/liminf exponent ratios.

    The estimate uses a tail window of the last W monotone runs (default
    ``max(3, K/2)``) since early runs bias the limits.
    """
    return _estimate(dec.monotone, dec.horizon, window)


def _estimate(mono: list[Run], horizon: int, window: Optional[int]) -> ExponentEstimate:
    K = len(mono)
    if K < 2:
        raise InsufficientDepth(f"only {K} monotone runs at horizon {horizon}")
    W = window or max(3, (K + 1) // 2)
    trajectory = []
    for k, r in enumerate(mono):
        ratio_v = Fraction(r.gap, r.start)
        ratio_h = Fraction(r.gap, mono[k + 1].start) if k + 1 < K else None
        trajectory.append((k + 1, ratio_v, ratio_h))
    tail = trajectory[max(0, K - W):]
    v_lower = max(t[1] for t in tail)
    hat_vals = [t[2] for t in tail if t[2] is not None]
    if not hat_vals:
        hat_vals = [t[2] for t in trajectory if t[2] is not None]
    v_hat_lower = min(hat_vals)
    k_log = K / math.log(mono[-1].start) if mono[-1].start > 1 else None
    return ExponentEstimate(v_lower=v_lower, v_hat_lower=v_hat_lower,
                            trajectory=trajectory, horizon=horizon,
                            window=W, k_over_log_n=k_log)


def exponents_of_word(digits: DigitWord, b: Optional[int] = None,
                      kinds: tuple[str, ...] = (ZEROS, TOP)) -> ExponentEstimate:
    """estimate_exponents with the no-run / too-shallow cases reported as 0.

    Only the monotone runs are located, not every run as run_decomposition
    does, so the scan costs C time per digit and Python time per monotone run.
    """
    if len(digits) >= 2:
        data = digits.data if isinstance(digits.data, bytes) else bytes(digits.data)
        mono = _monotone_runs(data, _run_symbols(b or digits.base, kinds))
        if len(mono) >= 2:
            return _estimate(mono, len(data), None)
    return ExponentEstimate(v_lower=Fraction(0), v_hat_lower=Fraction(0),
                            trajectory=[], horizon=len(digits), window=0)


def check_relations(est: ExponentEstimate, tol: Fraction = Fraction(0)) -> dict:
    """Consistency flags between the two exponents, with slack ``tol``.

    Checks ``vhat <= v``, ``vhat <= v/(1+v) + tol`` and, when ``vhat < 1``,
    ``v >= vhat/(1-vhat) - tol``.
    """
    v, vh = est.v_lower, est.v_hat_lower
    report = {
        "v": v,
        "v_hat": vh,
        "tol": tol,
        "hat_le_v": vh <= v + tol,
        "hat_le_v_over_1_plus_v": vh <= v / (1 + v) + tol,
    }
    if vh < 1:
        report["v_ge_hat_over_1_minus_hat"] = v >= vh / (1 - vh) - tol
    else:
        report["v_ge_hat_over_1_minus_hat"] = False  # v would have to be infinite
    report["all_pass"] = all(report[k] for k in
                             ("hat_le_v", "hat_le_v_over_1_plus_v", "v_ge_hat_over_1_minus_hat"))
    return report


# ---------------------------------------------------------------------------
# restricted digit sets


class DigitSet(Record):
    """Digits allowed in a restricted Cantor set K_{b,S}.

    Needs at least two digits and one of {0, b-1}; otherwise every number in
    the set keeps its orbit far from the integers and the exponents vanish.
    Immutable by convention, hashed by value.
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: frozenset[int]):
        self.base = base
        self.digits = frozenset(digits)
        if self.base < 3:
            raise InvalidDigitSet("restricted digit sets need base >= 3")
        if not self.digits <= set(range(self.base)):
            raise InvalidDigitSet("digits out of range")
        if len(self.digits) < 2:
            raise InvalidDigitSet("need at least two digits")
        if 0 not in self.digits and self.base - 1 not in self.digits:
            raise InvalidDigitSet("need 0 or b-1 in the digit set")

    def __hash__(self):
        return hash(self._fields())

    @property
    def size(self) -> int:
        return len(self.digits)

    @property
    def run_digit(self) -> int:
        """The digit whose long blocks drive the approximation."""
        return 0 if 0 in self.digits else self.base - 1

    @property
    def marker_digit(self) -> int:
        """Nonzero digit (not the run digit) used to delimit blocks."""
        if self.run_digit == 0:
            if 1 in self.digits:
                return 1
            return min(d for d in self.digits if d != 0)
        return min(d for d in self.digits if d != self.base - 1)
