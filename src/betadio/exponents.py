"""Monotone runs of an integer-base word, and its approximation exponents.

The two exponents of interest measure how well ``b**n x`` approaches an
integer: the asymptotic exponent is governed by ``limsup (m_k - n_k)/n_k``
and the uniform exponent by ``liminf (m_k - n_k)/n_{k+1}``, where the
``(n_k, m_k)`` bracket maximal blocks of the digit 0 or the digit b-1 and
are thinned so the block lengths are non-decreasing.  Finite-horizon
surrogates of those limits are exact rationals computed here.  The runs
are found by ``runs``; the expansions themselves are ``bary``'s.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional

from .record import Record
from .runs import _last_run, _next_run, _run_end

ZEROS = "zeros"
TOP = "top"


# ---------------------------------------------------------------------------
# monotone runs


class Run(Record):
    """Maximal block of 0s (or of b-1s) with its bracketing indices.

    ``start``/``end`` are the 1-based positions of the digits immediately
    before and after the block, so the block interior has length
    ``end - start - 1``.  The scan keeps only runs with a digit on each
    side: at the word's ends a run's bracket is unknown.  Immutable by
    convention, hashed by value.
    """

    __slots__ = ("start", "end", "kind")

    def __init__(self, start: int, end: int, kind: str):
        self.start = start
        self.end = end
        self.kind = kind

    def __hash__(self):
        return hash(self._fields())

    @property
    def gap(self) -> int:
        return self.end - self.start


def _run_symbols(b: int, kinds: tuple[str, ...]) -> list[int]:
    """The run symbols to scan for, in the bytes ``_run_view`` gives."""
    symbols = [0] if ZEROS in kinds else []
    if TOP in kinds:
        symbols.append(b - 1 if b <= 256 else 1)
    return symbols


def _run_view(digits, b: int) -> bytes:
    """The bytes to scan for runs.

    Digits in a base up to 256 are packed and scanned as they are.  Above
    256 they are scanned through a byte view of their run classes: 0 for
    the digit 0, 1 for the digit b-1 and 2 for any other digit.
    """
    if b <= 256:
        return digits
    return bytes(map({b - 1: 1, 0: 0}.get, digits, itertools.repeat(2)))


def _monotone_runs(blocks: Iterable[bytes], symbols: list[int]) -> tuple[list[Run], int]:
    """The greedy non-decreasing subsequence of the complete maximal runs:
    in order, each run at least as long as the last one taken; and the
    length of the word, given as blocks of its ``_run_view``.

    The blocks are scanned as they come: only the runs taken and the run
    that reaches the end of the blocks so far are kept.  In a block, each
    search asks for a run as long as the last one taken, so the loop turns
    once per monotone run (and once for a run at the start of the word),
    not once per run.
    """
    monotone: list[Run] = []
    length = 1
    at = 0  # the word's position of the block's first digit
    opened = None  # (symbol, start) of a run that reaches the end of the blocks so far

    def take(sym: int, s: int, e: int) -> None:
        nonlocal length
        if s > 0 and e - s >= length:  # a run at the start of the word is incomplete
            monotone.append(Run(start=s, end=e + 1, kind=ZEROS if sym == 0 else TOP))
            length = e - s

    for data in blocks:
        n = len(data)
        pos = 0
        if opened and n:
            pos = _run_end(data, opened[0])
            if pos < n:
                take(opened[0], opened[1], at + pos)
                opened = None
        # runs that start before lim end in this block
        lim = _last_run(data, data[-1]) if n and data[-1] in symbols else n
        ahead = dict.fromkeys(symbols, (-1, 0))  # per symbol, the next run long enough
        while pos < lim:
            for sym, span in ahead.items():
                if span is not None and (span[0] < pos or span[1] - span[0] < length):
                    ahead[sym] = _next_run(data, sym, length, max(pos, span[1]), lim - 1 + length)
            found = [(span, sym) for sym, span in ahead.items() if span is not None]
            if not found:
                break
            (s, e), sym = min(found)
            take(sym, at + s, at + e)
            pos = e
        if lim < n and not opened:
            opened = data[-1], at + lim
        at += n
    return monotone, at  # a run that reaches the word's end is incomplete


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


def _estimate(mono: list[Run], horizon: int) -> ExponentEstimate:
    """Finite-horizon surrogates for the limsup/liminf exponent ratios of
    the K >= 2 monotone runs.

    The estimate uses a tail window of the last ``max(3, K/2)`` of them,
    since early runs bias the limits.
    """
    K = len(mono)
    W = max(3, (K + 1) // 2)
    trajectory = []
    for k, r in enumerate(mono):
        ratio_v = Fraction(r.gap, r.start)
        ratio_h = Fraction(r.gap, mono[k + 1].start) if k + 1 < K else None
        trajectory.append((k + 1, ratio_v, ratio_h))
    tail = trajectory[max(0, K - W):]
    v_lower = max(t[1] for t in tail)
    v_hat_lower = min(t[2] for t in tail if t[2] is not None)
    k_log = K / math.log(mono[-1].start) if mono[-1].start > 1 else None
    return ExponentEstimate(v_lower=v_lower, v_hat_lower=v_hat_lower,
                            trajectory=trajectory, horizon=horizon,
                            window=W, k_over_log_n=k_log)


def exponents_of_word(digits: DigitWord,
                      kinds: tuple[str, ...] = (ZEROS, TOP)) -> ExponentEstimate:
    """``exponents_of_blocks`` of the word as one block."""
    return exponents_of_blocks([digits.data], digits.base, kinds)


def exponents_of_blocks(blocks: Iterable, b: int,
                        kinds: tuple[str, ...] = (ZEROS, TOP)) -> ExponentEstimate:
    """The exponent estimates of the word in base b given by its blocks (as
    a producer or ``read_digit_blocks`` gives them), scanned as they come;
    a word with fewer than two monotone runs has estimates 0 and no
    trajectory.

    Only the monotone runs are located, so the scan costs C time per digit
    and Python time per monotone run, and it keeps the monotone runs alone.
    """
    mono, horizon = _monotone_runs((_run_view(block, b) for block in blocks),
                                   _run_symbols(b, kinds))
    if len(mono) >= 2:
        return _estimate(mono, horizon)
    return ExponentEstimate(v_lower=Fraction(0), v_hat_lower=Fraction(0),
                            trajectory=[], horizon=horizon, window=0)


_RELATION_TOL = Fraction(1, 100)  # slack of the finite-horizon relations


def check_relations(est: ExponentEstimate) -> dict:
    """Consistency flags between the two exponents, with slack
    ``tol = _RELATION_TOL``.

    Checks ``vhat <= v``, ``vhat <= v/(1+v) + tol`` and, when ``vhat < 1``,
    ``v >= vhat/(1-vhat) - tol``.
    """
    v, vh, tol = est.v_lower, est.v_hat_lower, _RELATION_TOL
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
