"""Cylinders: the certified endpoints, lengths and fullness of the basic
interval of points whose expansion starts with a word.

``beta_shift`` holds the base's words, which its expansion of 1 alone
decides; a cylinder adds beta as a number (``numerics``, and ``roots`` for
an algebraic base), and ``words`` for the word it returns.  The greedy
orbits are ``orbits``' and the base of a word (``parry_invert``) is
``roots``', so a cylinder compiles neither.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .automaton import PeriodicWord
from .beta_shift import BetaSystem, is_admissible
from .errors import DEFAULT_PRECISION
from .numerics import Scalar, _iv_horner, _scalar
from .record import Record


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
