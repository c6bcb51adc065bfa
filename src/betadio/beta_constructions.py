"""Generators for the real-base constructions: a word admissible for a
base's finite-type approximant, and the parameter-space word whose base
lies between two given bases.

Each writes the prescribed digits of its real-base layout (``layout``) and
fills the free positions by a policy (``fills.FillPolicy``), a window of
``fills._BLOCK`` positions at a time, as the integer-base generator
(``constructions``) does; it compiles neither that generator nor its run
caps.  In a real base every free segment starts the word or follows a block
that ends in ``0^N``, and N zeros bring the approximant's automaton to
state 0.  So the generator walks the automaton only through free digits,
starting each free segment at state 0.  A random fill draws each of them
exactly as ``random.Random(seed).randint(0, bound)`` would, bound being the
largest digit the state allows: ``getrandbits`` of the bit length of
``bound + 1``, drawn again while it exceeds bound (the draw of CPython
3.10-3.13), with the width and the next state read from per-state tables.

``beta_blocks`` yields the windows, which the command line writes as they
come, and ``generate_beta`` drains them into the word it returns.  Only
the parameter-space generator reads beta as a number; it imports
``roots`` and ``numerics`` when it runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Optional

from .errors import HorizonTooDeep, NotSelfAdmissible, PrefixConditionFailed
from .fills import FillPolicy, _prescribed, _windows
from .layout import FREE, BetaLayout, beta_layout, schedule
from .record import Record
from .words import DigitWord

F = Fraction


class BetaConstruction(Record):
    __slots__ = ("word", "layout", "base_spec", "approximant_spec", "clamps", "fill")

    def __init__(self, word: Optional[DigitWord], layout: BetaLayout, base_spec: str,
                 approximant_spec: str, clamps: list[int], fill: str):
        self.word = word
        self.layout = layout
        self.base_spec = base_spec
        self.approximant_spec = approximant_spec
        self.clamps = clamps
        self.fill = fill

    def to_dict(self) -> dict:
        return {"kind": "beta", "base": self.base_spec,
                "approximant": self.approximant_spec, "fill": self.fill,
                "clamps": len(self.clamps), "schedule": self.layout.to_dict()}


def beta_blocks(base: BetaSystem, N: int, theta: Fraction, v_hat: Fraction, stages: int,
                fill: Optional[FillPolicy] = None) -> tuple[BetaConstruction, int, Iterator]:
    """``generate_beta``'s construction before its word: the construction
    (``word`` None, its clamps filled in as the blocks are drawn), the
    word's base, and the word's digits in blocks of at most ``_BLOCK``
    (lists of ints over more than 256 digits).  Every refusal of the
    parameters comes before the first block."""
    fill = fill or FillPolicy(kind="random", seed=0)
    runs = schedule(theta.as_integer_ratio(), v_hat.as_integer_ratio(), stages)
    layout = beta_layout(runs, N)
    approx = base.approximant(N)
    out = BetaConstruction(word=None, layout=layout, base_spec=base.spec_string,
                           approximant_spec=approx.spec_string, clamps=[],
                           fill=fill.describe())
    size = approx.alphabet_top + 1
    return out, size, _beta_digits(layout, approx.automaton, size, fill, out.clamps)


def _beta_digits(layout: BetaLayout, auto, size: int, fill: FillPolicy,
                 clamps: list[int]) -> Iterator:
    bounds, moves = auto.bound, auto.transitions
    widths = [(bound + 1).bit_length() for bound in bounds]
    draw = random.Random(fill.seed).getrandbits
    constant = fill.digit if fill.kind == "constant" else None
    starts = {seg.lo for seg in layout.segments if seg.kind == FREE}
    state = zrun = 0
    # A free segment starts the word or follows a block that ends in 0^N.
    # The approximant's d*(1) has period <= N and a first digit >= 1, so it
    # has a nonzero digit in every N places: N zeros end at state 0, where
    # a 0 stays.  So every free segment starts at state 0; one that goes on
    # from the window before goes on from its state there.
    for at, cut in _windows(layout.segments, layout.l[-1] - 1):
        digits, free = _prescribed(cut)
        if size > 256:  # digits that a byte does not hold: a tuple word
            digits = list(digits)
        for lo, hi, _kind, _digits, cap in free:
            if at + lo - 1 in starts:
                state = zrun = 0
            for pos in range(lo, hi + 1):
                bound = bounds[state]
                if constant is None:
                    d = want = draw(widths[state])
                    while d > bound:
                        d = want = draw(widths[state])
                else:
                    want = constant
                    d = min(max(want, 0), bound)
                if d == 0 and zrun >= cap and bound >= 1:
                    d = 1
                if d != want:
                    clamps.append(at + pos - 1)
                zrun = zrun + 1 if d == 0 else 0
                state = moves[state][d]
                digits[pos - 1] = d
        yield digits


def generate_beta(base: BetaSystem, N: int, theta: Fraction, v_hat: Fraction,
                  stages: int, fill: Optional[FillPolicy] = None) -> BetaConstruction:
    """Word admissible for the finite-type approximant (hence for the base),
    with each prescribed 1 replaced by the block ``0^N 1 0^N`` and free
    positions filled by admissible digits chosen on the automaton walk.

    The prescribed segments are copied as bytes and the automaton walks only
    the free ones, each from state 0 (see the module docstring); a constant
    fill is clamped into ``0..bound``.  The word stops just before the block
    that would open the stage after the last, at ``l[K] - 1``.  No free
    segment gets more zeros in a row than its cap (only the free prefix is
    wider than its cap).  Over more than 256 digits the word is a tuple word.
    The word is ``beta_blocks`` drained.
    """
    out, size, blocks = beta_blocks(base, N, theta, v_hat, stages, fill)
    out.word = DigitWord.from_blocks(size, blocks)
    return out


# ---------------------------------------------------------------------------
# parameter-space construction


class ParamSpaceResult(Record):
    __slots__ = ("word", "root", "prefix", "approximant_spec", "construction")

    def __init__(self, word: DigitWord, root: PolyRoot, prefix: tuple[int, ...],
                 approximant_spec: str, construction: BetaConstruction):
        self.word = word
        self.root = root
        self.prefix = prefix
        self.approximant_spec = approximant_spec
        self.construction = construction


def generate_parameter_space(beta0: BetaSystem, beta1: BetaSystem, beta2: BetaSystem,
                             N: int, theta: Fraction, v_hat: Fraction, stages: int,
                             fill: Optional[FillPolicy] = None) -> ParamSpaceResult:
    """A self-admissible word sandwiched between two bases.

    Concatenates the length-N prefix of the larger base's expansion of 1,
    N zeros, then a construction word for the truncated base; the inverse
    (Parry) base of the result is certified to lie strictly between the two
    given bases, both symbolically (lexicographic order of expansions) and
    numerically (interval refinement).
    """
    from .automaton import is_self_admissible
    from .beta_shift import expansion_of_one_star
    from .numerics import Comparison, _escalate
    from .roots import parry_invert
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > beta1.horizon:  # beta1.approximant(N) refuses it too, but only after 2N digits
        raise HorizonTooDeep(f"approximant N={N} is past the horizon {beta1.horizon}")
    star1 = expansion_of_one_star(beta1, N).digits()
    if star1[N - 1] == 0:
        raise PrefixConditionFailed(
            f"symbol {N} of the expansion of 1 vanishes; increase N")
    d0 = tuple(beta0.d1[i] if beta0.d1 is not None else beta0.d1_star_digit(i)
               for i in range(N))
    if not d0 < star1:
        raise PrefixConditionFailed(
            f"expansion of 1 of the lower base is not lexicographically below "
            f"the prefix at N={N}")
    tilde = beta1.approximant(N)
    construction = generate_beta(tilde, N, theta, v_hat, stages, fill)
    word_digits = star1 + (0,) * N + construction.word.digits()
    if not is_self_admissible(word_digits):
        raise NotSelfAdmissible("concatenated word lost self-admissibility")
    # the CLI prints this root with as_scalar(96), which keeps a finer
    # refinement: starting at 64 bits keeps those bytes for every word
    root = parry_invert(list(word_digits), precision=64)
    for bits in _escalate(64, "sandwich could not be certified"):
        val = root.as_scalar(bits)
        lo_cmp = (val - beta0.beta_scalar(bits)).compare(F(0))
        hi_cmp = (beta1.beta_scalar(bits) - val).compare(F(0))
        if lo_cmp is not Comparison.UNRESOLVED and hi_cmp is not Comparison.UNRESOLVED:
            if not (lo_cmp is Comparison.GREATER and hi_cmp is Comparison.GREATER):
                raise PrefixConditionFailed("inverted base escaped the sandwich")
            break
    word = DigitWord(beta2.alphabet_top + 1, word_digits)
    return ParamSpaceResult(word=word, root=root, prefix=star1,
                            approximant_spec=tilde.spec_string,
                            construction=construction)
