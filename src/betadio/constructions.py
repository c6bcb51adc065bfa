"""The integer-base generators of the explicit digit-level constructions,
and the fill policies and windows the real-base ones share.

Each one writes the prescribed digits of its layout (``layout``) and fills
the free positions by a policy.  Free fills are clamped so no run of 0 or
b-1 that starts in a free position exceeds its stage's cap delta_k.  A cap
of 0 holds where the allowed digits include one other than 0 and b-1;
elsewhere (base 2, or a digit set such as {0, 2} in base 3) it reads as 1.
Every clamp is recorded, since a clamp means the requested fill
distribution was not realizable verbatim.

The generator makes its word a window of ``_BLOCK`` positions at a time:
``bary_blocks`` yields the windows, which the command line writes as they
come, and ``generate_bary`` drains the same windows into the word it
returns.  The fill and the run caps carry their state across a window's
end.  The real-base generators (``beta_constructions``) draw their windows
and fills from here.

Nothing here needs ``beta_shift`` or ``numerics``.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .bary import _last_run, _next_run, _run_end
from .digit_sets import DigitSet
from .errors import DomainError
from .layout import FREE, ScheduledRuns, Segment, layout_segments, schedule
from .record import Record
from .words import DigitWord


def _warn(msg: str, *args) -> None:
    # logging is imported only here: it costs every process start, and only
    # a clamped fill logs
    import logging
    logging.getLogger(__name__).warning(msg, *args)


# ---------------------------------------------------------------------------
# fill policies


class FillPolicy(Record):
    """How free positions are populated: a constant digit, or seeded uniform
    draws over the allowed digits."""

    __slots__ = ("kind", "digit", "seed")

    def __init__(self, kind: str = "constant", digit: int = 1, seed: Optional[int] = None):
        self.kind = kind
        self.digit = digit
        self.seed = seed

    @staticmethod
    def parse(text: str, seed: Optional[int] = None) -> "FillPolicy":
        if text.startswith("const:"):
            return FillPolicy(kind="constant", digit=int(text[6:]), seed=seed)
        if text == "random":
            return FillPolicy(kind="random", seed=seed)
        raise ValueError(f"unknown fill policy {text!r}")

    def describe(self) -> str:
        if self.kind == "constant":
            return f"const:{self.digit}"
        return f"random(seed={self.seed})"


# ---------------------------------------------------------------------------
# integer-base generator


class BaryConstruction(Record):
    __slots__ = ("word", "schedule", "base", "clamps", "fill", "digit_set")

    def __init__(self, word: Optional[DigitWord], schedule: ScheduledRuns, base: int,
                 clamps: list[int], fill: str, digit_set: Optional[DigitSet] = None):
        self.word = word
        self.schedule = schedule
        self.base = base
        self.clamps = clamps
        self.fill = fill
        self.digit_set = digit_set

    def to_dict(self) -> dict:
        d = {"kind": "bary", "base": self.base, "fill": self.fill,
             "clamps": len(self.clamps), "schedule": self.schedule.to_dict()}
        if self.digit_set:
            d["digit_set"] = sorted(self.digit_set.digits)
        return d


_BLOCK = 1 << 15  # positions per window: no temporary grows with the word


def _prescribed(segs: list[Segment]) -> tuple[bytearray, list[Segment]]:
    """The layout's digits with every prescribed segment written (free
    positions left 0), and the free segments in order.  The segments are a
    window's (``_windows``), so no temporary outgrows ``_BLOCK``."""
    arr = bytearray(segs[-1].hi)
    for seg in segs:
        if seg.kind != FREE:
            arr[seg.lo - 1:seg.hi] = seg.prescribed()
    return arr, [seg for seg in segs if seg.kind == FREE]


def _windows(segs: list[Segment], depth: int) -> Iterator[tuple[int, list[Segment]]]:
    """Per window of ``_BLOCK`` positions through ``depth``: its first
    position, and the segments that meet it, cut to it and numbered from 1
    within it.  A prescribed segment's digits are one digit or all of its
    digits (``Segment``), so a cut one keeps the part it covers."""
    i = 0
    for at in range(1, depth + 1, _BLOCK):
        end = min(at + _BLOCK - 1, depth)
        cut = []
        while i < len(segs) and segs[i].lo <= end:
            lo, hi, kind, digits, cap = segs[i]
            a, z = max(lo, at), min(hi, end)
            if len(digits) > 1:
                digits = digits[a - lo:z - lo + 1]
            cut.append(Segment(a - at + 1, z - at + 1, kind, digits, cap))
            if hi > end:
                break
            i += 1
        yield at, cut


def bary_blocks(base: Union[int, DigitSet], theta: Fraction, v_hat: Fraction, stages: int,
                fill: Optional[FillPolicy] = None
                ) -> tuple[BaryConstruction, int, Iterator[bytearray]]:
    """``generate_bary``'s construction before its word: the construction
    (``word`` None, its clamps filled in as the blocks are drawn), the
    word's base, and the word's digits in blocks of at most ``_BLOCK``.
    Every refusal of the parameters comes before the first block."""
    S = None if isinstance(base, int) else base
    b = base if S is None else S.base
    if b < 2:
        raise ValueError("integer base required")
    if b > 256:
        raise DomainError(f"a construction's base is at most 256 (one byte per digit), not {b}")
    fill = fill or FillPolicy()
    runs = schedule(theta, v_hat, stages)
    segs = layout_segments(runs, base)
    allowed = tuple(range(b)) if S is None else tuple(sorted(S.digits))
    out = BaryConstruction(word=None, schedule=runs, base=b, clamps=[], fill=fill.describe(),
                           digit_set=S)
    return out, b, _bary_digits(segs, b, allowed, fill, out.clamps)


def _bary_digits(segs: list[Segment], b: int, allowed: Sequence[int], fill: FillPolicy,
                 clamps: list[int]) -> Iterator[bytearray]:
    # per window: prescribed structure first, then fills, then the run caps
    # (which inspect neighboring determined digits); the fill and the caps
    # carry their state from one window to the next
    free = [seg for seg in segs if seg.kind == FREE]
    draw = carry = None
    for at, cut in _windows(segs, segs[-1].hi):
        block, cut_free = _prescribed(cut)
        draw = _fill_free_spans(block, cut_free, fill, allowed, clamps, draw)
        carry = _enforce_run_caps(block, segs, free, b, allowed, clamps, at, carry)
        yield block
    if clamps:
        _warn("fill policy clamped at %d positions", len(clamps))


def generate_bary(base: Union[int, DigitSet], theta: Fraction, v_hat: Fraction, stages: int,
                  fill: Optional[FillPolicy] = None) -> BaryConstruction:
    """Digit word realizing the prescribed runs and markers in an integer
    base, or on a digit set; the fill defaults to ``FillPolicy()``.

    The base shapes the layout (``layout_segments``): base 2 writes the
    block ``1 0`` for each marker so marker 1s never extend a run of the top
    digit, and a digit set runs its run digit (0, or b-1 when 0 is missing)
    with a fixed nonzero member as marker.  With a digit set, free digits
    are drawn from the set; out-of-set constant fills are clamped, with a
    log.  Digits are bytes, so the base is at most 256.  The word is
    ``bary_blocks`` drained.
    """
    out, b, blocks = bary_blocks(base, theta, v_hat, stages, fill)
    out.word = DigitWord.from_blocks(b, blocks)
    return out


def _enforce_run_caps(arr: bytearray, segs: list[Segment], free: list[Segment], b: int,
                      allowed: Sequence[int], clamps: list[int], at: int = 1,
                      carry: Optional[tuple] = None) -> tuple:
    """No run of 0 or b-1 may exceed the cap of the segment it starts in:
    the one place that breaks runs, with a break digit in the free positions
    of each overlong run.

    A cap of 0 holds where ``allowed`` has a digit other than 0 and b-1 to
    break with; elsewhere every free digit is 0 or b-1, and the cap reads
    as 1.  There the markers are run symbols too, and a run whose place to
    break is prescribed is broken at the next free position, so it can pass
    its cap.  Only the runs longer than their cap are visited.

    A forward scan of ``arr``, the word's positions from ``at`` on: a run
    from s is broken at s + cap and at each cap + 1 positions after a
    break, which needs only the digits up to the break, not the run's end.
    It returns what goes on past ``arr``: its tables, per symbol the run
    that reaches the end of ``arr`` (start, cap, next break), and how many
    clamps the b-1 pass made.  Passed back with the next window, the
    windows get the breaks of one scan of the whole word.  The 0 pass runs
    before the b-1 pass, which sees its breaks, and ``clamps`` keeps every
    0 break before the b-1 ones, as two passes over the whole word would.
    """
    if carry is None:
        neutral = [a for a in allowed if a not in (0, b - 1)]
        least = 0 if neutral else 1
        starts, caps = [], []  # reaches: consecutive segments that share a cap
        for seg in segs:
            cap = max(seg.cap, least)
            if not caps or caps[-1] != cap:
                starts.append(seg.lo)
                caps.append(cap)
        # a break digit that is not itself a run symbol, if there is one
        breakers = {symbol: neutral[0] if neutral else next(a for a in allowed if a != symbol)
                    for symbol in (0, b - 1)}
        carry = ([seg.lo for seg in free], [seg.hi for seg in free], starts, caps, breakers), {}, 0
    (free_starts, free_ends, starts, caps, breakers), opened, tops = carry

    def cut(cap: int, pos: int, e: int) -> int:
        """Break a run known through e at pos and after; the next pos."""
        while pos <= e:
            i = bisect.bisect_right(free_starts, pos) - 1
            if i < 0 or pos > free_ends[i]:  # prescribed: the next free position
                if i + 1 >= len(free_starts) or free_starts[i + 1] > e:
                    break
                pos = free_starts[i + 1]
            arr[pos - at] = breaker
            made.append(pos)
            pos += cap + 1
        return pos

    for symbol, breaker in breakers.items():
        made = []
        i = 0  # where the runs that start in arr may start
        if symbol in opened:
            s, cap, pos = opened.pop(symbol)
            i = _run_end(arr, symbol)
            pos = cut(cap, pos, at + i - 1)
            if i == len(arr):
                opened[symbol] = s, cap, pos
        lim = _last_run(arr, symbol) if i < len(arr) else i  # a run open at the end starts here
        r = bisect.bisect_right(starts, at + i) - 1
        while i < lim:
            # a run that starts by bound and is longer than cap shows by bound + cap
            bound = lim if r + 1 == len(starts) else min(lim, starts[r + 1] - at)
            while span := _next_run(arr, symbol, caps[r] + 1, i, bound + caps[r]):
                cut(caps[r], at + span[0] + caps[r], at + span[1] - 1)
                i = span[1]
            i, r = max(i, bound), r + 1
        if lim < len(arr):
            s = at + lim
            cap = caps[bisect.bisect_right(starts, s) - 1]
            opened[symbol] = s, cap, cut(cap, s + cap, at + len(arr) - 1)
        if symbol == 0:
            clamps[len(clamps) - tops:len(clamps) - tops] = made
        else:
            clamps += made
            tops += len(made)
    return carry[0], opened, tops


def _fill_free_spans(arr: bytearray, free: list[Segment], policy: FillPolicy,
                     allowed: Sequence[int], clamps: list[int],
                     draw: Optional[Callable[[int], bytes]] = None) -> Callable[[int], bytes]:
    """The free segments of ``arr`` filled in place; returns the fill's
    source of digits (k -> the next k free digits), which, passed back with
    the next window, goes on where it stopped."""
    if draw is None and policy.kind != "constant":
        # random: bulk draws; overlong runs (rare unless the cap is tiny) are
        # broken afterwards by _enforce_run_caps, where a cap of 0 holds if
        # a digit other than 0 and b-1 is allowed and reads as 1 elsewhere.
        # choices draws one random() per digit, so drawing a segment in
        # blocks gives the digits of one draw for the whole segment
        rng = random.Random(policy.seed)

        def draw(k: int) -> bytes:
            return bytes(rng.choices(allowed, k=k))
    elif draw is None:
        c = policy.digit
        if c not in allowed:
            fixed = min(allowed, key=lambda a: (abs(a - c), a))
            clamps.append(0)
            _warn("constant fill %d not allowed, using %d", c, fixed)
            c = fixed
        digit = bytes([c])

        def draw(k: int) -> bytes:
            return digit * k
    for lo, hi, _kind, _digits, _cap in free:
        arr[lo - 1:hi] = draw(hi - lo + 1)
    return draw
