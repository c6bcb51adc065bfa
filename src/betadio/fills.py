"""What every generator of a construction shares: the fill policy of its
free positions, and the windows of ``_BLOCK`` positions in which it writes
its layout's prescribed digits.  The integer-base generator
(``constructions``) and the real-base ones (``beta_constructions``) import
this; neither compiles the other.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .layout import FREE, Segment
from .record import Record


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
