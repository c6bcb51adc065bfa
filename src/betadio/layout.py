"""A construction's layout: its run schedule, where its prescribed and free
digits go, and how many free digits lie up to a depth (the exponent of the
integer-base cylinder mass).  The generators (``constructions``,
``beta_constructions``) fill the free digits and the measures
(``measures_dim``) weigh them; this module imports none of them.

Per stage k, a long run of the approximating digit starts right after
position ``n_k`` and ends at ``m_k``, then evenly spaced markers run up to
``u_k``.  The schedule starts from ``n'_k = floor(theta**k)``,
``m'_k = floor((theta*vhat + 1) n'_k)`` and is adjusted so the run lengths
``m_k - n_k`` never decrease, which pins the two exponent limits to
``theta*vhat`` and ``vhat``.  theta and vhat come as int pairs and every
floor is taken in ints, so that ``measure`` loads no ``fractions``.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import DepthExceeded, InfeasibleParameters
from .record import Record


# ---------------------------------------------------------------------------
# schedules


def _ratio_text(a: int, b: int) -> str:
    """``str(Fraction(a, b))`` for a pair in lowest terms, ``b >= 1``."""
    return str(a) if b == 1 else f"{a}/{b}"


def read_ratio(text) -> tuple[int, int]:
    """The ``(numerator, denominator)`` pair of a ratio written as
    ``to_dict`` writes it, ``"a"`` or ``"a/b"`` in lowest terms.  Other text
    (a sign on the denominator, a zero one, ``2/6``, ``0.5``, spaces,
    underscores, a ``+``) raises ValueError, a non-string TypeError; the
    denominator is checked before any arithmetic."""
    if type(text) is not str:
        raise TypeError(f"a ratio is a string, not {text!r}")
    num, slash, den = text.partition("/")
    a, b = int(num), int(den) if slash else 1
    if b < 1 or _ratio_text(a, b) != text:
        raise ValueError(f"not a ratio as to_dict writes it: {text!r}")
    try:
        pow(a, -1, b)  # a has an inverse mod b exactly when gcd(a, b) == 1
    except ValueError:
        raise ValueError(f"not a ratio in lowest terms: {text!r}") from None
    return a, b


class ScheduledRuns(Record):
    """Adjusted run schedule; positions are 1-based digit indices.

    ``theta`` and ``v_hat`` are held as the text ``to_dict`` writes.  ``n``
    carries one extra entry (the next stage's anchor) so that the gap after
    the last complete stage is known.  ``delta[k] = m[k] - n[k] - 1`` is the
    interior run length and ``u[k]`` the position of the last marker.
    """

    __slots__ = ("theta", "v_hat", "n", "m", "t", "delta", "u")

    def __init__(self, theta: str, v_hat: str, n: list[int], m: list[int],
                 t: list[int], delta: list[int], u: list[int]):
        self.theta = theta
        self.v_hat = v_hat
        self.n = n
        self.m = m
        self.t = t
        self.delta = delta
        self.u = u

    @property
    def stages(self) -> int:
        return len(self.m)

    def gap(self, k: int) -> int:
        return self.m[k] - self.n[k]

    def to_dict(self) -> dict:
        return {"theta": self.theta, "v_hat": self.v_hat,
                "n": self.n, "m": self.m, "t": self.t,
                "delta": self.delta, "u": self.u}


def schedule(theta: tuple[int, int], v_hat: tuple[int, int], stages: int) -> ScheduledRuns:
    """Build the adjusted schedule for ``stages`` complete stages.

    ``theta`` and ``v_hat`` are ``(numerator, denominator)`` pairs in lowest
    terms, as ``Fraction.as_integer_ratio()`` and ``read_ratio`` give them.
    Infeasible unless ``0 < vhat < 1`` and ``theta >= 1/(1 - vhat)`` (the
    emptiness threshold).
    Early stages where the floors degenerate (anchor < 2, empty run, or
    non-increasing anchors) are skipped; the limits only see the tail.
    """
    (a, b), (c, d) = theta, v_hat
    theta_text, v_text = _ratio_text(a, b), _ratio_text(c, d)
    if not 0 < c < d:
        raise InfeasibleParameters(f"need 0 < vhat < 1, got {v_text}")
    # theta >= 1/(1 - vhat) = d/(d - c), and d/(d - c) is in lowest terms
    if a * (d - c) < b * d:
        raise InfeasibleParameters(
            f"theta {theta_text} below the emptiness threshold {_ratio_text(d, d - c)}")
    # floor((theta*vhat + 1) x) = (a*c + b*d) x // (b*d)
    g_num, g_den = a * c + b * d, b * d

    def raw(k: int) -> int:
        return a ** k // b ** k

    # find the first sane stage
    k0 = 1
    while True:
        cand = raw(k0)
        if cand >= 2 and g_num * cand // g_den - cand >= 1:
            break
        k0 += 1
        if k0 > 64:
            raise InfeasibleParameters("schedule never leaves the degenerate range")

    n = [raw(k0)]
    m, t, delta, u = [], [], [], []
    prev_gap = 0
    for j in range(stages):
        nk = n[j]
        gap = max(g_num * nk // g_den - nk, prev_gap, 1)
        prev_gap = gap
        mk = nk + gap
        m.append(mk)
        delta.append(gap - 1)
        nxt = max(raw(k0 + j + 1), mk)
        n.append(nxt)
        tk = max(0, (nxt - mk - 1) // gap)
        t.append(tk)
        u.append(mk + tk * gap)
    return ScheduledRuns(theta=theta_text, v_hat=v_text, n=n, m=m, t=t, delta=delta, u=u)


# ---------------------------------------------------------------------------
# the layout: which positions are prescribed and which are free

FREE, RUN, MARKER = "free", "run", "marker"


class Segment(NamedTuple):
    """Positions ``lo..hi`` (1-based, inclusive) of a construction's layout.

    A FREE segment is left to the fill policy; a RUN repeats the
    approximating digit; a MARKER is one marker digit, the base-2 block
    ``1 0`` or the real-base block ``0^N 1 0^N``.  ``digits`` are a
    prescribed segment's digits (a run's one digit stands for all of them),
    empty for a free one.  ``cap`` is the maximal run delta_k of the stage
    the segment belongs to.
    """

    lo: int
    hi: int
    kind: str
    digits: bytes
    cap: int

    def prescribed(self) -> bytes:
        return self.digits * ((self.hi - self.lo + 1) // len(self.digits))


def layout_segments(runs: ScheduledRuns, base: Union[int, DigitSet, None],
                    N: int = 0) -> list[Segment]:
    """The layout of a construction, in order, from position 1 through the
    anchor that closes the last stage.

    The base decides the prescribed digits: an integer base runs 0s with
    marker 1, and in base 2 a spaced marker is the block ``1 0`` (its 0
    dropped when the next position is itself prescribed), so that marker 1s
    never extend a run of the top digit; a digit set runs its run digit with
    its marker digit.  A real-base layout passes no base and ``N >= 1``: it
    runs 0s and widens every marker to ``0^N 1 0^N``, so
    ``h_k - l_k = m_k - n_k + 4N``.

    The free prefix and the first anchor have the first stage's cap (0 when
    there is no stage).  Each stage then runs from just after its anchor
    n_k through the next anchor n_{k+1}, all with the stage's cap delta_k:
    the run up to m_k, a marker at m_k, the evenly spaced markers
    ``m_k + t (m_k - n_k)`` up to u_k, and free segments between.  When
    m_k = n_{k+1} the marker and the anchor share their first position (all
    of it when N = 0).
    """
    if (base is None) != (N >= 1):
        raise ValueError("a layout needs an integer base or N >= 1, not both")
    run_digit, marker = (0, 1) if base is None or isinstance(base, int) \
        else (base.run_digit, base.marker_digit)
    pair = base == 2
    block = bytes(N) + bytes([marker]) + bytes(N)
    segs: list[Segment] = []

    def put(kind: str, width: int, digits: bytes = b"") -> None:
        """Append a segment of the current stage, unless it is empty."""
        if width > 0:
            lo = segs[-1].hi + 1 if segs else 1
            segs.append(Segment(lo, lo + width - 1, kind, digits, cap))

    cap = runs.delta[0] if runs.stages else 0
    put(FREE, runs.n[0] - 1)
    put(MARKER, len(block), block)
    for k in range(runs.stages):
        cap, gap, mk, nxt = runs.delta[k], runs.gap(k), runs.m[k], runs.n[k + 1]
        put(RUN, gap - 1, bytes([run_digit]))
        put(MARKER, len(block), block)
        z = 0  # the base-2 trailing 0 of the previous marker
        for t in range(1, runs.t[k] + 1):
            put(FREE, gap - 1 - z)
            z = int(pair and mk + t * gap + 1 < min(mk + (t + 1) * gap, nxt))
            put(MARKER, len(block) + z, block + bytes(z))
        put(FREE, nxt - runs.u[k] - 1 - z)
        anchor = block[int(mk == nxt):]
        put(MARKER, len(anchor), anchor)
    return segs


def _free_count(segs: list[Segment], n: int) -> int:
    """Number of free positions up to depth n."""
    return sum(min(seg.hi, n) - seg.lo + 1 for seg in segs if seg.kind == FREE and seg.lo <= n)


def free_digit_count(runs: ScheduledRuns, n: int, base: Union[int, DigitSet]) -> int:
    """Number of free positions up to depth n (the measure exponent e(n)) of
    the integer-base layout in ``base``."""
    if n > runs.n[runs.stages]:
        raise DepthExceeded(f"depth {n} beyond the scheduled {runs.n[runs.stages]}")
    return _free_count(layout_segments(runs, base), n)


class BetaLayout(Record):
    """The real-base layout, each prescribed 1 widened to ``0^N 1 0^N``.

    ``l[k]``/``h[k]`` bound the fully determined part of stage k (from the
    first digit of the opening block to the last digit of the closing block);
    ``u[k]`` is the last digit of stage k's final marker block.  All three
    are read off ``segments``; ``l[k]`` is where the opening block would
    start in full, since it may share its first zero with the closing block
    of the stage before.
    """

    __slots__ = ("runs", "N", "segments", "l", "h", "u")

    def __init__(self, runs: ScheduledRuns, N: int, segments: list[Segment], l: list[int],
                 h: list[int], u: list[int]):
        self.runs = runs
        self.N = N
        self.segments = segments
        self.l = l
        self.h = h
        self.u = u

    def to_dict(self) -> dict:
        d = self.runs.to_dict()
        d.update({"N": self.N, "l": self.l, "h": self.h, "u_beta": self.u})
        return d


def beta_layout(runs: ScheduledRuns, N: int) -> BetaLayout:
    if N < 1:
        raise ValueError("N must be >= 1")
    segs = layout_segments(runs, None, N)
    blocks = [s for s in segs if s.kind == MARKER]  # per stage: n_k, m_k, t_k spaced
    l, h, u = [], [], []
    i = 0
    for k in range(runs.stages):
        l.append(blocks[i].hi - 2 * N)
        h.append(blocks[i + 1].hi)
        u.append(blocks[i + 1 + runs.t[k]].hi)
        i += 2 + runs.t[k]
    l.append(blocks[i].hi - 2 * N)
    return BetaLayout(runs=runs, N=N, segments=segs, l=l, h=h, u=u)
