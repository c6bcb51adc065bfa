"""Generators for the explicit digit-level constructions.

All of them prescribe, per stage k, a long run of the approximating digit
starting right after position ``n_k`` and ending at ``m_k``, then evenly
spaced marker digits up to ``u_k``; remaining positions are free and filled
by a policy.  The schedule starts from ``n'_k = floor(theta**k)``,
``m'_k = floor((theta*vhat + 1) n'_k)`` and is adjusted so the run lengths
``m_k - n_k`` never decrease, which pins the two exponent limits to
``theta*vhat`` and ``vhat``.

Free fills are clamped so no accidental run ever exceeds the stage's
prescribed maximal run; every clamp is recorded, since a clamp means the
requested fill distribution was not realizable verbatim.

The integer-base generators need neither ``beta_shift`` nor ``numerics``;
only the parameter-space generator imports them, when it runs.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .bary import DigitSet, _next_run
from .errors import InfeasibleParameters, NotSelfAdmissible, PrefixConditionFailed
from .record import Record
from .words import DigitWord

F = Fraction


def _warn(msg: str, *args) -> None:
    # logging is imported only here: it costs every process start, and only
    # a clamped fill logs
    import logging
    logging.getLogger(__name__).warning(msg, *args)


# ---------------------------------------------------------------------------
# schedules


class ScheduledRuns(Record):
    """Adjusted run schedule; positions are 1-based digit indices.

    ``n`` carries one extra entry (the next stage's anchor) so that the gap
    after the last complete stage is known.  ``delta[k] = m[k] - n[k] - 1``
    is the interior run length and ``u[k]`` the position of the last marker.
    """

    __slots__ = ("theta", "v_hat", "n", "m", "t", "delta", "u")

    def __init__(self, theta: Fraction, v_hat: Fraction, n: list[int], m: list[int],
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
        return {"theta": str(self.theta), "v_hat": str(self.v_hat),
                "n": self.n, "m": self.m, "t": self.t,
                "delta": self.delta, "u": self.u}

    @staticmethod
    def from_dict(d: dict) -> "ScheduledRuns":
        return ScheduledRuns(theta=F(d["theta"]), v_hat=F(d["v_hat"]),
                             n=list(d["n"]), m=list(d["m"]), t=list(d["t"]),
                             delta=list(d["delta"]), u=list(d["u"]))


def schedule(theta: Fraction, v_hat: Fraction, stages: int) -> ScheduledRuns:
    """Build the adjusted schedule for ``stages`` complete stages.

    Infeasible below the emptiness threshold ``theta >= 1/(1 - vhat)``.
    Early stages where the floors degenerate (anchor < 2, empty run, or
    non-increasing anchors) are skipped; the limits only see the tail.
    """
    theta, v_hat = F(theta), F(v_hat)
    if not 0 < v_hat < 1:
        raise InfeasibleParameters(f"need 0 < vhat < 1, got {v_hat}")
    if theta < 1 / (1 - v_hat):
        raise InfeasibleParameters(
            f"theta {theta} below the emptiness threshold {1 / (1 - v_hat)}")
    growth = theta * v_hat + 1

    def raw(k: int) -> int:
        p = theta ** k
        return p.numerator // p.denominator

    # find the first sane stage
    k0 = 1
    while True:
        cand = raw(k0)
        if cand >= 2 and (growth * cand).numerator // (growth * cand).denominator - cand >= 1:
            break
        k0 += 1
        if k0 > 64:
            raise InfeasibleParameters("schedule never leaves the degenerate range")

    n = [raw(k0)]
    m, t, delta, u = [], [], [], []
    prev_gap = 0
    for j in range(stages):
        nk = n[j]
        scaled = growth * nk
        gap = max(scaled.numerator // scaled.denominator - nk, prev_gap, 1)
        prev_gap = gap
        mk = nk + gap
        m.append(mk)
        delta.append(gap - 1)
        nxt = max(raw(k0 + j + 1), mk)
        n.append(nxt)
        tk = max(0, (nxt - mk - 1) // gap)
        t.append(tk)
        u.append(mk + tk * gap)
    return ScheduledRuns(theta=theta, v_hat=v_hat, n=n, m=m, t=t, delta=delta, u=u)


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


def layout_segments(runs: ScheduledRuns, N: int = 0, pair: bool = False,
                    run_digit: int = 0, marker: int = 1) -> list[Segment]:
    """The layout of a construction, in order, from position 1 through the
    anchor that closes the last stage.

    The free prefix and the first anchor have the first stage's cap (0 when
    there is no stage).  Each stage then runs from just after its anchor
    n_k through the next anchor n_{k+1}, all with the stage's cap delta_k:
    the run of ``run_digit`` up to m_k, a marker at m_k, the evenly spaced
    markers ``m_k + t (m_k - n_k)`` up to u_k, and free segments between.
    With ``N >= 1`` every marker is widened to ``0^N 1 0^N``, so
    ``h_k - l_k = m_k - n_k + 4N``.  With ``pair`` (the base-2 variant) a
    spaced marker is followed by a 0 unless the next position is itself
    prescribed.  When m_k = n_{k+1} the marker and the anchor share their
    first position (all of it when N = 0).
    """
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

    @staticmethod
    def from_dict(d: dict) -> "BetaLayout":
        return beta_layout(ScheduledRuns.from_dict(d), int(d["N"]))


def beta_layout(runs: ScheduledRuns, N: int) -> BetaLayout:
    if N < 1:
        raise ValueError("N must be >= 1")
    segs = layout_segments(runs, N)
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


class ConstructionSpec(Record):
    """Parameters of one Cantor-type construction; the fill defaults to
    ``FillPolicy()``."""

    __slots__ = ("theta", "v_hat", "stages", "base", "digit_set", "fill")

    def __init__(self, theta: Fraction, v_hat: Fraction, stages: int, base: int = 0,
                 digit_set: Optional[DigitSet] = None, fill: Optional[FillPolicy] = None):
        self.theta = F(theta)
        self.v_hat = F(v_hat)
        self.stages = stages
        self.base = base
        self.digit_set = digit_set
        self.fill = FillPolicy() if fill is None else fill
        if self.theta < 1 / (1 - self.v_hat):
            raise InfeasibleParameters(
                f"theta {self.theta} below threshold {1 / (1 - self.v_hat)}")


# ---------------------------------------------------------------------------
# integer-base generator


class BaryConstruction(Record):
    __slots__ = ("word", "schedule", "base", "clamps", "fill", "digit_set")

    def __init__(self, word: DigitWord, schedule: ScheduledRuns, base: int, clamps: list[int],
                 fill: str, digit_set: Optional[DigitSet] = None):
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


def _punch_positions(lo: int, hi: int, cap: int, left_run: int) -> list[int]:
    """Positions of break digits so every filled run stays within cap."""
    out = []
    pos = max(lo, lo + cap - left_run)
    while pos <= hi:
        out.append(pos)
        pos += cap + 1
    return out


def generate_bary(spec: ConstructionSpec) -> BaryConstruction:
    """Digit word realizing the prescribed runs and markers in an integer base.

    The base-2 variant writes the block ``1 0`` for each marker so marker 1s
    never extend a run of the top digit.  With a digit set, free digits are
    drawn from the set, the runs use its run digit (0, or b-1 when 0 is
    missing) and the markers a fixed nonzero member; out-of-set constant
    fills are clamped, with a log.
    """
    b = spec.base
    if b < 2:
        raise ValueError("integer base required")
    S = spec.digit_set
    if S is not None and S.base != b:
        raise ValueError("digit set base mismatch")
    runs = schedule(spec.theta, spec.v_hat, spec.stages)
    segs = layout_segments(runs, pair=b == 2,
                           run_digit=0 if S is None else S.run_digit,
                           marker=1 if S is None else S.marker_digit)
    allowed = tuple(range(b)) if S is None else tuple(sorted(S.digits))
    # prescribed structure first, then fills (the clamp logic inspects
    # neighboring determined digits)
    arr = bytearray(segs[-1].hi)
    for seg in segs:
        if seg.kind != FREE:
            arr[seg.lo - 1:seg.hi] = seg.prescribed()
    free = [seg for seg in segs if seg.kind == FREE]
    clamps: list[int] = []
    _fill_free_spans(arr, free, spec.fill, b, allowed, clamps)
    _enforce_run_caps(arr, segs, free, b, allowed, clamps)
    word = DigitWord.from_bytes(b, bytes(arr))
    if clamps:
        _warn("fill policy clamped at %d positions", len(clamps))
    return BaryConstruction(word=word, schedule=runs, base=b, clamps=clamps,
                            fill=spec.fill.describe(), digit_set=S)


def _enforce_run_caps(arr: bytearray, segs: list[Segment], free: list[Segment], b: int,
                      allowed: Sequence[int], clamps: list[int]) -> None:
    """Safety net: no run of 0 or b-1 may exceed the cap of the segment it
    starts in.

    The in-fill clamping already keeps runs short inside each span; this pass
    catches merges across span boundaries (only possible for base 2, where
    the markers are themselves the top digit).  Only the runs longer than
    their cap are visited.
    """
    free_starts = [seg.lo for seg in free]
    free_ends = [seg.hi for seg in free]
    reaches = []  # [lo, hi, cap]: consecutive segments that share a cap
    for seg in segs:
        cap = max(seg.cap, 1)
        if reaches and reaches[-1][2] == cap:
            reaches[-1][1] = seg.hi
        else:
            reaches.append([seg.lo, seg.hi, cap])
    for symbol in (0, b - 1):
        done = 0  # 0-based end of the last run visited
        for lo, hi, cap in reaches:
            # a run that starts by hi and is longer than cap shows by hi + cap
            while span := _next_run(arr, symbol, cap + 1, max(done, lo - 1), hi + cap):
                s, e = span[0] + 1, span[1]  # 1-based inclusive run
                done = e
                breaker = _break_digit(symbol, allowed, b)
                pos = s + cap
                while pos <= e:
                    i = bisect.bisect_right(free_starts, pos) - 1
                    target = pos
                    if i < 0 or target > free_ends[i]:
                        nxt = bisect.bisect_right(free_starts, pos)
                        if nxt >= len(free_starts) or free_starts[nxt] > e:
                            break
                        target = free_starts[nxt]
                    arr[target - 1] = breaker
                    clamps.append(target)
                    pos = target + cap + 1


def _fill_free_spans(arr: bytearray, free: list[Segment], policy: FillPolicy, b: int,
                     allowed: Sequence[int], clamps: list[int]) -> None:
    top = b - 1
    run_symbols = {0, top}
    rng = random.Random(policy.seed)

    if policy.kind == "constant":
        c = policy.digit
        if c not in allowed:
            fixed = min(allowed, key=lambda a: (abs(a - c), a))
            clamps.append(0)
            _warn("constant fill %d not allowed, using %d", c, fixed)
            c = fixed
        if c not in run_symbols:
            for lo, hi, _kind, _digits, _cap in free:
                arr[lo - 1:hi] = bytes([c]) * (hi - lo + 1)
            return
        # run-forming constant: punch break digits so runs stay capped
        breaker = _break_digit(c, allowed, b)
        for lo, hi, _kind, _digits, cap in free:
            arr[lo - 1:hi] = bytes([c]) * (hi - lo + 1)
            left = 0
            p = lo - 1
            while p >= 1 and arr[p - 1] == c and left <= cap + 1:
                left += 1
                p -= 1
            if cap <= 0:
                punches = list(range(lo, hi + 1))
            else:
                punches = _punch_positions(lo, hi, cap, left)
            for pos in punches:
                arr[pos - 1] = breaker
                clamps.append(pos)
        return

    # random: bulk draws; overlong runs (rare unless the cap is tiny) are
    # punched afterwards by the cap-enforcement pass, which records the clamps
    for lo, hi, _kind, _digits, _cap in free:
        arr[lo - 1:hi] = bytes(rng.choices(allowed, k=hi - lo + 1))


def _break_digit(run_symbol: int, allowed: Sequence[int], b: int) -> int:
    """A digit that interrupts runs of ``run_symbol``; prefers a digit that
    is not itself a run symbol."""
    top = b - 1
    neutral = [a for a in allowed if a not in (0, top)]
    if neutral:
        return neutral[0]
    other = [a for a in allowed if a != run_symbol]
    if not other:
        raise InfeasibleParameters("cannot break runs: only one digit allowed")
    return other[0]


# ---------------------------------------------------------------------------
# beta-base generator


class BetaConstruction(Record):
    __slots__ = ("word", "layout", "base_spec", "approximant_spec", "clamps", "fill")

    def __init__(self, word: DigitWord, layout: BetaLayout, base_spec: str,
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


def generate_beta(base: BetaSystem, N: int, theta: Fraction, v_hat: Fraction,
                  stages: int, fill: Optional[FillPolicy] = None) -> BetaConstruction:
    """Word admissible for the finite-type approximant (hence for the base),
    with each prescribed 1 replaced by the block ``0^N 1 0^N`` and free
    positions filled by admissible digits chosen on the automaton walk.

    The word stops just before the block that would open the stage after
    the last, at ``l[K] - 1``.  No free segment gets more zeros in a row
    than its cap (only the free prefix is wider than its cap).
    """
    fill = fill or FillPolicy(kind="random", seed=0)
    runs = schedule(theta, v_hat, stages)
    layout = beta_layout(runs, N)
    approx = base.approximant(N)
    auto = approx.automaton
    depth = layout.l[-1] - 1
    rng = random.Random(fill.seed)
    clamps: list[int] = []
    digits = bytearray(depth)
    state = 0
    for seg in layout.segments:
        fixed = seg.prescribed() if seg.kind != FREE else None
        zrun = 0
        for pos in range(seg.lo, min(seg.hi, depth) + 1):
            if fixed is not None:
                d = fixed[pos - seg.lo]
            else:
                bound = auto.bound[state]
                if fill.kind == "constant":
                    d = min(fill.digit, bound)
                    if d != fill.digit:
                        clamps.append(pos)
                else:
                    d = rng.randint(0, bound)
                if d == 0 and zrun >= seg.cap and bound >= 1:
                    d = 1
                    clamps.append(pos)
                zrun = zrun + 1 if d == 0 else 0
            nxt = auto.step(state, d)
            if nxt is None:
                raise AssertionError(
                    f"determined digit {d} rejected at position {pos}; N too small")
            state = nxt
            digits[pos - 1] = d
    word = DigitWord.from_bytes(approx.alphabet_top + 1, bytes(digits))
    return BetaConstruction(word=word, layout=layout, base_spec=base.spec_string,
                            approximant_spec=approx.spec_string, clamps=clamps,
                            fill=fill.describe())


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
    from .beta_shift import expansion_of_one_star, is_self_admissible, parry_invert
    from .numerics import Comparison, _escalate
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
