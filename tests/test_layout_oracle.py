"""The segment layout against frozen copies of the code it replaced.

``oracle_*`` below are the integer-base and real-base generators, their
free-span and free-block scans and the free count of ``measure_of_word`` as
they stood before every construction read one segment list (the
caller-supplied stream fill left out, since it is gone).  They are frozen: the tests assert that the
library reproduces their words, clamps, sidecar layouts and masses exactly.
One rule has changed since: the run-cap pass alone breaks runs (the
constant fill no longer punches break digits), and a cap of 0 reads as 1
only where no digit other than 0 and b-1 is allowed.
"""

import bisect
import random
import re
from fractions import Fraction

import pytest

from betadio.beta_constructions import generate_beta
from betadio.beta_shift import BetaSystem
from betadio.constructions import FillPolicy, generate_bary
from betadio.digit_sets import DigitSet
from betadio.errors import (
    DegenerateApproximant,
    DepthExceeded,
    InfeasibleParameters,
)
from betadio.layout import FREE, beta_layout, free_digit_count, layout_segments, schedule
from betadio.measures_dim import measure_beta

F = Fraction


# ---------------------------------------------------------------------------
# frozen references


def oracle_beta_layout(runs, N):
    K = runs.stages
    l, h, u = [], [], []
    tsum = 0
    for k in range(1, K + 2):
        lk = runs.n[k - 1] + (4 * k - 4) * N + 2 * N * tsum
        l.append(lk)
        if k <= K:
            hk = runs.m[k - 1] + 4 * k * N + 2 * N * tsum
            h.append(hk)
            gap = runs.gap(k - 1)
            u.append(hk + runs.t[k - 1] * gap + 2 * N * runs.t[k - 1])
            tsum += runs.t[k - 1]
    return l, h, u


def oracle_free_spans(runs, depth, pair_after_marker):
    spans = []
    step_after = 2 if pair_after_marker else 1
    if runs.n[0] > 1:
        spans.append((1, runs.n[0] - 1, runs.delta[0]))
    for k in range(runs.stages):
        gap = runs.gap(k)
        cap = runs.delta[k]
        prev_end = runs.m[k]
        for t in range(1, runs.t[k] + 1):
            marker = runs.m[k] + t * gap
            lo = prev_end + (step_after if prev_end != runs.m[k] else 1)
            if lo <= marker - 1:
                spans.append((lo, marker - 1, cap))
            prev_end = marker
        lo = prev_end + (step_after if prev_end != runs.m[k] else 1)
        hi = runs.n[k + 1] - 1
        if lo <= hi:
            spans.append((lo, hi, cap))
    return [(lo, min(hi, depth), cap) for lo, hi, cap in spans if lo <= depth]


def oracle_break_digit(run_symbol, allowed, b):
    top = b - 1
    neutral = [a for a in allowed if a not in (0, top)]
    if neutral:
        return neutral[0]
    other = [a for a in allowed if a != run_symbol]
    if not other:
        raise InfeasibleParameters("cannot break runs: only one digit allowed")
    return other[0]


def oracle_fill_free_spans(arr, spans, policy, allowed, clamps):
    rng = random.Random(policy.seed)
    if policy.kind == "constant":
        c = policy.digit
        if c not in allowed:
            fixed = min(allowed, key=lambda a: (abs(a - c), a))
            clamps.append(0)
            c = fixed
        for lo, hi, _cap in spans:
            arr[lo - 1:hi] = bytes([c]) * (hi - lo + 1)
        return
    for lo, hi, _cap in spans:
        arr[lo - 1:hi] = bytes(rng.choices(allowed, k=hi - lo + 1))


def oracle_enforce_run_caps(arr, runs, depth, b, allowed, spans, clamps):
    free_starts = [lo for lo, _hi, _c in spans]
    free_ends = [hi for _lo, hi, _c in spans]

    def cap_at(pos):
        k = bisect.bisect_left(runs.n, pos)
        return runs.delta[min(max(k - 1, 0), runs.stages - 1)] if runs.stages else 0

    # a cap of 0 holds where a digit other than 0 and b-1 can break runs
    least = 0 if any(a not in (0, b - 1) for a in allowed) else 1
    for symbol in {0, b - 1}:
        pat = re.compile(re.escape(bytes([symbol])) + b"+")
        for mt in pat.finditer(arr):
            s, e = mt.start() + 1, mt.end()
            cap = max(cap_at(s), least)
            if e - s + 1 <= cap:
                continue
            breaker = oracle_break_digit(symbol, allowed, b)
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


def oracle_generate_bary(b, S, theta, v_hat, stages, fill):
    runs = schedule(theta, v_hat, stages)
    depth = runs.n[runs.stages]
    run_digit = 0 if S is None else S.run_digit
    marker = 1 if S is None else S.marker_digit
    allowed = tuple(range(b)) if S is None else tuple(sorted(S.digits))
    arr = bytearray(depth)
    pair = b == 2
    for k in range(runs.stages + 1):
        nk = runs.n[k]
        if nk <= depth:
            arr[nk - 1] = marker
        if k == runs.stages:
            break
        mk = runs.m[k]
        if run_digit != 0:
            for p in range(nk + 1, min(mk, depth + 1)):
                arr[p - 1] = run_digit
        if mk <= depth:
            arr[mk - 1] = marker
        gap = runs.gap(k)
        for t in range(1, runs.t[k] + 1):
            pos = mk + t * gap
            if pos <= depth:
                arr[pos - 1] = marker
            if pair and pos + 1 <= depth and pos + 1 < runs.n[k + 1]:
                arr[pos] = 0
    spans = oracle_free_spans(runs, depth, pair_after_marker=pair)
    clamps = []
    oracle_fill_free_spans(arr, spans, fill, allowed, clamps)
    oracle_enforce_run_caps(arr, runs, depth, b, allowed, spans, clamps)
    return bytes(arr), clamps


def oracle_generate_beta(base, N, theta, v_hat, stages, fill):
    runs = schedule(theta, v_hat, stages)
    l, h, _u = oracle_beta_layout(runs, N)
    approx = base.approximant(N)
    auto = approx.automaton
    K = runs.stages
    depth = l[K] - 1
    rng = random.Random(fill.seed)
    clamps = []
    ones = set()
    determined_zero_spans = []
    for k in range(K):
        lk, hk = l[k], h[k]
        ones.add(lk + N)
        ones.add(hk - N)
        determined_zero_spans.append((lk, hk))
        gap = runs.gap(k)
        for t in range(1, runs.t[k] + 1):
            s = hk + t * gap + 2 * N * (t - 1)
            ones.add(s + N)
            determined_zero_spans.append((s, s + 2 * N))
    kind = bytearray(depth + 1)
    for lo, hi in determined_zero_spans:
        for p in range(lo, min(hi, depth) + 1):
            kind[p] = 1
    for p in ones:
        if p <= depth:
            kind[p] = 2
    cap0 = runs.delta[0]
    digits = bytearray(depth)
    state = 0
    zrun = 0
    pre_first = l[0]
    for pos in range(1, depth + 1):
        if kind[pos] == 2:
            d = 1
        elif kind[pos] == 1:
            d = 0
        else:
            bound = auto.bound[state]
            if fill.kind == "constant":
                d = min(fill.digit, bound)
                if d != fill.digit:
                    clamps.append(pos)
            else:
                d = rng.randint(0, bound)
            if pos < pre_first and d == 0 and zrun >= cap0 and bound >= 1:
                d = 1
                clamps.append(pos)
        state = auto.step(state, d)
        assert state is not None
        zrun = zrun + 1 if d == 0 else 0
        digits[pos - 1] = d
    return bytes(digits), clamps


def oracle_beta_free_blocks(runs, N):
    l, h, _u = oracle_beta_layout(runs, N)
    blocks = []
    if l[0] > 1:
        blocks.append((1, l[0] - 1))
    for k in range(runs.stages):
        gap = runs.gap(k)
        hk = h[k]
        prev_end = hk
        for t in range(1, runs.t[k] + 1):
            start = hk + t * gap + 2 * N * (t - 1)
            if prev_end + 1 <= start - 1:
                blocks.append((prev_end + 1, start - 1))
            prev_end = start + 2 * N
        if prev_end + 1 <= l[k + 1] - 1:
            blocks.append((prev_end + 1, l[k + 1] - 1))
    return blocks


def oracle_free_count(runs, n, pair):
    total = 0
    for lo, hi, _cap in oracle_free_spans(runs, runs.n[runs.stages], pair):
        if lo > n:
            break
        total += min(hi, n) - lo + 1
    return total


def oracle_measure_beta_factors(runs, N, auto, n):
    factors = {}
    for lo, hi in oracle_beta_free_blocks(runs, N):
        if lo > n:
            break
        consumed = min(hi, n) - lo + 1
        factors[consumed] = factors.get(consumed, 0) + 1
    return [(length, auto.count_words(length), mult) for length, mult in sorted(factors.items())]


# ---------------------------------------------------------------------------
# parameter grids

THETAS = [F(2), F(3), F(7, 2), F(4)]
VHATS = [F(1, 5), F(1, 3), F(1, 2)]
PAIRS = [(t, v) for t in THETAS for v in VHATS if t >= 1 / (1 - v)]
# integer bases and digit sets: (base, digit set or None)
BARY_BASES = [(2, None), (3, None), (10, None), (3, frozenset({0, 2})), (3, frozenset({1, 2}))]


def fills_for(b):
    return ["const:0", "const:1", f"const:{b - 1}", "random"]


def bary_stages(theta, b):
    # keep the word within a few hundred thousand digits
    return {F(2): 11, F(3): 8, F(7, 2): 7, F(4): 6}[theta] + (1 if b == 2 else 0)


def test_grids_include_a_run_that_ends_at_the_next_anchor():
    hits = [(t, v) for t, v in PAIRS
            if any(schedule(t, v, 8).m[k] == schedule(t, v, 8).n[k + 1] for k in range(8))]
    assert hits, "no schedule with n_{k+1} == m_k in the grid"


def test_grids_include_a_one_digit_gap_with_markers():
    # gap 1 with spaced markers: the base-2 `1 0` blocks touch the next marker
    assert any(s.gap(k) == 1 and s.t[k] >= 2
               for s in (schedule(t, v, 3) for t, v in PAIRS) for k in range(3))


# ---------------------------------------------------------------------------
# integer base


@pytest.mark.parametrize("b,ds", BARY_BASES)
@pytest.mark.parametrize("theta,vhat", PAIRS)
def test_generate_bary_matches_oracle(b, ds, theta, vhat):
    digit_set = DigitSet(b, ds) if ds else None
    for fill in fills_for(b):
        for seed in (0, 7):
            if fill != "random" and seed:
                continue
            policy, stages = FillPolicy.parse(fill, seed=seed), bary_stages(theta, b)
            want_word, want_clamps = oracle_generate_bary(b, digit_set, theta, vhat, stages,
                                                          policy)
            out = generate_bary(digit_set or b, theta, vhat, stages, policy)
            assert out.word.data == want_word, (fill, seed)
            assert out.clamps == want_clamps, (fill, seed)


@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("theta,vhat", PAIRS)
def test_free_counts_match_oracle_at_every_depth(pair, theta, vhat):
    b = 2 if pair else 3  # the base decides the base-2 pairing
    runs = schedule(theta, vhat, {F(2): 9, F(3): 5, F(7, 2): 4, F(4): 4}[theta])
    depth = runs.n[runs.stages]
    spans = oracle_free_spans(runs, depth, pair)
    segs = layout_segments(runs, b)
    assert [(s.lo, s.hi, s.cap) for s in segs if s.kind == FREE] == spans
    free = set()
    for lo, hi, _cap in spans:
        free.update(range(lo, hi + 1))
    ds = DigitSet(3, frozenset({0, 2}))
    e = 0
    for n in range(1, depth + 1):
        e += n in free  # the frozen count, kept incrementally
        assert free_digit_count(runs, n, b) == e
        if not pair:  # a digit set is never over base 2
            assert free_digit_count(runs, n, ds) == e
    with pytest.raises(DepthExceeded):
        free_digit_count(runs, depth + 1, b)


@pytest.mark.parametrize("b,ds", BARY_BASES)
def test_free_digit_count_of_a_construction_matches_oracle(b, ds):
    """The mass exponent of each prefix of a construction's word, as the
    frozen ``measure_of_word`` counted it."""
    digit_set = DigitSet(b, ds) if ds else None
    for theta, vhat in PAIRS:
        out = generate_bary(digit_set or b, theta, vhat, 3, FillPolicy.parse("random", seed=3))
        for n in range(1, len(out.word) + 1):
            want = oracle_free_count(out.schedule, n, out.base == 2)
            assert free_digit_count(out.schedule, n, digit_set or b) == want


# ---------------------------------------------------------------------------
# real base

BETA_BASES = ["root:1,1", "root:1,1,1", "rat:3/2", "root:2,0,1,1"]
BETA_PAIRS = [(F(2), F(1, 2)), (F(3), F(1, 3)), (F(7, 2), F(1, 5)), (F(4), F(1, 2)),
              (F(2), F(1, 5))]


def _approximant_or_none(base, N):
    try:
        return base.approximant(N)
    except DegenerateApproximant:  # N too small for this base
        return None


@pytest.mark.parametrize("spec", BETA_BASES)
def test_generate_beta_matches_oracle(spec):
    base = BetaSystem.parse(spec)
    checked = 0
    for N in range(1, 6):
        if _approximant_or_none(base, N) is None:
            continue
        for theta, vhat in BETA_PAIRS:
            stages = 4 if theta == 2 else 3
            for fill in ("const:0", "const:1", f"const:{base.alphabet_top}", "random"):
                policy = FillPolicy.parse(fill, seed=N)
                want = oracle_generate_beta(base, N, theta, vhat, stages, policy)
                out = generate_beta(base, N, theta, vhat, stages, policy)
                assert (out.word.data, out.clamps) == want, (N, theta, vhat, fill)
                checked += 1
            runs = schedule(theta, vhat, stages)
            lay = beta_layout(runs, N)
            assert (lay.l, lay.h, lay.u) == oracle_beta_layout(runs, N)
            assert lay.to_dict()["u_beta"] == lay.u
    assert checked >= 40


@pytest.mark.parametrize("spec", BETA_BASES)
def test_measure_beta_matches_oracle_at_every_depth(spec):
    base = BetaSystem.parse(spec)
    for N in range(1, 6):
        sub = _approximant_or_none(base, N)
        if sub is None:
            continue
        for theta, vhat in BETA_PAIRS:
            runs = schedule(theta, vhat, 3)
            lay = beta_layout(runs, N)
            assert [(s.lo, s.hi) for s in lay.segments if s.kind == FREE] == \
                oracle_beta_free_blocks(runs, N)
            last = lay.l[runs.stages] - 1
            for n in range(1, last + 1):
                mv = measure_beta(lay, sub, n)
                assert mv.factors == oracle_measure_beta_factors(runs, N, sub.automaton, n)
            with pytest.raises(DepthExceeded):
                measure_beta(lay, sub, last + 1)


def test_layout_segments_tile_the_word():
    for theta, vhat in PAIRS:
        runs = schedule(theta, vhat, 5)
        for N, base in ((0, 3), (0, 2), (1, None), (3, None)):
            segs = layout_segments(runs, base, N)
            assert segs[0].lo == 1
            assert all(a.hi + 1 == b.lo for a, b in zip(segs, segs[1:]))
            assert all(len(s.prescribed()) == s.hi - s.lo + 1 for s in segs if s.kind != FREE)
