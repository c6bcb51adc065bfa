"""The real-base generator against a frozen copy of its per-digit walk.

``oracle_generate_beta`` is ``generate_beta`` as it stood when it stepped
the approximant's automaton through every digit of the word, prescribed or
free, and asserted each step.  The library now copies the prescribed
segments as bytes and starts the walk of every free segment at state 0.
The library also draws a random fill's digits from the generator's bits
through per-state tables instead of calling ``randint``.  The tests assert
that it reproduces the frozen walk's words, clamps and sidecars exactly,
and check the invariant the shortcut rests on.
"""

import itertools
import random
from fractions import Fraction

import pytest

from betadio.beta_constructions import BetaConstruction, generate_beta
from betadio.beta_shift import BetaSystem
from betadio.constructions import FillPolicy
from betadio.errors import DegenerateApproximant
from betadio.layout import FREE, beta_layout, schedule
from betadio.words import DigitWord

F = Fraction


def oracle_generate_beta(base, N, theta, v_hat, stages, fill=None):
    fill = fill or FillPolicy(kind="random", seed=0)
    runs = schedule(theta.as_integer_ratio(), v_hat.as_integer_ratio(), stages)
    layout = beta_layout(runs, N)
    approx = base.approximant(N)
    auto = approx.automaton
    depth = layout.l[-1] - 1
    rng = random.Random(fill.seed)
    clamps = []
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


# an integer, a lazy rational, a root, a word, a cycling root and a
# large-top rational base
BASES = ["int:3", "rat:3/2", "root:1,1", "word:2,1", "root:1,1,2,1", "rat:21/2"]
PAIRS = [(F(2), F(1, 2)), (F(3), F(1, 3)), (F(7, 2), F(1, 5)), (F(2), F(1, 5))]


@pytest.mark.parametrize("spec", BASES)
def test_generate_beta_matches_the_per_digit_walk(spec):
    base = BetaSystem.parse(spec)
    checked = 0
    for N in range(1, 7):
        try:
            auto = base.approximant(N).automaton
        except DegenerateApproximant:  # N too small for this base
            continue
        for (theta, vhat), stages in itertools.product(PAIRS, (1, 3, 6)):
            for fill in ("random", "const:0", "const:1", "const:2",
                         f"const:{base.alphabet_top}", "const:99"):
                policy = FillPolicy.parse(fill, seed=N + stages)
                want = oracle_generate_beta(base, N, theta, vhat, stages, policy)
                out = generate_beta(base, N, theta, vhat, stages, policy)
                case = (N, theta, vhat, stages, fill)
                assert out.word.data == want.word.data, case
                assert out.clamps == want.clamps, case
                assert out.to_dict() == want.to_dict(), case
                _check_walk(auto, out)
                checked += 1
    assert checked >= 4 * 72  # at least four values of N


@pytest.mark.parametrize("spec, N", [("root:1,1", 3), ("rat:21/2", 2)])
def test_random_fills_follow_the_randint_stream(spec, N):
    """The walk draws each free digit from the generator's stream as
    randint(0, bound) does: over 24 seeds the words and clamps equal the
    frozen walk's byte for byte.  root:1,1 has a state whose bound is 0
    (randint still draws there), rat:21/2 draws four bits at state 0."""
    base = BetaSystem.parse(spec)
    auto = base.approximant(N).automaton
    assert min(auto.bound) == 0 if spec == "root:1,1" else auto.bound[0] >= 8
    clamps = 0
    for seed in range(24):
        policy = FillPolicy(kind="random", seed=seed)
        for theta, vhat, stages in ((F(2), F(1, 5), 6), (F(3), F(1, 3), 4)):
            want = oracle_generate_beta(base, N, theta, vhat, stages, policy)
            out = generate_beta(base, N, theta, vhat, stages, policy)
            case = (seed, theta, vhat)
            assert out.word.data == want.word.data, case
            assert out.clamps == want.clamps, case
            assert out.to_dict() == want.to_dict(), case
            clamps += len(out.clamps)
    assert clamps > 0


def _check_walk(auto, out):
    """The approximant's automaton accepts the word, and the walk is at
    state 0 wherever a free segment starts."""
    digits = out.word.data
    starts = {seg.lo for seg in out.layout.segments if seg.kind == FREE}
    state = 0
    for pos, d in enumerate(digits, 1):
        if pos in starts:
            assert state == 0, pos
        state = auto.step(state, d)
        assert state is not None, pos


def test_a_negative_constant_is_clamped_where_the_walk_refused_it():
    base = BetaSystem.parse("root:1,1")
    policy = FillPolicy.parse("const:-1")
    with pytest.raises(AssertionError, match="determined digit -1 rejected"):
        oracle_generate_beta(base, 3, F(3), F(1, 3), 2, policy)
    out = generate_beta(base, 3, F(3), F(1, 3), 2, policy)
    free = [p for seg in out.layout.segments if seg.kind == FREE
            for p in range(seg.lo, min(seg.hi, len(out.word)) + 1)]
    # every free position is clamped once: to 0, or to 1 at the zero-run cap
    assert out.clamps == free
    _check_walk(base.approximant(3).automaton, out)
