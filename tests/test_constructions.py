import re
from fractions import Fraction

import pytest

from betadio import numerics
from betadio.automaton import is_self_admissible
from betadio.bary import exponents_of_word
from betadio.beta_constructions import generate_beta, generate_parameter_space
from betadio.beta_shift import BetaSystem, is_admissible
from betadio.cli import main
from betadio.constructions import FillPolicy, generate_bary
from betadio.digit_sets import DigitSet
from betadio.errors import (
    DepthExceeded,
    DomainError,
    InfeasibleParameters,
    PrecisionExhausted,
    PrefixConditionFailed,
)
from betadio.layout import FREE, beta_layout, free_digit_count, layout_segments, schedule

F = Fraction


def longest_run(digits, symbol, upto=None):
    best = cur = 0
    for d in list(digits)[:upto]:
        cur = cur + 1 if d == symbol else 0
        best = max(best, cur)
    return best


# ---------------------------------------------------------------------------
# schedules


def test_schedule_theta3():
    s = schedule(F(3), F(1, 3), 6)
    assert s.n[:6] == [3 ** k for k in range(1, 7)]
    assert s.m == [2 * 3 ** k for k in range(1, 7)]
    assert all(t == 0 for t in s.t)
    assert s.delta == [3 ** k - 1 for k in range(1, 7)]


def test_schedule_boundary_theta2():
    s = schedule(F(2), F(1, 2), 5)
    assert s.m == s.n[1:]  # degenerate gap: the run ends exactly at the next anchor
    assert all(t == 0 for t in s.t)
    gaps = [s.m[k] - s.n[k] for k in range(5)]
    assert gaps == sorted(gaps)


def test_schedule_infeasible():
    with pytest.raises(InfeasibleParameters):
        schedule(F(6, 5), F(1, 2), 4)
    with pytest.raises(InfeasibleParameters):
        generate_bary(3, F(6, 5), F(1, 2), 3)


@pytest.mark.parametrize("vhat", [F(1), F(3, 2), F(0), F(-1, 2)])
def test_generator_and_schedule_share_the_unit_interval_check(vhat):
    message = f"need 0 < vhat < 1, got {vhat}"
    with pytest.raises(InfeasibleParameters, match=message):
        generate_bary(3, F(3), vhat, 3)
    with pytest.raises(InfeasibleParameters, match=message):
        schedule(F(3), vhat, 3)


@pytest.mark.parametrize("N", [0, -1, -4])
def test_parameter_space_needs_a_positive_N(N):
    b0, b1 = BetaSystem.parse("rat:3/2"), BetaSystem.parse("root:1,1")
    with pytest.raises(ValueError, match="N must be >= 1"):
        generate_parameter_space(b0, b1, b1, N, F(3), F(1, 3), 2)


def test_schedule_limits_converge():
    s = schedule(F(3), F(1, 3), 18)
    k = s.stages - 1
    v_ratio = F(s.m[k] - s.n[k], s.n[k])
    hat_ratio = F(s.m[k] - s.n[k], s.n[k + 1])
    assert abs(v_ratio - 1) < F(10, s.n[k])
    assert abs(hat_ratio - F(1, 3)) < F(10, s.n[k])
    assert all(s.m[j] - s.n[j] <= s.m[j + 1] - s.n[j + 1] for j in range(k))
    assert all(s.n[j] < s.m[j] <= s.n[j + 1] for j in range(s.stages))


def test_schedule_t_bounded():
    s = schedule(F(8), F(1, 4), 10)
    bound = 2 / F(1, 4) + 1
    assert all(t <= bound for t in s.t[2:])
    for k in range(s.stages):
        gap = s.gap(k)
        assert s.m[k] + s.t[k] * gap < s.n[k + 1] or s.t[k] == 0
        assert s.m[k] + (s.t[k] + 1) * gap >= s.n[k + 1]


# ---------------------------------------------------------------------------
# integer-base generator


def test_generate_bary_example():
    out = generate_bary(3, F(3), F(1, 3), 1, FillPolicy("constant", 1))
    assert out.word.digits() == (1, 1, 1, 0, 0, 1, 1, 1, 1)
    assert not out.clamps


def test_generate_bary_zero_fill_clamps():
    out = generate_bary(3, F(4), F(1, 8), 2, FillPolicy("constant", 0))
    assert out.clamps, "all-zero fill must be clamped"
    for k in range(out.schedule.stages):
        prefix = out.schedule.n[k + 1]
        assert longest_run(out.word, 0, prefix) <= out.schedule.delta[k]


@pytest.mark.parametrize("theta,vhat,b", [(F(3), F(1, 3), 3), (F(4), F(1, 2), 10), (F(2), F(1, 2), 2)])
def test_maximal_run_property(theta, vhat, b):
    out = generate_bary(b, theta, vhat, 8, FillPolicy("random", seed=7))
    s = out.schedule
    for k in range(3, s.stages):
        prefix = s.n[k + 1]
        dk = s.delta[k]
        assert longest_run(out.word, 0, prefix) == dk
        assert longest_run(out.word, b - 1, prefix) <= max(dk, 1)


@pytest.mark.parametrize("b", [3, 4, 5, 10])
@pytest.mark.parametrize("digits", [None, "low", "top"])
@pytest.mark.parametrize("theta, vhat", [(F(2), F(1, 5)), (F(2), F(1, 2)), (F(3), F(1, 5)),
                                         (F(3), F(1, 3)), (F(4), F(1, 8))])
def test_no_free_run_exceeds_its_stage_cap(b, digits, theta, vhat):
    """Where a digit other than 0 and b-1 is allowed, no maximal run of 0 or
    b-1 that starts in a free position is longer than its stage's cap, a
    cap of 0 included, whatever the fill."""
    S = {None: None, "low": DigitSet(b, {0, 1}), "top": DigitSet(b, {1, b - 1})}[digits]
    segs = layout_segments(schedule(theta, vhat, 6), S or b)
    caps = {p: seg.cap for seg in segs if seg.kind == FREE for p in range(seg.lo, seg.hi + 1)}
    if (theta, vhat) == (F(2), F(1, 5)):
        assert 0 in caps.values()  # the grid holds zero-cap stages
    fills = [FillPolicy("constant", c) for c in range(b)]
    fills += [FillPolicy("random", seed=seed) for seed in range(4)]
    for fill in fills:
        word = generate_bary(S or b, theta, vhat, 6, fill).word.data
        for symbol in (0, b - 1):
            for run in re.finditer(re.escape(bytes([symbol])) + b"+", word):
                start = run.start() + 1
                if start in caps:
                    assert run.end() - run.start() <= caps[start], (fill.describe(), start)


@pytest.mark.parametrize("theta,vhat,b", [(F(3), F(1, 3), 3), (F(4), F(1, 2), 10), (F(2), F(1, 2), 2)])
def test_exponent_round_trip_small(theta, vhat, b):
    out = generate_bary(b, theta, vhat, 9, FillPolicy("constant", 1))
    est = exponents_of_word(out.word)
    assert abs(est.v_lower - theta * vhat) <= F(5, 100)
    assert abs(est.v_hat_lower - vhat) <= F(5, 100)


def test_restricted_generator():
    ds = DigitSet(3, frozenset({0, 2}))
    out = generate_bary(ds, F(3), F(1, 3), 6, FillPolicy("random", seed=3))
    used = set(out.word.digits())
    assert used <= {0, 2}
    s = out.schedule
    for k in range(s.stages):
        assert out.word[s.n[k] - 1] == 2  # anchors use the nonzero digit
        assert out.word[s.m[k] - 1] == 2
    est = exponents_of_word(out.word)
    assert abs(est.v_lower - 1) <= F(8, 100)
    assert abs(est.v_hat_lower - F(1, 3)) <= F(8, 100)


@pytest.mark.parametrize("b, digits", [(2, None), (3, None), (10, None), (3, {0, 2})])
@pytest.mark.parametrize("theta, vhat", [(F(3), F(1, 3)), (F(2), F(1, 5)), (F(7, 2), F(1, 2))])
def test_free_digit_count_counts_the_free_positions_of_generate_bary(b, digits, theta, vhat):
    """layout.free_digit_count against a position-by-position count of the
    free segments of the layout generate_bary writes."""
    base = DigitSet(b, frozenset(digits)) if digits else b
    out = generate_bary(base, theta, vhat, 4)
    runs = out.schedule
    segs = layout_segments(runs, base)
    depth = runs.n[runs.stages]
    assert segs[-1].hi == depth == len(out.word)
    free = bytearray(depth)
    for seg in segs:
        if seg.kind == FREE:
            free[seg.lo - 1:seg.hi] = b"\x01" * (seg.hi - seg.lo + 1)
        else:  # the generator wrote this layout's prescribed digits
            assert out.word.data[seg.lo - 1:seg.hi] == seg.prescribed()
    count = 0
    for n in range(1, depth + 1):
        count += free[n - 1]
        assert free_digit_count(runs, n, base) == count, n
    with pytest.raises(DepthExceeded):
        free_digit_count(runs, depth + 1, base)


def test_generate_bary_builds_in_bases_up_to_256():
    word = generate_bary(256, F(3), F(1, 3), 3, FillPolicy("constant", 255)).word
    assert word.base == 256 and max(word) == 255
    for base, b in ((257, 257), (300, 300), (DigitSet(300, {0, 2}), 300)):
        with pytest.raises(DomainError, match=rf"at most 256 \(one byte per digit\), not {b}$"):
            generate_bary(base, F(3), F(1, 3), 3)


def test_restricted_full_alphabet_matches_plain():
    ds = DigitSet(4, frozenset({0, 1, 2, 3}))
    fill = FillPolicy("constant", 1)
    assert generate_bary(ds, F(3), F(1, 3), 4, fill).word.digits() == \
        generate_bary(4, F(3), F(1, 3), 4, fill).word.digits()


# ---------------------------------------------------------------------------
# beta-base generator


def golden():
    return BetaSystem.from_root([1, 1])


def test_beta_layout_formulas():
    runs = schedule(F(8), F(1, 4), 5)
    N = 3
    lay = beta_layout(runs, N)
    tsum = 0
    for k in range(1, runs.stages + 1):
        assert lay.l[k - 1] == runs.n[k - 1] + (4 * k - 4) * N + 2 * N * tsum
        assert lay.h[k - 1] == runs.m[k - 1] + 4 * k * N + 2 * N * tsum
        gap = runs.gap(k - 1)
        assert lay.u[k - 1] == lay.h[k - 1] + runs.t[k - 1] * gap + 2 * N * runs.t[k - 1]
        tsum += runs.t[k - 1]


def test_generate_beta_admissible():
    g = golden()
    out = generate_beta(g, 3, F(3), F(1, 3), 4, FillPolicy("random", seed=1))
    sub = BetaSystem.parse(out.approximant_spec)
    assert is_admissible(sub, list(out.word))
    assert is_admissible(g, list(out.word))
    lay = out.layout
    k = 1
    lo, hi = lay.l[k] + lay.N, lay.h[k] - lay.N  # the two 1s of stage 2
    assert out.word[lo - 1] == 1 and out.word[hi - 1] == 1
    interior = out.word.digits()[lo:hi - 1]
    assert set(interior) == {0}
    assert len(interior) == lay.runs.delta[k] + 2 * lay.N


@pytest.mark.parametrize("fill", ["random", "const:1", "const:400"])
def test_generate_beta_over_more_than_256_digits(fill):
    """rat:1000/3 has digits 0..333: the word is a tuple word, admissible,
    and a random fill draws digits that no byte holds."""
    base = BetaSystem.parse("rat:1000/3")
    out = generate_beta(base, 2, F(3), F(1, 3), 3, FillPolicy.parse(fill, seed=0))
    assert out.word.base == 334 and type(out.word.data) is tuple
    assert is_admissible(base, list(out.word))
    assert (max(out.word) > 255) == (fill != "const:1")


def test_generate_beta_zero_fill_admissible():
    g = golden()
    out = generate_beta(g, 3, F(3), F(1, 3), 4, FillPolicy("constant", 0))
    assert is_admissible(g, list(out.word))


def test_generate_beta_run_structure():
    g = golden()
    out = generate_beta(g, 4, F(3), F(1, 3), 6, FillPolicy("random", seed=9))
    lay = out.layout
    N = lay.N
    for k in range(2, lay.runs.stages):
        prefix = lay.l[k] - 1  # just before stage k+1 opens
        assert longest_run(out.word, 0, prefix) == lay.runs.delta[k - 1] + 2 * N


def test_generate_beta_exponents():
    g = golden()
    out = generate_beta(g, 3, F(3), F(1, 3), 9, FillPolicy("random", seed=2))
    est = exponents_of_word(out.word, kinds=("zeros",))
    assert abs(est.v_lower - 1) <= F(5, 100)
    assert abs(est.v_hat_lower - F(1, 3)) <= F(5, 100)


# ---------------------------------------------------------------------------
# parameter space


def test_parameter_space_example():
    beta0 = BetaSystem.from_rational(F(3, 2))
    beta1 = golden()
    beta2 = BetaSystem.from_root([1, 1, 1])
    res = generate_parameter_space(beta0, beta1, beta2, N=5,
                                   theta=F(3), v_hat=F(1, 3), stages=4,
                                   fill=FillPolicy("random", seed=11))
    assert res.prefix == (1, 0, 1, 0, 1)
    assert is_self_admissible(list(res.word))
    assert is_admissible(beta2, list(res.word))
    val = res.root.as_scalar(80)
    assert val.lo.value > F(3, 2)
    assert val.hi.value < F(1619, 1000)


def test_parameter_space_prefix_gate():
    beta0 = BetaSystem.from_rational(F(3, 2))
    beta1 = golden()
    beta2 = BetaSystem.from_root([1, 1, 1])
    with pytest.raises(PrefixConditionFailed):
        generate_parameter_space(beta0, beta1, beta2, N=4,
                                 theta=F(3), v_hat=F(1, 3), stages=3)


def test_parameter_space_sandwich_doubles_then_gives_up(monkeypatch, tmp_path):
    # the recovered base's expansion of 1 starts with the golden mean's first
    # 101 symbols, so the two lie within 2**-64: 64 bits cannot order them
    bases = ("rat:3/2", "root:1,1", "root:1,1,1")
    args = [BetaSystem.parse(b) for b in bases] + [101, F(3), F(1, 3), 1]
    res = generate_parameter_space(*args)
    val = res.root.as_scalar(256)
    assert val.lo.value > F(3, 2) and val.hi.value < golden().beta_scalar(256).lo.value
    monkeypatch.setattr(numerics, "_MAX_BITS", 64)
    with pytest.raises(PrecisionExhausted, match="sandwich could not be certified"):
        generate_parameter_space(*args)
    argv = ["construct", "param", "--theta", "3", "--vhat", "1/3", "--beta0", bases[0],
            "--beta1", bases[1], "--beta2", bases[2], "--N", "101", "--stages", "1",
            "-o", str(tmp_path / "p.digits")]
    assert main(argv) == 3


def test_base2_marker_pairs():
    # base-2 markers are written as the block `1 0`
    out = generate_bary(2, F(8), F(1, 4), 5, FillPolicy("random", seed=4))
    s = out.schedule
    saw_marker = False
    for k in range(s.stages):
        gap = s.gap(k)
        for t in range(1, s.t[k] + 1):
            pos = s.m[k] + t * gap
            if pos + 1 <= len(out.word):
                assert out.word[pos - 1] == 1
                assert out.word[pos] == 0
                saw_marker = True
    assert saw_marker
    for k in range(2, s.stages):
        assert longest_run(out.word, 0, s.n[k + 1]) == s.delta[k]
        assert longest_run(out.word, 1, s.n[k + 1]) <= s.delta[k] + 1


def test_base2_exponents_with_markers():
    out = generate_bary(2, F(8), F(1, 4), 5, FillPolicy("random", seed=21))
    est = exponents_of_word(out.word)
    assert abs(est.v_lower - 2) <= F(8, 100)
    assert abs(est.v_hat_lower - F(1, 4)) <= F(8, 100)
