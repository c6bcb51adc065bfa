from fractions import Fraction

import pytest

from betadio import numerics
from betadio.bary import DigitSet, estimate_exponents, run_decomposition
from betadio.beta_shift import BetaSystem, is_admissible, is_self_admissible
from betadio.constructions import (
    ConstructionSpec,
    FillPolicy,
    beta_layout,
    generate_bary,
    generate_beta,
    generate_parameter_space,
    schedule,
)
from betadio.cli import main
from betadio.errors import InfeasibleParameters, PrecisionExhausted, PrefixConditionFailed

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
        ConstructionSpec(theta=F(6, 5), v_hat=F(1, 2), stages=3, base=3)


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
    spec = ConstructionSpec(theta=F(3), v_hat=F(1, 3), stages=1, base=3,
                            fill=FillPolicy("constant", 1))
    out = generate_bary(spec)
    assert out.word.digits() == (1, 1, 1, 0, 0, 1, 1, 1, 1)
    assert not out.clamps


def test_generate_bary_zero_fill_clamps():
    spec = ConstructionSpec(theta=F(4), v_hat=F(1, 8), stages=2, base=3,
                            fill=FillPolicy("constant", 0))
    out = generate_bary(spec)
    assert out.clamps, "all-zero fill must be clamped"
    for k in range(out.schedule.stages):
        prefix = out.schedule.n[k + 1]
        assert longest_run(out.word, 0, prefix) <= out.schedule.delta[k]


@pytest.mark.parametrize("theta,vhat,b", [(F(3), F(1, 3), 3), (F(4), F(1, 2), 10), (F(2), F(1, 2), 2)])
def test_maximal_run_property(theta, vhat, b):
    spec = ConstructionSpec(theta=theta, v_hat=vhat, stages=8, base=b,
                            fill=FillPolicy("random", seed=7))
    out = generate_bary(spec)
    s = out.schedule
    for k in range(3, s.stages):
        prefix = s.n[k + 1]
        dk = s.delta[k]
        assert longest_run(out.word, 0, prefix) == dk
        assert longest_run(out.word, b - 1, prefix) <= max(dk, 1)


@pytest.mark.parametrize("theta,vhat,b", [(F(3), F(1, 3), 3), (F(4), F(1, 2), 10), (F(2), F(1, 2), 2)])
def test_exponent_round_trip_small(theta, vhat, b):
    spec = ConstructionSpec(theta=theta, v_hat=vhat, stages=9, base=b,
                            fill=FillPolicy("constant", 1))
    out = generate_bary(spec)
    est = estimate_exponents(run_decomposition(out.word))
    assert abs(est.v_lower - theta * vhat) <= F(5, 100)
    assert abs(est.v_hat_lower - vhat) <= F(5, 100)


def test_restricted_generator():
    ds = DigitSet(3, frozenset({0, 2}))
    spec = ConstructionSpec(theta=F(3), v_hat=F(1, 3), stages=6, base=3,
                            digit_set=ds, fill=FillPolicy("random", seed=3))
    out = generate_bary(spec)
    used = set(out.word.digits())
    assert used <= {0, 2}
    s = out.schedule
    for k in range(s.stages):
        assert out.word[s.n[k] - 1] == 2  # anchors use the nonzero digit
        assert out.word[s.m[k] - 1] == 2
    est = estimate_exponents(run_decomposition(out.word))
    assert abs(est.v_lower - 1) <= F(8, 100)
    assert abs(est.v_hat_lower - F(1, 3)) <= F(8, 100)


def test_restricted_full_alphabet_matches_plain():
    ds = DigitSet(4, frozenset({0, 1, 2, 3}))
    spec = ConstructionSpec(theta=F(3), v_hat=F(1, 3), stages=4, base=4,
                            digit_set=ds, fill=FillPolicy("constant", 1))
    plain = ConstructionSpec(theta=F(3), v_hat=F(1, 3), stages=4, base=4,
                             fill=FillPolicy("constant", 1))
    assert generate_bary(spec).word.digits() == generate_bary(plain).word.digits()


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
    est = estimate_exponents(run_decomposition(out.word, kinds=("zeros",)))
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
    spec = ConstructionSpec(theta=F(8), v_hat=F(1, 4), stages=5, base=2,
                            fill=FillPolicy("random", seed=4))
    out = generate_bary(spec)
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
    spec = ConstructionSpec(theta=F(8), v_hat=F(1, 4), stages=5, base=2,
                            fill=FillPolicy("random", seed=21))
    out = generate_bary(spec)
    est = estimate_exponents(run_decomposition(out.word))
    assert abs(est.v_lower - 2) <= F(8, 100)
    assert abs(est.v_hat_lower - F(1, 4)) <= F(8, 100)
