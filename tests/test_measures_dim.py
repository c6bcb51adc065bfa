import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadio.beta_constructions import generate_beta
from betadio.beta_shift import BetaSystem, count_admissible
from betadio.beta_values import cylinder
from betadio.closed_forms import (
    critical_exponent_s0,
    digit_set_scale,
    dim_formula,
    dim_formula_sup,
    reprove_dim_limit,
)
from betadio.constructions import FillPolicy, generate_bary
from betadio.digit_sets import DigitSet
from betadio.errors import DepthExceeded, InfeasibleParameters
from betadio.layout import FREE, beta_layout, free_digit_count, layout_segments, schedule
from betadio.measures_dim import local_dimension_bary, local_dimension_beta, measure_beta
from test_acceptance import stolz_cesaro_ratios, verify_sup_by_calculus

F = Fraction


def mu_fraction(mv) -> Fraction:
    """A MeasureValue's mass as one exact fraction."""
    out = F(1)
    for _length, count, mult in mv.factors:
        out /= F(count) ** mult
    return out


# ---------------------------------------------------------------------------
# closed forms


def test_dim_formula_values():
    assert dim_formula(F(3), F(1, 3)) == F(1, 4)
    assert dim_formula(F(17), F(1)) == 0
    assert dim_formula(F(5), F(0)) == 1
    assert dim_formula(F(2), F(1, 2)) == 0  # threshold
    with pytest.raises(InfeasibleParameters):
        dim_formula(F(3, 2), F(1, 2))


def test_dim_formula_sup():
    for v in (F(1, 3), F(1, 2), F(9, 10), F(1, 7)):
        val, theta0 = dim_formula_sup(v)
        assert theta0 == 2 / (1 - v)
        assert val == ((1 - v) / (1 + v)) ** 2
        assert dim_formula(theta0, v) == val
        # interior maximum: nearby feasible thetas give strictly less
        for t in (theta0 * F(9, 10), theta0 * F(11, 10)):
            if t >= 1 / (1 - v):
                assert dim_formula(t, v) < val
    assert dim_formula_sup(F(0)) == (F(1), F(2))
    assert dim_formula_sup(F(1))[0] == 0


def test_verify_sup_by_calculus():
    for v in (F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(1, 100)):
        assert verify_sup_by_calculus(v)


def test_critical_exponent():
    assert critical_exponent_s0(F(3), F(1, 3), F(0)) == F(1, 4)
    assert critical_exponent_s0(F(3), F(1, 3), F(1, 10)) == F(11, 36)
    assert critical_exponent_s0(F(2), F(1, 2), F(0)) == 0


def test_reprove_dim_limit():
    rep = reprove_dim_limit(F(1), [F(4), F(8), F(16), F(64)])
    assert rep["monotone"] and rep["limit"] == F(1, 2)
    assert rep["values"][0][1] == F(1, 2) * (1 - F(1, 3))
    rep3 = reprove_dim_limit(F(3), [F(64)])
    assert rep3["values"][0][1] == F(5, 21)
    assert reprove_dim_limit(F(0), [F(2)])["values"][0][1] == 1


@pytest.mark.parametrize("v, theta", [(1, 0), (1, 1), (2, 2), (3, 3), (F(1, 2), F(1, 2))])
def test_reprove_rejects_theta_zero_or_v(v, theta):
    """theta = 0 leaves vhat = v/theta undefined and theta = v makes it 1,
    where no theta is feasible: a typed error, not a crash."""
    with pytest.raises(InfeasibleParameters, match="must exceed v"):
        reprove_dim_limit(F(v), [F(4), F(theta)])


# ---------------------------------------------------------------------------
# integer-base measure


def runs33():
    return schedule(F(3), F(1, 3), 16)


def test_free_digit_count_examples():
    runs = runs33()
    assert free_digit_count(runs, 6, 3) == 2  # n_1 - 1
    assert free_digit_count(runs, 2, 3) == 2  # all free so far
    ds = DigitSet(3, frozenset({0, 2}))
    assert free_digit_count(runs, 6, ds) == 2


def test_measure_constant_across_prescribed_stretch():
    runs = runs33()
    for k in (1, 3, 5):
        base_val = free_digit_count(runs, runs.n[k], 3)
        for n in range(runs.n[k], runs.m[k] + 1):
            assert free_digit_count(runs, n, 3) == base_val


def test_measure_digitwise_consistency():
    # parent mass equals the sum over admissible children: free positions
    # split the mass by the base, prescribed positions keep it
    runs = schedule(F(4), F(1, 4), 6)
    b = 5
    for n in range(1, 400):
        e0 = free_digit_count(runs, n - 1, b) if n > 1 else 0
        e1 = free_digit_count(runs, n, b)
        assert e1 - e0 in (0, 1)
        parent = F(1, b ** e0)
        child = F(1, b ** e1)
        children = b if e1 == e0 + 1 else 1
        assert children * child == parent


def test_measure_depth_exceeded():
    runs = schedule(F(3), F(1, 3), 3)
    with pytest.raises(DepthExceeded):
        free_digit_count(runs, runs.n[3] + 1, 3)


def test_free_digit_count_weighs_the_base_2_word():
    """In base 2 the marker blocks ``1 0`` are prescribed: free_digit_count
    counts the free digits of the word generate_bary builds, at every depth."""
    out = generate_bary(2, F(2), F(1, 5), 8)
    assert len(out.word) == 1024
    free = bytearray(len(out.word))
    for seg in layout_segments(out.schedule, 2):
        if seg.kind == FREE:
            free[seg.lo - 1:seg.hi] = b"\x01" * (seg.hi - seg.lo + 1)
        else:
            assert out.word.data[seg.lo - 1:seg.hi] == seg.prescribed()
    for n in range(1, len(out.word) + 1):
        assert free_digit_count(out.schedule, n, 2) == sum(free[:n]), n


# ---------------------------------------------------------------------------
# beta-base measure


def test_measure_beta_first_levels():
    g = BetaSystem.from_root([1, 1])
    runs = schedule(F(3), F(1, 3), 6)
    layout = beta_layout(runs, 3)
    sub = g.approximant(3)
    for n in range(1, layout.l[0]):
        mv = measure_beta(layout, sub, n)
        assert mu_fraction(mv) == F(1, count_admissible(sub, n))
    # constant through the determined stretch l_k..h_k
    for k in (0, 1, 2):
        vals = {mu_fraction(measure_beta(layout, sub, n))
                for n in range(layout.l[k], layout.h[k] + 1)}
        assert len(vals) == 1
    # at h_k the mass is the closed product
    k = 3
    expect = F(1, count_admissible(sub, runs.n[0] - 1))
    for j in range(k):
        gap_len = layout.l[j + 1] - layout.u[j] - 1
        expect /= F(count_admissible(sub, runs.delta[j])) ** runs.t[j]
        expect /= count_admissible(sub, gap_len)
    assert mu_fraction(measure_beta(layout, sub, layout.h[k])) == expect


def test_measure_beta_block_consistency():
    # uniform distribution over the admissible fill words of a block:
    # summing the children masses over one full block returns the parent mass
    g = BetaSystem.from_root([1, 1])
    runs = schedule(F(3), F(1, 3), 5)
    layout = beta_layout(runs, 3)
    sub = g.approximant(3)
    start = layout.h[1] + 1  # first free block of stage 2
    length = runs.delta[1]
    before = mu_fraction(measure_beta(layout, sub, start - 1))
    after = mu_fraction(measure_beta(layout, sub, start + length - 1))
    assert after * count_admissible(sub, length) == before


def test_measure_beta_checkpoints_are_full_cylinders():
    g = BetaSystem.from_root([1, 1])
    out = generate_beta(g, 3, F(3), F(1, 3), 4, FillPolicy("random", seed=5))
    sub = BetaSystem.parse(out.approximant_spec)
    for k in range(1, out.layout.runs.stages):
        prefix = list(out.word.digits()[:out.layout.h[k]])
        assert cylinder(sub, prefix).full
        assert cylinder(g, prefix).full


# ---------------------------------------------------------------------------
# local dimension


def test_local_dimension_bary_converges():
    rep = local_dimension_bary(F(3), F(1, 3), 3, stages=15)
    assert rep.formula_value == F(1, 4)
    k, lo, hi = rep.trajectory[-1]
    assert k == 15 and lo == hi
    assert abs(lo - F(1, 4)) < F(1, 50)
    assert rep.converged_at is not None


def test_local_dimension_boundary_goes_to_zero():
    rep = local_dimension_bary(F(2), F(1, 2), 2, stages=14)
    assert rep.formula_value == 0
    assert rep.trajectory[-1][1] < F(1, 1000)


def test_between_checkpoint_bound():
    # log-mass ratio only improves between checkpoints
    runs = runs33()
    for k in (2, 4, 6):
        mk = runs.m[k]
        base_ratio = F(free_digit_count(runs, mk, 3), mk)
        for n in range(runs.n[k], runs.n[k + 1]):
            ratio = F(free_digit_count(runs, n, 3), n)
            assert ratio >= base_ratio


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=1000),
       st.fractions(min_value=0, max_value=1000),
       st.fractions(min_value=0, max_value=1000))
def test_ratio_monotone_lemma(a, b, x):
    # (a + x)/(b + x) >= a/b for 0 < a <= b, x >= 0
    if a == 0 or b == 0 or a > b:
        return
    assert (a + x) / (b + x) >= a / b


def test_stolz_cesaro():
    runs = runs33()
    step, cume = stolz_cesaro_ratios(runs, 15)
    assert step == F(1, 4)
    assert abs(cume - F(1, 4)) < F(1, 100)


def test_local_dimension_restricted():
    ds = DigitSet(3, frozenset({0, 2}))
    rep = local_dimension_bary(F(3), F(1, 3), ds, stages=15)
    k, lo, hi = rep.trajectory[-1]
    scale = digit_set_scale(ds, 128)
    target_mid = F(1, 4) * (scale.lo.value + scale.hi.value) / 2
    assert abs((lo + hi) / 2 - target_mid) < F(1, 50)
    assert rep.converged_at is not None


def test_local_dimension_beta():
    g = BetaSystem.from_root([1, 1])
    rep = local_dimension_beta(g, 6, F(3), F(1, 3), stages=8, tolerance=F(1, 50))
    s_lo, s_hi = rep.scale_interval
    target = F(1, 4) * (s_lo + s_hi) / 2
    k, lo, hi = rep.trajectory[-1]
    assert abs((lo + hi) / 2 - target) < F(1, 50)
    assert hi - lo < F(1, 10 ** 6)
    assert rep.converged_at is not None


def test_report_serialization():
    rep = local_dimension_bary(F(3), F(1, 3), 3, stages=6)
    data = json.loads(json.dumps(rep.to_json_dict()))
    assert data["formula_value"] == "1/4"
    assert len(data["trajectory"]) == 6
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "k,ratio_lower,ratio_upper"


def test_measure_beta_marker_regimes():
    # first-stage piecewise masses when markers are present (t_1 >= 1):
    # inside the t-th gap the mass is parent / (count(delta)^t * count(consumed)),
    # and across the t-th marker block it is parent / count(delta)^(t+1)
    g = BetaSystem.from_root([1, 1])
    runs = schedule(F(8), F(1, 4), 4)
    assert runs.t[0] >= 2
    N = 3
    layout = beta_layout(runs, N)
    sub = g.approximant(N)
    gap = runs.gap(0)
    h1, d1 = layout.h[0], runs.delta[0]
    parent = F(1, count_admissible(sub, runs.n[0] - 1))
    for t in range(runs.t[0]):
        E_t = h1 + t * gap + 2 * N * t
        S_next = h1 + (t + 1) * gap + 2 * N * t
        level = parent / F(count_admissible(sub, d1)) ** t
        for n in range(E_t + 1, S_next):
            consumed = n - E_t
            expect = level / count_admissible(sub, consumed)
            assert mu_fraction(measure_beta(layout, sub, n)) == expect
        for n in range(S_next, S_next + 2 * N + 1):
            expect = parent / F(count_admissible(sub, d1)) ** (t + 1)
            assert mu_fraction(measure_beta(layout, sub, n)) == expect


def test_local_dimension_envelope_shrinks():
    # the checkpoint ratios approach the closed form like 1/k: the deviation
    # envelope over the tail halves as k doubles, give or take a constant
    rep = local_dimension_bary(F(3), F(1, 3), 3, stages=16)
    devs = [abs(lo - F(1, 4)) for _k, lo, _hi in rep.trajectory]
    assert devs[15] < devs[7] < devs[3]
    assert devs[15] * 16 < devs[3] * 4 + F(1, 100)
