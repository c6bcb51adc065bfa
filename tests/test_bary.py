from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadio.bary import expand_lacunary, expand_rational
from betadio.digit_sets import DigitSet
from betadio.errors import InvalidDigitSet
from betadio.exponents import (
    TOP,
    ZEROS,
    _monotone_runs,
    _run_symbols,
    _run_view,
    check_relations,
    exponents_of_word,
)
from betadio.words import DigitWord

F = Fraction


def division_oracle(p, q, b, n):
    """Digit extraction by scaling fractions, independent of the library."""
    x = F(p, q)
    out = []
    for _ in range(n):
        x *= b
        d = int(x)
        out.append(d)
        x -= d
    return out


def brute_runs(digits, b):
    """Direct quadratic-ish run scanner used as the oracle."""
    n = len(digits)
    runs = []
    for symbol, kind in ((0, "zeros"), (b - 1, "top")):
        i = 0
        while i < n:
            if digits[i] == symbol:
                j = i
                while j < n and digits[j] == symbol:
                    j += 1
                runs.append((i, j + 1, kind, i >= 1 and j < n))
                i = j
            else:
                i += 1
    runs.sort()
    return runs


def brute_monotone(runs):
    mono, record = [], None
    for r in runs:
        if not r[3]:
            continue
        gap = r[1] - r[0]
        if record is None or gap >= record:
            mono.append(r)
            record = gap
    return mono


def scan(w):
    """The monotone runs ``(start, end, kind)`` of the word and its length,
    as the run scan reports them."""
    mono, horizon = _monotone_runs([_run_view(w.data, w.base)], _run_symbols(w.base, (ZEROS, TOP)))
    return [(r.start, r.end, r.kind) for r in mono], horizon


def ratios(mono):
    """The exponent trajectory of the monotone runs ``(start, end, ...)``:
    empty below two runs, as ``exponents_of_word`` reports it."""
    if len(mono) < 2:
        return []
    return [(k, F(r[1] - r[0], r[0]), F(r[1] - r[0], nxt[0]) if nxt else None)
            for k, (r, nxt) in enumerate(zip(mono, mono[1:] + [None]), 1)]


# ---------------------------------------------------------------------------


def test_expand_rational_examples():
    assert expand_rational(1, 3, 3, 5).digits() == (1, 0, 0, 0, 0)
    assert expand_rational(1, 3, 2, 6).digits() == (0, 1, 0, 1, 0, 1)
    assert expand_rational(1, 7, 10, 7).digits() == (1, 4, 2, 8, 5, 7, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.integers(2, 12), st.integers(1, 40))
def test_expand_rational_matches_oracle(q, b, n):
    p = q - 1 if q > 1 else 0
    for pp in {0, 1 % q, p}:
        got = expand_rational(pp, q, b, n).digits()
        assert list(got) == division_oracle(pp, q, b, n)


def test_expand_lacunary_examples():
    assert expand_lacunary(10, F(1), 10).digits() == (0, 1, 0, 1, 0, 0, 0, 1, 0, 0)
    assert expand_lacunary(10, "squared-power", 5).digits() == (0, 1, 0, 0, 0)
    assert expand_lacunary(2, F(1), 4).digits() == (0, 1, 0, 1)


def test_monotone_runs_lacunary_depth16():
    w = expand_lacunary(10, F(1), 16)
    assert exponents_of_word(w).trajectory == ratios([(2, 4), (4, 8), (8, 16)])


def test_run_decomposition_small_word():
    # the shorter zero run (4, 6) and the runs at either end are dropped
    assert scan(DigitWord(2, [1, 0, 0, 1, 0, 1])) == ([(1, 4, "zeros")], 6)
    # runs of either kind are taken while they do not shrink
    assert scan(DigitWord(2, [1, 0, 1, 0, 0, 1])) == \
        ([(1, 3, "zeros"), (2, 4, "top"), (3, 6, "zeros")], 6)


def test_no_runs():
    assert scan(DigitWord(3, [1] * 8)) == ([], 8)
    est = exponents_of_word(DigitWord(3, [1] * 8))
    assert (est.trajectory, est.horizon) == ([], 8)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=2, max_size=200))
def test_runs_match_brute_force(b, raw):
    digits = [d % b for d in raw]
    mono = brute_monotone(brute_runs(digits, b))
    assert exponents_of_word(DigitWord(b, digits)).trajectory == ratios(mono)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([257, 1000, 10 ** 6]), st.lists(st.integers(0, 5), min_size=2, max_size=200))
def test_runs_above_base_256_match_brute_force(b, picks):
    """A tuple word is scanned through a byte view of its run classes; the
    digits 256 and b - 257 share a byte with 0 and b - 1 modulo 256."""
    choices = (0, b - 1, 1, 256, b - 257, b - 2)
    digits = [choices[i] for i in picks]
    w = DigitWord(b, digits)
    assert type(w.data) is tuple
    mono = brute_monotone(brute_runs(digits, b))
    assert exponents_of_word(w).trajectory == ratios(mono)


def test_roundtrip_reconstruction():
    w = expand_lacunary(10, F(1), 50)
    runs, horizon = scan(w)
    assert runs == [(2, 4, ZEROS), (4, 8, ZEROS), (8, 16, ZEROS), (16, 32, ZEROS)]
    rebuilt = [None] * horizon
    for start, end, _kind in runs:
        rebuilt[start - 1] = rebuilt[end - 1] = 1  # the digits that bracket a run
        for pos in range(start + 1, end):  # 1-based interior
            rebuilt[pos - 1] = 0
    rebuilt[0], rebuilt[32:] = 0, [0] * (horizon - 32)  # before the first run, after the last
    assert tuple(rebuilt) == w.digits()


def test_exponents_of_word_lacunary():
    w = expand_lacunary(10, F(1), 2 ** 16)
    est = exponents_of_word(w)
    assert abs(est.v_lower - 1) <= F(1, 20)
    assert abs(est.v_hat_lower - F(1, 2)) <= F(1, 20)


def test_exponents_of_a_word_without_two_monotone_runs_are_zero():
    for digits in ([1, 0, 1], [1] * 10):
        est = exponents_of_word(DigitWord(3, digits))
        assert (est.v_lower, est.v_hat_lower, est.trajectory, est.window) == (0, 0, [], 0)


def test_rational_words_have_vanishing_exponents():
    for p, q, b in [(1, 7, 10), (3, 11, 2), (1, 12, 5), (5, 9, 3)]:
        w = expand_rational(p, q, b, 5000)
        est = exponents_of_word(w)
        assert est.v_hat_lower < F(1, 50)
        # periodic runs have bounded gap, so the tail-window v estimate decays
        assert est.v_lower < F(1, 10)


def test_check_relations():
    def fake(v, vh):
        from betadio.exponents import ExponentEstimate
        return ExponentEstimate(v_lower=F(v), v_hat_lower=F(vh),
                                trajectory=[], horizon=0, window=0)

    assert check_relations(fake(1, F(1, 2)))["all_pass"]
    assert not check_relations(fake(1, F(9, 10)))["all_pass"]
    assert check_relations(fake(3, F(3, 4)))["all_pass"]
    assert check_relations(fake(1, F(1, 2)))["tol"] == F(1, 100)


def test_digit_set_validation():
    s = DigitSet(3, frozenset({0, 2}))
    assert s.size == 2 and s.run_digit == 0 and s.marker_digit == 2
    with pytest.raises(InvalidDigitSet):
        DigitSet(5, frozenset({1, 2}))  # neither 0 nor b-1
    with pytest.raises(InvalidDigitSet):
        DigitSet(3, frozenset({0}))
    top = DigitSet(5, frozenset({1, 4}))
    assert top.run_digit == 4 and top.marker_digit == 1


def test_orbit_distance_bracket():
    # for the constructed word, b**(n_k - m_k) < ||b**n_k xi|| < b**(n_k - m_k + 1),
    # checked with exact rational arithmetic plus a rigorous tail bound
    from betadio.constructions import FillPolicy, generate_bary

    out = generate_bary(3, F(3), F(1, 3), 5, FillPolicy("random", seed=13))
    digits = out.word.digits()
    H = len(digits)
    value = sum(F(d, 3 ** (j + 1)) for j, d in enumerate(digits))
    tail = F(1, 3 ** H)  # remaining digits contribute less than one ulp
    s = out.schedule
    for k in range(1, 4):
        n_k, m_k = s.n[k], s.m[k]
        y = value * 3 ** n_k
        frac_lo = y - int(y)
        frac_hi = frac_lo + tail * 3 ** n_k
        dist_lo = min(frac_lo, 1 - frac_hi)
        dist_hi = min(frac_hi, 1 - frac_lo)
        assert F(1, 3 ** (m_k - n_k)) < dist_lo
        assert dist_hi < F(1, 3 ** (m_k - n_k - 1))


def test_estimate_relation_invariant_at_horizons():
    # finite-horizon form of the exponent inequality vhat <= v/(1+v)
    for depth in (2 ** 10, 2 ** 13, 2 ** 16):
        est = exponents_of_word(expand_lacunary(10, F(1), depth))
        v, vh = est.v_lower, est.v_hat_lower
        assert vh <= v / (1 + v) + F(1, 10)
