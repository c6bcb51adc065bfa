"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime against the stated budget.  Tolerances are pinned here and never
loosened: exact rational equality where stated, certified intervals
elsewhere."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from betadio.bary import expand_lacunary
from betadio.automaton import PeriodicWord
from betadio.beta_constructions import generate_parameter_space
from betadio.beta_shift import BetaSystem, count_admissible, is_admissible, renyi_bounds_check
from betadio.beta_values import cylinder
from betadio.closed_forms import digit_set_scale, dim_formula, dim_formula_sup
from betadio.constructions import FillPolicy, generate_bary
from betadio.digit_sets import DigitSet
from betadio.exponents import exponents_of_word
from betadio.layout import free_digit_count, schedule
from betadio.measures_dim import local_dimension_bary
from betadio.orbits import greedy_expand
from betadio.roots import isolate_root, parry_invert

F = Fraction

GOLDEN = [1, 1]
SUPERGOLDEN = [1, 0, 1]
TRIBONACCI = [1, 1, 1]


def sample_word(auto, n, rng) -> tuple:
    """A random accepted word of length n: each digit uniform over those
    the automaton's state allows."""
    state, out = 0, []
    for _ in range(n):
        c = rng.randint(0, auto.bound[state])
        out.append(c)
        state = auto.transitions[state][c]
    return tuple(out)


class _Timer:
    def __init__(self, name, budget_s):
        self.name, self.budget = name, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.name}: {status} in {dt:.2f}s (budget {self.budget}s)")
        if exc_type is None:
            assert dt < self.budget, f"{self.name} exceeded its runtime budget"
        return False


def verify_sup_by_calculus(v: Fraction) -> bool:
    """Exact check, for 0 < vhat < 1, that theta0 = 2/(1 - vhat) is the
    unique interior maximum of the closed form over theta.

    Differentiates the rational function by hand (numerator of the
    derivative as a quadratic in theta) and confirms the sign change at
    theta0 plus the exact maximal value.
    """
    # d/dtheta [ (theta(1-v) - 1) / (v theta^2 + (1-v) theta - 1) ]
    # numerator: (1-v) D(theta) - N(theta) D'(theta)
    def N(t):
        return t * (1 - v) - 1

    def D(t):
        return (1 + t * v) * (t - 1)

    def deriv_num(t):
        return (1 - v) * D(t) - N(t) * (2 * v * t + (1 - v))

    theta0 = 2 / (1 - v)
    if deriv_num(theta0) != 0:
        return False
    left, right = theta0 * F(7, 8), theta0 * F(9, 8)
    if not (deriv_num(left) > 0 > deriv_num(right)):
        return False
    return N(theta0) / D(theta0) == ((1 - v) / (1 + v)) ** 2


def stolz_cesaro_ratios(runs, k: int) -> tuple[Fraction, Fraction]:
    """Step ratio and cumulative ratio whose common limit is the dimension.

    step = (n_{k+1} - m_k) / (m_{k+1} - m_k);
    cumulative = sum_{j<k} (n_{j+1} - m_j) / m_k.
    """
    assert k + 1 <= runs.stages, "need one stage beyond k for the step ratio"
    step = F(runs.n[k] - runs.m[k - 1], runs.m[k] - runs.m[k - 1])
    cumulative = F(sum(runs.n[j + 1] - runs.m[j] for j in range(k - 1)), runs.m[k - 1])
    return step, cumulative


def test_criterion_1_formula_reproduction():
    with _Timer("1 formula reproduction", 1.0):
        vhats = [F(i, 21) for i in range(1, 21)]
        grid = []
        for v in vhats[:10]:
            thr = 1 / (1 - v)
            for mult in (F(1), F(9, 8), F(3, 2), F(2), F(4)):
                grid.append((thr * mult, v))
        assert len(grid) == 50
        for theta, v in grid:
            expect = (theta - 1 - theta * v) / ((1 + theta * v) * (theta - 1))
            assert dim_formula(theta, v) == expect
        for v in vhats:
            val, theta0 = dim_formula_sup(v)
            assert theta0 == 2 / (1 - v)
            assert val == ((1 - v) / (1 + v)) ** 2
            assert dim_formula(theta0, v) == val
            assert verify_sup_by_calculus(v)
        assert dim_formula(F(7), F(0)) == 1
        assert dim_formula(F(7), F(1)) == 0
        for v in (F(1, 3), F(1, 2), F(4, 5)):
            assert dim_formula(1 / (1 - v), v) == 0


@pytest.mark.parametrize("theta,vhat,b", [
    (F(3), F(1, 3), 3), (F(4), F(1, 2), 10), (F(2), F(1, 2), 2)])
def test_criterion_2_local_dimension_bary(theta, vhat, b):
    with _Timer(f"2 local dimension base {b}", 10.0):
        target = dim_formula(theta, vhat)
        runs = schedule(theta.as_integer_ratio(), vhat.as_integer_ratio(), 16)
        m15 = runs.m[14]
        ratio = F(free_digit_count(runs, m15, b), m15)
        assert abs(ratio - target) <= F(1, 50)
        step, _cumulative = stolz_cesaro_ratios(runs, 15)
        assert abs(step - target) <= F(1, 200)


@pytest.mark.parametrize("theta,vhat,b", [
    (F(3), F(1, 3), 3), (F(4), F(1, 2), 10), (F(2), F(1, 2), 2)])
def test_criterion_3_exponent_round_trip(theta, vhat, b):
    with _Timer(f"3 exponent round trip base {b}", 5.0):
        out = generate_bary(b, theta, vhat, 12, FillPolicy("constant", 1))
        est = exponents_of_word(out.word)
        assert abs(est.v_lower - theta * vhat) <= F(3, 100)
        assert abs(est.v_hat_lower - vhat) <= F(3, 100)


def test_criterion_3_lacunary_series():
    with _Timer("3 lacunary series", 5.0):
        word = expand_lacunary(10, F(1), 2 ** 16)
        est = exponents_of_word(word)
        assert F(95, 100) <= est.v_lower <= F(105, 100)
        assert F(45, 100) <= est.v_hat_lower <= F(55, 100)


def test_criterion_4_oracle_equivalence_and_counts():
    with _Timer("4 automaton oracle equivalence", 30.0):
        def brute(word, star):
            for k in range(len(word)):
                for i in range(len(word) - k):
                    if word[k + i] > star[i]:
                        return False
                    if word[k + i] < star[i]:
                        break
            return True

        systems = [
            (BetaSystem.from_root(GOLDEN), PeriodicWord((), (1, 0))),
            (BetaSystem.from_root(SUPERGOLDEN), PeriodicWord((), (1, 0, 0))),
            (BetaSystem.from_root(TRIBONACCI), PeriodicWord((), (1, 1, 0))),
            (BetaSystem.from_int(3), PeriodicWord((), (2,))),
        ]
        for sys_, star in systems:
            for n in range(1, 11):
                for w in itertools.product(range(sys_.alphabet_top + 1), repeat=n):
                    assert is_admissible(sys_, w) == brute(w, star)
            for n in range(1, 21):
                rep = renyi_bounds_check(sys_, n)
                assert rep["lower_ok"] and rep["upper_ok"]
        golden = systems[0][0]
        fib = [1, 1]
        while len(fib) < 24:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 21):
            assert count_admissible(golden, n) == fib[n + 1]


def test_criterion_5_cylinder_laws():
    with _Timer("5 cylinder laws", 60.0):
        rng = random.Random(2024)
        slack = F(1, 2 ** 100)
        golden = BetaSystem.from_root(GOLDEN)
        trib = BetaSystem.from_root(TRIBONACCI)

        # product rule on full cylinders
        pairs_done = 0
        for sys_ in (golden, trib):
            beta = sys_.beta_scalar(192)
            while pairs_done < (500 if sys_ is golden else 1000):
                n = rng.randint(1, 6)
                w = list(sample_word(sys_.automaton, n, rng))
                # full: the walk ends in a state whose follower set is the
                # initial one, as ``cylinder(...).full`` reads it
                if sys_.automaton.walk(w) not in sys_.automaton.full_states:
                    continue
                m = rng.randint(1, 6)
                w2 = list(sample_word(sys_.automaton, m, rng))
                lhs = cylinder(sys_, w + w2, bits=192).length
                rhs = beta.pow_int(-len(w)) * cylinder(sys_, w2, bits=192).length
                diff = lhs - rhs
                assert diff.contains(F(0)) or abs(diff.mid) < slack
                pairs_done += 1

        # length bounds for approximant words viewed in the parent shift
        beta = golden.beta_scalar(192)
        for N in (3, 6):
            sub = golden.approximant(N)
            for _ in range(500):
                n = rng.randint(1, 24)
                w = list(sample_word(sub.automaton, n, rng))
                length = cylinder(golden, w, bits=192).length
                upper = beta.pow_int(-n)
                lower = beta.pow_int(-(n + N))
                d_up = upper - length
                d_lo = length - lower
                assert d_up.hi >= 0 and d_up.lo >= -slack
                assert d_lo.hi >= 0 and d_lo.lo >= -slack

        # depth-n cylinders tile the unit interval
        for sys_ in (golden, trib):
            for n in range(1, 11):
                total = None
                for w in sys_.automaton.enumerate_words(n):
                    c = cylinder(sys_, list(w), bits=192)
                    total = c.length if total is None else total + c.length
                assert total.contains(F(1))
                assert total.width < F(1, 2 ** 64)
        sys3 = BetaSystem.from_int(3)
        for n in range(1, 11):
            assert count_admissible(sys3, n) * F(1, 3 ** n) == 1


def test_criterion_6_parry_round_trip():
    with _Timer("6 inverse round trip", 5.0):
        tol = F(1, 2 ** 100)
        for coeffs in (GOLDEN, SUPERGOLDEN, TRIBONACCI):
            sys_ = BetaSystem.from_root(coeffs)
            digits = greedy_expand(sys_, F(1), 64)
            m = max(i for i, d in enumerate(digits) if d)
            rec = parry_invert(list(digits)[:m + 1], precision=140).as_scalar(120)
            diff = rec - sys_.beta_scalar(120)
            assert diff.contains(F(0)) and diff.width < tol
        golden = BetaSystem.from_root(GOLDEN).beta_scalar(120)
        for word in (PeriodicWord((), (1, 0)), [1, 1]):
            rec = parry_invert(word, precision=140).as_scalar(120)
            diff = rec - golden
            assert diff.contains(F(0)) and diff.width < tol


def test_criterion_6_long_word_at_4096_bits():
    with _Timer("6 500-digit root at 4096 bits", 3.0):
        s = isolate_root([1, 0] * 250).as_scalar(4096)
        assert s.width <= F(1, 2 ** 4096)
        # (10)^250 falls short of the golden ratio's (10)^oo by about phi**-500
        phi_lo = (1 + F(math.isqrt(5 << 800), 1 << 400)) / 2
        assert phi_lo - F(1, 2 ** 300) < s.lo and s.hi < phi_lo


def test_criterion_7_parameter_space_sandwich():
    with _Timer("7 parameter-space sandwich", 30.0):
        beta0 = BetaSystem.from_rational(F(3, 2))
        beta1 = BetaSystem.from_root(GOLDEN)
        beta2 = BetaSystem.from_root(TRIBONACCI)
        for seed in range(20):
            res = generate_parameter_space(
                beta0, beta1, beta2, N=5, theta=F(3), v_hat=F(1, 3), stages=3,
                fill=FillPolicy("random", seed=seed))
            val = res.root.as_scalar(80)
            assert val.lo > F(3, 2)
            assert val.hi < F(161803399, 10 ** 8)
            assert is_admissible(beta2, list(res.word))


def test_criterion_8_restricted_digit_scaling():
    with _Timer("8 restricted-digit scaling", 10.0):
        ds = DigitSet(3, frozenset({0, 2}))
        rep = local_dimension_bary(F(3), F(1, 3), ds, stages=15, tolerance=F(1, 50))
        k, lo, hi = rep.trajectory[-1]
        assert k == 15
        scale = digit_set_scale(ds, 160)
        target_lo = F(1, 4) * scale.lo
        target_hi = F(1, 4) * scale.hi
        mid = (lo + hi) / 2
        assert abs(mid - (target_lo + target_hi) / 2) <= F(1, 50)
        assert rep.converged_at is not None and rep.converged_at <= 15
