import itertools
from fractions import Fraction

import pytest

from betadio.beta_shift import (
    word_value,
    BetaSystem,
    count_admissible,
    cylinder,
    expansion_of_one_star,
    greedy_expand,
    is_admissible,
    is_full,
    is_self_admissible,
    parry_invert,
    renyi_bounds_check,
)
from betadio import beta_shift, numerics
from betadio.cli import main
from betadio.errors import DegenerateApproximant, NotSelfAdmissible, PrecisionExhausted
from betadio.numerics import Scalar
from betadio.words import PeriodicWord

F = Fraction

# hand-derived quasi-greedy expansions of 1 for the battery
GOLDEN_STAR = PeriodicWord((), (1, 0))
SUPERGOLDEN_STAR = PeriodicWord((), (1, 0, 0))   # base: z^3 = z^2 + 1
TRIBONACCI_STAR = PeriodicWord((), (1, 1, 0))    # base: z^3 = z^2 + z + 1


def golden():
    return BetaSystem.from_root([1, 1])


def supergolden():
    return BetaSystem.from_root([1, 0, 1])


def tribonacci():
    return BetaSystem.from_root([1, 1, 1])


def brute_admissible(word, star: PeriodicWord) -> bool:
    """Oracle: every shift of the finite word is lexicographically at most
    the matching-length prefix of the infinite expansion of 1."""
    n = len(word)
    for k in range(n):
        for i in range(n - k):
            if word[k + i] > star[i]:
                return False
            if word[k + i] < star[i]:
                break
    return True


# ---------------------------------------------------------------------------
# construction and the expansion of 1


def test_expansion_of_one_star_examples():
    assert expansion_of_one_star(golden(), 6).digits() == (1, 0, 1, 0, 1, 0)
    assert expansion_of_one_star(BetaSystem.from_int(3), 4).digits() == (2, 2, 2, 2)
    assert expansion_of_one_star(supergolden(), 6).digits() == (1, 0, 0, 1, 0, 0)


def test_greedy_expand_examples():
    assert greedy_expand(golden(), F(1), 5).digits() == (1, 1, 0, 0, 0)
    assert greedy_expand(BetaSystem.from_int(2), F(1, 3), 6).digits() == (0, 1, 0, 1, 0, 1)
    assert greedy_expand(supergolden(), F(1), 4).digits() == (1, 0, 1, 0)
    assert greedy_expand(tribonacci(), F(1), 5).digits() == (1, 1, 1, 0, 0)


def test_greedy_orbit_matches_symbolic_d1():
    # the orbit machinery and the inverse-direction construction must agree
    for sys in (golden(), supergolden(), tribonacci()):
        orbit_digits = greedy_expand(sys, F(1), 30).digits()
        symbolic = tuple(sys.d1[i] for i in range(30))
        assert orbit_digits == symbolic


def test_rational_base_expansion_of_one():
    sys = BetaSystem.from_rational(F(3, 2))
    assert expansion_of_one_star(sys, 5).digits() == (1, 0, 1, 0, 0)
    assert sys.alphabet_top == 1


def test_from_root_integer_detection():
    sys = BetaSystem.from_root([1, 2])  # 1 = 1/z + 2/z^2 has root z = 2
    assert sys.kind == "int" and sys.int_base == 2
    sys3 = BetaSystem.from_word(PeriodicWord((), (2,)))  # (2)^oo lifts to digit 3
    assert sys3.kind == "int" and sys3.int_base == 3


# 1 = 2/z + 1/z^101: beta^100 (beta - 2) = 1, so beta is within 2^-100 of 2
NEAR_TWO = "root:2," + "0," * 99 + "1"


def test_integer_detection_is_capped(monkeypatch, capsys):
    sys = BetaSystem.parse(NEAR_TWO, 64)  # 64 bits cannot tell beta from 2; 128 can
    assert sys.kind == "algebraic" and sys.alphabet_top == 2
    monkeypatch.setattr(numerics, "_MAX_BITS", 100)
    with pytest.raises(PrecisionExhausted, match="integer 2"):
        BetaSystem.parse(NEAR_TWO, 64)
    monkeypatch.setenv("BETADIO_PRECISION", "64")
    assert main(["admissible", "count", "--beta", NEAR_TWO, "--len", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precision exhausted:") and len(err.splitlines()) == 1


def test_root_sites_double_to_the_256_bit_answer():
    # integer detection starts at 64 bits, which cannot tell NEAR_TWO from 2
    low, high = BetaSystem.parse(NEAR_TWO, 64), BetaSystem.parse(NEAR_TWO, 256)
    assert (low.kind, low.alphabet_top) == (high.kind, high.alphabet_top) == ("algebraic", 2)
    assert low.root.refined.prec >= 128
    assert BetaSystem.from_root([1, 2], 8).int_base == 2
    # orbit digits from a 4-bit root
    for coeffs, x in (([1, 0, 2], F(1)), ([1, 1, 1], F(2, 7))):
        orbit = beta_shift._AlgebraicOrbit(numerics.isolate_root(coeffs, precision=4), x)
        digits = [orbit.digit(i) for i in range(30)]
        assert orbit._bits > 4
        exact = beta_shift._AlgebraicOrbit(numerics.isolate_root(coeffs), x)
        assert digits == [exact.digit(i) for i in range(30)]
    # the Renyi bounds from 2 bits
    sys = BetaSystem.from_root([3, 0, 1])
    rep, ref = renyi_bounds_check(sys, 5, 2), renyi_bounds_check(sys, 5)
    assert rep.pop("bits") > 2 and ref.pop("bits") == 256
    assert rep == ref == {"n": 5, "count": 385, "lower_ok": True, "upper_ok": True}


def test_alphabet_top_convention():
    assert BetaSystem.from_int(4).alphabet_top == 3
    assert golden().alphabet_top == 1
    assert tribonacci().alphabet_top == 1
    assert BetaSystem.from_rational(F(5, 2)).alphabet_top == 2


# ---------------------------------------------------------------------------
# self-admissibility and inversion


def test_is_self_admissible_examples():
    assert is_self_admissible(PeriodicWord((), (1, 0)))
    assert is_self_admissible([1, 1])
    assert not is_self_admissible(PeriodicWord((), (0, 1)))
    assert not is_self_admissible([0, 1, 1, 0])


def test_parry_invert_examples():
    g = parry_invert([1, 1], precision=128).as_scalar(110)
    g2 = parry_invert(PeriodicWord((), (1, 0)), precision=128).as_scalar(110)
    diff = g - g2
    assert diff.contains(F(0)) and diff.width < F(1, 2 ** 100)
    b3 = parry_invert(PeriodicWord((), (2,)), precision=128)
    assert b3.exact_equals(F(3))


def test_parry_invert_rejects():
    with pytest.raises(NotSelfAdmissible):
        parry_invert([0, 1])
    with pytest.raises(DegenerateApproximant):
        parry_invert([1, 0])  # strips to single 1, root z = 1


def test_round_trip_battery():
    for sys in (golden(), supergolden(), tribonacci()):
        digits = greedy_expand(sys, F(1), 40)
        nz = max(i for i, d in enumerate(digits) if d)
        word = list(digits)[:nz + 1]
        recovered = parry_invert(word, precision=128).as_scalar(110)
        target = sys.beta_scalar(110)
        diff = recovered - target
        assert diff.contains(F(0)) and diff.width < F(1, 2 ** 100)


# ---------------------------------------------------------------------------
# admissibility, counting


def test_is_admissible_examples():
    g = golden()
    assert is_admissible(g, [1, 0, 1, 0])
    assert not is_admissible(g, [0, 1, 1, 0])
    sys3 = BetaSystem.from_int(3)
    for w in itertools.product(range(3), repeat=4):
        assert is_admissible(sys3, list(w))


@pytest.mark.parametrize("factory,star", [
    (golden, GOLDEN_STAR),
    (supergolden, SUPERGOLDEN_STAR),
    (tribonacci, TRIBONACCI_STAR),
])
def test_automaton_agrees_with_brute_force(factory, star):
    sys = factory()
    for n in range(1, 9):
        for w in itertools.product(range(sys.alphabet_top + 1), repeat=n):
            assert is_admissible(sys, list(w)) == brute_admissible(w, star), w


def test_count_admissible_examples():
    g = golden()
    assert count_admissible(g, 2) == 3
    assert count_admissible(g, 5) == 13
    assert count_admissible(BetaSystem.from_int(3), 4) == 81


def test_golden_counts_are_fibonacci():
    g = golden()
    fib = [1, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        assert count_admissible(g, n) == fib[n + 1]


def test_count_matches_enumeration():
    for sys in (golden(), supergolden(), tribonacci()):
        for n in range(1, 10):
            words = list(sys.automaton.enumerate_words(n))
            assert len(words) == count_admissible(sys, n)
            assert all(is_admissible(sys, list(w)) for w in words)


@pytest.mark.parametrize("spec", ["root:1,1", "rat:3/2"])
def test_negative_length_is_a_value_error(spec):
    sys_ = BetaSystem.parse(spec)
    with pytest.raises(ValueError):
        count_admissible(sys_, -1)
    if sys_.automaton is not None:
        with pytest.raises(ValueError):
            sys_.automaton.count_words(-1)
        with pytest.raises(ValueError):
            next(sys_.automaton.enumerate_words(-1))


def test_enumeration_is_not_recursive():
    # words far longer than the recursion limit are listed
    for sys in (golden(), tribonacci()):
        assert next(sys.automaton.enumerate_words(5000)) == (0,) * 5000


def test_renyi_bounds():
    for sys in (golden(), tribonacci(), BetaSystem.from_int(3)):
        for n in (1, 5, 12):
            rep = renyi_bounds_check(sys, n)
            assert rep["lower_ok"] and rep["upper_ok"], rep


def test_monotone_nesting():
    small, large = golden(), tribonacci()
    for n in range(1, 9):
        for w in small.automaton.enumerate_words(n):
            assert is_admissible(large, list(w))


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_golden_examples():
    g = golden()
    beta = g.beta_scalar(128)
    c0 = cylinder(g, [0])
    assert c0.full
    assert c0.left.contains(F(0))
    assert (c0.length * beta).contains(F(1))  # length = 1/beta
    c1 = cylinder(g, [1])
    assert not c1.full
    assert (c1.length * beta * beta).contains(F(1))  # length = beta^-2
    assert (c1.left * beta).contains(F(1))  # left endpoint 1/beta
    assert (c1.right - Scalar.from_int(1)).contains(F(0))  # right endpoint 1


def test_cylinder_integer_base():
    sys3 = BetaSystem.from_int(3)
    c = cylinder(sys3, [1, 2])
    assert c.full
    assert c.left.contains(F(5, 9))
    assert c.right.contains(F(6, 9))
    assert c.length.contains(F(1, 9))


def test_is_full_examples():
    g = golden()
    assert is_full(g, [0, 0])
    assert not is_full(g, [1])
    assert is_full(g, [1, 0])
    sys3 = BetaSystem.from_int(3)
    for w in itertools.product(range(3), repeat=3):
        assert is_full(sys3, list(w))


def test_full_iff_length_maximal():
    for sys in (golden(), supergolden(), tribonacci()):
        beta = sys.beta_scalar(160)
        for n in range(1, 7):
            for w in sys.automaton.enumerate_words(n):
                c = cylinder(sys, list(w), bits=160)
                ratio = c.length * beta.pow_int(n)
                if c.full:
                    assert ratio.contains(F(1))
                else:
                    assert ratio.compare(F(1)) .name == "LESS"


def test_cylinders_tile_unit_interval():
    for sys in (golden(), tribonacci()):
        for n in (1, 4, 7):
            total = Scalar.from_int(0, 192)
            for w in sys.automaton.enumerate_words(n):
                total = total + cylinder(sys, list(w), bits=192).length
            assert total.contains(F(1))
            assert total.width < F(1, 2 ** 64)


# ---------------------------------------------------------------------------
# approximants


def test_beta_N_examples():
    g = golden()
    b3 = g.approximant(3)
    assert b3.spec_string.startswith("approx:")
    target = supergolden().beta_scalar(100)
    diff = b3.beta_scalar(100) - target
    assert diff.contains(F(0))
    with pytest.raises(DegenerateApproximant):
        g.approximant(2)
    b1 = BetaSystem.from_int(3).approximant(1)
    assert b1.kind == "int" and b1.int_base == 2


@pytest.mark.parametrize("spec,N", [("rat:5/4", 2), ("root:1,0,1", 2), ("int:2", 1),
                                    ("root:1,1", 1), ("root:1,0,0,1", 4)])
def test_too_small_N_is_named(spec, N):
    with pytest.raises(DegenerateApproximant) as info:
        BetaSystem.parse(spec).approximant(N)
    msg = str(info.value)
    assert f"N={N} is too small for {spec}" in msg and "larger N" in msg


def test_beta_N_increasing_and_below():
    g = tribonacci()
    prev = None
    for N in (3, 6, 9):
        approx = g.approximant(N)
        val = approx.beta_scalar(100)
        assert val.compare(g.beta_scalar(100).lo.value).name == "LESS"
        if prev is not None:
            assert prev.compare(val.hi.value).name == "LESS"
        prev = val


def test_beta_N_words_admissible_in_parent():
    g = golden()
    sub = g.approximant(5)
    for n in range(1, 8):
        for w in sub.automaton.enumerate_words(n):
            assert is_admissible(g, list(w))


def test_parse_grammar():
    assert BetaSystem.parse("int:3").int_base == 3
    assert BetaSystem.parse("root:1,1").spec_string == "root:1,1"
    assert BetaSystem.parse("word:1,1").simple_parry
    w = BetaSystem.parse("word:(1,0)")
    assert w.d1.pre == (1, 1)
    assert BetaSystem.parse("approx:root:1,1:3").spec_string == "approx:root:1,1:3"
    assert BetaSystem.parse("rat:3/2").fraction_base == F(3, 2)


def test_lazy_system_degrades_explicitly():
    # a base whose expansion of 1 is (apparently) aperiodic: certified digit
    # queries still work, structural questions fail loudly instead of guessing
    from betadio.errors import HorizonTooDeep, UndecidedFiniteness

    sys_ = BetaSystem.from_root([1, 0, 2])
    assert sys_.automaton is None
    assert expansion_of_one_star(sys_, 6).digits() == (1, 1, 0, 0, 0, 1)
    assert is_admissible(sys_, [1, 0, 1])
    assert not is_admissible(sys_, [2, 0, 0])
    assert count_admissible(sys_, 8) == 97
    probed = len(sys_._orbit.digits)
    with pytest.raises(HorizonTooDeep):
        count_admissible(sys_, sys_.horizon + 1)
    assert len(sys_._orbit.digits) == probed  # refused before any digit is computed
    with pytest.raises(UndecidedFiniteness):
        is_full(sys_, [0])
    c = cylinder(sys_, [0])
    assert c.full is None
    assert c.left.contains(F(0)) and c.length.width < F(1, 2 ** 64)


def test_lazy_count_matches_enumeration_oracle():
    sys_ = BetaSystem.from_root([1, 0, 2])
    import itertools as it

    def brute(word):
        for k in range(len(word)):
            for i, d in enumerate(word[k:]):
                b = sys_.d1_star_digit(i)
                if d > b:
                    return False
                if d < b:
                    break
        return True

    for n in range(1, 7):
        expected = sum(1 for w in it.product(range(2), repeat=n) if brute(list(w)))
        assert count_admissible(sys_, n) == expected


def test_concurrent_lazy_digit_extension():
    # the lazy expansion-of-1 cache is guarded; concurrent readers agree
    import threading

    sys_ = BetaSystem.from_root([1, 0, 2])
    results = []

    def reader():
        results.append(tuple(sys_.d1_star_digit(i) for i in range(200)))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_cylinder_refinement_identity():
    # a cylinder is tiled by its admissible one-digit refinements
    for sys_ in (golden(), tribonacci()):
        auto = sys_.automaton
        for n in range(1, 6):
            for w in auto.enumerate_words(n):
                parent = cylinder(sys_, list(w), bits=192)
                state = auto.walk(list(w))
                total = None
                for d in range(auto.bound[state] + 1):
                    c = cylinder(sys_, list(w) + [d], bits=192)
                    total = c.length if total is None else total + c.length
                diff = total - parent.length
                assert diff.contains(F(0))
                assert diff.width < F(1, 2 ** 128)


def test_from_word_preperiod_rotation():
    # 1,(0,1) is the same infinite word as (1,0)^oo and must land on the
    # same simple Parry base
    a = BetaSystem.parse("word:1,(0,1)")
    b = BetaSystem.parse("word:(1,0)")
    assert a.d1 == b.d1
    diff = a.beta_scalar(100) - b.beta_scalar(100)
    assert diff.contains(F(0)) and diff.width < F(1, 2 ** 90)


def test_greedy_digits_reconstruct_value():
    # greedy digits of x satisfy value(w) <= x < value(w) + beta^-n
    g = golden()
    beta = g.beta_scalar(192)
    for x in (F(1, 2), F(2, 7), F(13, 21)):
        w = greedy_expand(g, x, 40)
        val = word_value(g, list(w), bits=192)
        ulp = beta.pow_int(-40)
        assert val.hi.value <= x
        assert (val + ulp).lo.value > x - F(1, 2 ** 150)


class FrozenAlgebraicOrbit(beta_shift._Orbit):
    """The algebraic orbit as first written: the orbit value itself as a
    polynomial in beta, in Fraction arithmetic when x is not an integer."""

    def __init__(self, root, x):
        self.root = root
        self.poly = [x.numerator if x.denominator == 1 else x]
        self._monic = root.int_poly if root.int_poly[-1] == 1 else root.poly
        self._bits = root.refined.prec
        super().__init__(tuple(self.poly))

    def _step(self):
        shifted, monic = [0] + self.poly, self._monic
        if len(shifted) == len(monic):
            shifted = [a - shifted[-1] * m for a, m in zip(shifted, monic)]
        shifted = numerics.poly_trim(shifted)
        for self._bits in numerics._escalate(self._bits, "orbit digit straddles an integer"):
            val = numerics._iv_horner(shifted, self.root.as_scalar(self._bits), self._bits)
            fl = val.floor_certified()
            if fl is not None:
                break
            lo = val.lo.value
            candidate = lo.numerator // lo.denominator + 1
            if numerics.is_exact_root(numerics.poly_sub(shifted, [F(candidate)]), self.root):
                self.poly = []
                return candidate, None
        self.poly = numerics.poly_sub(shifted, [fl])
        return fl, tuple(self.poly)


# the reducible root:1,0,1,1 (golden) and root:0,1,0,2 (beta = 2**(1/2))
# end 1 and 1/2, 1/4, 1/1024 with an exact tie: the orbit terminates
ORBIT_BASES = ["root:1,1", "root:1,1,1", "root:1,0,2", "root:3,0,1", "root:2,0,1,1",
               "root:0,2", "root:0,0,2", "root:1,0,1,1", "root:0,1,0,2", "word:2,1,(1,0)",
               "word:1,0,1", "approx:root:1,1,1:5", "approx:root:1,0,2:7"]
ORBIT_XS = [F(0), F(1), F(1, 2), F(1, 3), F(1, 4), F(2, 7), F(441, 1000), F(13, 21),
            F(999, 1000), F(1, 1024), F(123456789, 987654321)]


@pytest.mark.parametrize("spec", ORBIT_BASES)
def test_scaled_orbit_matches_the_fraction_orbit(spec):
    for bits in (8, 256):
        for x in ORBIT_XS:
            new = beta_shift._AlgebraicOrbit(BetaSystem.parse(spec, bits).root, x)
            old = FrozenAlgebraicOrbit(BetaSystem.parse(spec, bits).root, x)
            digits = [new.digit(i) for i in range(160)]
            assert digits == [old.digit(i) for i in range(160)], (spec, x)
            if old.cycle and old.cycle[1] == 1 and digits[old.cycle[0]] == 0:
                # the old orbit took a 0 reached without a tie for a cycle of 0s
                old.terminated, old.cycle = old.cycle[0], None
            assert (new.terminated, new.cycle) == (old.terminated, old.cycle), (spec, x)


def test_an_orbit_that_reaches_zero_terminates():
    # the plastic number, z^3 = z + 1, has d(1) = 10001: its orbit reaches 0
    # without an exact tie, and that ends the expansion, not a cycle of 0s
    plastic, word = BetaSystem.parse("root:0,1,1"), BetaSystem.parse("word:1,0,0,0,1")
    assert plastic.d1 == word.d1 and plastic.d1_star == word.d1_star
    assert plastic.simple_parry and count_admissible(plastic, 30) == count_admissible(word, 30)
    assert main(["expand-one", "--beta", "root:0,1,1", "--digits", "5"]) == 0
