"""Parry's automaton against frozen copies of the code it replaced.

``oracle_transitions`` is the automaton's table as it was built before:
a digit equal to the bound symbol advances the match, a smaller one falls
back to the longest shorter suffix that matches a prefix of the bound word
(a KMP-style search).  ``oracle_is_admissible`` is the quadratic scan that
checked bases without an automaton, comparing every suffix of the word with
the expansion of 1.  They are frozen: the tests assert that Parry's table,
where a smaller digit restarts at state 0, and the linear walk give the same
answers on every self-admissible bound word they cover.
"""

import itertools
import random
from fractions import Fraction

import pytest

from betadio.automaton import AdmissibilityAutomaton, PeriodicWord, is_self_admissible
from betadio.beta_shift import BetaSystem, count_admissible, is_admissible
from betadio.errors import NotSelfAdmissible
from betadio.orbits import _RationalOrbit, greedy_expand

# ---------------------------------------------------------------------------
# frozen references


def oracle_transitions(D):
    p, q = len(D.pre), len(D.per)
    size = p + q
    bound = [D[s] for s in range(size)]

    def collapse(l):
        return l if l < size else p + (l - p) % q

    trans = []
    for s in range(size):
        row = []
        for c in range(bound[s] + 1):
            if c == bound[s]:
                row.append(collapse(s + 1))
                continue
            t = 0
            for k in range(s, 0, -1):
                if D[k - 1] == c and all(D[i] == D[s - k + 1 + i] for i in range(k - 1)):
                    t = k
                    break
            row.append(t)
        trans.append(row)
    return trans


def oracle_full_states(D):
    return frozenset(s for s in range(len(D.pre) + len(D.per)) if D.shift(s) == D)


def oracle_counts(trans, n):
    """Words of lengths 0..n accepted from state 0, by paths in the table."""
    ways = [1] + [0] * (len(trans) - 1)
    out = [1]
    for _ in range(n):
        nxt = [0] * len(trans)
        for s, w in enumerate(ways):
            if w:
                for t in trans[s]:
                    nxt[t] += w
        ways = nxt
        out.append(sum(ways))
    return out


def oracle_is_admissible(system, word):
    digits = list(word)
    if any(d < 0 or d > system.alphabet_top for d in digits):
        return False
    n = len(digits)
    for k in range(n):
        for i in range(n - k):
            b = system.d1_star_digit(i)
            if digits[k + i] > b:
                return False
            if digits[k + i] < b:
                break
    return True


# ---------------------------------------------------------------------------
# every bound word with preperiod <= 5, period <= 3 and digits <= 2


def _bound_words():
    seen = set()
    for p in range(6):
        for q in range(1, 4):
            for digits in itertools.product(range(3), repeat=p + q):
                w = PeriodicWord(digits[:p], digits[p:]).normalized()
                if w.per and (w.pre, w.per) not in seen:
                    seen.add((w.pre, w.per))
                    yield w


BOUND_WORDS = list(_bound_words())
SELF_ADMISSIBLE = [w for w in BOUND_WORDS if is_self_admissible(w)]


def test_the_bound_words_cover_every_shape():
    assert len(SELF_ADMISSIBLE) == 1315
    assert len(BOUND_WORDS) > len(SELF_ADMISSIBLE)


def test_parry_table_matches_the_suffix_search():
    for D in SELF_ADMISSIBLE:
        auto = AdmissibilityAutomaton(D)
        trans = oracle_transitions(D)
        assert auto.transitions == trans, D
        assert auto.full_states == oracle_full_states(D), D
        assert [auto.count_words(n) for n in range(13)] == oracle_counts(trans, 12), D


def test_a_bound_that_is_not_self_admissible_is_refused():
    for D in BOUND_WORDS:
        if not is_self_admissible(D):
            with pytest.raises(NotSelfAdmissible):
                AdmissibilityAutomaton(D)


# ---------------------------------------------------------------------------
# the linear walk for bases without an automaton


def _words_near_the_bound(system, rng, count):
    """Random words, and words made of prefixes of the expansion of 1 with a
    digit nudged, which reach deep states before they drop or exceed."""
    top = system.alphabet_top
    star = [system.d1_star_digit(i) for i in range(40)]
    for _ in range(count):
        n = rng.randint(0, 30)
        yield [rng.randint(0, top) for _ in range(n)]
        word = []
        while len(word) < 40:
            word += star[:rng.randint(1, 25)]
            if rng.random() < 0.5:
                word.append(rng.randint(0, top))
        if rng.random() < 0.5:
            i = rng.randrange(len(word))
            word[i] = min(top, word[i] + 1)
        yield word


@pytest.mark.parametrize("spec", ["rat:3/2", "rat:7/3", "root:1,0,2"])
def test_lazy_walk_matches_the_quadratic_scan(spec):
    system = BetaSystem.parse(spec)
    assert system.automaton is None
    rng = random.Random(13)
    verdicts = set()
    for word in _words_near_the_bound(system, rng, 400):
        want = oracle_is_admissible(system, word)
        assert is_admissible(system, word) == want, word
        verdicts.add(want)
    assert verdicts == {True, False}
    for n in range(9):
        for word in itertools.product(range(system.alphabet_top + 1), repeat=n):
            if n <= 6 or word[0] == system.alphabet_top:
                assert is_admissible(system, word) == oracle_is_admissible(system, word)


# ---------------------------------------------------------------------------
# d(1) adopted from a greedy orbit


def test_a_cycling_orbit_adopts_its_periodic_expansion():
    """root:1,1,2,1 is not its own expansion of 1: the greedy orbit of 1
    cycles, d(1) = 200(0100111)^oo, the base of that word."""
    orbit = BetaSystem.parse("root:1,1,2,1")
    word = BetaSystem.parse("word:2,0,0,(0,1,0,0,1,1,1)")
    expected = PeriodicWord((2, 0, 0), (0, 1, 0, 0, 1, 1, 1))
    assert orbit.d1 == orbit.d1_star == word.d1_star == expected
    assert orbit.d1_star.pre == expected.pre and orbit.d1_star.per == expected.per
    assert orbit.simple_parry is False and orbit._orbit is None
    assert orbit.automaton.transitions == word.automaton.transitions
    assert ([count_admissible(orbit, n) for n in range(40)]
            == [count_admissible(word, n) for n in range(40)])
    assert count_admissible(orbit, 9) == 1158
    rng = random.Random(7)
    for word_digits in _words_near_the_bound(orbit, rng, 200):
        assert (is_admissible(orbit, word_digits) == is_admissible(word, word_digits)
                == oracle_is_admissible(word, word_digits))


def test_greedy_expand_in_a_rational_base():
    system = BetaSystem.parse("rat:3/2")
    x = Fraction(1, 3)
    got = greedy_expand(system, x, 24).digits()
    # the orbit by hand: multiply by 3/2, take the floor, keep the rest
    want, y = [], x
    for _ in range(24):
        y *= Fraction(3, 2)
        want.append(int(y))
        y -= int(y)
    assert got == tuple(want)
    assert got[:12] == (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert is_admissible(system, got)
    assert greedy_expand(system, Fraction(1), 8).digits() == tuple(
        system.d1_star_digit(i) for i in range(8))


@pytest.mark.parametrize("spec", ["rat:5/2", "rat:7/3", "int:3"])
def test_greedy_expand_matches_the_orbit_by_hand(spec):
    """Off an integer base the orbit keeps no states and closes no cycle;
    its digits are still the orbit's, on a cycle too (x -> 5x/2 - 1 fixes
    2/3).  In an integer base the cycle closes, with the same digits."""
    system = BetaSystem.parse(spec)
    base = Fraction(spec[4:])
    for x in (Fraction(2, 3), Fraction(1, 7), Fraction(5, 9), Fraction(0)):
        want, y = [], x
        for _ in range(200):
            y *= base
            want.append(int(y))
            y -= int(y)
        assert greedy_expand(system, x, 200).digits() == tuple(want)
        orbit = _RationalOrbit(base, x)
        orbit.digit(199)
        assert orbit.cycle == ((0, 6) if (base, x) == (3, Fraction(1, 7)) else None)
