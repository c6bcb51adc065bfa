"""Word counts and word listing against frozen copies of the code they replaced.

``oracle_count_words`` is the automaton count as it stood before every base
counted by the Parry recurrence: row 0 of a big-integer power of the
automaton's counting matrix.  ``oracle_count_dfs`` is the depth-first
enumeration that counted bases without an automaton, and
``oracle_enumerate_words`` the recursive listing that the odometer replaced.
``oracle_parry_products`` is the Parry recurrence in the product form that
the multiply-free sum replaced.  They are frozen: the tests assert that the
library reproduces their counts and words exactly.
"""

import tracemalloc
from operator import mul

import pytest

from betadio.automaton import _parry_counts
from betadio.beta_shift import BetaSystem, count_admissible, is_admissible
from betadio.errors import DegenerateApproximant

# ---------------------------------------------------------------------------
# frozen references


def oracle_count_words(auto, n):
    size = auto.num_states
    M = [[0] * size for _ in range(size)]
    for s in range(size):
        for t in auto.transitions[s]:
            M[s][t] += 1

    def mat_mul(A, B):
        out = [[0] * size for _ in range(size)]
        for i in range(size):
            for k in range(size):
                if A[i][k]:
                    for j in range(size):
                        out[i][j] += A[i][k] * B[k][j]
        return out

    def mat_pow(e):
        if e == 1:
            return M
        if e % 2 == 0:
            H = mat_pow(e // 2)
            return mat_mul(H, H)
        return mat_mul(mat_pow(e - 1), M)

    return 1 if n == 0 else sum(mat_pow(n)[0])


def oracle_count_dfs(system, n):
    total = 0

    def dfs(prefix):
        nonlocal total
        if len(prefix) == n:
            total += 1
            return
        for c in range(system.alphabet_top + 1):
            prefix.append(c)
            if is_admissible(system, prefix):
                dfs(prefix)
            prefix.pop()

    dfs([])
    return total


def oracle_parry_products(digit, n):
    t, c = [], [1]
    for m in range(n):
        t.append(digit(m))
        c.append(1 + sum(map(mul, t, reversed(c))))
    return c


def oracle_enumerate_words(auto, n, state=0, prefix=()):
    if n == 0:
        yield prefix
        return
    for c in range(auto.bound[state] + 1):
        yield from oracle_enumerate_words(auto, n - 1, auto.transitions[state][c], prefix + (c,))


# ---------------------------------------------------------------------------
# bases

FINITE_TYPE = ["root:1,1", "root:1,1,1", "root:2,0,1,1", "root:1,0,0,1", "word:2,(1,0)",
               "int:2", "int:3", "int:10"] + [f"approx:root:1,1,1:{N}" for N in range(1, 9)]
# bases without an automaton and the lengths the enumeration reaches quickly
LAZY = [("rat:3/2", 20), ("rat:7/3", 12), ("rat:5/4", 16), ("root:1,0,2", 14)]
LENGTHS = list(range(60)) + [500, 1777]


@pytest.mark.parametrize("spec", FINITE_TYPE)
def test_counts_match_the_matrix_power(spec):
    try:
        system = BetaSystem.parse(spec)
    except DegenerateApproximant:
        assert spec == "approx:root:1,1,1:1"  # the word 1 gives no base above 1
        return
    auto = system.automaton
    for n in LENGTHS:
        assert count_admissible(system, n) == auto.count_words(n) == oracle_count_words(auto, n)


@pytest.mark.parametrize("spec, top", LAZY)
def test_lazy_counts_match_the_enumeration(spec, top):
    system = BetaSystem.parse(spec)
    assert system.automaton is None
    for n in range(top + 1):
        assert count_admissible(system, n) == oracle_count_dfs(system, n)


@pytest.mark.parametrize("spec", ["rat:3/2", "rat:7/3", "root:1,0,2", "rat:7/2", "rat:9/2",
                                  "rat:21/2"])
def test_lazy_counts_match_the_product_form(spec):
    system = BetaSystem.parse(spec)
    digit = system.d1_star_digit
    assert (_parry_counts(digit, 600, system.alphabet_top)
            == oracle_parry_products(digit, 600))


def test_a_large_alphabet_takes_the_products():
    """The multiply-free sum keeps one row of flags per digit value; a lazy
    base with 50000 of them must not build those rows."""
    system = BetaSystem.parse("rat:100001/2")
    system.d1_star_digit(99)
    tracemalloc.start()
    try:
        count_admissible(system, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("spec", ["root:1,1", "root:1,1,1"])
def test_listing_matches_the_recursive_listing(spec):
    auto = BetaSystem.parse(spec).automaton
    for n in range(9):
        assert list(auto.enumerate_words(n)) == list(oracle_enumerate_words(auto, n))
