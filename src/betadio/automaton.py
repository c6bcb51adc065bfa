"""Parry's automaton of a beta-shift, and the counts of its words.

A word is admissible exactly when each of its shifts is lexicographically
at most the infinite expansion of 1; a word that is at least each of its own
shifts (``is_self_admissible``) is the expansion of 1 of exactly one base.
For eventually periodic expansions of 1 the admissible words form a
finite-automaton language, the beta-shift's automaton of Parry (1960):
state s has matched the first s symbols of the bound word, a digit equal to
the next bound symbol advances one state (collapsed modulo the period), and
a smaller digit returns to state 0.  Admissible words are counted by the
recurrence of Rényi (1957) and Parry (1960) on that expansion
(``_parry_counts``), jumped ahead by Fiduccia's (1985) powering once it is
periodic.

Nothing here reads beta as a number: the words decide everything.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import NotSelfAdmissible
from .polynomials import _cleared_polynomial
from .words import PeriodicWord, compare_words


def is_self_admissible(word: Union[Sequence[int], PeriodicWord]) -> bool:
    """Every shift of the word is lexicographically <= the word itself.

    Finite words are read with an implicit zero tail.  For an eventually
    periodic word with preperiod p and period q the shifts repeat after
    p + q, so the finitely many comparisons below decide the property.
    """
    w = word if isinstance(word, PeriodicWord) else PeriodicWord.from_finite(word)
    w = w.normalized()
    p, q = len(w.pre), max(1, len(w.per))
    for k in range(1, p + q):
        if compare_words(w.shift(k), w) > 0:
            return False
    return True


class AdmissibilityAutomaton:
    """Parry's (1960) automaton for the shift bounded by an eventually
    periodic, self-admissible word D.

    State s: the longest suffix of the input read so far that begins D is
    D's first s symbols, collapsed modulo the period q past the preperiod p
    because the tails of D repeat there; allowed next digits are 0..D[s].
    Reading D[s] advances to s + 1.  A smaller digit returns to state 0: a
    shorter match of length k is followed in D by D[k] >= D[s], as the shift
    of D where it starts is at most D, so the digit ends every match.
    """

    def __init__(self, bound_word: PeriodicWord):
        D = bound_word
        p, q = len(D.pre), len(D.per)
        if q == 0:
            raise ValueError("bound word must have a nonzero period")
        self.bound_word = D
        self.num_states = p + q
        self.bound = [D[s] for s in range(self.num_states)]
        shifts = [compare_words(D.shift(s), D) for s in range(self.num_states)]
        if max(shifts) > 0:
            raise NotSelfAdmissible(f"{D} has a shift exceeding the word")
        self.transitions = [[0] * b + [s + 1 if s + 1 < p + q else p]
                            for s, b in enumerate(self.bound)]
        self.full_states = frozenset(s for s, c in enumerate(shifts) if c == 0)
        # count_words: the cleared polynomial of D (monic; x^d dropped) and
        # the counts c_0 .. c_{p+q-1}
        f = _cleared_polynomial(D.pre, D.per)
        self._taps = [(i, int(c)) for i, c in enumerate(f[:-1]) if c]
        self._head = _parry_counts(self.bound.__getitem__, p + q - 1, max(self.bound))
        self._count_cache: dict[int, int] = {}

    def step(self, state: int, digit: int) -> Optional[int]:
        if digit < 0 or digit > self.bound[state]:
            return None
        return self.transitions[state][digit]

    def walk(self, word: Iterable[int]) -> Optional[int]:
        """The state after ``word`` from state 0; None once a digit is refused."""
        state = 0
        for d in word:
            state = self.step(state, d)
            if state is None:
                return None
        return state

    def count_words(self, n: int) -> int:
        """Exact number of accepted words of length n (paths from state 0).

        The counts have the generating function ``(1 + .. + z^(q-1)) / E(z)``,
        E the reverse of D's cleared polynomial, so ``c_n`` is ``x^n`` modulo
        it applied to ``c_0 .. c_{p+q-1}`` (Fiduccia, SIAM J. Comput. 14, 1985).
        """
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        if n not in self._count_cache:
            d = self.num_states
            r = [1] + [0] * (d - 1)  # x^n mod the polynomial, by binary powering
            for bit in bin(n)[2:]:
                sq = [0] * (2 * d - 1)
                for i, ri in enumerate(r):
                    sq[2 * i] += ri * ri
                    for j in range(i + 1, d):
                        sq[i + j] += ri * r[j] << 1
                if bit == "1":
                    sq.insert(0, 0)
                for k in range(len(sq) - 1, d - 1, -1):
                    for i, e in self._taps:  # x^d = -sum e x^i
                        sq[k - d + i] -= e * sq[k]
                r = sq[:d]
            self._count_cache[n] = sum(map(mul, r, self._head))
        return self._count_cache[n]

    def enumerate_words(self, n: int) -> Iterator[tuple]:
        """Accepted words of length n, in lexicographic order."""
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        word = [0] * n
        while True:
            yield tuple(word)
            # an odometer: the last digit below its bound goes up, the digits
            # after it restart at 0 (which every state allows)
            states = list(accumulate(word, self.step, initial=0))
            i = n - 1
            while i >= 0 and word[i] == self.bound[states[i]]:
                i -= 1
            if i < 0:
                return
            word[i:] = [word[i] + 1] + [0] * (n - 1 - i)


# the largest digit for which _parry_counts sums without multiplying: at
# n = 4096 that took 0.26-0.78 of the product form's time for rat:p/q bases
# with tops 1-3, and 1.12-1.57 of it for tops 4-5
_FREE_SUM_TOP = 3


def _parry_counts(digit, n: int, top: int) -> list[int]:
    """``c_0 .. c_n`` of ``c_m = 1 + sum_{i<=m} t*_i c_{m-i}``; digit(i) is
    t*_{i+1}, at most top.

    Up to ``_FREE_SUM_TOP`` the sum is taken without multiplying, as
    ``sum_v sum_{i: t*_i >= v} c_{m-i}``: ``at_least[v-1][i-1]`` says whether
    ``t*_i >= v``.  That is one pass over c for each v, so larger alphabets
    take the products."""
    c = [1]
    if top > _FREE_SUM_TOP:
        t = []
        for m in range(n):
            t.append(digit(m))
            c.append(1 + sum(map(mul, t, reversed(c))))
        return c
    at_least = [[] for _ in range(top)]
    for m in range(n):
        d = digit(m)
        for v, row in enumerate(at_least, 1):
            row.append(d >= v)
        c.append(1 + sum(sum(compress(reversed(c), row)) for row in at_least))
    return c
