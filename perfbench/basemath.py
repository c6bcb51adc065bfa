"""Reference mathematics for the benchmark's inputs and output checks.

Nothing here imports ``betadio``: the checks must reach each answer by a
path the program does not use.  Bases are real numbers in ``Decimal`` at
``PREC`` digits, found by bisection on the defining polynomial; the infinite
(quasi-greedy) expansion of 1, written ``t*``, comes from Parry's theorem for
self-admissible words and from an exact ``Fraction`` orbit for rational
bases; word counts come from the Renyi-Parry recurrence
``c_0 = 1, c_n = 1 + sum_{i<=n} t*_i c_{n-i}``.
"""

from __future__ import annotations

import collections
import functools
from decimal import Decimal, localcontext
from fractions import Fraction

PREC = 320  # decimal digits carried by every Decimal computation here


# ---------------------------------------------------------------------------
# words


def compare_prefix(word, start: int, bound) -> int:
    """Three-way lexicographic comparison of ``word[start:]`` with the
    prefix of ``bound`` (a callable i -> digit) of the same length."""
    for i in range(len(word) - start):
        a, b = word[start + i], bound(i)
        if a != b:
            return -1 if a < b else 1
    return 0


def periodic_digit(pre, per):
    """Digit function of the word ``pre per per ...`` (zeros if per is empty)."""
    p, q = len(pre), len(per)

    def digit(i: int) -> int:
        if i < p:
            return pre[i]
        return per[(i - p) % q] if q else 0
    return digit


def is_self_admissible(pre, per=()) -> bool:
    """Every shift of ``pre per^oo`` is lexicographically <= the word.

    Two eventually periodic words with preperiods at most p and period q
    agree everywhere once they agree on p + q symbols, so comparing
    ``2 (p + q)`` symbols decides each shift.
    """
    digit = periodic_digit(tuple(pre), tuple(per))
    p, q = len(pre), max(1, len(per))
    span = 2 * (p + q)
    for k in range(1, p + q + 1):
        for i in range(span):
            a, b = digit(k + i), digit(i)
            if a != b:
                if a > b:
                    return False
                break
    return True


def parse_periodic(text: str):
    """``"1,0,(1,1)"`` or ``"(1,0)"`` -> (pre, per); ``"1,0,1"`` -> (pre, ())."""
    if "(" in text:
        head, _, tail = text.partition("(")
        pre = tuple(int(t) for t in head.strip(",").split(",") if t)
        return pre, tuple(int(t) for t in tail.rstrip(")").split(","))
    return tuple(int(t) for t in text.split(",")), ()


# ---------------------------------------------------------------------------
# bases


def _root_decimal(coeffs) -> Decimal:
    """The root z > 1 of ``1 = sum c_i z^-i`` by bisection on
    ``z^m - sum c_i z^(m-i)``, which is increasing in z beyond its root."""
    def f(z: Decimal) -> Decimal:
        acc = Decimal(1)
        for c in coeffs:
            acc = acc * z - c
        return acc
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        lo, hi = Decimal(1), Decimal(sum(coeffs) + 1)
        eps = Decimal(10) ** -(PREC + 2)
        while hi - lo > eps:
            mid = (lo + hi) / 2
            if f(mid) >= 0:
                hi = mid
            else:
                lo = mid
        return +hi


class Base:
    """A base of the CLI grammar, seen from outside the program.

    ``beta`` is a Decimal; ``tstar(i)`` is the i-th (0-based) symbol of the
    infinite expansion of 1; ``period`` is ``(pre, per)`` when t* is known
    to be eventually periodic, else None.
    """

    def __init__(self, spec: str, beta: Decimal, top: int, period=None, tstar=None):
        self.spec = spec
        self.beta = beta
        self.top = top
        self.period = period
        self.tstar = tstar or periodic_digit(*period)

    def tstar_prefix(self, n: int) -> tuple:
        return tuple(self.tstar(i) for i in range(n))


def _from_finite_word(spec: str, digits) -> Base:
    """The simple Parry base whose (greedy) expansion of 1 is ``digits``."""
    digits = list(digits)
    while digits and digits[-1] == 0:
        digits.pop()
    if len(digits) == 1:  # an integer base: t* = (b-1)^oo
        b = digits[0]
        return Base(spec, Decimal(b), b - 1, period=((), (b - 1,)))
    star = tuple(digits[:-1]) + (digits[-1] - 1,)
    return Base(spec, _root_decimal(digits), digits[0], period=((), star))


class _GreedyOrbit:
    """Greedy digits of 1 in a base, from an exact or a Decimal orbit."""

    def __init__(self, beta, floor):
        self.beta, self.floor = beta, floor
        self.x = beta / beta  # 1 in the orbit's number type
        self.digits: list[int] = []

    def __call__(self, i: int) -> int:
        with localcontext() as ctx:
            ctx.prec = PREC
            while len(self.digits) <= i:
                y = self.beta * self.x
                d = self.floor(y)
                self.x = y - d
                self.digits.append(d)
        return self.digits[i]


@functools.lru_cache(maxsize=None)
def parse_base(spec: str) -> Base:
    if spec.startswith("int:"):
        b = int(spec[4:])
        return Base(spec, Decimal(b), b - 1, period=((), (b - 1,)))
    if spec.startswith("rat:"):
        r = Fraction(spec[4:])
        orbit = _GreedyOrbit(r, lambda y: y.numerator // y.denominator)
        with localcontext() as ctx:
            ctx.prec = PREC
            beta = Decimal(r.numerator) / Decimal(r.denominator)
        return Base(spec, beta, r.numerator // r.denominator, tstar=orbit)
    if spec.startswith("root:"):
        coeffs = [int(t) for t in spec[5:].split(",")]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if is_self_admissible(coeffs):
            return _from_finite_word(spec, coeffs)
        beta = _root_decimal(coeffs)
        return Base(spec, beta, int(beta), tstar=_GreedyOrbit(beta, int))
    if spec.startswith("approx:"):
        body, _, n = spec[7:].rpartition(":")
        return _from_finite_word(spec, parse_base(body).tstar_prefix(int(n)))
    raise ValueError(f"unknown base spec {spec!r}")


# ---------------------------------------------------------------------------
# counts and values


def is_admissible(base: Base, word) -> bool:
    """Every suffix of the word is lexicographically <= the same-length
    prefix of t* (and every digit is within the alphabet)."""
    if any(d < 0 or d > base.top for d in word):
        return False
    return all(compare_prefix(word, k, base.tstar) <= 0 for k in range(len(word)))


def word_value(beta: Decimal, digits) -> Decimal:
    """``sum_i d_i beta^-i`` for a finite word, in Decimal."""
    with localcontext() as ctx:
        ctx.prec = PREC
        acc = Decimal(0)
        for d in reversed(list(digits)):
            acc = (acc + d) / beta
        return acc


def periodic_value(beta: Decimal, pre, per) -> Decimal:
    """``sum_i w_i beta^-i`` for ``w = pre per^oo``."""
    with localcontext() as ctx:
        ctx.prec = PREC
        head = word_value(beta, pre)
        if not per:
            return head
        cycle = word_value(beta, per) / (1 - beta ** -len(per))
        return head + cycle * beta ** -len(pre)


def dim_value(theta: Fraction, vhat: Fraction) -> Fraction:
    """``(theta - 1 - theta vhat) / ((1 + theta vhat)(theta - 1))``."""
    return (theta - 1 - theta * vhat) / ((1 + theta * vhat) * (theta - 1))


def to_decimal(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return Decimal(x.numerator) / Decimal(x.denominator)


CHECKPOINT = 1024  # counts keeps its recurrence window every this many steps


def counts(base: Base, lengths) -> dict[int, int]:
    """Admissible-word counts ``{n: c_n}`` by the Renyi-Parry recurrence.

    For ``t* = pre per^oo`` (lengths p, q) and n >= p + q the sum folds to
    ``c_n = sum_{i<=p+q} t*_i c_{n-i} + c_{n-q} - sum_{j<=p} t*_j c_{n-q-j}``,
    so the cost is linear in n and only the last p + q counts are needed.
    The asked-for counts, and the window at every CHECKPOINT-th step, are
    kept on the base, so a later call resumes near where it is needed.
    """
    cache = base.__dict__.setdefault("_counts", {0: 1})
    todo = sorted(set(lengths) - set(cache))
    if not todo:
        return {n: cache[n] for n in lengths}
    if base.period is None or not base.period[1]:
        t = base.tstar_prefix(todo[-1])
        c = [1]
        for m in range(1, todo[-1] + 1):
            c.append(1 + sum(t[i - 1] * c[m - i] for i in range(1, m + 1)))
        cache.update((n, c[n]) for n in todo)
        return {n: cache[n] for n in lengths}
    pre, per = base.period
    p, q = len(pre), len(per)
    t = [base.tstar(i) for i in range(p + q)]
    windows = base.__dict__.setdefault("_windows", {0: (1,)})  # m -> (c_{m-L+1} .. c_m)
    start = max(m for m in windows if m <= todo[0])
    hist = collections.deque(windows[start], maxlen=p + q)  # hist[-i] = c_{m-i}
    wanted = set(todo)
    for m in range(start + 1, todo[-1] + 1):
        if m < p + q:
            v = 1 + sum(t[i - 1] * hist[-i] for i in range(1, m + 1))
        else:
            v = sum(t[i - 1] * hist[-i] for i in range(1, p + q + 1)) + hist[-q]
            v -= sum(t[j - 1] * hist[-q - j] for j in range(1, p + 1))
        hist.append(v)
        if m in wanted:
            cache[m] = v
        if m % CHECKPOINT == 0:
            windows[m] = tuple(hist)
    return {n: cache[n] for n in lengths}


def forbidden_factors(base: Base) -> list[bytes]:
    """Minimal forbidden factors ``t*[:j] c`` (c > t*_j, j < q) of a base
    whose t* is purely periodic with period q.  A longer factor
    ``t*[:j] c`` contains ``t*[:j-q] c`` from position q on, so a word is
    admissible exactly when it contains none of these."""
    pre, per = base.period
    if pre:
        raise ValueError("needs a purely periodic t*")
    return [bytes(per[:j]) + bytes([c])
            for j in range(len(per)) for c in range(per[j] + 1, base.top + 1)]


def count_words(base: Base, n: int) -> int:
    return counts(base, [n])[n]
