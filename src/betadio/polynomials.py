"""Exact polynomials over Q, as ascending coefficient lists, and the value
equation ``1 = sum c_i z**-i`` of an expansion base in that form.

Parry's automaton (``automaton``) reads its word counts off the cleared
polynomial, and ``roots`` isolates and tests its roots; neither needs the
other.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence


def poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_eval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    return poly_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    while len(poly_trim(r)) >= len(b):
        r = poly_trim(r)
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        q[k] = f
        for i, v in enumerate(b):
            r[i + k] -= f * v
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


# ---------------------------------------------------------------------------
# the value equation


def _defect(pre: Sequence[Fraction], per: Sequence[Fraction], z: Fraction) -> Fraction:
    """1 - sum_i pre_i z^-i - z^-|pre| (sum_j per_j z^-j) / (1 - z^-|per|), z > 1."""
    zi = 1 / z
    value = poly_eval((0, *pre), zi)
    if per:
        value += zi ** len(pre) * poly_eval((0, *per), zi) / (1 - zi ** len(per))
    return 1 - value


def _cleared_polynomial(pre: Sequence[Fraction], per: Sequence[Fraction]) -> list[Fraction]:
    """Integer-scalable polynomial whose roots include the expansion base.

    Finite case: z^p - sum c_i z^(p-i).  Periodic tail of length q:
    (z^p - sum pre_i z^(p-i)) (z^q - 1) - sum per_j z^(q-j), both ascending.
    """
    head = [-c for c in reversed(pre)] + [Fraction(1)]
    if not per:
        return head
    zq1 = [Fraction(-1)] + [Fraction(0)] * (len(per) - 1) + [Fraction(1)]
    return poly_sub(poly_mul(head, zq1), list(reversed(per)))
