"""The certified natural logarithm, the one transcendental the dimension
reports need (log-measure over log-length ratios).

Argument reduction x = m * 2**s with m in [1, 2), then ln m = 2 atanh((m-1)/(m+1))
summed with directed rounding and an explicit geometric tail bound;
ln 2 = 2 atanh(1/3) the same way.

The sums run on raw ``(man, exp)`` pairs with the rounding kernels of
``numerics``, so they make the same values, bit for bit, as the sums over
exact dyadic endpoints that the tests keep as the reference, without
building a Fraction per term.  A term p/k is not reduced first: it may then
carry a bit more or less, but any grid of at least work + 1 bits is finer
than the accumulator's work-bit grid, and directed rounding onto a finer
grid and then onto the coarser one equals rounding onto the coarser one.
"""

from __future__ import annotations

import functools
from typing import Optional

from .errors import DEFAULT_PRECISION
from .numerics import Scalar, _add, _norm, _ratio, _round, _scalar


@functools.lru_cache(maxsize=512)
def _atanh_bound(p: int, q: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed bound ``(man, exp)`` for atanh(p/q).

    0 <= p/q <= 1/2, with q > 0 and the odd parts of p and q coprime.  The
    lower bound sums the series from z rounded down, the upper one from z
    rounded up plus the tail, so each direction is summed on its own.  The
    loop is ``_ratio``, ``_add`` and ``_round`` written out for positive
    values; memoized, since trajectories revisit the same endpoints.
    """
    if p == 0:
        return 0, 0
    work = bits + 16
    zm, ze = _ratio(p, q, 0, work, up)
    z2m, z2e = _round(zm * zm, 2 * ze, work, up)
    # enough terms that z**(2J+1) < 2**-(bits+8); z <= 1/2 so each term
    # gains at least 2 bits
    J = bits // 2 + 8
    am = ae = 0
    for k in range(1, 2 * J, 2):
        sh = work + 1 + k.bit_length() - zm.bit_length()  # z**k / k to work + 1 bits
        t, te = (-((-zm << sh) // k) if up else (zm << sh) // k), ze - sh
        if not up and am and ae > te and not t >> (ae - te):
            return am, ae  # rounded down, terms below the sum's last place add nothing
        m, e = ((am << (ae - te)) + t, te) if ae > te else (am + (t << (te - ae)), ae)
        s = m.bit_length() - work
        am, ae = ((-((-m) >> s) if up else m >> s), e + s) if s > 0 else (m, e)
        zm, ze = _round(zm * z2m, ze + z2e, work, up)
    if up:
        # tail: sum_{j>=J} z^(2j+1)/(2j+1) <= z^(2J+1) / ((2J+1)(1-z^2)), taken
        # with z^2 <= 9/16: the bound is p_up * 16 / (7 (2J+1))
        am, ae = _round(*_add(am, ae, *_ratio(zm, 7 * (2 * J + 1), ze + 4, work, True)), work, True)
    return am, ae


@functools.lru_cache(maxsize=1024)
def _ln_directed(man: int, exp: int, bits: int, up: bool) -> tuple[int, int]:
    """Directed bound for ln(man * 2**exp), ``man * 2**exp`` in normal form;
    memoized, since trajectories revisit the same endpoints."""
    if man <= 0:
        raise ValueError("log of non-positive endpoint")
    work = bits + 16
    man, exp = _round(man, exp, work, up)
    L = man.bit_length()
    s = exp + L - 1  # the value is m * 2**s with m in [1, 2)
    h = 1 << (L - 1)
    # z = (m-1)/(m+1) = (man-h)/(man+h): a common odd factor would divide 2h
    mm, me = _atanh_bound(man - h, man + h, bits, up)
    # ln m = 2 atanh(z), and ln 2 = 2 atanh(1/3) by the bound that moves s * ln 2
    # the way of ``up``; doubling a bound of work bits is exact: exponent + 1
    m2, e2 = _atanh_bound(1, 3, bits, up == (s >= 0))
    return _round(*_add(mm, me + 1, s * m2, e2 + 1), work, up)


def ln(x: Scalar, bits: Optional[int] = None) -> Scalar:
    """Certified natural log of a positive interval."""
    b = bits or x.prec
    lm, le, hm, he = x.iv
    if lm <= 0:
        raise ValueError("ln requires a strictly positive interval")
    return _scalar((*_ln_directed(*_norm(lm, le), b, False),
                    *_ln_directed(*_norm(hm, he), b, True)), b)


def ln_int(n: int, bits: int = DEFAULT_PRECISION) -> Scalar:
    """Certified ln of a (possibly huge) positive integer."""
    if n <= 0:
        raise ValueError("ln_int requires n >= 1")
    n, e = _norm(n, 0)
    return _scalar((*_ln_directed(n, e, bits, False), *_ln_directed(n, e, bits, True)), bits)
