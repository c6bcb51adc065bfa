"""The closed forms of the dimension results.

The value for a prescribed uniform exponent vhat and asymptotic exponent
theta*vhat (feasible when ``theta >= 1/(1 - vhat)``):

    value(theta, vhat) = (theta - 1 - theta*vhat) / ((1 + theta*vhat)(theta - 1))

maximized over theta at ``2/(1 - vhat)`` with maximum ``((1-vhat)/(1+vhat))**2``,
scaled by ``log #S / log b`` on a restricted digit set.  They need nothing
but ``Fraction``; only that scale imports ``logarithm``, when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DEFAULT_PRECISION, InfeasibleParameters

F = Fraction


def dim_formula(theta: Union[Fraction, str, None], v_hat: Fraction) -> Fraction:
    """Exact rational dimension value for prescribed (theta, vhat).

    ``theta`` may be the string ``"sup"`` (or None) for the supremum over
    all feasible theta.  Below the threshold ``1/(1 - vhat)`` the prescribed
    set is empty and the parameters are rejected.
    """
    v_hat = F(v_hat)
    if not 0 <= v_hat <= 1:
        raise InfeasibleParameters("vhat must lie in [0, 1]")
    if theta is None or theta == "sup":
        return dim_formula_sup(v_hat)[0]
    if v_hat == 1:
        return F(0)
    if v_hat == 0:
        return F(1)
    theta = F(theta)
    if theta < 1 / (1 - v_hat):
        raise InfeasibleParameters(
            f"theta {theta} below the emptiness threshold {1 / (1 - v_hat)}")
    return (theta - 1 - theta * v_hat) / ((1 + theta * v_hat) * (theta - 1))


def dim_formula_sup(v_hat: Fraction) -> tuple[Fraction, Optional[Fraction]]:
    """Supremum over theta and the maximizing theta0 = 2/(1 - vhat)."""
    v_hat = F(v_hat)
    if not 0 <= v_hat <= 1:
        raise InfeasibleParameters("vhat must lie in [0, 1]")
    if v_hat == 1:
        return F(0), None
    theta0 = 2 / (1 - v_hat)
    return ((1 - v_hat) / (1 + v_hat)) ** 2, theta0


def digit_set_scale(ds: DigitSet, bits: int = DEFAULT_PRECISION) -> Scalar:
    """Certified ``log #S / log b`` factor for restricted digit sets."""
    from .logarithm import ln_int
    return ln_int(ds.size, bits) / ln_int(ds.base, bits)


def critical_exponent_s0(theta: Fraction, v_hat: Fraction, eps: Fraction = F(0)) -> Fraction:
    """Critical exponent of the covering series, with bookkeeping slack eps.

    At eps = 0 this is exactly the dimension value; the slack multiplies it
    by (1 + eps)/(1 - eps).
    """
    eps = F(eps)
    if not 0 <= eps < 1:
        raise InfeasibleParameters("eps must lie in [0, 1)")
    theta, v_hat = F(theta), F(v_hat)
    if v_hat == 1:
        return F(0)
    if not 0 < v_hat < 1:
        raise InfeasibleParameters("vhat must lie in (0, 1) for the series")
    if theta < 1 / (1 - v_hat):
        raise InfeasibleParameters("below the emptiness threshold")
    base = (theta - 1 - theta * v_hat) / ((1 + theta * v_hat) * (theta - 1))
    return (1 + eps) / (1 - eps) * base


def reprove_dim_limit(v: Fraction, theta_grid: Sequence[Fraction]) -> dict:
    """Evaluate the prescribed-pair value along vhat = v/theta.

    The values are exactly ``(1/(1+v)) (1 - v/(theta-1))`` and increase to
    ``1/(1+v)`` as theta grows.
    """
    v = F(v)
    if v < 0:
        raise InfeasibleParameters("v must be nonnegative")
    values = []
    for theta in theta_grid:
        theta = F(theta)
        if v == 0:
            values.append((theta, F(1)))
            continue
        if theta in (0, v):  # other theta <= v fail in dim_formula, as vhat < 0 or > 1
            raise InfeasibleParameters(
                f"theta {theta} must exceed v = {v} for vhat = v/theta < 1")
        got = dim_formula(theta, v / theta)
        expect = F(1, 1 + v) * (1 - v / (theta - 1))
        assert got == expect
        values.append((theta, got))
    seq = [val for _, val in values]
    return {"v": v, "limit": F(1, 1 + v), "values": values,
            "monotone": all(a <= b for a, b in zip(seq, seq[1:]))}
