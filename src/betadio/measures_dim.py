"""Mass bookkeeping and dimension reports for the constructions.

The uniform ("Bernoulli") mass splits only at free positions: integer-base
cylinders carry mass ``base**-e(n)`` with ``e(n)`` the number of free digits
up to n (``#S**-e(n)`` on a restricted digit set), and beta-base cylinders
carry an exact product of reciprocals of admissible-word counts, one factor
per free block consumed.  Local dimensions along the checkpoint depths are
therefore exact rationals in the integer-base case and certified intervals
(the counts and ``log beta`` both enter through certified logs) in the
beta case.

The closed forms these trajectories approach:

    value(theta, vhat) = (theta - 1 - theta*vhat) / ((1 + theta*vhat)(theta - 1))

maximized over theta at ``2/(1 - vhat)`` with maximum ``((1-vhat)/(1+vhat))**2``,
scaled by ``log #S / log b`` on a restricted digit set.

The closed forms need nothing but ``Fraction``; the other functions import
the layers they call, so that the closed forms load none of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DEFAULT_PRECISION, DepthExceeded, InfeasibleParameters, NotInSupport
from .record import Record

F = Fraction


# ---------------------------------------------------------------------------
# the closed-form values


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


def verify_sup_by_calculus(v_hat: Fraction) -> bool:
    """Exact check that theta0 is the unique interior maximum.

    Differentiates the rational function by hand (numerator of the
    derivative as a quadratic in theta) and confirms the sign change at
    theta0 plus the exact maximal value.
    """
    v = F(v_hat)
    if not 0 < v < 1:
        return dim_formula("sup", v) in (F(0), F(1))
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


def digit_set_scale(ds: DigitSet, bits: int = DEFAULT_PRECISION) -> Scalar:
    """Certified ``log #S / log b`` factor for restricted digit sets."""
    from .numerics import ln_int
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


def series_slope_probe(theta: Fraction, v_hat: Fraction, eps: Fraction, b: int,
                       s: Fraction, n_max: int = 10 ** 4, c_blocks: float = 1.0) -> dict:
    """Growth-rate probe of the covering series' general term at exponent s.

    The term is ``(2N)^(C log N) * b^(N A) * b^(-B N s)``; its log-slope in N
    tends to ``(A - B s) log b``, so the sign flips across s0 = A/B.  The
    polylog factor makes literal convergence testing at desk scale useless,
    hence slope comparison of truncated partial terms only.
    """
    theta, v_hat, eps, s = F(theta), F(v_hat), F(eps), F(s)
    A = (1 + eps) * (theta - 1 - theta * v_hat) / (theta - 1)
    B = (1 + theta * v_hat) * (1 - eps)
    lb = math.log(b)

    def log_term(n: int) -> float:
        return c_blocks * math.log(n) * math.log(2 * n) + float(A - B * s) * n * lb

    n1, n2 = n_max // 2, n_max
    slope = (log_term(n2) - log_term(n1)) / (n2 - n1)
    return {"s": s, "slope": slope, "limit_slope": float(A - B * s) * lb,
            "diverging": slope > 0}


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


# ---------------------------------------------------------------------------
# exact measures


class MeasureValue(Record):
    """Exact mass of a depth-n cylinder of a construction.

    Integer-base: ``base**-exponent``.  Beta-base: product over free blocks
    of reciprocals of admissible-word counts, stored exactly as
    ``(block_length, count, multiplicity)`` triples (none by default).
    """

    __slots__ = ("n", "base", "exponent", "factors")

    def __init__(self, n: int, base: Optional[int] = None, exponent: Optional[int] = None,
                 factors: Optional[list[tuple[int, int, int]]] = None):
        self.n = n
        self.base = base
        self.exponent = exponent
        self.factors = [] if factors is None else factors

    def log_mu(self, bits: int = DEFAULT_PRECISION) -> Scalar:
        from .numerics import Scalar, ln_int
        if self.exponent is not None:
            return -(ln_int(self.base, bits).scale_int(self.exponent))
        acc = Scalar.from_int(0, bits)
        for _length, count, mult in self.factors:
            acc = acc + ln_int(count, bits).scale_int(mult)
        return -acc

    def mu_fraction(self) -> Fraction:
        if self.exponent is not None:
            return F(1, self.base ** self.exponent)
        out = F(1)
        for _length, count, mult in self.factors:
            out /= F(count) ** mult
        return out


def _free_count(segs: list[Segment], n: int) -> int:
    """Number of free positions up to depth n."""
    from .constructions import FREE
    return sum(min(seg.hi, n) - seg.lo + 1 for seg in segs if seg.kind == FREE and seg.lo <= n)


def free_digit_count(runs: ScheduledRuns, n: int, pair: bool = False) -> int:
    """Number of free positions up to depth n (the measure exponent e(n))."""
    if n > runs.n[runs.stages]:
        raise DepthExceeded(f"depth {n} beyond the scheduled {runs.n[runs.stages]}")
    from .constructions import layout_segments
    return _free_count(layout_segments(runs, pair=pair), n)


def measure_bary(runs: ScheduledRuns, base: Union[int, DigitSet], n: int,
                 pair: bool = False) -> MeasureValue:
    """Exact cylinder mass of the integer-base construction at depth n.

    The mass is constant across each prescribed stretch, in particular from
    ``n_k`` through ``m_k``; between checkpoints it divides once per free
    digit.  ``pair=True`` accounts for the base-2 marker blocks ``1 0``.
    """
    from .bary import DigitSet
    if isinstance(base, DigitSet):
        b = base.size
    else:
        b = int(base)
    e = free_digit_count(runs, n, pair)
    return MeasureValue(n=n, base=b, exponent=e)


def measure_of_word(construction: BaryConstruction, word: Sequence[int]) -> MeasureValue:
    """Mass of the cylinder of an explicit word; off-construction words have
    no mass assigned and are reported as such rather than given mass 0."""
    from .constructions import FREE, layout_segments
    n = len(word)
    if n > len(construction.word):
        raise DepthExceeded("word longer than the constructed depth")
    got = construction.word.data
    S = construction.digit_set
    allowed = S.digits if S else range(construction.base)
    segs = layout_segments(construction.schedule, pair=construction.base == 2)
    for seg in segs:
        for pos in range(seg.lo, min(seg.hi, n) + 1):
            if seg.kind == FREE:
                if word[pos - 1] not in allowed:
                    raise NotInSupport(f"digit at position {pos} outside the digit set")
            elif word[pos - 1] != got[pos - 1]:
                raise NotInSupport(f"prescribed digit mismatch at position {pos}")
    return MeasureValue(n=n, base=S.size if S else construction.base,
                        exponent=_free_count(segs, n))


def measure_beta(layout: BetaLayout, subsystem: BetaSystem, n: int) -> MeasureValue:
    """Exact product-form mass of the beta construction at depth n.

    One reciprocal count per completed free block, plus the partial count of
    the block in progress; determined stretches (marker blocks and the long
    runs) keep the mass, so it is constant on ``l_k <= n <= h_k``.
    """
    from .constructions import FREE
    if n > layout.l[layout.runs.stages] - 1:
        raise DepthExceeded("depth beyond the scheduled stages")
    auto = subsystem.automaton
    factors: dict[int, int] = {}
    for seg in layout.segments:
        if seg.lo > n:
            break
        if seg.kind == FREE:
            consumed = min(seg.hi, n) - seg.lo + 1
            factors[consumed] = factors.get(consumed, 0) + 1
    triples = [(length, auto.count_words(length), mult)
               for length, mult in sorted(factors.items())]
    return MeasureValue(n=n, factors=triples)


# ---------------------------------------------------------------------------
# local dimension trajectories


class DimensionReport(Record):
    __slots__ = ("formula_value", "trajectory", "tolerance", "converged_at", "scale_interval",
                 "params")

    def __init__(self, formula_value: Fraction, trajectory: list[tuple[int, Fraction, Fraction]],
                 tolerance: Fraction, converged_at: Optional[int],
                 scale_interval: Optional[tuple[Fraction, Fraction]] = None,
                 params: Optional[dict] = None):
        self.formula_value = formula_value
        self.trajectory = trajectory  # (k, lo, hi)
        self.tolerance = tolerance
        self.converged_at = converged_at
        self.scale_interval = scale_interval
        self.params = {} if params is None else params

    def to_json_dict(self) -> dict:
        return {
            "params": {k: str(v) for k, v in self.params.items()},
            "formula_value": str(self.formula_value),
            "trajectory": [[k, str(lo), str(hi)] for k, lo, hi in self.trajectory],
            "converged_at": self.converged_at,
            "tolerance": str(self.tolerance),
            "scale_interval": [str(self.scale_interval[0]), str(self.scale_interval[1])]
            if self.scale_interval else None,
        }

    def to_csv(self) -> str:
        import csv  # here, not at module level: only --format csv needs it
        import io
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["k", "ratio_lower", "ratio_upper"])
        for k, lo, hi in self.trajectory:
            w.writerow([k, float(lo), float(hi)])
        return buf.getvalue()


def _declare_convergence(traj, target_lo: Fraction, target_hi: Fraction,
                         tol: Fraction) -> Optional[int]:
    hit = None
    for k, lo, hi in traj:
        mid = (lo + hi) / 2
        centered = target_lo <= mid + tol and mid - tol <= target_hi
        narrow = hi - lo < tol / 10
        if centered and narrow:
            if hit is None:
                hit = k
        else:
            hit = None
    return hit


def local_dimension_bary(theta: Fraction, v_hat: Fraction, base: Union[int, DigitSet],
                         stages: int, tolerance: Fraction = F(1, 50),
                         bits: int = DEFAULT_PRECISION) -> DimensionReport:
    """Exact local-dimension ratios e(m_k)/m_k along the checkpoints.

    With a digit set the ratios are scaled by the certified
    ``log #S / log b`` interval.
    """
    from .bary import DigitSet
    from .constructions import layout_segments, schedule
    runs = schedule(theta, v_hat, stages)
    b_int = base.base if isinstance(base, DigitSet) else int(base)
    target = dim_formula(theta, v_hat)
    scale = digit_set_scale(base, bits) if isinstance(base, DigitSet) else None
    segs = layout_segments(runs, pair=b_int == 2)
    traj = []
    for k in range(runs.stages):
        mk = runs.m[k]
        ratio = F(_free_count(segs, mk), mk)
        if scale is None:
            traj.append((k + 1, ratio, ratio))
        else:
            lo = ratio * scale.lo.value
            hi = ratio * scale.hi.value
            traj.append((k + 1, lo, hi))
    if scale is None:
        t_lo = t_hi = target
        scale_iv = None
    else:
        t_lo, t_hi = target * scale.lo.value, target * scale.hi.value
        scale_iv = (scale.lo.value, scale.hi.value)
    report = DimensionReport(
        formula_value=target, trajectory=traj, tolerance=F(tolerance),
        converged_at=_declare_convergence(traj, t_lo, t_hi, F(tolerance)),
        scale_interval=scale_iv,
        params={"theta": theta, "v_hat": v_hat, "base": base, "stages": stages})
    return report


def local_dimension_beta(base: BetaSystem, N: int, theta: Fraction, v_hat: Fraction,
                         stages: int, tolerance: Fraction = F(1, 50),
                         bits: int = DEFAULT_PRECISION) -> DimensionReport:
    """Certified log-mass over log-length ratios at the full checkpoints h_k.

    The checkpoint cylinders have length exactly ``beta**-h_k`` (their
    automaton state is the initial one after the closing zero block), so the
    denominator is ``h_k log beta``; numerator and denominator are certified
    intervals since ``log`` of the counts and of beta are irrational.
    """
    from .constructions import beta_layout, schedule
    from .numerics import ln
    runs = schedule(theta, v_hat, stages)
    layout = beta_layout(runs, N)
    sub = base.approximant(N)
    ln_beta = ln(base.beta_scalar(bits), bits)
    target = dim_formula(theta, v_hat)
    ln_sub = ln(sub.beta_scalar(bits), bits)
    scale = ln_sub / ln_beta
    traj = []
    for k in range(runs.stages):
        hk = layout.h[k]
        mv = measure_beta(layout, sub, hk)
        num = -mv.log_mu(bits)  # positive
        den = ln_beta.scale_int(hk)
        ratio = num / den
        traj.append((k + 1, ratio.lo.value, ratio.hi.value))
    t_lo = target * scale.lo.value
    t_hi = target * scale.hi.value
    report = DimensionReport(
        formula_value=target, trajectory=traj, tolerance=F(tolerance),
        converged_at=_declare_convergence(traj, t_lo, t_hi, F(tolerance)),
        scale_interval=(scale.lo.value, scale.hi.value),
        params={"beta": base.spec_string, "N": N, "theta": theta,
                "v_hat": v_hat, "stages": stages})
    return report


def stolz_cesaro_ratios(runs: ScheduledRuns, k: int) -> tuple[Fraction, Fraction]:
    """Step ratio and cumulative ratio whose common limit is the dimension.

    step = (n_{k+1} - m_k) / (m_{k+1} - m_k);
    cumulative = sum_{j<k} (n_{j+1} - m_j) / m_k.
    """
    if k + 1 > runs.stages:
        raise DepthExceeded("need one stage beyond k for the step ratio")
    step = F(runs.n[k] - runs.m[k - 1], runs.m[k] - runs.m[k - 1])
    cumulative = F(sum(runs.n[j + 1] - runs.m[j] for j in range(k - 1)), runs.m[k - 1])
    return step, cumulative
