"""Mass bookkeeping and dimension reports for the constructions.

The uniform ("Bernoulli") mass splits only at free positions: integer-base
cylinders carry mass ``base**-e(n)`` with ``e(n)`` the number of free digits
up to n, which ``layout`` counts (``#S**-e(n)`` on a restricted digit set),
and beta-base cylinders carry an exact product of reciprocals of
admissible-word counts, one factor per free block consumed.  Local dimensions along the checkpoint depths are
therefore exact rationals in the integer-base case and certified intervals
(the counts and ``log beta`` both enter through certified logs) in the
beta case.  The trajectories approach the closed forms (``closed_forms``).

The measures read a construction's layout (``layout``), not its generator;
the other layers, the closed forms among them, are imported by the
functions that call them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .errors import DEFAULT_PRECISION, DepthExceeded
from .layout import FREE, _free_count, beta_layout, layout_segments, schedule
from .record import Record

F = Fraction


# ---------------------------------------------------------------------------
# exact measures


class MeasureValue(Record):
    """Exact mass of a depth-n cylinder of a real-base construction: the
    product over free blocks of reciprocals of admissible-word counts,
    stored exactly as ``(block_length, count, multiplicity)`` triples.  (An
    integer-base mass is ``base**-e(n)``, and ``layout`` counts e(n).)
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: list[tuple[int, int, int]]):
        self.n = n
        self.factors = factors

    def log_mu(self, bits: int = DEFAULT_PRECISION) -> Scalar:
        from .logarithm import ln_int
        from .numerics import Scalar
        acc = Scalar.from_int(0, bits)
        for _length, count, mult in self.factors:
            acc = acc + ln_int(count, bits).scale_int(mult)
        return -acc


def measure_beta(layout: BetaLayout, subsystem: BetaSystem, n: int) -> MeasureValue:
    """Exact product-form mass of the beta construction at depth n.

    One reciprocal count per completed free block, plus the partial count of
    the block in progress; determined stretches (marker blocks and the long
    runs) keep the mass, so it is constant on ``l_k <= n <= h_k``.
    """
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


def _report(target: Fraction, traj: list[tuple[int, Fraction, Fraction]], tolerance: Fraction,
            scale: Optional[Scalar], params: dict) -> DimensionReport:
    """The report of a trajectory against the closed form ``target``, scaled
    by the certified interval ``scale`` when there is one."""
    scale_iv = None if scale is None else (scale.lo, scale.hi)
    t_lo, t_hi = (target, target) if scale_iv is None else \
        (target * scale_iv[0], target * scale_iv[1])
    return DimensionReport(
        formula_value=target, trajectory=traj, tolerance=F(tolerance),
        converged_at=_declare_convergence(traj, t_lo, t_hi, F(tolerance)),
        scale_interval=scale_iv, params=params)


def local_dimension_bary(theta: Fraction, v_hat: Fraction, base: Union[int, DigitSet],
                         stages: int, tolerance: Fraction = F(1, 50),
                         bits: int = DEFAULT_PRECISION) -> DimensionReport:
    """Exact local-dimension ratios e(m_k)/m_k along the checkpoints.

    With a digit set the ratios are scaled by the certified
    ``log #S / log b`` interval.
    """
    from .closed_forms import digit_set_scale, dim_formula
    if isinstance(base, int) and base < 2:
        raise ValueError("integer base required")
    runs = schedule(theta.as_integer_ratio(), v_hat.as_integer_ratio(), stages)
    scale = None if isinstance(base, int) else digit_set_scale(base, bits)
    segs = layout_segments(runs, base)
    traj = []
    for k in range(runs.stages):
        mk = runs.m[k]
        ratio = F(_free_count(segs, mk), mk)
        if scale is None:
            traj.append((k + 1, ratio, ratio))
        else:
            traj.append((k + 1, ratio * scale.lo, ratio * scale.hi))
    return _report(dim_formula(theta, v_hat), traj, tolerance, scale,
                   {"theta": theta, "v_hat": v_hat, "base": base, "stages": stages})


def local_dimension_beta(base: BetaSystem, N: int, theta: Fraction, v_hat: Fraction,
                         stages: int, tolerance: Fraction = F(1, 50),
                         bits: int = DEFAULT_PRECISION) -> DimensionReport:
    """Certified log-mass over log-length ratios at the full checkpoints h_k.

    The checkpoint cylinders have length exactly ``beta**-h_k`` (their
    automaton state is the initial one after the closing zero block), so the
    denominator is ``h_k log beta``; numerator and denominator are certified
    intervals since ``log`` of the counts and of beta are irrational.
    """
    from .closed_forms import dim_formula
    from .logarithm import ln
    runs = schedule(theta.as_integer_ratio(), v_hat.as_integer_ratio(), stages)
    layout = beta_layout(runs, N)
    sub = base.approximant(N, bits)
    ln_beta = ln(base.beta_scalar(bits), bits)
    scale = ln(sub.beta_scalar(bits), bits) / ln_beta
    traj = []
    for k in range(runs.stages):
        hk = layout.h[k]
        num = -measure_beta(layout, sub, hk).log_mu(bits)  # positive
        ratio = num / ln_beta.scale_int(hk)
        traj.append((k + 1, ratio.lo, ratio.hi))
    return _report(dim_formula(theta, v_hat), traj, tolerance, scale,
                   {"beta": base.spec_string, "N": N, "theta": theta, "v_hat": v_hat,
                    "stages": stages})

