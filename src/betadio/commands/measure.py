"""``measure``: a cylinder's mass from a construction's sidecar.  It
rebuilds the layout from the sidecar's own theta, vhat, stage count and N,
and refuses a sidecar whose schedule is not that layout's, or whose
approximant is not the one its base and N give; it reads the layout, not
the generators.  theta and vhat are read by ``layout.read_ratio``, which
takes only the text ``to_dict`` writes, so the schedule is rebuilt in ints.
An integer-base sidecar's mass is ``base**-e(n)``, and ``layout`` counts
the exponent e(n) itself, so that path loads neither ``measures_dim`` nor
``bary`` nor ``words``, nor the stdlib's ``fractions``.  A restricted
sidecar adds ``digit_sets``: the mass's base is then the set's size.  The
stdlib's ``json`` reads the sidecar and writes the answer, so ``measure``
is the one command that imports it, and it compiles no ``jsontext``."""

from ..errors import InfeasibleParameters
from . import _emit, _scalar_dict, default_precision


def run(args):
    import json
    from ..layout import beta_layout, read_ratio, schedule
    with open(args.sidecar) as fh:
        try:
            side = json.load(fh)
            s = side["schedule"]
            beta = side.get("kind") == "beta" or "N" in s
            base = side["approximant"] if beta else side["base"]  # a spec, or an integer
            digit_set = side.get("digit_set", [])
            layout = schedule(read_ratio(s["theta"]), read_ratio(s["v_hat"]), len(s["m"]))
            if beta:
                layout = beta_layout(layout, s["N"])
            # the schedule construct writes for these parameters, field for field
            if not (layout.to_dict() == s and type(base) is (str if beta else int)
                    and (beta or base >= 2) and type(digit_set) is list
                    and all(type(d) is int for d in digit_set)):
                raise TypeError
        except (ValueError, KeyError, TypeError, ArithmeticError, InfeasibleParameters):
            raise ValueError(f"not a construction sidecar: {args.sidecar!r}") from None
    cfg = {"cmd": "measure", "sidecar": args.sidecar, "n": args.n}
    if beta:
        from ..beta_shift import BetaSystem
        from ..measures_dim import measure_beta
        system = BetaSystem.parse(base, default_precision())
        # construct writes its base's approximant, approx:<base>:<N>, and no other
        if base != f"approx:{side.get('base')}:{s['N']}":
            raise ValueError(f"not a construction sidecar: {args.sidecar!r}")
        mv = measure_beta(layout, system, args.n)
        lm = mv.log_mu(default_precision())
        _emit(args, {"n": args.n,
                     "factors": [[length, mult] for length, _c, mult in mv.factors],
                     "log_mu": _scalar_dict(lm)}, cfg, json=json)
    else:
        from ..layout import free_digit_count
        if digit_set:
            from ..digit_sets import DigitSet
            base = DigitSet(base, frozenset(digit_set))
        exponent = free_digit_count(layout, args.n, base)
        _emit(args, {"n": args.n, "base": base if isinstance(base, int) else base.size,
                     "exponent": exponent}, cfg, json=json)
    return 0
