"""``measure``: a cylinder's mass from a construction's sidecar.  It reads
the layout, not the generators, and an integer-base sidecar loads neither
``bary`` nor ``words``."""

from . import _emit, _not_negative, _scalar_dict, default_precision


def cmd_measure(args):
    _not_negative(args.n, "--n")
    import json
    from ..layout import BetaLayout, ScheduledRuns
    with open(args.sidecar) as fh:
        try:
            side = json.load(fh)
            beta = side.get("kind") == "beta" or "N" in side["schedule"]
            layout = (BetaLayout if beta else ScheduledRuns).from_dict(side["schedule"])
            base = side["approximant"] if beta else side.get("base", 0)  # a spec, or an integer
        except (ValueError, KeyError, TypeError, AttributeError):
            raise ValueError(f"not a construction sidecar: {args.sidecar!r}") from None
    cfg = {"cmd": "measure", "sidecar": args.sidecar, "n": args.n}
    if beta:
        from ..beta_shift import BetaSystem
        from ..measures_dim import measure_beta
        mv = measure_beta(layout, BetaSystem.parse(base, default_precision()), args.n)
        lm = mv.log_mu(default_precision())
        _emit(args, {"n": args.n,
                     "factors": [[length, mult] for length, _c, mult in mv.factors],
                     "log_mu": _scalar_dict(lm)}, cfg)
    else:
        from ..measures_dim import measure_bary
        if side.get("digit_set"):
            from ..bary import DigitSet
            base = DigitSet(base, frozenset(side["digit_set"]))
        mv = measure_bary(layout, base, args.n, pair=side.get("base") == 2)
        _emit(args, {"n": args.n, "base": mv.base, "exponent": mv.exponent}, cfg)
    return 0
