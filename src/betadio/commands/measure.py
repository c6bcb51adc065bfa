"""``measure``: a cylinder's mass from a construction's sidecar.  It reads
the layout, not the generators, and an integer-base sidecar loads neither
``bary`` nor ``words``."""

from . import _emit, _not_negative, _scalar_dict, default_precision


def cmd_measure(args):
    _not_negative(args.n, "--n")
    import json
    with open(args.sidecar) as fh:
        side = json.load(fh)
    sched = side["schedule"]
    cfg = {"cmd": "measure", "sidecar": args.sidecar, "n": args.n}
    if side.get("kind") == "beta" or "N" in sched:
        from ..beta_shift import BetaSystem
        from ..layout import BetaLayout
        from ..measures_dim import measure_beta
        layout = BetaLayout.from_dict(sched)
        sub = BetaSystem.parse(side["approximant"], default_precision())
        mv = measure_beta(layout, sub, args.n)
        lm = mv.log_mu(default_precision())
        _emit(args, {"n": args.n,
                     "factors": [[length, mult] for length, _c, mult in mv.factors],
                     "log_mu": _scalar_dict(lm)}, cfg)
    else:
        from ..layout import ScheduledRuns
        from ..measures_dim import measure_bary
        runs = ScheduledRuns.from_dict(sched)
        base = side.get("base", 0)
        if side.get("digit_set"):
            from ..bary import DigitSet
            base = DigitSet(side["base"], frozenset(side["digit_set"]))
        mv = measure_bary(runs, base, args.n, pair=side.get("base") == 2)
        _emit(args, {"n": args.n, "base": mv.base, "exponent": mv.exponent}, cfg)
    return 0
