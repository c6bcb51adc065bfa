"""``measure``: a cylinder's mass from a construction's sidecar.  It reads
the layout, not the generators.  An integer-base sidecar's mass is
``base**-e(n)``, and ``layout`` counts the exponent e(n) itself, so that
path loads neither ``measures_dim`` nor ``bary`` nor ``words``.  A restricted
sidecar adds ``digit_sets``: the mass's base is then the set's size."""

from . import _emit, _scalar_dict, default_precision


def cmd_measure(args):
    import json
    from ..layout import BetaLayout, ScheduledRuns
    with open(args.sidecar) as fh:
        try:
            side = json.load(fh)
            s = side["schedule"]
            beta = side.get("kind") == "beta" or "N" in s
            base = side["approximant"] if beta else side["base"]  # a spec, or an integer
            # every field read has the type, and every list the length, construct writes
            lists = [s[k] for k in ("n", "m", "t", "delta", "u")] + [side.get("digit_set", [])]
            if not (all(type(v) is list and all(type(d) is int for d in v) for v in lists)
                    and {len(v) for v in lists[1:5]} == {len(lists[0]) - 1}
                    and type(s["theta"]) is type(s["v_hat"]) is str
                    and type(base) is (str if beta else int) and type(s.get("N", 0)) is int):
                raise TypeError
            layout = (BetaLayout if beta else ScheduledRuns).from_dict(s)
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
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
        from ..layout import free_digit_count
        if side.get("digit_set"):
            from ..digit_sets import DigitSet
            base = DigitSet(base, frozenset(side["digit_set"])).size
        exponent = free_digit_count(layout, args.n, pair=side.get("base") == 2)
        _emit(args, {"n": args.n, "base": base, "exponent": exponent}, cfg)
    return 0
