"""``construct``: the generators, and the digit file with its sidecar.
The integer-base and real-base words stream to the file a block at a time;
``construct param`` holds its word, which its checks read whole.  Each
flavour loads its own generator with the fill policies (``fills``):
``bary`` and ``restricted`` the integer-base one (``constructions``, with
``runs``), ``beta`` and ``param`` the real-base ones, and no run analysis."""

from ..errors import UsageError
from . import _digit_set, _emit_digits, _fraction, _scalar_dict, default_precision


def run(args):
    what = f"construct {args.flavor}"
    from ..fills import FillPolicy
    cfg = {"cmd": what, "theta": args.theta, "vhat": args.vhat,
           "stages": args.stages, "fill": args.fill, "seed": args.seed}
    theta, vhat = _fraction(args.theta), _fraction(args.vhat)
    try:
        fill = FillPolicy.parse(args.fill, seed=args.seed)
    except ValueError:
        raise UsageError(f"not a fill policy: {args.fill!r} (const:<digit> or random)")
    if args.flavor in ("bary", "restricted"):
        from ..constructions import bary_blocks
        cfg["base"] = args.base
        base = args.base
        if args.flavor == "restricted":
            base = _digit_set(args.digit_set, args.base)
            cfg["digit_set"] = args.digit_set
        out, b, blocks = bary_blocks(base, theta, vhat, args.stages, fill)
        _emit_digits(args, b, blocks, cfg, out.to_dict)
    elif args.flavor == "beta":
        from ..beta_constructions import beta_blocks
        from ..beta_shift import BetaSystem
        system = BetaSystem.parse(args.beta, default_precision())
        out, size, blocks = beta_blocks(system, args.N, theta, vhat, args.stages, fill)
        cfg.update({"beta": args.beta, "N": args.N})
        _emit_digits(args, size, blocks, cfg, out.to_dict)
    else:  # param
        from ..beta_constructions import generate_parameter_space
        from ..beta_shift import BetaSystem
        b0 = BetaSystem.parse(args.beta0, default_precision())
        b1 = BetaSystem.parse(args.beta1, default_precision())
        b2 = BetaSystem.parse(args.beta2, default_precision())
        res = generate_parameter_space(b0, b1, b2, args.N, theta, vhat, args.stages, fill)
        cfg.update({"beta0": args.beta0, "beta1": args.beta1, "beta2": args.beta2,
                    "N": args.N})
        side = {"recovered_base": _scalar_dict(res.root.as_scalar(96)),
                "prefix": list(res.prefix),
                "approximant": res.approximant_spec,
                "construction": res.construction.to_dict()}
        _emit_digits(args, res.word.base, [res.word.data], cfg, lambda: side)
    return 0
