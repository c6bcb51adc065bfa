"""``expand``: digits of x in an integer base, or in a real one.  An
integer-base expansion streams to its file a block at a time and loads
``bary``'s producers alone, no run analysis; ``expand --beta`` holds its
word and adds the base (``beta_shift``) and its greedy orbit (``orbits``,
with ``roots`` and ``numerics`` for an algebraic base)."""

from . import _emit_digits, _fraction, default_precision


def run(args):
    cfg, x = {"cmd": "expand", "digits": args.digits}, _fraction(args.x)
    if args.beta is None:
        from ..bary import lacunary_blocks, rational_blocks
        cfg["base"] = base = args.base
        if args.lacunary is not None:
            cfg["lacunary"] = args.lacunary
            rule = "squared-power" if args.lacunary == "squared-power" else _fraction(args.lacunary)
            blocks = lacunary_blocks(base, rule, args.digits)
        else:
            if not 0 <= x < 1:
                raise ValueError(f"--x must lie in [0, 1), got {args.x}")
            cfg["x"] = str(x)
            blocks = rational_blocks(x.numerator, x.denominator, base, args.digits)
    else:  # certified digits off an integer base: the word is held
        from ..beta_shift import BetaSystem
        from ..orbits import greedy_expand
        cfg.update(beta=args.beta, x=str(x))
        system = BetaSystem.parse(args.beta, default_precision())
        word = greedy_expand(system, x, args.digits)
        base, blocks = word.base, [word.data]
    _emit_digits(args, base, blocks, cfg)
    return 0
