"""``expand`` and ``exponents``: digit expansions and their run analysis.
An integer-base expansion streams to its file, and ``exponents`` scans its
file, a block at a time; ``expand --beta`` holds its word."""

from fractions import Fraction

from . import _emit, _emit_digits, _fraction, default_precision


def cmd_expand(args):
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
        from ..beta_values import greedy_expand
        cfg.update(beta=args.beta, x=str(x))
        system = BetaSystem.parse(args.beta, default_precision())
        word = greedy_expand(system, x, args.digits)
        base, blocks = word.base, [word.data]
    _emit_digits(args, base, blocks, cfg)
    return 0


def cmd_exponents(args):
    from ..bary import check_relations, exponents_of_blocks
    from ..digit_files import read_digit_blocks
    kinds = ("zeros",) if args.zeros_only else ("zeros", "top")
    with open(args.input) as fh:
        base, blocks = read_digit_blocks(fh)
        est = exponents_of_blocks(blocks, base, kinds)
    rel = check_relations(est, tol=Fraction(1, 100))
    payload = {
        "horizon": est.horizon,
        "v_lower": str(est.v_lower),
        "v_hat_lower": str(est.v_hat_lower),
        "window": est.window,
        "k_over_log_n": est.k_over_log_n,
        "relations": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in rel.items()},
    }
    if args.trajectory:
        payload["trajectory"] = [[k, str(rv), None if rh is None else str(rh)]
                                 for k, rv, rh in est.trajectory]
    _emit(args, payload, {"cmd": "exponents", "input": args.input,
                          "zeros_only": args.zeros_only})
    return 0
