"""``exponents``: the run analysis of a digit file, scanned a block at a
time.  It loads the file reader (``digit_files``, ``words``) and the run
analysis (``exponents``, ``runs``), not the expansions of ``bary``."""

from fractions import Fraction

from . import _emit


def run(args):
    from ..digit_files import read_digit_blocks
    from ..exponents import check_relations, exponents_of_blocks
    kinds = ("zeros",) if args.zeros_only else ("zeros", "top")
    with open(args.input) as fh:
        base, blocks = read_digit_blocks(fh)
        est = exponents_of_blocks(blocks, base, kinds)
    rel = check_relations(est)
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
