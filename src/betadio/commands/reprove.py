"""``reprove``: the prescribed-pair limit along a theta grid, from the
closed forms (``closed_forms``) alone."""

from . import _emit, _fraction


def run(args):
    from ..closed_forms import reprove_dim_limit
    rep = reprove_dim_limit(_fraction(args.v), [_fraction(t) for t in args.thetas])
    _emit(args, {"limit": str(rep["limit"]), "monotone": rep["monotone"],
                 "values": [[str(t), str(v)] for t, v in rep["values"]]},
          {"cmd": "dim reprove", "v": args.v, "thetas": args.thetas})
    return 0
