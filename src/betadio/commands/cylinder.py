"""``cylinder``: certified basic-interval endpoints.  It adds the cylinder
module (``beta_values``), with beta as a number (``numerics``, and
``roots`` for an algebraic base), to the base's words; no greedy orbit of a
base given by its expansion of 1, and no base of a word."""

from . import _emit, _scalar_dict, _word, default_precision


def run(args):
    from ..beta_shift import BetaSystem
    from ..beta_values import cylinder
    system = BetaSystem.parse(args.beta, default_precision())
    word = _word(args.word)
    c = cylinder(system, word, bits=default_precision())
    _emit(args, {"word": word, "left": _scalar_dict(c.left),
                 "right": _scalar_dict(c.right), "length": _scalar_dict(c.length),
                 "full": c.full},
          {"cmd": "cylinder", "beta": args.beta})
    return 0
