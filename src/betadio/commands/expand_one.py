"""``expand-one``: the infinite expansion of 1, read off the base's words
(``beta_shift``, ``automaton``) into a digit word (``words``).  A base not
given by its expansion of 1 adds its greedy orbit (``orbits``)."""

from . import _emit_digits, default_precision


def run(args):
    from ..beta_shift import BetaSystem, expansion_of_one_star
    system = BetaSystem.parse(args.beta, default_precision())
    word = expansion_of_one_star(system, args.digits)
    _emit_digits(args, word.base, [word.data], {"cmd": "expand-one", "beta": args.beta,
                                                "digits": args.digits})
    return 0
