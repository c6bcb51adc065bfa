"""``admissible``: count, list and check the words of a base.  A base
given by its expansion of 1 has them counted, checked and listed by
``beta_shift`` and ``automaton`` in ints, without ``fractions``, ``words``
or a greedy orbit; a rational base, or a root of coefficients that are not
its expansion of 1, adds its orbit of 1 (``orbits``).  The Rényi check off
an integer base adds ``roots`` and ``numerics``."""

from ..errors import DomainError
from . import _emit, _word, default_precision


def run(args):
    from ..beta_shift import BetaSystem, count_admissible, is_admissible, renyi_bounds_check
    system = BetaSystem.parse(args.beta, default_precision())
    cfg = {"cmd": f"admissible {args.action}", "beta": args.beta}
    if args.action == "count":
        renyi = renyi_bounds_check(system, args.len, default_precision()) if args.renyi else None
        count = renyi.pop("count") if renyi else count_admissible(system, args.len)
        payload = {"n": args.len, "count": count}
        plain = str(count)
        if renyi:
            payload["renyi"] = renyi
            plain = None
        _emit(args, payload, cfg, plain=plain)
    elif args.action == "list":
        if system.automaton is None:
            raise DomainError("listing needs a finite-type base")
        words = system.automaton.enumerate_words(args.len)
        if args.output:
            _emit(args, {"n": args.len,
                         "words": [" ".join(map(str, w)) for w in words]}, cfg)
        else:
            for w in words:  # stream; counts never materialize word lists
                print(" ".join(map(str, w)))
    else:
        word = _word(args.word)
        ok = is_admissible(system, word)
        _emit(args, {"word": word, "admissible": ok}, cfg, plain=str(ok).lower())
    return 0
