"""``expand-one``, ``admissible``, ``cylinder`` and ``parry``: the commands
on a real base alone.  The words of a base given by its expansion of 1 are
counted, checked and listed by ``beta_shift`` and ``automaton`` in ints,
without ``fractions`` or ``words`` (``parry check`` needs ``automaton``
alone; ``expand-one`` adds ``words``).  The Rényi check off an integer base
adds ``roots`` and ``numerics``; ``cylinder`` and ``parry invert`` add
``beta_values`` too."""

from ..errors import DomainError, UsageError
from . import _emit, _emit_digits, _scalar_dict, _word, default_precision


def cmd_expand_one(args):
    from ..beta_shift import BetaSystem, expansion_of_one_star
    system = BetaSystem.parse(args.beta, default_precision())
    word = expansion_of_one_star(system, args.digits)
    _emit_digits(args, word.base, [word.data], {"cmd": "expand-one", "beta": args.beta,
                                                "digits": args.digits})
    return 0


def cmd_admissible(args):
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


def cmd_cylinder(args):
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


def cmd_parry(args):
    from ..automaton import PeriodicWord, is_self_admissible
    if "(" in args.word:
        try:
            word = PeriodicWord.parse(args.word)
        except ValueError:
            raise UsageError(f"not a digit word: {args.word!r}")
        word_desc = {"pre": list(word.pre), "per": list(word.per)}
    else:
        word = _word(args.word)
        word_desc = {"digits": list(word)}
    cfg = {"cmd": f"parry {args.action}", "word": args.word}
    if args.action == "check":
        ok = is_self_admissible(word)
        _emit(args, {"word": word_desc, "self_admissible": ok}, cfg, plain=str(ok).lower())
    else:
        from ..beta_values import parry_invert
        root = parry_invert(word, precision=args.bits)
        s = root.as_scalar(args.bits)
        _emit(args, {"word": word_desc, "beta": _scalar_dict(s)}, cfg,
              plain=f"{float(s.mid):.15f}")
    return 0
