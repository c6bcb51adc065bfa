"""``parry``: self-admissibility, which is the automaton's alone
(``parry check``), and the base of a word (``parry invert``), which adds
``roots`` and ``numerics``."""

from ..errors import UsageError
from . import _emit, _scalar_dict, _word


def run(args):
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
        from ..roots import parry_invert
        root = parry_invert(word, precision=args.bits)
        s = root.as_scalar(args.bits)
        _emit(args, {"word": word_desc, "beta": _scalar_dict(s)}, cfg,
              plain=f"{float(s.mid):.15f}")
    return 0
