"""Command-line front end.

Reproducible batch runs over the library: every JSON output embeds the
resolved run configuration and the library version, digit outputs use the
``base=<b>`` file format, and constructions always write a JSON sidecar with
the full schedule next to the digit file.

Exit codes: 0 success, 1 usage error, 2 infeasible/domain error,
3 precision exhausted; a stdout closed by its reader (``| head``) is a
success, a broken pipe on an ``--output`` file is not.

Two readers share one option table, ``_COMMANDS``.  The exact-match reader
``_read`` accepts or defers, without importing argparse.  It accepts a
subcommand name, then that subcommand's exact flags, each given once with
its value as one token not starting with ``-`` (one or more for a list),
one positional from its choices, every required option, and ``int`` values
that convert; its namespace has the fields argparse would give.  Anything
else (``-h``, ``--version``, ``--flag=value``, abbreviations, ``-``-leading
values, ``--``, unknown or extra tokens) goes to ``build_parser()``, made
from the same table: argparse owns help, usage and every error message.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .errors import DomainError, PrecisionError

F = Fraction


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return F(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r} ({exc})")


def _ints(text: str, sep, what: str) -> list[int]:
    try:
        return [int(t) for t in text.split(sep)]
    except ValueError:
        raise UsageError(f"not a {what}: {text!r}")


def _word(text: str) -> list[int]:
    return _ints(text, "," if "," in text else None, "digit word")


def _digit_set(text: str, base: int) -> DigitSet:
    from .bary import DigitSet
    return DigitSet(base, frozenset(_ints(text, ",", "digit set")))


def _need(args, what: str, *names: str) -> None:
    """Usage error unless every named per-action option was given."""
    missing = ["--" + name.replace("_", "-") for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{what} needs {' '.join(missing)}")


def _not_negative(value: int, what: str) -> None:
    if value < 0:
        raise UsageError(f"{what} must not be negative, got {value}")


def default_precision() -> int:
    text = os.environ.get("BETADIO_PRECISION", "256")
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < 1:
        raise UsageError(f"BETADIO_PRECISION must be a positive integer, not {text!r}")
    return bits


def _emit(args, payload: dict, config: dict, plain=None):
    """JSON (with embedded config and version) to files; for stdout, a bare
    value when the command has a natural one-liner."""
    config.setdefault("precision_bits", default_precision())
    if plain is not None and not getattr(args, "output", None):
        print(plain)
        return
    # json is imported only where it is written or read, so that a command
    # with a plain-text answer never loads it
    import json
    text = json.dumps({"version": __version__, "config": config, **payload}, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_digits(args, word: DigitWord, sidecar: dict, config: dict):
    from .words import write_digit_file
    config.setdefault("precision_bits", default_precision())
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            write_digit_file(fh, word.base, word)
        side = {"version": __version__, "config": config, **sidecar}
        import json
        with open(args.output + ".json", "w") as fh:
            json.dump(side, fh, indent=2)
            fh.write("\n")
    else:
        write_digit_file(sys.stdout, word.base, word)


def _scalar_dict(s) -> dict:
    return {"lower": f"{s.lo.value.numerator}/{s.lo.value.denominator}",
            "upper": f"{s.hi.value.numerator}/{s.hi.value.denominator}",
            "float": float(s.mid)}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_expand(args):
    if args.digits < 1:
        raise UsageError(f"expand needs --digits >= 1, got {args.digits}")
    cfg = {"cmd": "expand", "digits": args.digits}
    if args.base and not args.beta:
        from .bary import expand_lacunary, expand_rational
        cfg["base"] = args.base
        if args.lacunary:
            cfg["lacunary"] = args.lacunary
            rule = "squared-power" if args.lacunary == "squared-power" else _fraction(args.lacunary)
            word = expand_lacunary(args.base, rule, args.digits)
        else:
            x = _fraction(args.x)
            cfg["x"] = str(x)
            word = expand_rational(x.numerator, x.denominator, args.base, args.digits)
    else:
        if not args.beta:
            raise UsageError("need --base or --beta")
        from .beta_shift import BetaSystem, greedy_expand
        cfg["beta"] = args.beta
        x = _fraction(args.x)
        cfg["x"] = str(x)
        system = BetaSystem.parse(args.beta, default_precision())
        word = greedy_expand(system, x, args.digits)
    _emit_digits(args, word, {}, cfg)
    return 0


def _cmd_expand_one(args):
    if args.digits < 1:
        raise UsageError(f"expand-one needs --digits >= 1, got {args.digits}")
    from .beta_shift import BetaSystem, expansion_of_one_star
    system = BetaSystem.parse(args.beta, default_precision())
    word = expansion_of_one_star(system, args.digits)
    _emit_digits(args, word, {}, {"cmd": "expand-one", "beta": args.beta,
                                  "digits": args.digits})
    return 0


def _cmd_admissible(args):
    _need(args, f"admissible {args.action}", "word" if args.action == "check" else "len")
    if args.action != "check":
        _not_negative(args.len, "--len")
    from .beta_shift import BetaSystem, count_admissible, is_admissible, renyi_bounds_check
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


def _cmd_cylinder(args):
    from .beta_shift import BetaSystem, cylinder
    system = BetaSystem.parse(args.beta, default_precision())
    word = _word(args.word)
    c = cylinder(system, word, bits=default_precision())
    _emit(args, {"word": word, "left": _scalar_dict(c.left),
                 "right": _scalar_dict(c.right), "length": _scalar_dict(c.length),
                 "full": c.full},
          {"cmd": "cylinder", "beta": args.beta})
    return 0


def _cmd_exponents(args):
    from .bary import check_relations, exponents_of_word
    from .words import read_digit_file
    with open(args.input) as fh:
        word = read_digit_file(fh)
    kinds = ("zeros",) if args.zeros_only else ("zeros", "top")
    est = exponents_of_word(word, kinds=kinds)
    rel = check_relations(est, tol=F(1, 100))
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


def _fill_from_args(args) -> FillPolicy:
    from .constructions import FillPolicy
    return FillPolicy.parse(args.fill, seed=args.seed)


def _cmd_construct(args):
    _need(args, f"construct {args.flavor}", *{
        "bary": ("base",), "restricted": ("base", "digit_set"), "beta": ("beta",),
        "param": ("beta0", "beta1", "beta2")}[args.flavor])
    if args.stages < 1:
        raise UsageError(f"construct {args.flavor} needs --stages >= 1")
    from .constructions import (ConstructionSpec, generate_bary, generate_beta,
                                generate_parameter_space)
    cfg = {"cmd": f"construct {args.flavor}", "theta": args.theta, "vhat": args.vhat,
           "stages": args.stages, "fill": args.fill, "seed": args.seed}
    theta, vhat = _fraction(args.theta), _fraction(args.vhat)
    if args.flavor == "bary":
        spec = ConstructionSpec(theta=theta, v_hat=vhat, stages=args.stages,
                                base=args.base, fill=_fill_from_args(args))
        out = generate_bary(spec)
        cfg["base"] = args.base
        _emit_digits(args, out.word, out.to_dict(), cfg)
    elif args.flavor == "restricted":
        ds = _digit_set(args.digit_set, args.base)
        spec = ConstructionSpec(theta=theta, v_hat=vhat, stages=args.stages,
                                base=args.base, digit_set=ds, fill=_fill_from_args(args))
        out = generate_bary(spec)
        cfg.update({"base": args.base, "digit_set": args.digit_set})
        _emit_digits(args, out.word, out.to_dict(), cfg)
    elif args.flavor == "beta":
        from .beta_shift import BetaSystem
        system = BetaSystem.parse(args.beta, default_precision())
        out = generate_beta(system, args.N, theta, vhat, args.stages,
                            _fill_from_args(args))
        cfg.update({"beta": args.beta, "N": args.N})
        _emit_digits(args, out.word, out.to_dict(), cfg)
    else:  # param
        from .beta_shift import BetaSystem
        b0 = BetaSystem.parse(args.beta0, default_precision())
        b1 = BetaSystem.parse(args.beta1, default_precision())
        b2 = BetaSystem.parse(args.beta2, default_precision())
        res = generate_parameter_space(b0, b1, b2, args.N, theta, vhat,
                                       args.stages, _fill_from_args(args))
        cfg.update({"beta0": args.beta0, "beta1": args.beta1, "beta2": args.beta2,
                    "N": args.N})
        side = {"recovered_base": _scalar_dict(res.root.as_scalar(96)),
                "prefix": list(res.prefix),
                "approximant": res.approximant_spec,
                "construction": res.construction.to_dict()}
        _emit_digits(args, res.word, side, cfg)
    return 0


def _cmd_measure(args):
    import json
    with open(args.sidecar) as fh:
        side = json.load(fh)
    sched = side["schedule"]
    cfg = {"cmd": "measure", "sidecar": args.sidecar, "n": args.n}
    if side.get("kind") == "beta" or "N" in sched:
        from .beta_shift import BetaSystem
        from .constructions import BetaLayout
        from .measures_dim import measure_beta
        layout = BetaLayout.from_dict(sched)
        sub = BetaSystem.parse(side["approximant"], default_precision())
        mv = measure_beta(layout, sub, args.n)
        lm = mv.log_mu(default_precision())
        _emit(args, {"n": args.n,
                     "factors": [[length, mult] for length, _c, mult in mv.factors],
                     "log_mu": _scalar_dict(lm)}, cfg)
    else:
        from .bary import DigitSet
        from .constructions import ScheduledRuns
        from .measures_dim import measure_bary
        runs = ScheduledRuns.from_dict(sched)
        base = side.get("base", 0)
        if side.get("digit_set"):
            base = DigitSet(side["base"], frozenset(side["digit_set"]))
        mv = measure_bary(runs, base, args.n, pair=side.get("base") == 2)
        _emit(args, {"n": args.n, "base": mv.base, "exponent": mv.exponent}, cfg)
    return 0


def _cmd_dim(args):
    from .measures_dim import (critical_exponent_s0, digit_set_scale, dim_formula,
                               dim_formula_sup, local_dimension_bary, local_dimension_beta)
    if args.what == "formula":
        vhat = _fraction(args.vhat)
        cfg = {"cmd": "dim formula", "vhat": args.vhat}
        if args.sup or args.theta is None:
            value, theta0 = dim_formula_sup(vhat)
            payload = {"value": str(value), "theta0": None if theta0 is None else str(theta0)}
        else:
            theta = _fraction(args.theta)
            cfg["theta"] = args.theta
            value = dim_formula(theta, vhat)
            payload = {"value": str(value)}
        plain = str(value)
        if args.digit_set:
            from .numerics import Scalar
            ds = _digit_set(args.digit_set, args.base)
            scale = digit_set_scale(ds, default_precision())
            scaled = scale * Scalar.from_fraction(value)
            payload["scale"] = _scalar_dict(scale)
            payload["scaled_value"] = _scalar_dict(scaled)
            cfg.update({"base": args.base, "digit_set": args.digit_set})
            plain = f"{float(scaled.mid):.10f} * (exact rational factor {value})"
        _emit(args, payload, cfg, plain=plain)
    elif args.what == "local":
        if not args.theta:
            raise UsageError("dim local needs --theta")
        theta, vhat = _fraction(args.theta), _fraction(args.vhat)
        tol = _fraction(args.tolerance)
        bits = default_precision()
        if args.beta:
            from .beta_shift import BetaSystem
            system = BetaSystem.parse(args.beta, bits)
            rep = local_dimension_beta(system, args.N, theta, vhat, args.stages, tol, bits)
        elif args.digit_set:
            ds = _digit_set(args.digit_set, args.base)
            rep = local_dimension_bary(theta, vhat, ds, args.stages, tol, bits)
        else:
            rep = local_dimension_bary(theta, vhat, args.base, args.stages, tol, bits)
        if args.format == "csv":
            text = rep.to_csv()
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                print(text, end="")
        else:
            _emit(args, rep.to_json_dict(), {"cmd": "dim local", "theta": args.theta,
                                             "vhat": args.vhat, "stages": args.stages,
                                             "beta": args.beta, "base": args.base,
                                             "digit_set": args.digit_set, "N": args.N})
    else:  # s0
        if not args.theta:
            raise UsageError("dim s0 needs --theta")
        theta, vhat, eps = _fraction(args.theta), _fraction(args.vhat), _fraction(args.eps)
        value = critical_exponent_s0(theta, vhat, eps)
        _emit(args, {"s0": str(value)},
              {"cmd": "dim s0", "theta": args.theta, "vhat": args.vhat, "eps": args.eps},
              plain=str(value))
    return 0


def _cmd_parry(args):
    from .beta_shift import is_self_admissible, parry_invert
    from .words import PeriodicWord
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
        if args.bits < 1:
            raise UsageError(f"parry invert needs --bits >= 1, got {args.bits}")
        root = parry_invert(word, precision=args.bits)
        s = root.as_scalar(args.bits)
        _emit(args, {"word": word_desc, "beta": _scalar_dict(s)}, cfg,
              plain=f"{float(s.mid):.15f}")
    return 0


def _cmd_reprove(args):
    from .measures_dim import reprove_dim_limit
    rep = reprove_dim_limit(_fraction(args.v), [_fraction(t) for t in args.thetas])
    _emit(args, {"limit": str(rep["limit"]), "monotone": rep["monotone"],
                 "values": [[str(t), str(v)] for t, v in rep["values"]]},
          {"cmd": "dim reprove", "v": args.v, "thetas": args.thetas})
    return 0


# ---------------------------------------------------------------------------
# the option table
#
# Per subcommand: handler, help, and its arguments as (flags, kind, default)
# or (flags, kind, default, help).  Flags without a leading "-" name the
# positional.  kind is str or int for one value, a tuple of choices, bool
# for a store_true switch, or list for one or more values; a default of ...
# marks a required argument.  The dest is the first flag without its dashes,
# "-" read as "_", as argparse derives it.  Every subcommand also takes
# _OUTPUT.

_COMMANDS = {
    "expand": (_cmd_expand, "digits of x in an integer or real base", (
        ("--base", int, None), ("--beta", str, None), ("--x", str, "0"),
        ("--lacunary", str, None, "rational v for the sparse series, or squared-power"),
        ("--digits", int, ...))),
    "expand-one": (_cmd_expand_one, "infinite expansion of 1", (
        ("--beta", str, ...), ("--digits", int, ...))),
    "admissible": (_cmd_admissible, "count/list/check admissible words", (
        ("action", ("count", "list", "check"), ...), ("--beta", str, ...),
        ("--len", int, None), ("--word", str, None),
        ("--renyi", bool, False, "attach the count bounds check"))),
    "cylinder": (_cmd_cylinder, "certified basic-interval endpoints", (
        ("--beta", str, ...), ("--word", str, ...))),
    "exponents": (_cmd_exponents, "run analysis of a digit file", (
        ("--input", str, ...), ("--zeros-only", bool, False), ("--trajectory", bool, False))),
    "construct": (_cmd_construct, "generate construction digit words", (
        ("flavor", ("bary", "beta", "param", "restricted"), ...),
        ("--theta", str, ...), ("--vhat", str, ...), ("--stages", int, 8),
        ("--fill", str, "const:1"), ("--seed", int, 0), ("--base", int, None),
        ("--digit-set", str, None), ("--beta", str, None), ("--beta0", str, None),
        ("--beta1", str, None), ("--beta2", str, None), ("--N", int, 3))),
    "measure": (_cmd_measure, "cylinder mass from a construction sidecar", (
        ("--sidecar", str, ...), ("--n", int, ...))),
    "dim": (_cmd_dim, "dimension formulas and trajectories", (
        ("what", ("formula", "local", "s0"), ...), ("--theta", str, None),
        ("--vhat", str, ...), ("--sup", bool, False), ("--eps", str, "0"),
        ("--base", int, 3), ("--digit-set", str, None), ("--beta", str, None),
        ("--N", int, 3), ("--stages", int, 12), ("--tolerance", str, "1/50"),
        ("--format", ("json", "csv"), "json"))),
    "parry": (_cmd_parry, "self-admissibility and base inversion", (
        ("action", ("check", "invert"), ...), ("--word", str, ...), ("--bits", int, 128))),
    "reprove": (_cmd_reprove, "prescribed-pair limit along a theta grid", (
        ("--v", str, ...), ("--thetas", list, ...))),
}
_OUTPUT = ("--output -o", str, None, "write to file instead of stdout")


def _dest(flags: str) -> str:
    return flags.split()[0].lstrip("-").replace("-", "_")


def _read(argv: list) -> SimpleNamespace | None:
    """The exact-match reader: the parsed argv, or None to defer to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _summary, arguments = _COMMANDS[argv[0]]
    fields, flags = {"command": argv[0], "fn": fn}, {}
    for names, kind, default, *_help in (*arguments, _OUTPUT):
        fields[_dest(names)] = default
        for flag in names.split() if names[0] == "-" else [None]:  # None: the positional
            flags[flag] = _dest(names), kind
    given, kind, need = set(), None, False  # need: the option `kind` still lacks a value
    for token in argv[1:]:
        flag = token if token.startswith("-") else None
        if flag or kind is None:
            if need or flag not in flags or flags[flag][0] in given:
                return None
            dest, kind = flags[flag]
            given.add(dest)
            if kind is bool:
                fields[dest], kind = True, None
            elif kind is list:
                fields[dest] = []
            need = kind is not None
            if flag:
                continue
        try:
            value = int(token) if kind is int else token
        except ValueError:
            return None
        if isinstance(kind, tuple) and value not in kind:
            return None
        if kind is list:
            fields[dest].append(value)
        else:
            fields[dest], kind = value, None
        need = False
    if need or any(d is ... and _dest(f) not in given for f, _k, d, *_h in arguments):
        return None
    return SimpleNamespace(**fields)


def build_parser():
    """The argparse parser of the same table: it parses whatever the reader
    declines, and owns help, usage and every error message."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    p = _Parser(prog="betadio", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, summary, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for flags, kind, default, *text in (*arguments, _OUTPUT):
            kw = {"help": text[0] if text else None}
            if kind is bool:
                kw["action"] = "store_true"
            elif kind is int:
                kw["type"] = int
            elif kind is list:
                kw["nargs"] = "+"
            elif kind is not str:
                kw["choices"] = kind
            if flags.startswith("-"):
                kw["required"] = default is ...
                kw["default"] = None if default is ... else default
            sp.add_argument(*flags.split(), **kw)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    # exact counts run past CPython's 4300-digit int-to-str limit (3.10.7+)
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        args = _read(argv) or build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args is not None and not args.output:
            # the reader of stdout closed it early (``| head``): not an error;
            # stdout goes to os.devnull so that the flush at exit is silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
