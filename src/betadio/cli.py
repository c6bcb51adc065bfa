"""Command-line front end.

Reproducible batch runs over the library: every JSON output embeds the
resolved run configuration and the library version, digit outputs use the
``base=<b>`` file format, and constructions always write a JSON sidecar with
the full schedule next to the digit file.

Exit codes: 0 success, 1 usage error, 2 infeasible/domain error, a bad
file or too little memory, 3 precision exhausted; a stdout closed by its
reader (``| head``) is a success, a broken pipe on an ``--output`` file or
a stdout that cannot be written (a full disk) is not.

Two readers share one option table, ``_COMMANDS``.  The exact-match reader
``_read`` accepts, without importing argparse, a subcommand, its exact
flags each given once with a value not starting with ``-`` (one or more for
a list), one positional from its choices, every required option and
integer values that convert.  Anything else (``-h``, ``--version``,
``--flag=value``, abbreviations, ``--``, unknown or extra tokens) goes to
``build_parser()``: argparse owns help, usage and every error message.  Its
code lives in ``usage``, which only that path compiles.
Both give ``None`` for an option not given.  Then ``_check`` fills in the
defaults and refuses, with one usage error, an option the action needs and
lacks or does not read, two that exclude each other, one given without the
option (or the value) it is read with, or an integer below its least value;
only then is the subcommand's own handler module imported.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import DomainError, PrecisionError, UsageError

# ---------------------------------------------------------------------------
# the option table
#
# Per subcommand: its help, its arguments, then the pairs of options that
# exclude each other ("A or B": one of them is also needed), and "A needs
# B": A is read only with B given, or with B's value v ("B=v"); an action
# before A limits the rule to that action.  Its handler is ``run`` of the
# module named after it, ``commands.<name>`` with "-" read as "_".
# An argument is (flags, kind, default[, reads[, help]]); flags without a
# "-" name the positional, the action.  kind is str or int for one value, an
# int k for an integer of at least k, a tuple of choices, bool for a
# store_true switch, or list for one or more values.  A default of ...
# marks an argument every action needs.  reads names the actions that read
# it, "!" after those that need it (None: all).
# The dest is the first flag without its dashes, "-" read as "_", as
# argparse derives it.  Every subcommand also takes _OUTPUT.

_COMMANDS = {
    "expand": ("digits of x in an integer or real base", (
        ("--base", 2, None), ("--beta", str, None), ("--x", str, "0"),
        ("--lacunary", str, None, None, "rational v for the sparse series, or squared-power"),
        ("--digits", 1, ...)), "--base or --beta", "--beta --lacunary", "--lacunary --x"),
    "expand-one": ("infinite expansion of 1", (
        ("--beta", str, ...), ("--digits", 1, ...))),
    "admissible": ("count/list/check admissible words", (
        ("action", ("count", "list", "check"), ...), ("--beta", str, ...),
        ("--len", 0, None, "count! list!"), ("--word", str, None, "check!"),
        ("--renyi", bool, False, "count", "attach the count bounds check"))),
    "cylinder": ("certified basic-interval endpoints", (
        ("--beta", str, ...), ("--word", str, ...))),
    "exponents": ("run analysis of a digit file", (
        ("--input", str, ...), ("--zeros-only", bool, False), ("--trajectory", bool, False))),
    "construct": ("generate construction digit words", (
        ("flavor", ("bary", "beta", "param", "restricted"), ...), ("--theta", str, ...),
        ("--vhat", str, ...), ("--stages", 1, 8), ("--fill", str, "const:1"), ("--seed", int, 0),
        ("--base", 2, None, "bary! restricted!"), ("--digit-set", str, None, "restricted!"),
        ("--beta", str, None, "beta!"), ("--beta0", str, None, "param!"),
        ("--beta1", str, None, "param!"), ("--beta2", str, None, "param!"),
        ("--N", 1, 3, "beta param")), "--seed needs --fill=random"),
    "measure": ("cylinder mass from a construction sidecar", (
        ("--sidecar", str, ...), ("--n", 0, ...))),
    "dim": ("dimension formulas and trajectories", (
        ("what", ("formula", "local", "s0"), ...), ("--theta", str, None, "formula local! s0!"),
        ("--vhat", str, ...), ("--sup", bool, False, "formula"), ("--eps", str, "0", "s0"),
        ("--base", 2, 3, "formula local"), ("--digit-set", str, None, "formula local"),
        ("--beta", str, None, "local"), ("--N", 1, 3, "local"), ("--stages", 0, 12, "local"),
        ("--tolerance", str, "1/50", "local"), ("--format", ("json", "csv"), "json", "local")),
        "--beta --base", "--beta --digit-set", "--sup --theta", "--N needs --beta",
        "formula --base needs --digit-set"),
    "parry": ("self-admissibility and base inversion", (
        ("action", ("check", "invert"), ...), ("--word", str, ...),
        ("--bits", 1, 128, "invert"))),
    "reprove": ("prescribed-pair limit along a theta grid", (
        ("--v", str, ...), ("--thetas", list, ...))),
}
_OUTPUT = ("--output -o", str, None, None, "write to file instead of stdout")


def _dest(flags: str) -> str:
    return flags.split()[0].lstrip("-").replace("-", "_")


def _read(argv: list) -> SimpleNamespace | None:
    """The exact-match reader: the parsed argv, or None to defer to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][1]
    fields, flags = {"command": argv[0]}, {}
    for names, kind, *_rest in (*arguments, _OUTPUT):
        fields[_dest(names)] = None
        for flag in names.split() if names[0] == "-" else [None]:  # None: the positional
            flags[flag] = _dest(names), int if isinstance(kind, int) else kind
    kind, need = None, False  # need: the option `kind` still lacks a value
    for token in argv[1:]:
        flag = token if token.startswith("-") else None
        if flag or kind is None:
            if need or flag not in flags or fields[flags[flag][0]] is not None:
                return None  # a value missing, or an unknown or repeated token
            dest, kind = flags[flag]
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
    if need or any(d is ... and fields[_dest(f)] is None for f, _k, d, *_r in arguments):
        return None
    return SimpleNamespace(**fields)


def build_parser():
    """The argparse parser of the same table: it parses whatever the reader
    declines, and owns help, usage and every error message."""
    from .usage import table_parser
    return table_parser(__doc__.splitlines()[0], _COMMANDS, _OUTPUT)


def _check(args) -> None:
    """The defaults; one usage error for an option missing, foreign, excluded,
    given without its partner, or too low."""
    _summary, arguments, *pairs = _COMMANDS[args.command]
    action = next((getattr(args, f) for f, *_r in arguments if f[0] != "-"), "")
    what, given, missing, foreign, low = f"{args.command} {action}".strip(), set(), [], [], ""
    for flags, kind, default, *reads in arguments:
        spec = reads[0].split() if reads and reads[0] else [action]
        value = getattr(args, _dest(flags))
        if value is not None:
            given.add(flags)
            if action not in spec and action + "!" not in spec:
                foreign.append(flags)
            elif isinstance(kind, int) and value < kind:
                low = f"{flags} >= {kind}, got {value}"
        elif action + "!" in spec:
            missing.append(flags)
        else:
            setattr(args, _dest(flags), default)
    if missing or foreign:
        raise UsageError(f"{what} needs {' '.join(missing)}" if missing else
                         f"{what} does not take {' '.join(foreign)}")
    for rule in map(str.split, pairs):
        if "needs" in rule:
            *only, first, _needs, second = rule
            flag, _eq, value = second.partition("=")
            unmet = getattr(args, _dest(flag)) != value if value else flag not in given
            if first in given and unmet and action in (only or [action]):
                raise UsageError(f"{what} {first} needs {flag} {value}".rstrip())
            continue
        first, *either, second = rule
        if {first, second} <= given:
            raise UsageError(f"{what} {first} does not take {second}")
        if either and not {first, second} & given:
            raise UsageError(f"need {first} or {second}")
    if low:
        raise UsageError(f"{what} needs {low}")


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
        _check(args)
        from importlib import import_module
        handler = import_module(f".commands.{args.command.replace('-', '_')}", __package__)
        code = handler.run(args)
        print(end="", flush=True)  # a failed write of stdout is reported here, not at exit
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the allocation that failed is not held, so printing works
        print("error: out of memory", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args is not None and not args.output:
            # the reader of stdout closed it early (``| head``): not an error;
            # stdout goes to os.devnull so that a later flush is silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
        if isinstance(exc, OSError) and exc.strerror:  # no "[Errno N]"
            exc = exc.strerror + ("" if exc.filename is None else f": {exc.filename!r}")
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """The ``betadio`` process: ``main()``, then the ``atexit`` callbacks and
    ``os._exit``, which skips the interpreter's teardown: every file the
    library writes is closed by then, and it starts no thread.  A trace or
    profile hook, a ``sys.monitoring`` tool (cProfile and coverage since
    Python 3.12), a debugger (pdb drops its hook once no breakpoint is left)
    or a thread that other code started gets the interpreter's own exit."""
    code = main()
    threading, monitoring = sys.modules.get("threading"), getattr(sys, "monitoring", None)
    if (sys.gettrace() or sys.getprofile() or "bdb" in sys.modules
            or monitoring and any(map(monitoring.get_tool, range(6)))
            or threading and threading.active_count() > 1):
        sys.exit(code)
    import atexit
    atexit._run_exitfuncs()
    for stream in sys.stdout, sys.stderr:  # what the teardown would flush
        try:
            stream.flush()
        except (AttributeError, OSError):  # closed, or full after an error reported
            pass
    os._exit(code)


if __name__ == "__main__":
    entry_point()
