"""The option table: the exact-match argv reader against argparse, and the
check of which action reads which option.

Wherever ``cli._read`` accepts an argv, its attributes must equal those of
``build_parser().parse_args(argv)``, the parser made from the same table.
The argvs are seeded random ones built from the table's vocabulary plus
junk, every command of the README's CLI block, and every job of the
benchmark's job lists; the reader and ``cli._check`` must accept the last
two kinds.  The refusals of ``cli._check``, an integer below its row's
least value among them, are generated from the table, so a new row is
covered the day it lands.
"""

import random
import sys
from pathlib import Path

import pytest

from betadio import cli
from test_readme import readme_commands

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

JUNK = ["-h", "--help", "--version", "--", "-1", "-0", "-x", "-", "", "x", "=", "1/3", "3",
        "--theta=3", "-o=x", "-ox", "--the", "--dig", "--out", "--Beta", "--N=3", "formula",
        "count", "dim", " 7", "+5", "1_0", "٣", "--no-such-flag"]
WORDS = ["3", "1/3", "root:1,1", "rat:3/2", "0,1,1,0", "(1,0)", "e.digits", "const:0", "x",
         "a=b", "7", "0"]


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


def parsed(parser, argv) -> dict:
    return vars(parser.parse_args(argv))


def value_tokens(rng, kind) -> list[str]:
    """Mostly good values for an argument of this kind, sometimes bad ones."""
    if rng.random() < 0.1:
        return rng.choice([[], ["-3"], ["-1/3"], ["--x"], ["x"], ["other"], ["1/2"]])
    if kind is int or isinstance(kind, int):  # an int kind is the least value
        return [rng.choice([str(rng.randint(0, 40)), " 4", "+6", "1_0"])]
    if isinstance(kind, tuple):
        return [rng.choice(kind)]
    if kind is list:
        return [rng.choice(WORDS) for _ in range(rng.randint(1, 3))]
    return [rng.choice(WORDS)]


def random_argv(rng) -> list[str]:
    """A command's arguments in random order, most of them well formed, then
    up to three corruptions drawn from JUNK, duplicates and dropped tokens."""
    name = rng.choice(list(cli._COMMANDS))
    arguments = [*cli._COMMANDS[name][1], cli._OUTPUT]
    rng.shuffle(arguments)
    argv = [name]
    for flags, kind, default, *_help in arguments:
        if rng.random() > (0.97 if default is ... else 0.4):
            continue
        if not flags.startswith("-"):
            argv += value_tokens(rng, kind)
            continue
        argv.append(rng.choice(flags.split()))
        if kind is not bool:
            argv += value_tokens(rng, kind)
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        i = rng.randrange(len(argv) + 1)
        move = rng.randrange(4)
        if move == 0:
            argv.insert(i, rng.choice(JUNK))
        elif move == 1 and argv:
            argv.insert(i, rng.choice(argv))  # a duplicate
        elif move == 2 and i < len(argv):
            del argv[i]
        else:
            argv.insert(i, rng.choice(list(cli._COMMANDS)))
    return argv


def test_reader_matches_argparse_on_random_argvs(parser):
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(4000):
        argv = random_argv(rng)
        ns = cli._read(argv)
        if ns is not None:
            accepted += 1
            assert vars(ns) == parsed(parser, argv), argv
    assert accepted >= 1000  # the oracle covers the accepting path, not only declines


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--version"], ["bogus"], ["dim"],
    ["dim", "formula", "--theta=3", "--vhat", "1/3"],
    ["dim", "formula", "--thet", "3", "--vhat", "1/3"],
    ["dim", "formula", "--theta", "3", "--theta", "3", "--vhat", "1/3"],
    ["dim", "formula", "--vhat", "1/3", "-o", "a", "--output", "b"],
    ["dim", "formula", "--vhat", "1/3", "--"],
    ["dim", "formula", "--vhat", "-1/3"],
    ["dim", "formula", "--vhat", "1/3", "extra"],
    ["dim", "formula", "formula", "--vhat", "1/3"],
    ["dim", "other", "--vhat", "1/3"],
    ["dim", "formula", "--vhat", "1/3", "--format", "xml"],
    ["dim", "formula", "--vhat", "1/3", "-h"],
    ["dim", "formula", "--vhat"],
    ["dim", "formula", "--vhat", "--sup"],
    ["dim", "formula"],
    ["expand", "--digits", "x"],
    ["reprove", "--v", "1", "--thetas"],
    ["reprove", "--v", "1", "--thetas", "4", "-8"],
    ["parry", "check", "--word", "1,0", "-ox"],
])
def test_reader_declines(argv):
    assert cli._read(argv) is None


def test_option_help_comes_from_the_table(parser):
    """An argument's optional fifth field is its argparse help text."""
    assert cli._COMMANDS["expand"][1][3][4] == "rational v for the sparse series, or squared-power"
    assert cli._COMMANDS["admissible"][1][4][4] == "attach the count bounds check"
    assert cli._OUTPUT[4] == "write to file instead of stdout"
    subparsers = parser._subparsers._group_actions[0].choices
    for name, (_summary, arguments, *_pairs) in cli._COMMANDS.items():
        helps = {a.dest: a.help for a in subparsers[name]._actions}
        for flags, _kind, _default, *text in (*arguments, cli._OUTPUT):
            assert helps[cli._dest(flags)] == (text[1] if text[1:] else None), (name, flags)


def test_reader_accepts_interleaved_positional(parser):
    argv = ["admissible", "--beta", "root:1,1", "count", "--len", "+5", "-o", "c.json"]
    ns = cli._read(argv)
    assert ns is not None and vars(ns) == parsed(parser, argv)
    assert (ns.action, ns.len, ns.output, ns.renyi) == ("count", 5, "c.json", None)
    cli._check(ns)
    assert ns.renyi is False


def test_reader_accepts_every_readme_command(parser):
    commands = readme_commands()
    assert len(commands) >= 20
    for argv, _value in commands:
        ns = cli._read(argv)
        assert ns is not None, argv
        assert vars(ns) == parsed(parser, argv), argv
        cli._check(ns)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reader_accepts_every_benchmark_job(parser, seed):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import jobs
    finally:
        sys.path.remove(str(PERFBENCH))
    for workload in jobs.WORKLOADS:
        for job in jobs.make_jobs(workload, seed):
            ns = cli._read(job.argv)
            assert ns is not None, job.argv
            assert vars(ns) == parsed(parser, job.argv), job.argv
            cli._check(ns)


# -- the check: which action reads which option ------------------------------

def value(kind) -> list[str]:
    return [] if kind is bool else [kind[0]] if isinstance(kind, tuple) else ["3"]


def actions(name) -> tuple:
    """The command's actions, or ("",) when it has no positional."""
    return next((kind for flags, kind, *_r in cli._COMMANDS[name][1] if flags[0] != "-"), ("",))


def reads(row, action) -> str:
    """"needs", "reads" or "" for what the action does with the row's option."""
    spec = row[3].split() if row[3:] and row[3] else [action]
    return "needs" if action + "!" in spec else "reads" if action in spec else ""


def valid_argv(name, action, without=()) -> list[str]:
    """The command with its action, every option that the action requires,
    and the first of each "A or B" pair; none of the options in without, and
    no "A needs B" rule's A."""
    _summary, rows, *pairs = cli._COMMANDS[name]
    argv = [name, action] if action else [name]
    for row in rows:
        flags, kind, default = row[:3]
        if flags[0] == "-" and flags not in without and (
                default is ... or reads(row, action) == "needs"):
            argv += [flags, *value(kind)]
    for first, *either, second in (pair.split() for pair in pairs if "needs" not in pair):
        if either and not {first, second} & set(without):
            argv += [first, *value(next(r[1] for r in rows if r[0] == first))]
    return argv


def refusals():
    """(argv, message) for every option an action does not read, every
    excluded pair given together, every required option left out, and every
    option given without the option or value it is read with."""
    for name, (_summary, rows, *pairs) in cli._COMMANDS.items():
        kinds = {row[0]: row[1] for row in rows}
        for action in actions(name):
            what = f"{name} {action}".strip()
            for row in rows:
                if not reads(row, action):
                    yield ([*valid_argv(name, action), row[0], *value(row[1])],
                           f"{what} does not take {row[0]}")
                elif reads(row, action) == "needs" and row[2] is not ...:
                    yield valid_argv(name, action, [row[0]]), f"{what} needs {row[0]}"
        for pair in pairs:
            if "needs" in pair:
                *only, first, _needs, second = pair.split()
                flag, _eq, needed = second.partition("=")
                action = only[0] if only else next(
                    a for a in actions(name) if reads(next(r for r in rows if r[0] == first), a))
                argv = valid_argv(name, action, [first, flag])
                yield ([*argv, first, *value(kinds[first])],
                       f"{f'{name} {action}'.strip()} {first} needs {flag} {needed}".rstrip())
                continue
            first, *either, second = pair.split()
            action = next(a for a in actions(name) if all(
                reads(row, a) for row in rows if row[0] in (first, second)))
            what = f"{name} {action}".strip()
            argv = valid_argv(name, action, [first, second])
            yield ([*argv, first, *value(kinds[first]), second, *value(kinds[second])],
                   f"{what} {first} does not take {second}")
            if either:
                yield argv, f"need {pair}"


REFUSALS = list(refusals())


def test_the_refusals_cover_the_table():
    assert len(REFUSALS) >= 60
    assert (["parry", "check", "--word", "3", "--bits", "3"],
            "parry check does not take --bits") in REFUSALS


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(a) for a, _m in REFUSALS])
def test_the_check_refuses(tmp_path, capsys, argv, message):
    """One usage error, before the handler runs: no -o file is made."""
    out = tmp_path / "out"
    assert cli.main([*argv, "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert not out.exists()


def partners(name, action, flags) -> list[str]:
    """The options, with their values, that "A needs B" rules ask of the
    option flags under the action."""
    _summary, rows, *pairs = cli._COMMANDS[name]
    argv = []
    for *only, first, _needs, second in (pair.split() for pair in pairs if "needs" in pair):
        flag, _eq, needed = second.partition("=")
        if first == flags and action in (only or [action]):
            argv += [flag, *([needed] if needed else value(next(r[1] for r in rows
                                                                 if r[0] == flag)))]
    return argv


def least_values():
    """(argv, message, argv at the least value) for every integer option whose
    row gives a least value, once as two tokens (the exact-match reader) and
    once as --flag=value (argparse)."""
    for name, (_summary, rows, *_pairs) in cli._COMMANDS.items():
        for row in rows:
            flags, least = row[:2]
            if not isinstance(least, int):
                continue
            action = next(a for a in actions(name) if reads(row, a))
            argv = valid_argv(name, action, [flags]) + partners(name, action, flags)
            message = f"{f'{name} {action}'.strip()} needs {flags} >= {least}, got {least - 1}"
            yield [*argv, flags, str(least - 1)], message, [*argv, flags, str(least)]
            yield [*argv, f"{flags}={least - 1}"], message, [*argv, f"{flags}={least}"]


LEAST = list(least_values())


def test_the_least_values_are_in_their_rows():
    assert {(argv[0], message.split(" needs ")[1]) for argv, message, _least in LEAST} == {
        ("expand", "--digits >= 1, got 0"), ("expand-one", "--digits >= 1, got 0"),
        ("admissible", "--len >= 0, got -1"), ("construct", "--stages >= 1, got 0"),
        ("measure", "--n >= 0, got -1"), ("parry", "--bits >= 1, got 0"),
        ("dim", "--stages >= 0, got -1"), ("expand", "--base >= 2, got 1"),
        ("construct", "--base >= 2, got 1"), ("construct", "--N >= 1, got 0"),
        ("dim", "--base >= 2, got 1"), ("dim", "--N >= 1, got 0")}
    assert len(LEAST) == 24


@pytest.mark.parametrize("argv, message, least", LEAST, ids=[" ".join(a) for a, *_r in LEAST])
def test_an_integer_below_its_least_value_is_refused(tmp_path, capsys, parser, argv, message,
                                                     least):
    """Through either reader: one usage error before the handler runs, and
    the least value itself passes the check."""
    out = tmp_path / "out"
    assert cli.main([*argv, "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert not out.exists()
    ns = cli._read(least) or parser.parse_args(least)
    cli._check(ns)


def test_the_check_fills_in_the_defaults():
    ns = cli._read(["dim", "local", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1"])
    assert (ns.base, ns.N, ns.stages, ns.sup, ns.digit_set) == (None, None, None, None, None)
    cli._check(ns)
    assert (ns.base, ns.N, ns.stages, ns.sup, ns.digit_set) == (3, 3, 12, False, None)
