"""The exact-match argv reader against argparse.

Wherever ``cli._read`` accepts an argv, its attributes must equal those of
``build_parser().parse_args(argv)``, the parser made from the same table.
The argvs are seeded random ones built from the table's vocabulary plus
junk, every command of the README's CLI block, and every job of the
benchmark's job lists; the reader must accept the last two kinds.
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
    if kind is int:
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
    arguments = [*cli._COMMANDS[name][2], cli._OUTPUT]
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
    """An argument's optional fourth field is its argparse help text."""
    assert cli._COMMANDS["expand"][2][3][3] == "rational v for the sparse series, or squared-power"
    assert cli._COMMANDS["admissible"][2][4][3] == "attach the count bounds check"
    assert cli._OUTPUT[3] == "write to file instead of stdout"
    subparsers = parser._subparsers._group_actions[0].choices
    for name, (_fn, _summary, arguments) in cli._COMMANDS.items():
        helps = {a.dest: a.help for a in subparsers[name]._actions}
        for flags, _kind, _default, *text in (*arguments, cli._OUTPUT):
            assert helps[cli._dest(flags)] == (text[0] if text else None), (name, flags)


def test_reader_accepts_interleaved_positional(parser):
    argv = ["admissible", "--beta", "root:1,1", "count", "--len", "+5", "-o", "c.json"]
    ns = cli._read(argv)
    assert ns is not None and vars(ns) == parsed(parser, argv)
    assert (ns.action, ns.len, ns.output, ns.renyi) == ("count", 5, "c.json", False)


def test_reader_accepts_every_readme_command(parser):
    commands = readme_commands()
    assert len(commands) >= 20
    for argv, _value in commands:
        ns = cli._read(argv)
        assert ns is not None, argv
        assert vars(ns) == parsed(parser, argv), argv


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
