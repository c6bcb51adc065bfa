"""The exit-code contract, fuzzed with argvs drawn from the option table.

Every argv is built from ``cli._COMMANDS``: a command, its action, the
rows the action needs or reads more often than the others, each flag in one
of its spellings, sometimes as ``--flag=value`` so that argparse reads it.
An integer row with a least value draws that value, one below it and a few
above; other values come from a small vocabulary per flag, edge cases
included, so a new option is fuzzed the day it lands.  Paths are fixture
files: a digit file, genuine and badly typed construction sidecars, ``{}``,
``/dev/null``, a directory and a missing path; ``-o`` writes only under the
test's own directory.  Sizes are bounded: lengths, depths and stages at
most 12, short words.

Each example runs ``main()`` in process and must exit 0-3; stderr must be
empty on success and otherwise one line whose prefix names the exit code,
never a traceback.  The library's logged warnings (a clamped fill) go to a
handler of the test, so stderr holds only what ``main`` prints.
"""

import io
import json
import logging
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadio import cli

PREFIXES = {1: ("usage error:",), 2: ("infeasible:", "error:"),
            3: ("precision exhausted:",)}
BASES = (["root:1,1", "int:2", "rat:3/2", "rat:7/5", "word:1,0,1", "root:1,0,2",
          "approx:root:1,1,1:3"], ["root:", "rat:1/0", "word:", "x", "int:1", "rat:-3/2", "root:0"])
THETAS = (["3", "2", "5/2"], ["1/3", "0", "x", "1/0", "-3"])
TEXT = {  # (good, bad) values per str flag; a flag not named here draws from WORDS
    "--beta": BASES, "--beta0": BASES, "--beta1": BASES, "--beta2": BASES,
    "--theta": THETAS, "--thetas": THETAS, "--vhat": (["1/3", "1/2", "1/5"], ["0", "1", "x"]),
    "--v": (["1", "1/3", "2"], ["0", "x"]), "--x": (["1/3", "0"], ["1", "7/3", "1/0", "x"]),
    "--word": (["1,0", "1,1,0", "1,0,1", "(1,0)", "1,(1,0)"], ["2", "0", "", "1,a"]),
    "--lacunary": (["1/2", "squared-power"], ["0", "2", "x"]),
    "--digit-set": (["0,2", "0,1"], ["0,5", "", "x"]),
    "--fill": (["const:1", "const:0", "random"], ["const:-1", "const:abc", "foo"]),
    "--eps": (["0", "1/3"], ["1", "x"]), "--tolerance": (["1/50", "1"], ["0", "x"]),
    "--input": (["@digits"], ["@bary.json", "@dir", "@missing", "@null"]),
    "--sidecar": (["@bary.json", "@beta.json", "@restricted.json"],
                  ["@approximant.json", "@digit_set.json", "@n.json", "@base.json",
                   "@empty.json", "@digits", "@dir", "@missing", "@null"]),
    "--output": (["@out/o"], ["@out", "@missing/o"]),
}
WORDS = (["3", "1/3"], ["0", "x", ""])
CAP = 12  # the largest length, depth, stage count or bit count drawn


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The fixture files by name, plus /dev/null, and the directory for -o."""
    root = tmp_path_factory.mktemp("exit_codes")
    made = root / "made"
    made.mkdir()
    for flavor, extra in [("bary", ["--base", "3"]),
                          ("restricted", ["--base", "3", "--digit-set", "0,2"]),
                          ("beta", ["--beta", "root:1,1", "--N", "3"])]:
        with redirect_stderr(io.StringIO()):
            assert cli.main(["construct", flavor, "--theta", "3", "--vhat", "1/3", "--stages",
                             "2", *extra, "-o", str(made / flavor)]) == 0
    paths = {"digits": made / "bary", "dir": made, "missing": root / "missing",
             "empty.json": root / "empty.json"}
    paths["empty.json"].write_text("{}")
    for flavor in ("bary", "beta", "restricted"):
        paths[f"{flavor}.json"] = made / f"{flavor}.json"
    for name, flavor, key, value in [("approximant", "beta", "approximant", 5),
                                     ("digit_set", "restricted", "digit_set", 5),
                                     ("n", "bary", "n", "12"), ("base", "bary", "base", "3")]:
        side = json.loads((made / f"{flavor}.json").read_text())
        (side["schedule"] if key == "n" else side)[key] = value
        paths[f"{name}.json"] = root / f"{name}.json"
        paths[f"{name}.json"].write_text(json.dumps(side))
    out = root / "out"
    out.mkdir()
    return {name: str(path) for name, path in paths.items()} | {"null": os.devnull,
                                                               "out": str(out)}


def chance(draw, tenths: int) -> bool:
    return draw(st.integers(0, 9)) < tenths


@st.composite
def values(draw, flags: str, kind) -> list[str]:
    """The tokens that follow a flag of this row: mostly good, sometimes bad."""
    if kind is bool:
        return []
    if isinstance(kind, tuple):
        return [draw(st.sampled_from(kind)) if chance(draw, 9) else "x"]
    if isinstance(kind, int) or kind is int:  # an int kind is the row's least value
        least = kind if isinstance(kind, int) else 0
        return [str(draw(st.integers(least - 1, CAP)))]
    good, bad = TEXT.get(flags.split()[0], WORDS)
    words = st.sampled_from(good if chance(draw, 8) else bad)
    if kind is list:
        return draw(st.lists(words, min_size=1, max_size=3))
    return [draw(words)]


@st.composite
def argvs(draw):
    """An argv of one command: an action (its positional) nearly always,
    the options the action needs mostly, those it reads half the time, and
    now and then one it does not read; then a BETADIO_PRECISION."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    rows = cli._COMMANDS[name][2]
    action = next((draw(st.sampled_from(k)) for f, k, *_r in rows if f[0] != "-"), "")
    argv = [name, action] if action and chance(draw, 9) else [name]
    for flags, kind, default, *reads in (*rows, cli._OUTPUT):
        spec = reads[0].split() if reads and reads[0] else [action]
        odds = 9 if default is ... or action + "!" in spec else 5 if action in spec else 1
        if flags[0] != "-" or not chance(draw, odds):
            continue
        tokens = draw(values(flags, kind))
        flag = draw(st.sampled_from(flags.split()))
        if len(tokens) == 1 and chance(draw, 3):
            argv.append(f"{flag}={tokens[0]}")
        else:
            argv += [flag, *tokens]
    return argv, draw(st.sampled_from([*[None] * 8, "8", "abc"]))


def resolve(files, token: str) -> str:
    """The token with its "@<fixture>[/<rest>]" path, if any, made real."""
    flag, at, path = token.partition("@")
    if not at:
        return token
    head, slash, rest = path.partition("/")
    return flag + (os.path.join(files[head], rest) if slash else files[head])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn=argvs())
def test_every_exit_is_0_to_3_with_one_line_of_stderr(files, drawn):
    argv, precision = drawn
    argv = [resolve(files, token) for token in argv]
    out, err, logged = io.StringIO(), io.StringIO(), logging.NullHandler()
    logger = logging.getLogger("betadio")
    saved = os.environ.pop("BETADIO_PRECISION", None)
    if precision is not None:
        os.environ["BETADIO_PRECISION"] = precision
    logger.addHandler(logged)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        logger.removeHandler(logged)
        os.environ.pop("BETADIO_PRECISION", None)
        if saved is not None:
            os.environ["BETADIO_PRECISION"] = saved
    text = err.getvalue()
    assert "Traceback" not in text, argv
    if rc == 0:
        assert text == "", argv
    else:
        assert rc in PREFIXES, (argv, rc)
        assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
        assert text.startswith(PREFIXES[rc]), (argv, text)
