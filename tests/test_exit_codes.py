"""The exit-code contract, fuzzed with argvs drawn from the option table,
and with the contents of the files the commands read.

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

File contents are mutated from valid digit files and sidecars, with a
seeded generator: each run either exits 0 with the output of the file
its mutation leaves unchanged in meaning, or exits 2 with one line and no
Python text.  Running out of memory is checked in a child process whose
address space is capped.
"""

import io
import json
import logging
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadio import cli, digit_files, layout
from betadio.digit_files import write_digit_file

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
    rows = cli._COMMANDS[name][1]
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


# ---------------------------------------------------------------------------
# an option read only with another


PARTNERS = [  # (refused argv, its message, the argv with the partner that reads it)
    ("dim formula --theta 3 --vhat 1/3 --base 5", "dim formula --base needs --digit-set",
     "dim formula --theta 3 --vhat 1/3 --base 5 --digit-set 0,2"),
    ("dim local --theta 3 --vhat 1/3 --stages 3 --N 4", "dim local --N needs --beta",
     "dim local --theta 3 --vhat 1/3 --stages 3 --N 4 --beta root:1,1"),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --stages 2 --seed 7",
     "construct bary --seed needs --fill random",
     "construct bary --theta 3 --vhat 1/3 --base 3 --stages 2 --seed 7 --fill random"),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --stages 2 --seed 7 --fill const:0",
     "construct bary --seed needs --fill random",
     "construct bary --theta 3 --vhat 1/3 --base 3 --stages 2 --fill const:0"),
]


@pytest.mark.parametrize("argv, message, read", PARTNERS, ids=[p[0] for p in PARTNERS])
def test_an_option_without_the_one_it_is_read_with_is_a_usage_error(tmp_path, argv, message,
                                                                     read):
    """Each of these once exited 0 without reading the option."""
    out = ["-o", str(tmp_path / "out")]
    assert run(argv.split() + out) == (1, "", f"usage error: {message}\n")
    rc, _out, err = run(read.split() + out)
    assert (rc, err) == (0, "")
    # dim local --base reads the base it is given, without a digit set
    assert run("dim local --theta 3 --vhat 1/3 --stages 3 --base 5".split() + out)[0] == 0


# ---------------------------------------------------------------------------
# file contents


def run(argv):
    """main(argv) in process: the exit code, stdout and stderr."""
    out, err, logged = io.StringIO(), io.StringIO(), logging.NullHandler()
    logger = logging.getLogger("betadio")
    logger.addHandler(logged)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        logger.removeHandler(logged)
    return rc, out.getvalue(), err.getvalue()


def assert_same_or_one_line(got, want, case):
    """Exit 0 with the output wanted, or exit 2 with one line of ours."""
    rc, out, err = got
    assert "Traceback" not in err and 'File "' not in err, case
    if rc == 0:
        assert (out, err) == (want, ""), case
    else:
        assert rc == 2, (case, rc, err)
        assert err.endswith("\n") and err.count("\n") == 1, (case, err)
        assert err.startswith(PREFIXES[2]), (case, err)


def canonical(base, digits):
    buf = io.StringIO()
    write_digit_file(buf, base, digits)
    return buf.getvalue()


def long_word(rng, base, n):
    """Digits with runs of 0 and b-1 that grow along the word, one of them
    across the reader's first block end."""
    digits = [rng.randrange(1, base - 1) if base > 2 else 1 for _ in range(n)]
    pos, length = 50, 1
    while pos + length < n:
        digits[pos:pos + length] = [rng.choice((0, base - 1))] * length
        pos, length = pos + 3 * length + 20, length + 7
    edge = digit_files._BLOCK  # the digit read at the first block's end
    digits[edge - 60:edge + 60] = [0] * 120
    return digits


def digit_file_cases(rng, base, digits):
    """(what, text, meaning): meaning is the (base, digits) the text holds,
    or None for a text that is not a digit file."""
    text = canonical(base, digits)
    head, body = text.split("\n", 1)
    same = (base, digits)
    spaces = [i for i, c in enumerate(text) if c == " " and i > len(head)]
    edge = 2 * digit_files._BLOCK  # the reader's first block end, in characters
    near = [i for i in spaces if abs(i - edge) < 40] or spaces[-3:]

    def swap(at, new, old_width=1):
        return text[:at] + new + text[at + old_width:]

    token_at = [i + 1 for i in near[:3]] + [len(head) + 1, len(text) - 2]
    cases = [
        ("crlf", text.replace("\n", "\r\n"), same),
        ("one line", head + "\n" + " ".join(map(str, digits)) + "\n", same),
        ("no final newline", text[:-1], same),
        ("blank lines", head + "\n\n \n" + body + "\n\t\n", same),
        ("header with more", head + " digits follow\n" + body, same),
        ("header indented", " " + text, same),
        ("empty", "", None),
        ("no header", body, None),
        ("header only", head + "\n", (base, [])),
        ("base above 256", "base=300\n" + body, (300, digits) if max(digits) < 300 else None),
        ("base 10", "base=10\n" + body, (10, digits) if max(digits) < 10 else None),
    ]
    cases += [(f"header {h!r}", h + "\n" + body, None)
              for h in ("base=1", "base=0", "base=-3", "base=x", "base=", "digits", "base 3")]
    for i in near + rng.sample(spaces, 4):
        for sep in ("\t", "  ", " \n", "\n\n", "\r\n"):
            cases.append((f"separator {sep!r} at {i}", swap(i, sep), same))
    for at in token_at:
        width = len(text[at:].split(None, 1)[0])
        above = str(base if base > 256 else 300)  # not a byte, when the base is one
        for token in (str(base), str(base + 7), "-1", above, "10" * 16, "x", "1.5", "0x1",
                      "1e3", "--", "\u221e"):
            cases.append((f"token {token!r} at {at}", swap(at, token, width), None))
        rest = text[at + width:].split(None, 1)
        if text[at + width:at + width + 1] == " " and int(text[at:at + width] + rest[0]) >= base:
            cases.append((f"tokens run together at {at}", swap(at + width, ""), None))
    return cases


@pytest.fixture(scope="module")
def digit_files_to_mutate(files):
    rng = random.Random(23)
    with open(files["digits"]) as fh:
        small = fh.read()
    head, body = small.split("\n", 1)
    base = int(head[5:])
    words = [(base, list(map(int, body.split()))),
             (3, long_word(rng, 3, digit_files._BLOCK + 4000)),
             (1000, [rng.choice((0, 999, 5, 123)) for _ in range(digit_files._BLOCK)])]
    for base, digits in words[1:]:
        assert len(canonical(base, digits)) > 2 * digit_files._BLOCK
    return words


def test_mutated_digit_files_exit_0_with_their_output_or_2_with_one_line(
        tmp_path, digit_files_to_mutate):
    rng = random.Random(5)
    path, reference, checked = tmp_path / "mutated.digits", {}, 0
    for base, digits in digit_files_to_mutate:
        for what, text, meaning in digit_file_cases(rng, base, digits):
            want = ""
            if meaning is not None:
                key = (meaning[0], tuple(meaning[1]))
                if key not in reference:
                    path.write_text(canonical(*meaning))
                    rc, reference[key], _err = run(["exponents", "--input", str(path)])
                    assert rc == 0
                want = reference[key].replace(str(path), "@")
            path.write_bytes(text.encode())
            rc, out, err = run(["exponents", "--input", str(path)])
            got = (rc, out.replace(str(path), "@"), err)
            if meaning is None:
                assert rc == 2, (base, what, out)
            assert_same_or_one_line(got, want, (base, what))
            checked += 1
    assert checked > 250


SIDECAR_VALUES = [None, "x", "", -1, 0, 1.5, True, [], {}, [3], {"a": 1}]


def sidecar_cases(side):
    """(field path, new value or "missing") for every field of the sidecar
    and its schedule and config.  A value never names another valid
    construction (a field that is read only gets values that are not its
    kind's), and the two that size allocations, the stage count (the length
    of ``m``) and ``N``, are never raised."""
    paths = [(k,) for k in side] + [("schedule", k) for k in side["schedule"]] \
        + [("config", k) for k in side["config"]]
    for path in paths:
        old = side[path[0]] if len(path) == 1 else side[path[0]][path[1]]
        values = [*SIDECAR_VALUES, "missing"]
        if isinstance(old, int) and not isinstance(old, bool):
            values += [str(old), float(old)] + ([old - 1, 1] if path[-1] == "N" else [])
        if isinstance(old, str):
            values += [old + "x", old.upper()]
        if isinstance(old, list) and old:
            values += [old[:-1], old[:-1] + [old[-1] + 1], [str(v) for v in old]]
        for value in values:
            if path[-1] == "m" and hasattr(value, "__len__") and len(value) > len(old):
                continue
            yield path, value


@pytest.mark.parametrize("flavor, n", [("bary", 20), ("beta", 40)])
def test_mutated_sidecars_exit_0_with_their_output_or_2_with_one_line(tmp_path, files,
                                                                       flavor, n):
    side = json.loads(open(files[f"{flavor}.json"]).read())
    rc, want, _err = run(["measure", "--sidecar", files[f"{flavor}.json"], "--n", str(n)])
    assert rc == 0
    want = want.replace(files[f"{flavor}.json"], "@")
    path, checked = tmp_path / "mutated.json", 0
    for field, value in sidecar_cases(side):
        mutated = json.loads(json.dumps(side))
        holder = mutated if len(field) == 1 else mutated[field[0]]
        if value == "missing":
            del holder[field[-1]]
        else:
            holder[field[-1]] = value
        path.write_text(json.dumps(mutated))
        rc, out, err = run(["measure", "--sidecar", str(path), "--n", str(n)])
        assert_same_or_one_line((rc, out.replace(str(path), "@"), err), want, (field, value))
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("value", ["2/6", "3/-1", "1/0", "0.5", " 1/3", "1_0/3_0", "+1/3", 1,
                                   None], ids=repr)
@pytest.mark.parametrize("field", ["theta", "v_hat"])
@pytest.mark.parametrize("flavor", ["bary", "restricted", "beta"])
def test_a_sidecar_ratio_not_as_construct_writes_it_exits_2(tmp_path, files, monkeypatch,
                                                            flavor, field, value):
    """theta and vhat are read only as the text construct writes, a ratio
    in lowest terms: any other spelling, a sign on the denominator, a zero
    denominator or a non-string exits 2 with one line, before the schedule
    takes a floor."""
    side = json.loads(open(files[f"{flavor}.json"]).read())
    side["schedule"][field] = value
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps(side))
    calls, schedule = [], layout.schedule
    monkeypatch.setattr(layout, "schedule", lambda *a: calls.append(a) or schedule(*a))
    rc, out, err = run(["measure", "--sidecar", str(path), "--n", "20"])
    assert (rc, out, err) == (2, "", f"error: not a construction sidecar: {str(path)!r}\n")
    assert calls == []


@pytest.mark.parametrize("approximant", ["int:3", "approx:root:1,1:4", "approx:root:1,1,1:3"])
def test_a_sidecar_with_another_approximant_exits_2(tmp_path, files, approximant):
    """A real-base sidecar's approximant is the one construct derives from
    its base and N (here root:1,1 and 3): another base, a valid spec all the
    same, is refused, not measured at the wrong mass."""
    side = json.loads(open(files["beta.json"]).read())
    assert side["approximant"] == "approx:root:1,1:3"
    side["approximant"] = approximant
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(side))
    rc, out, err = run(["measure", "--sidecar", str(path), "--n", "40"])
    assert (rc, out, err) == (2, "", f"error: not a construction sidecar: {str(path)!r}\n")


# ---------------------------------------------------------------------------
# too little memory


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    """The real-base layout allocates its marker block ``0^N 1 0^N``: at
    N = 10^10 that is 20 GB, refused under a 600 MB address space."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "betadio.cli", "construct", "beta", "--theta", "3", "--vhat", "1/3",
         "--beta", "root:1,1", "--N", "10000000000", "--stages", "2", "-o", "x.digits"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: out of memory\n"
    assert proc.stdout == "" and not (tmp_path / "x.digits").exists()


# ---------------------------------------------------------------------------
# the approximant's N has the horizon as its ceiling


CEILING = [
    ("admissible count --beta approx:root:1,1:99999999 --len 3", 99999999),
    ("admissible count --beta approx:int:2:4097 --len 3", 4097),
    ("dim local --theta 3 --vhat 1/3 --beta root:1,1 --N 100000000 --stages 2", 10 ** 8),
    ("construct beta --theta 3 --vhat 1/3 --beta root:1,1 --N 5000 --stages 2 -o x.digits", 5000),
    ("construct param --theta 3 --vhat 1/3 --beta0 rat:3/2 --beta1 root:1,1,1"
     " --beta2 root:1,1,1 --N 100000000 --stages 2 -o x.digits", 10 ** 8),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("command, N", CEILING, ids=[c for c, _N in CEILING])
def test_an_approximant_past_the_horizon_exits_2_at_once(tmp_path, command, N):
    """A Parry base knows every digit of its expansion of 1, so nothing else
    stops an N past the horizon: ``approx:root:1,1:99999999`` held 2.8 GB
    after five minutes, and ``dim local --N 10^8`` ran out of memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "betadio.cli", *command.split()],
                          cwd=tmp_path, capture_output=True, text=True, timeout=30,
                          preexec_fn=cap, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"infeasible: approximant N={N} is past the horizon 4096\n"
    assert not (tmp_path / "x.digits").exists()
