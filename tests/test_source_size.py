"""No module of the library is big enough for its parse alone to set a
process's peak memory.

Without a bytecode cache every process compiles each module it loads, and
CPython holds a whole module's tokens, syntax tree and symbol tables at
once while it does.  BENCH_24.json records compile peaks under tracemalloc
of up to 1.81 MB (``numerics``, 4,622 tokens), above any command's data on
the benchmark's workloads, and the process peaks that fell once no module
was above ~2,700 tokens.  The count is of the tokens the parser reads (no
comments, no blank lines), with an f-string as one token, as Python 3.11
tokenizes it, so it is the same on every version.

The same count, summed over the modules a command loads, is what that
command compiles: a compile budget.
"""

import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import betadio

MAX_TOKENS = 2800
PACKAGE = Path(betadio.__file__).parent


def parsed_tokens(path) -> int:
    count = depth = 0  # depth: f-strings open (Python 3.12 splits them)
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            kind = tokenize.tok_name[tok.type]
            if kind == "FSTRING_START":
                depth += 1
                count += depth == 1
            elif kind == "FSTRING_END":
                depth -= 1
            elif depth == 0 and kind not in ("ENCODING", "COMMENT", "NL"):
                count += 1
    return count


def test_an_f_string_is_one_token(tmp_path):
    path = tmp_path / "f.py"
    path.write_text("# a comment\n\nx = f\"{a!r:>{w}} {f'{b}'}\"\n")
    assert parsed_tokens(path) == 5  # x = <string> NEWLINE ENDMARKER


def test_no_module_is_above_the_token_cap():
    sizes = {str(p.relative_to(PACKAGE.parent)): parsed_tokens(p)
             for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(sizes) > 20
    over = {name: n for name, n in sizes.items() if n > MAX_TOKENS}
    assert not over, f"modules above {MAX_TOKENS} tokens: {over}"


# the betadio tokens each command compiles under -S, one per command path of
# the benchmark: each subcommand compiles its own handler module alone, a
# base given by its expansion of 1 no greedy orbit (orbits), a cylinder no
# orbit and no base of a word, an expansion or a construction no run
# analysis (exponents), and a real-base construction not the integer-base
# one.  A command that writes JSON compiles jsontext, in place of importing
# json; measure reads its sidecar with json and writes with it too.
COMPILE_BUDGET = {
    "admissible count --beta root:1,1 --len 5": 7435,
    "admissible check --beta root:1,1 --word 1,0,1": 7435,
    "admissible list --beta root:1,1,1 --len 4": 7435,
    "admissible count --beta root:1,1 --len 60 --renyi": 11811,
    "admissible count --beta int:3 --len 20 --renyi": 7853,
    "admissible count --beta rat:3/2 --len 20": 9032,
    "admissible check --beta rat:3/2 --word 1,0,1,0,1": 9032,
    "cylinder --beta root:1,1 --word 1,0": 13065,
    "parry check --word 1,1,0": 5394,
    "parry invert --word 1,1 --bits 64": 9352,
    "expand --base 10 --x 1/7 --digits 20": 5397,
    "expand --beta root:1,1,1 --x 1/3 --digits 20": 14537,
    "expand-one --beta int:3 --digits 4": 8804,
    "expand-one --beta root:1,0,2 --digits 30": 14359,
    "exponents --input e.digits": 7006,
    "construct bary --theta 3 --vhat 1/3 --base 3 --stages 6 -o c.digits": 10285,
    "construct restricted --theta 3 --vhat 1/3 --base 3 --digit-set 0,2 --fill random"
    " -o c.digits": 10285,
    "construct beta --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 4 -o c.digits": 13393,
    "construct param --theta 3 --vhat 1/3 --beta0 rat:3/2 --beta1 root:1,1 --beta2 root:1,1,1"
    " --N 5 --stages 3 -o c.digits": 18948,
    "measure --sidecar e.digits.json --n 54": 5354,
    "measure --sidecar b.digits.json --n 40": 13709,
    "dim local --theta 3 --vhat 1/3 --base 3 --stages 8": 8064,
    "dim local --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 3": 16903,
    "dim formula --theta 3 --vhat 1/3": 4304,
}
LOADED_FILES = ("import sys, betadio.cli\n"
                "try:\n"
                "    sys.exit(betadio.cli.main(sys.argv[1:]))\n"
                "finally:\n"
                "    print(*(m.__file__ for name, m in sys.modules.items()\n"
                "            if name.startswith('betadio')), file=sys.stderr)\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding e.digits, an integer-base construction, and
    b.digits, a real-base one, each with its sidecar."""
    root = tmp_path_factory.mktemp("budget")
    for argv in (["bary", "--base", "3", "--stages", "8", "-o", "e.digits"],
                 ["beta", "--beta", "root:1,1", "--N", "3", "--stages", "4", "-o", "b.digits"]):
        subprocess.run([sys.executable, "-m", "betadio.cli", "construct", *argv[:1], "--theta", "3",
                        "--vhat", "1/3", *argv[1:]], cwd=root, check=True,
                       env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    return root


@pytest.mark.parametrize("command", COMPILE_BUDGET)
def test_a_command_on_a_base_s_words_compiles_within_its_budget(inputs, command):
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_FILES, *command.split()],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), cwd=inputs,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    files = proc.stderr.splitlines()[-1].split()
    sizes = {Path(f).relative_to(PACKAGE.parent).as_posix(): parsed_tokens(f) for f in files}
    assert sum(sizes.values()) <= COMPILE_BUDGET[command], sizes
