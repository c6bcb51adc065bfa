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


# the betadio tokens each command compiles under -S: counting and checking
# the words of a base given by its expansion of 1 reads no digit word, no
# polynomial over Q and no beta (9855, 9855 and 7203 tokens when they did)
COMPILE_BUDGET = {
    "admissible count --beta root:1,1 --len 5": 8777,
    "admissible check --beta root:1,1 --word 1,0,1": 8777,
    "parry check --word 1,1,0": 6147,
}
LOADED_FILES = ("import sys, betadio.cli\n"
                "try:\n"
                "    sys.exit(betadio.cli.main(sys.argv[1:]))\n"
                "finally:\n"
                "    print(*(m.__file__ for name, m in sys.modules.items()\n"
                "            if name.startswith('betadio')), file=sys.stderr)\n")


@pytest.mark.parametrize("command", COMPILE_BUDGET)
def test_a_command_on_a_base_s_words_compiles_within_its_budget(command):
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_FILES, *command.split()],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    files = proc.stderr.splitlines()[-1].split()
    sizes = {Path(f).relative_to(PACKAGE.parent).as_posix(): parsed_tokens(f) for f in files}
    assert sum(sizes.values()) <= COMPILE_BUDGET[command], sizes
