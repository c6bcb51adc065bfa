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
"""

import tokenize
from pathlib import Path

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
