"""How a ``betadio`` process ends.

``cli.entry_point`` (the console script and ``python -m betadio.cli``) runs
``main()``, then the ``atexit`` callbacks, flushes stdout and stderr and
ends with ``os._exit``: the interpreter's teardown (module cleanup, the
last garbage collection) is skipped.  A trace or profile hook, a debugger,
or a thread that other code started gets the interpreter's own exit.  The tests here
check that a process ends with the bytes and the exit code that ``main()``
gives in process, that the hooks and callbacks still run, and that the
library keeps the conditions the skipped teardown relies on: no file left
open past ``main()``, no exit callback, no finalizer and no thread.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betadio
from betadio.cli import main

PACKAGE = Path(betadio.__file__).resolve().parent
SRC = str(PACKAGE.parent)
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = SRC


def _python(*argv, cwd=None, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, *argv], env=ENV, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# the bytes and the code of main(), whichever way the process ends

SESSIONS = [
    ["dim formula --theta 3 --vhat 1/3"],
    ["admissible count --beta root:1,1 --len 60 --renyi"],
    ["expand --base 10 --x 1/7 --digits 200000"],
    ["expand --base 10 --x 1/7 --digits 200000 -o x.digits"],
    ["construct bary --theta 3 --vhat 1/3 --base 3 --stages 8 -o e.digits",
     "measure --sidecar e.digits.json --n 54"],
    ["expand --base 10 --x 1/7 --digits 0"],  # a usage error
    ["expand-one --beta rat:1/0 --digits 3"],  # a domain error
]


@pytest.mark.parametrize("session", SESSIONS, ids=[" && ".join(s) for s in SESSIONS])
def test_a_process_ends_with_the_bytes_of_main_in_process(tmp_path, capsys, monkeypatch,
                                                          session):
    """stdout, stderr, the exit code and every file written, byte for byte."""
    (tmp_path / "process").mkdir()
    (tmp_path / "in_process").mkdir()
    monkeypatch.chdir(tmp_path / "in_process")
    for command in session:
        proc = _python("-m", "betadio.cli", *command.split(), cwd=tmp_path / "process")
        code = main(command.split())
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert _files(tmp_path / "process") == _files(tmp_path / "in_process")


def test_the_console_script_is_the_entry_point():
    """``[project.scripts]`` names ``entry_point``, and the wrapper that pip
    writes for it (``sys.exit(entry_point())``) ends with main's code."""
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert 'betadio = "betadio.cli:entry_point"' in pyproject.splitlines()
    script = "import sys\nfrom betadio.cli import entry_point\nsys.exit(entry_point())\n"
    for argv, code, out in [(["dim", "formula", "--theta", "3", "--vhat", "1/3"], 0, b"1/4\n"),
                            (["measure", "--sidecar", "x.json", "--n", "-1"], 1, b"")]:
        proc = _python("-c", script, *argv)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


# ---------------------------------------------------------------------------
# a stdout that fails or is gone

FULL = ["dim formula --theta 3 --vhat 1/3", "expand --base 10 --x 1/7 --digits 100000"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full (Linux)")
@pytest.mark.parametrize("command", FULL)
def test_a_full_stdout_exits_2_with_one_line(command):
    """A buffered stdout that cannot be written is reported by main, not by
    the interpreter's exit (which printed its own two lines and exited 120)."""
    with open("/dev/full", "wb") as full:
        proc = _python("-m", "betadio.cli", *command.split(), stdout=full)
    assert (proc.returncode, proc.stderr) == (2, b"error: No space left on device\n")


def test_a_closed_stdout_is_no_error():
    """Without a stdout at all (``>&-``) print writes nothing, as before."""
    proc = subprocess.run([sys.executable, "-m", "betadio.cli", "dim", "formula", "--theta", "3",
                           "--vhat", "1/3"], env=ENV, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


# ---------------------------------------------------------------------------
# the hooks and callbacks of other code


def test_cprofile_still_prints_its_stats():
    """A profile hook gets the interpreter's exit, where cProfile prints."""
    proc = _python("-m", "cProfile", "-m", "betadio.cli", "dim", "formula", "--theta", "3",
                   "--vhat", "1/3")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode()
    assert out.startswith("1/4\n") and "function calls" in out


def test_a_debugger_gets_the_interpreter_s_exit():
    """pdb drops its trace hook on ``c`` when no breakpoint is left; the
    program still ends through sys.exit, where ``python -m pdb`` reports the
    exit and offers a restart."""
    wrapper = ("import pdb, sys\n"
               "sys.argv[1:] = ['dim', 'formula', '--theta', '3', '--vhat', '1/3']\n"
               "try:\n"
               "    pdb.run(\"import runpy; runpy.run_module('betadio.cli', run_name='__main__')\")\n"
               "except SystemExit as exc:\n"
               "    print('sys.exit', exc.code)\n")
    proc = subprocess.run([sys.executable, "-c", wrapper], env=ENV, input=b"c\n",
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"1/4\nsys.exit 0\n"), proc.stdout


def test_atexit_callbacks_of_other_code_run():
    """A callback that other code registered runs, and what it prints is
    flushed before the process ends."""
    wrapper = ("import atexit, runpy, sys\n"
               "atexit.register(print, 'callback ran')\n"
               "sys.argv[1:] = ['dim', 'formula', '--theta', '3', '--vhat', '1/3']\n"
               "runpy.run_module('betadio.cli', run_name='__main__')\n")
    proc = _python("-c", wrapper)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1/4\ncallback ran\n", b"")


def test_a_thread_of_other_code_is_joined():
    """os._exit would end a running thread where it stands: the process
    waits for it, as the interpreter's exit does."""
    wrapper = ("import runpy, sys, threading, time\n"
               "threading.Thread(target=lambda: (time.sleep(0.3), print('joined'))).start()\n"
               "sys.argv[1:] = ['dim', 'formula', '--theta', '3', '--vhat', '1/3']\n"
               "runpy.run_module('betadio.cli', run_name='__main__')\n")
    proc = _python("-c", wrapper)
    assert (proc.returncode, sorted(proc.stdout.split())) == (0, [b"1/4", b"joined"])


# ---------------------------------------------------------------------------
# what the skipped teardown relies on


def teardown_hazards(tree: ast.AST) -> list[str]:
    """Calls that leave work for the interpreter's teardown: an exit
    callback, a finalizer, a thread, or a file opened outside a ``with``."""
    in_with = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""
        owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
            else None
        if (owner, name) in {("atexit", "register"), ("weakref", "finalize")} \
                or name in ("Thread", "Timer") \
                or name == "open" and owner != "os" and id(node) not in in_with:
            found.append((node.lineno, ast.unparse(f)))
    return [f"line {line}: {call}" for line, call in sorted(found)]


def test_the_library_leaves_nothing_to_the_teardown():
    hazards = {str(p.relative_to(PACKAGE)): teardown_hazards(ast.parse(p.read_text()))
               for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(hazards) > 20
    assert not {name: h for name, h in hazards.items() if h}


def test_the_teardown_guard_sees_each_hazard():
    source = ("import atexit, threading, weakref\n"
              "atexit.register(f)\n"
              "weakref.finalize(obj, f)\n"
              "threading.Thread(target=f).start()\n"
              "fh = open('x', 'w')\n"
              "text = path.open().read()\n"
              "with open('y') as fh:\n"
              "    fd = os.open('z', 0)\n")
    assert teardown_hazards(ast.parse(source)) == [
        "line 2: atexit.register", "line 3: weakref.finalize", "line 4: threading.Thread",
        "line 5: open", "line 6: path.open"]
