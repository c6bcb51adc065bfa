import json
import os
import select
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import betadio
from betadio.bary import DigitSet
from betadio.cli import main
from betadio.constructions import ConstructionSpec, FillPolicy, generate_bary
from test_readme import readme_commands

F = Fraction
SRC = str(Path(betadio.__file__).resolve().parent.parent)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_dim_formula_plain(capsys):
    rc, out = run(capsys, "dim", "formula", "--theta", "3", "--vhat", "1/3")
    assert rc == 0 and out.strip() == "1/4"


def test_admissible_count_plain(capsys):
    rc, out = run(capsys, "admissible", "count", "--beta", "root:1,1", "--len", "5")
    assert rc == 0 and out.strip() == "13"


def test_expand_one_plain(capsys):
    rc, out = run(capsys, "expand-one", "--beta", "int:3", "--digits", "4")
    assert rc == 0
    assert out.splitlines() == ["base=3", "2 2 2 2"]


def test_expand_rational(capsys):
    rc, out = run(capsys, "expand", "--base", "10", "--x", "1/7", "--digits", "7")
    assert rc == 0
    assert out.splitlines()[1] == "1 4 2 8 5 7 1"


def test_expand_beta(capsys):
    rc, out = run(capsys, "expand", "--beta", "root:1,1", "--x", "1", "--digits", "5")
    assert rc == 0
    assert out.splitlines()[1] == "1 1 0 0 0"


def test_expand_lacunary(capsys):
    rc, out = run(capsys, "expand", "--base", "10", "--lacunary", "1", "--digits", "10")
    assert rc == 0
    assert out.splitlines()[1].split() == "0 1 0 1 0 0 0 1 0 0".split()


def test_usage_error_exit_code(capsys):
    assert main(["dim", "local", "--vhat", "1/3"]) == 1
    assert main(["expand", "--digits", "4"]) == 1


def test_domain_error_exit_code(capsys):
    assert main(["dim", "formula", "--theta", "3/2", "--vhat", "1/2"]) == 2
    assert main(["construct", "bary", "--theta", "6/5", "--vhat", "1/2",
                 "--base", "3"]) == 2


def test_cylinder_json(capsys):
    rc, out = run(capsys, "cylinder", "--beta", "root:1,1", "--word", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["full"] is False
    assert abs(data["length"]["float"] - 0.3819660) < 1e-6
    assert data["version"]


def test_construct_measure_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c.digits"
    rc, _ = run(capsys, "construct", "bary", "--theta", "3", "--vhat", "1/3",
                "--base", "3", "--stages", "4", "-o", str(out_file))
    assert rc == 0
    sidecar = json.loads((tmp_path / "c.digits.json").read_text())
    assert sidecar["config"]["cmd"] == "construct bary"
    assert sidecar["schedule"]["n"][0] == 3
    rc, out = run(capsys, "measure", "--sidecar", str(out_file) + ".json", "--n", "6")
    assert rc == 0
    data = json.loads(out)
    assert data["exponent"] == 2 and data["base"] == 3

    header, digits = out_file.read_text().split("\n", 1)
    assert header == "base=3"
    assert digits.split()[2:6] == ["1", "0", "0", "1"]


def test_construct_beta_and_measure(tmp_path, capsys):
    out_file = tmp_path / "b.digits"
    rc, _ = run(capsys, "construct", "beta", "--theta", "3", "--vhat", "1/3",
                "--beta", "root:1,1", "--N", "3", "--stages", "3",
                "--fill", "random", "--seed", "5", "-o", str(out_file))
    assert rc == 0
    side = json.loads((tmp_path / "b.digits.json").read_text())
    assert side["approximant"].startswith("approx:") or side["approximant"].startswith("word:")
    rc, out = run(capsys, "measure", "--sidecar", str(out_file) + ".json", "--n", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["factors"] == [[2, 1]]


def test_construct_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.digits", tmp_path / "b.digits"
    for f in (a, b):
        rc, _ = run(capsys, "construct", "bary", "--theta", "3", "--vhat", "1/3",
                    "--base", "5", "--stages", "5", "--fill", "random",
                    "--seed", "42", "-o", str(f))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_param(tmp_path, capsys):
    out_file = tmp_path / "p.digits"
    rc, _ = run(capsys, "construct", "param", "--theta", "3", "--vhat", "1/3",
                "--stages", "3", "--beta0", "rat:3/2", "--beta1", "root:1,1",
                "--beta2", "root:1,1,1", "--N", "5", "--fill", "random",
                "--seed", "1", "-o", str(out_file))
    assert rc == 0
    side = json.loads((tmp_path / "p.digits.json").read_text())
    val = side["recovered_base"]["float"]
    assert 1.5 < val < 1.619


def test_exponents_pipeline(tmp_path, capsys):
    out_file = tmp_path / "w.digits"
    rc, _ = run(capsys, "expand", "--base", "10", "--lacunary", "1",
                "--digits", "4096", "-o", str(out_file))
    assert rc == 0
    rc, out = run(capsys, "exponents", "--input", str(out_file))
    assert rc == 0
    data = json.loads(out)
    assert abs(eval(data["v_lower"]) - 1.0) < 0.06
    assert abs(eval(data["v_hat_lower"]) - 0.5) < 0.06


def test_dim_local_csv(capsys):
    rc, out = run(capsys, "dim", "local", "--theta", "3", "--vhat", "1/3",
                  "--base", "3", "--stages", "6", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,ratio_lower,ratio_upper"
    assert len(lines) == 7


def test_restricted_construct(tmp_path, capsys):
    out_file = tmp_path / "r.digits"
    rc, _ = run(capsys, "construct", "restricted", "--theta", "3", "--vhat", "1/3",
                "--base", "3", "--digit-set", "0,2", "--stages", "4",
                "--fill", "random", "--seed", "2", "-o", str(out_file))
    assert rc == 0
    digits = set(out_file.read_text().split("\n", 1)[1].split())
    assert digits <= {"0", "2"}
    rc, out = run(capsys, "measure", "--sidecar", str(out_file) + ".json", "--n", "6")
    data = json.loads(out)
    assert data["base"] == 2  # mass splits over the two allowed digits


def test_parry_cli(capsys):
    rc, out = run(capsys, "parry", "check", "--word", "0,1")
    assert rc == 0 and out.strip() == "false"
    rc, out = run(capsys, "parry", "invert", "--word", "(1,0)")
    assert rc == 0 and abs(float(out) - 1.618033988749895) < 1e-12
    assert main(["parry", "invert", "--word", "0,1"]) == 2


def test_reprove_cli(capsys):
    rc, out = run(capsys, "reprove", "--v", "1", "--thetas", "4", "8", "64")
    assert rc == 0
    data = json.loads(out)
    assert data["limit"] == "1/2" and data["monotone"]


@pytest.mark.parametrize("v, theta", [("1", "0"), ("1", "1"), ("2", "2"), ("3", "3"),
                                      ("1/2", "1/2")])
def test_reprove_theta_zero_or_v_is_infeasible(capsys, v, theta):
    assert main(["reprove", "--v", v, "--thetas", "4", theta]) == 2
    assert capsys.readouterr() == (
        "", f"infeasible: theta {theta} must exceed v = {v} for vhat = v/theta < 1\n")
    # a theta that fails first in the grid keeps its own message
    assert main(["reprove", "--v", v, "--thetas", "-1", theta]) == 2
    assert capsys.readouterr() == ("", "infeasible: vhat must lie in [0, 1]\n")


@pytest.mark.parametrize("extra", [[], ["--beta", "root:1,1"]])
def test_dim_local_without_stages(capsys, extra):
    rc, out = run(capsys, "dim", "local", "--theta", "3", "--vhat", "1/3", "--stages", "0", *extra)
    assert rc == 0 and json.loads(out)["trajectory"] == []


def test_dim_local_beta_json(capsys):
    rc, out = run(capsys, "dim", "local", "--theta", "3", "--vhat", "1/3",
                  "--beta", "root:1,1", "--N", "4", "--stages", "6")
    assert rc == 0
    data = json.loads(out)
    assert data["formula_value"] == "1/4"
    assert data["scale_interval"] is not None
    assert len(data["trajectory"]) == 6


def test_config_embeds_precision(tmp_path, capsys):
    out = tmp_path / "f.json"
    rc, _ = run(capsys, "dim", "formula", "--theta", "3", "--vhat", "1/3",
                "-o", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["precision_bits"] == 256
    assert data["value"] == "1/4"


@pytest.mark.parametrize("argv", [
    ["admissible", "check", "--beta", "root:1,1", "--word", "1,a"],
    ["dim", "formula", "--theta", "3", "--vhat", "1/3", "--digit-set", "0,x"],
    ["parry", "check", "--word", "1,(a)"],
    # a per-action option left out
    ["admissible", "count", "--beta", "root:1,1"],
    ["admissible", "list", "--beta", "root:1,1"],
    ["admissible", "check", "--beta", "root:1,1"],
    ["construct", "bary", "--theta", "3", "--vhat", "1/3"],
    ["construct", "restricted", "--theta", "3", "--vhat", "1/3", "--base", "3"],
    ["construct", "beta", "--theta", "3", "--vhat", "1/3"],
    ["construct", "param", "--theta", "3", "--vhat", "1/3", "--beta0", "rat:3/2"],
    ["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3", "--stages", "0"],
    # negative lengths
    *(["admissible", "count", "--beta", beta, "--len", "-1"]
      for beta in ("root:1,1", "int:3", "rat:3/2", "root:1,0,2")),
    ["admissible", "count", "--beta", "root:1,1", "--len", "-1", "--renyi"],
    ["admissible", "count", "--beta", "rat:3/2", "--len", "-1", "--renyi"],
    ["admissible", "list", "--beta", "root:1,1", "--len", "-1"],
    ["expand-one", "--beta", "int:3", "--digits", "-3"],
    ["expand", "--beta", "root:1,1", "--x", "1/2", "--digits", "-3"],
    ["expand", "--base", "10", "--x", "1/7", "--digits", "-3"],
    # no digits asked for
    ["expand-one", "--beta", "int:3", "--digits", "0"],
    ["expand", "--beta", "root:1,1", "--x", "1/2", "--digits", "0"],
    ["expand", "--base", "10", "--x", "1/7", "--digits", "0"],
])
def test_malformed_digits_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert len(err.splitlines()) == 1  # one line, no traceback


def test_too_small_N_names_the_base(capsys):
    argv = ["construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta", "rat:5/4",
            "--N", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "N=2" in err and "rat:5/4" in err and "larger N" in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_precision_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("BETADIO_PRECISION", value)
    assert main(["dim", "formula", "--theta", "3", "--vhat", "1/3"]) == 1
    assert "BETADIO_PRECISION" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["-5", "0"])
def test_parry_invert_needs_positive_bits(capsys, bits):
    assert main(["parry", "invert", "--word", "1,1,1", "--bits", bits]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: parry invert needs --bits >= 1, got {bits}\n"


def test_count_past_int_str_limit(capsys):
    n = 22019
    before = sys.get_int_max_str_digits()
    rc, out = run(capsys, "admissible", "count", "--beta", "root:1,1,1", "--len", str(n))
    assert rc == 0
    assert sys.get_int_max_str_digits() == before  # main restores the limit
    # oracle: c_0 = 1, c_n = 1 + sum_{i<=n} t*_i c_{n-i} with t* = (110)^oo, the
    # quasi-greedy expansion of 1 in the tribonacci base
    t = [0] + [(1, 1, 0)[(i - 1) % 3] for i in range(1, 61)]
    c = [1]
    for m in range(1, 61):
        c.append(1 + sum(t[i] * c[m - i] for i in range(1, m + 1)))
    # the period 3 telescopes it to c_n = c_{n-1} + c_{n-2} + c_{n-3}, linear
    # time up to n (checked against the full sum on the first terms)
    fast = c[:3]
    while len(fast) <= n:
        fast.append(fast[-1] + fast[-2] + fast[-3])
    assert fast[:61] == c
    sys.set_int_max_str_digits(0)
    try:
        assert len(out.strip()) > 4300
        assert out.strip() == str(fast[n])
    finally:
        sys.set_int_max_str_digits(before)


def test_lazy_count_reaches_the_horizon(capsys):
    # rat:3/2 has no automaton: its counts run to the digit horizon (4096)
    rc, out = run(capsys, "admissible", "count", "--beta", "rat:3/2", "--len", "30", "--renyi")
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 30 and data["renyi"]["lower_ok"] and data["renyi"]["upper_ok"]
    assert main(["admissible", "count", "--beta", "rat:3/2", "--len", "5000"]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and len(err.splitlines()) == 1


def test_dim_local_reads_the_precision(capsys, monkeypatch):
    argv = ["dim", "local", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1",
            "--N", "4", "--stages", "3"]

    def last_width():
        rc, out = run(capsys, *argv)
        assert rc == 0
        data = json.loads(out)
        _k, lo, hi = data["trajectory"][-1]
        return F(hi) - F(lo), data["config"]["precision_bits"], out

    default_width, default_bits, default_out = last_width()
    monkeypatch.setenv("BETADIO_PRECISION", "256")
    assert last_width()[2] == default_out  # the default is 256 bits, byte for byte
    monkeypatch.setenv("BETADIO_PRECISION", "64")
    width, bits, _out = last_width()
    assert (default_bits, bits) == (256, 64)
    assert width > default_width


def test_renyi_reads_the_precision(capsys, monkeypatch):
    def renyi_bits(beta):
        rc, out = run(capsys, "admissible", "count", "--beta", beta, "--len", "30", "--renyi")
        assert rc == 0
        return json.loads(out)["renyi"]["bits"]

    assert [renyi_bits(b) for b in ("root:1,1", "int:3")] == [256, 256]
    monkeypatch.setenv("BETADIO_PRECISION", "64")
    assert [renyi_bits(b) for b in ("root:1,1", "int:3")] == [64, 64]


def _cli(*argv, cwd=None):
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=cwd, capture_output=True, text=True)


# stdlib modules kept off the start-up path; argparse (with gettext and
# locale) loads only for help and errors
KEPT_OFF = {"dataclasses", "inspect", "logging", "csv", "argparse", "gettext", "locale"}
LIBRARY = ("numerics", "words", "bary", "beta_shift", "constructions", "measures_dim")


def _loaded(proc) -> set:
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_footprint():
    """import betadio.cli loads none of the library layers, and none of the
    stdlib modules kept off the start-up path.  -S keeps site from importing
    anything first."""
    code = "import sys, betadio.cli; print(*sys.modules, file=sys.stderr)"
    loaded = _loaded(_cli("-S", "-c", code))
    assert not KEPT_OFF & loaded
    assert not {f"betadio.{layer}" for layer in LIBRARY} & loaded


CLOSED_FORMS = ("words", "bary", "numerics", "beta_shift", "constructions")
NO_REAL_BASE = ("numerics", "beta_shift", "constructions", "measures_dim")
INTEGER_BASE = ("beta_shift", "numerics")
NO_GENERATOR = ("constructions", "measures_dim")
FOOTPRINTS = [
    ("dim formula --theta 3 --vhat 1/3", CLOSED_FORMS),
    ("dim formula --vhat 1/3 --sup", CLOSED_FORMS),
    ("dim s0 --theta 3 --vhat 1/3 --eps 1/10", CLOSED_FORMS),
    ("reprove --v 1 --thetas 4 8", CLOSED_FORMS),
    ("--version", CLOSED_FORMS),
    ("expand --base 10 --x 1/7 --digits 20", NO_REAL_BASE),
    ("expand --base 10 --lacunary 1 --digits 20", NO_REAL_BASE),
    ("exponents --input e.digits", NO_REAL_BASE),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --stages 6", INTEGER_BASE),
    ("construct restricted --theta 3 --vhat 1/3 --base 3 --digit-set 0,2 --fill random",
     INTEGER_BASE),
    ("dim local --theta 3 --vhat 1/3 --base 3 --stages 8", INTEGER_BASE),
    ("measure --sidecar e.digits.json --n 54", INTEGER_BASE),
    ("admissible count --beta root:1,1 --len 5", NO_GENERATOR),
    ("admissible check --beta root:1,1 --word 1,0,1", NO_GENERATOR),
    ("cylinder --beta root:1,1 --word 1,0", NO_GENERATOR),
    ("expand-one --beta root:1,1,1 --digits 8", NO_GENERATOR),
    ("parry check --word 1,1,0", NO_GENERATOR),
    ("parry invert --word 1,1 --bits 64", NO_GENERATOR),
]


@pytest.mark.parametrize("command, unused", FOOTPRINTS, ids=[c for c, _u in FOOTPRINTS])
def test_command_footprint(tmp_path, command, unused):
    """A command loads only the layers it calls, and the stdlib modules kept
    off the start-up path stay off but for argparse's on --version."""
    assert main(["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3",
                 "--stages", "8", "-o", str(tmp_path / "e.digits")]) == 0
    code = ("import sys, betadio.cli\n"
            "try:\n"
            "    sys.exit(betadio.cli.main(sys.argv[1:]))\n"
            "finally:\n"
            "    print(*sys.modules, file=sys.stderr)\n")
    loaded = _loaded(_cli("-S", "-c", code, *command.split(), cwd=tmp_path))
    assert not {f"betadio.{layer}" for layer in unused} & loaded
    if command == "--version":
        loaded -= {"argparse", "gettext", "locale"}
    assert not KEPT_OFF & loaded


def test_readme_commands_run_without_argparse(tmp_path):
    """Well-formed argvs are read from the option table; argparse is loaded
    only for help and errors."""
    code = ("import sys, betadio.cli\n"
            f"for argv in {[argv for argv, _value in readme_commands()]!r}:\n"
            "    assert betadio.cli.main(argv) == 0, argv\n"
            "print('argparse' in sys.modules, file=sys.stderr)\n")
    proc = _cli("-S", "-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"
    proc = _cli("-S", "-c", "import sys, betadio.cli\n"
                "assert betadio.cli.main(['dim', 'formula', '--vhat', '1/3', '--thet', '3']) == 0\n"
                "print('argparse' in sys.modules)", cwd=tmp_path)
    assert proc.stdout.splitlines() == ["1/4", "True"]  # an abbreviation goes to argparse


def test_closed_stdout_is_not_an_error():
    """``admissible list ... | head -1``: the reader closes the pipe after one
    line; the listing stops with exit 0 and nothing on stderr."""
    argv = [sys.executable, "-m", "betadio.cli", "admissible", "list", "--beta", "root:1,1",
            "--len", "30"]
    proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert first == b"0 " * 29 + b"0\n"
    assert (rc, err) == (0, b"")


def test_broken_output_file_is_an_error(tmp_path):
    """Only a closed stdout is a success: an ``--output`` FIFO whose reader
    quits after one byte leaves the digit file unwritten, exit 2."""
    fifo = tmp_path / "digits"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    argv = [sys.executable, "-m", "betadio.cli", "expand", "--base", "10", "--x", "1/7",
            "--digits", "300000", "-o", str(fifo)]
    proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        select.select([reader], [], [], 60)
        first = os.read(reader, 1)
        os.close(reader)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert first == b"b"
    assert (proc.returncode, out, err) == (2, b"", b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("flavor, extra, lines", [
    ("bary", ["--fill", "const:0"], []),
    ("restricted", ["--digit-set", "0,2", "--fill", "const:1"],
     ["constant fill 1 not allowed, using 0"]),
])
def test_clamped_fill_warns_on_stderr(tmp_path, flavor, extra, lines):
    argv = ["construct", flavor, "--theta", "4", "--vhat", "1/8", "--base", "3",
            "--stages", "2", *extra, "-o", "c.digits"]
    proc = _cli("-m", "betadio.cli", *argv, cwd=tmp_path)
    assert proc.returncode == 0
    ds = DigitSet(3, {0, 2}) if flavor == "restricted" else None
    fill = FillPolicy.parse(extra[-1])
    clamps = generate_bary(ConstructionSpec(4, F(1, 8), 2, 3, ds, fill)).clamps
    assert clamps
    assert proc.stderr.splitlines() == lines + [f"fill policy clamped at {len(clamps)} positions"]
