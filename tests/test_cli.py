import json
import os
import select
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import betadio
from betadio.cli import _COMMANDS, main
from betadio.constructions import FillPolicy, generate_bary
from betadio.digit_sets import DigitSet
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


@pytest.mark.parametrize("base", ["0", "1"])
@pytest.mark.parametrize("spelling", ["two tokens", "--flag=value"])
def test_expand_needs_an_integer_base_above_one(capsys, base, spelling):
    given = ["--base", base] if spelling == "two tokens" else [f"--base={base}"]
    assert main(["expand", *given, "--x", "1/3", "--digits", "5"]) == 1
    assert capsys.readouterr() == ("", f"usage error: expand needs --base >= 2, got {base}\n")


@pytest.mark.parametrize("x", ["1", "7/3"])
def test_expand_names_an_x_outside_the_unit_interval(capsys, x):
    assert main(["expand", "--base", "5", "--x", x, "--digits", "5"]) == 2
    assert capsys.readouterr() == ("", f"error: --x must lie in [0, 1), got {x}\n")


def test_exponents_of_a_word_over_a_base_above_256(capsys, tmp_path):
    path = str(tmp_path / "big.digits")
    assert main(["expand", "--base", "1000", "--x", "1/7", "--digits", "50", "-o", path]) == 0
    rc, out = run(capsys, "exponents", "--input", path)
    assert rc == 0
    got = json.loads(out)
    assert (got["horizon"], got["v_lower"], got["v_hat_lower"]) == (50, "0", "0")


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


@pytest.mark.parametrize("extra", [[], ["--beta", "root:1,1"]])
@pytest.mark.parametrize("stages", [["--stages", "-3"], ["--stages=-3"]])
def test_dim_local_refuses_negative_stages(capsys, extra, stages):
    assert main(["dim", "local", "--theta", "3", "--vhat", "1/3", *stages, *extra]) == 1
    assert capsys.readouterr() == ("", "usage error: dim local needs --stages >= 0, got -3\n")


@pytest.mark.parametrize("extra", [["--base", "3"], ["--beta", "root:1,1"]])
@pytest.mark.parametrize("given", [["--tolerance", "0"], ["--tolerance", "0/7"],
                                   ["--tolerance", "-1"], ["--tolerance=-1/50"]])
def test_dim_local_tolerance_at_most_zero_is_a_usage_error(capsys, extra, given):
    """No trajectory narrows below tol/10 <= 0: such a run could only report
    ``"converged_at": null``, so it is refused with one line."""
    tolerance = given[-1].rpartition("=")[2]
    assert main(["dim", "local", "--theta", "3", "--vhat", "1/3", *extra, *given]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: dim local needs --tolerance > 0, got {tolerance}\n")


def test_dim_local_beta_json(capsys):
    rc, out = run(capsys, "dim", "local", "--theta", "3", "--vhat", "1/3",
                  "--beta", "root:1,1", "--N", "4", "--stages", "6")
    assert rc == 0
    data = json.loads(out)
    assert data["formula_value"] == "1/4"
    assert data["config"]["base"] == 3  # the table's default, recorded as before
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
    # a negative depth, refused before the sidecar is opened
    ["measure", "--sidecar", "no-such.digits.json", "--n", "-5"],
    # a base option the flavour does not read
    ["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3", "--digit-set", "0,2",
     "--stages", "2"],
    ["construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1", "--base", "7"],
    # a malformed fill policy
    *(["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3", "--fill", fill]
      for fill in ("const:abc", "const:", "foo")),
])
def test_malformed_digits_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert len(err.splitlines()) == 1  # one line, no traceback


@pytest.mark.parametrize("flavor, extra, foreign", [
    ("bary", ["--base", "3", "--digit-set", "0,2", "--beta", "root:1,1"], "--digit-set --beta"),
    ("restricted", ["--base", "3", "--digit-set", "0,2", "--beta0", "rat:3/2"], "--beta0"),
    ("beta", ["--beta", "root:1,1", "--base", "7"], "--base"),
    ("param", ["--beta0", "rat:3/2", "--beta1", "root:1,1", "--beta2", "root:1,1",
               "--base", "3", "--beta", "root:1,1"], "--base --beta")])
def test_construct_refuses_another_flavours_base(tmp_path, capsys, flavor, extra, foreign):
    out = tmp_path / "c.digits"
    assert main(["construct", flavor, "--theta", "3", "--vhat", "1/3", *extra,
                 "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"usage error: construct {flavor} does not take {foreign}\n")
    assert not out.exists()


@pytest.mark.parametrize("flavor, extra", [
    ("bary", ["--base", "3"]), ("beta", ["--beta", "root:1,1", "--N", "3"])])
def test_measure_refuses_a_negative_depth(tmp_path, capsys, flavor, extra):
    out = tmp_path / "c.digits"
    assert main(["construct", flavor, "--theta", "3", "--vhat", "1/3", "--stages", "2",
                 *extra, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["measure", "--sidecar", f"{out}.json", "--n", "-5"]) == 1
    assert capsys.readouterr() == ("", "usage error: measure needs --n >= 0, got -5\n")


FLAVORS = {"bary": ["--base", "3"], "restricted": ["--base", "3", "--digit-set", "0,2"],
           "beta": ["--beta", "root:1,1", "--N", "3"]}


def edited_sidecar(tmp_path, capsys, flavor, key, value) -> str:
    """A sidecar written by construct, with one field (schedule.<k> for a
    schedule field) set to a value construct does not write."""
    out = tmp_path / "c.digits"
    assert main(["construct", flavor, "--theta", "3", "--vhat", "1/3", "--stages", "2",
                 *FLAVORS[flavor], "-o", str(out)]) == 0
    capsys.readouterr()
    side = json.loads((tmp_path / "c.digits.json").read_text())
    *path, last = key.split(".")
    (side[path[0]] if path else side)[last] = value
    return json.dumps(side)


@pytest.mark.parametrize("text", ["{}", "[]", '{"schedule": {}}', None,
                                  ("beta", "approximant", 5), ("restricted", "digit_set", 5),
                                  ("bary", "schedule.n", "12"), ("bary", "base", "3"),
                                  ("bary", "base", 0), ("bary", "base", 1), ("bary", "base", -3),
                                  ("bary", "schedule.m", [0, 0]),
                                  ("bary", "schedule.u", [10 ** 6, 10 ** 6]),
                                  ("bary", "schedule.theta", "7/2"), ("bary", "schedule.m", [6]),
                                  ("restricted", "schedule.delta", [2, 9]),
                                  ("beta", "schedule.l", [1, 1, 1]), ("beta", "schedule.N", 2),
                                  ("beta", "schedule.N", 0)])
def test_measure_refuses_what_is_not_a_sidecar(tmp_path, capsys, text):
    sidecar = tmp_path / "s.json"
    if text is None:
        sidecar = Path(os.devnull)
    else:
        if isinstance(text, tuple):
            text = edited_sidecar(tmp_path, capsys, *text)
        sidecar.write_text(text)
    assert main(["measure", "--sidecar", str(sidecar), "--n", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: not a construction sidecar: {str(sidecar)!r}\n")


def test_a_beta_sidecar_needs_its_approximant(tmp_path, capsys):
    out = tmp_path / "b.digits"
    assert main(["construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1",
                 "--N", "3", "--stages", "2", "-o", str(out)]) == 0
    sidecar = tmp_path / "b.digits.json"
    side = json.loads(sidecar.read_text())
    del side["approximant"]
    sidecar.write_text(json.dumps(side))
    capsys.readouterr()
    assert main(["measure", "--sidecar", str(sidecar), "--n", "6"]) == 2
    assert capsys.readouterr() == ("", f"error: not a construction sidecar: {str(sidecar)!r}\n")


@pytest.mark.parametrize("flavor, extra", [
    ("beta", ["--beta", "root:1,1", "--N", "3"]),
    ("beta", ["--beta", "rat:3/2", "--N", "4"]),
    ("param", ["--beta0", "rat:3/2", "--beta1", "root:1,1", "--beta2", "root:1,1,1",
               "--N", "5"])])
def test_a_negative_constant_fill_is_clamped(tmp_path, capsys, flavor, extra):
    # every free digit is clamped up to 0 (or to 1 at the zero-run cap)
    out = tmp_path / "c.digits"
    assert main(["construct", flavor, "--theta", "3", "--vhat", "1/3", "--stages", "2",
                 "--fill", "const:-1", *extra, "-o", str(out)]) == 0
    side = json.loads((tmp_path / "c.digits.json").read_text())
    clamps = (side["construction"] if flavor == "param" else side)["clamps"]
    assert clamps > 0
    assert "-1" not in out.read_text().split()


@pytest.mark.parametrize("base", ["0", "1", "-3"])
def test_dim_local_needs_an_integer_base_above_one(capsys, base):
    assert main(["dim", "local", "--theta", "3", "--vhat", "1/3", "--base", base]) == 1
    assert capsys.readouterr() == ("", f"usage error: dim local needs --base >= 2, got {base}\n")


@pytest.mark.parametrize("argv", [
    ["dim", "formula", "--theta", "3", "--vhat", "1/3", "--digit-set", "0,2"],
    ["construct", "bary", "--theta", "3", "--vhat", "1/3"],
    ["construct", "restricted", "--theta", "3", "--vhat", "1/3", "--digit-set", "0,2"]])
@pytest.mark.parametrize("base", ["1", "-3"])
def test_a_digit_set_or_construction_base_below_two_is_a_usage_error(capsys, argv, base):
    assert main([*argv, f"--base={base}"]) == 1
    what = " ".join(argv[:2])
    assert capsys.readouterr() == ("", f"usage error: {what} needs --base >= 2, got {base}\n")


def test_a_restricted_digit_set_in_base_two_stays_infeasible(capsys):
    # 2 passes the option's least value; the digit set itself needs base 3
    assert main(["construct", "restricted", "--theta", "3", "--vhat", "1/3", "--base", "2",
                 "--digit-set", "0,1"]) == 2
    assert capsys.readouterr() == ("", "infeasible: restricted digit sets need base >= 3\n")


@pytest.mark.parametrize("option", ["--beta", "--beta0", "--beta1", "--beta2"])
def test_a_zero_denominator_base_is_an_error(capsys, option):
    bases = {"--beta0": "rat:3/2", "--beta1": "root:1,1", "--beta2": "root:1,1", option: "rat:1/0"}
    if option == "--beta":
        argv = ["expand-one", "--beta", "rat:1/0", "--digits", "3"]
    else:
        argv = ["construct", "param", "--theta", "3", "--vhat", "1/3", "--N", "2",
                *(t for kv in bases.items() for t in kv)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: zero denominator in base spec 'rat:1/0'\n")


@pytest.mark.parametrize("spec", ["root:", "word:", "root:1,x", "approx:root:1,1:x", "int:x",
                                  "rat:x", "word:1,(x)"])
def test_a_malformed_base_spec_is_an_error(capsys, spec):
    assert main(["expand-one", "--beta", spec, "--digits", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: malformed base spec {spec!r}\n")


def test_a_zero_denominator_approximant_is_an_error(tmp_path, capsys):
    out = tmp_path / "b.digits"
    assert main(["construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1",
                 "--N", "3", "--stages", "2", "-o", str(out)]) == 0
    sidecar = tmp_path / "b.digits.json"
    side = json.loads(sidecar.read_text())
    side["approximant"] = "approx:rat:5/0:3"
    sidecar.write_text(json.dumps(side))
    capsys.readouterr()
    assert main(["measure", "--sidecar", str(sidecar), "--n", "6"]) == 2
    assert capsys.readouterr() == ("", "error: zero denominator in base spec 'rat:5/0'\n")


@pytest.mark.parametrize("flavor, extra", [
    ("bary", ["--base", "3"]), ("restricted", ["--base", "3", "--digit-set", "0,2"]),
    ("beta", ["--beta", "root:1,1", "--N", "3"])])
@pytest.mark.parametrize("vhat", ["1", "3/2", "0"])
def test_vhat_outside_the_unit_interval_is_infeasible(capsys, flavor, extra, vhat):
    assert main(["construct", flavor, "--theta", "3", "--vhat", vhat, *extra]) == 2
    assert capsys.readouterr() == ("", f"infeasible: need 0 < vhat < 1, got {vhat}\n")


@pytest.mark.parametrize("flavor", ["bary", "restricted"])
def test_theta_below_the_threshold_is_infeasible(capsys, flavor):
    extra = ["--digit-set", "0,2"] if flavor == "restricted" else []
    assert main(["construct", flavor, "--theta", "6/5", "--vhat", "1/2", "--base", "3",
                 *extra]) == 2
    assert capsys.readouterr() == (
        "", "infeasible: theta 6/5 below the emptiness threshold 2\n")


@pytest.mark.parametrize("fill", ["const:1", "random"])
@pytest.mark.parametrize("flavor", ["bary", "restricted"])
def test_a_construction_base_above_256_is_infeasible(capsys, flavor, fill):
    extra = ["--digit-set", "0,2"] if flavor == "restricted" else []
    assert main(["construct", flavor, "--theta", "3", "--vhat", "1/3", "--base", "300",
                 "--fill", fill, *extra]) == 2
    assert capsys.readouterr() == (
        "", "infeasible: a construction's base is at most 256 (one byte per digit), not 300\n")


@pytest.mark.parametrize("fill", ["const:1", "random"])
def test_construct_beta_over_more_than_256_digits(tmp_path, capsys, fill):
    path = str(tmp_path / "r.digits")
    assert main(["construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta", "rat:1000/3",
                 "--N", "2", "--stages", "3", "--fill", fill, "-o", path]) == 0
    assert capsys.readouterr().err == ""
    assert Path(path).read_text().startswith("base=334\n")
    rc, out = run(capsys, "exponents", "--input", path)
    assert rc == 0 and json.loads(out)["horizon"] == 104
    rc, out = run(capsys, "measure", "--sidecar", path + ".json", "--n", "20")
    assert rc == 0 and json.loads(out)["n"] == 20


@pytest.mark.parametrize("flavor", ["beta", "param"])
@pytest.mark.parametrize("N", ["0", "-3"])
def test_N_below_one_is_an_error(capsys, flavor, N):
    bases = (["--beta", "root:1,1"] if flavor == "beta" else
             ["--beta0", "rat:3/2", "--beta1", "root:1,1", "--beta2", "root:1,1"])
    assert main(["construct", flavor, "--theta", "3", "--vhat", "1/3", "--N", N, *bases]) == 1
    assert capsys.readouterr() == ("", f"usage error: construct {flavor} needs --N >= 1, got {N}\n")


@pytest.mark.parametrize("given", [["--N", "0"], ["--N=0"]])
def test_dim_local_N_below_one_is_a_usage_error(capsys, given):
    assert main(["dim", "local", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1",
                 *given]) == 1
    assert capsys.readouterr() == ("", "usage error: dim local needs --N >= 1, got 0\n")


def test_dim_local_digit_set(capsys):
    from betadio.measures_dim import local_dimension_bary
    rc, out = run(capsys, "dim", "local", "--theta", "3", "--vhat", "1/3", "--base", "3",
                  "--digit-set", "0,2", "--stages", "4")
    assert rc == 0
    data = json.loads(out)
    assert data["config"]["digit_set"] == "0,2"
    rep = local_dimension_bary(F(3), F(1, 3), DigitSet(3, frozenset({0, 2})), 4, F(1, 100),
                               256)
    assert data["trajectory"] == json.loads(json.dumps(rep.to_json_dict()))["trajectory"]
    assert len(data["trajectory"]) == 4


def test_dim_local_csv_to_a_file(tmp_path, capsys):
    out_file = tmp_path / "d.csv"
    argv = ["dim", "local", "--theta", "3", "--vhat", "1/3", "--base", "3", "--stages", "3",
            "--format", "csv"]
    rc, out = run(capsys, *argv)
    assert rc == 0
    rc, empty = run(capsys, *argv, "-o", str(out_file))
    assert rc == 0 and empty == ""
    assert out_file.read_bytes() == out.encode()
    assert out.splitlines() == ["k,ratio_lower,ratio_upper",
                                "1,0.3333333333333333,0.3333333333333333",
                                "2,0.2222222222222222,0.2222222222222222",
                                "3,0.2222222222222222,0.2222222222222222"]


def test_exponents_trajectory(tmp_path, capsys):
    out_file = tmp_path / "w.digits"
    assert main(["expand", "--base", "10", "--lacunary", "1", "--digits", "512",
                 "-o", str(out_file)]) == 0
    rc, out = run(capsys, "exponents", "--input", str(out_file))
    rc_t, out_t = run(capsys, "exponents", "--input", str(out_file), "--trajectory")
    assert rc == rc_t == 0
    plain, with_trajectory = json.loads(out), json.loads(out_t)
    trajectory = with_trajectory.pop("trajectory")
    assert "trajectory" not in plain and with_trajectory == plain
    assert trajectory and all(len(row) == 3 for row in trajectory)
    assert [row[0] for row in trajectory] == sorted(row[0] for row in trajectory)
    assert all(F(rv) >= 0 for _k, rv, _rh in trajectory)


def test_admissible_list_to_a_file(tmp_path, capsys):
    out_file = tmp_path / "l.json"
    rc, out = run(capsys, "admissible", "list", "--beta", "root:1,1", "--len", "3",
                  "-o", str(out_file))
    assert rc == 0 and out == ""
    data = json.loads(out_file.read_text())
    assert data["config"]["cmd"] == "admissible list"
    assert data["n"] == 3
    assert data["words"] == ["0 0 0", "0 0 1", "0 1 0", "1 0 0", "1 0 1"]
    rc, out = run(capsys, "admissible", "list", "--beta", "root:1,1", "--len", "3")
    assert out.splitlines() == data["words"]


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
LIBRARY = ("numerics", "roots", "logarithm", "words", "digit_files", "bary", "exponents",
           "runs", "digit_sets", "automaton", "beta_shift", "orbits", "beta_values", "layout",
           "fills", "constructions", "beta_constructions", "closed_forms", "measures_dim",
           "jsontext", "commands")


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


# the real-base layers: a base's words, its greedy orbits, its root, its
# cylinders, its generators
REAL_BASE = ("automaton", "beta_shift", "orbits", "roots", "beta_values", "beta_constructions")
# an integer-base word's run analysis, and the runs it and the run caps find
RUN_ANALYSIS = ("exponents", "runs")
CLOSED_FORMS = ("words", "digit_files", "bary", "digit_sets", "numerics", "logarithm",
                "layout", "fills", "constructions", "measures_dim") + RUN_ANALYSIS + REAL_BASE
NO_REAL_BASE = ("digit_sets", "numerics", "logarithm", "layout", "fills", "constructions",
                "closed_forms", "measures_dim") + REAL_BASE
INTEGER_BASE = ("numerics", "logarithm", "bary", "exponents") + REAL_BASE
LAYOUT_ONLY = ("words", "digit_files", "bary", "numerics", "logarithm", "fills",
               "constructions") + RUN_ANALYSIS + REAL_BASE
NO_WORDS = ("words", "digit_files", "bary", "fills", "constructions") + RUN_ANALYSIS + REAL_BASE
NO_GENERATOR = ("layout", "fills", "constructions", "beta_constructions", "closed_forms",
                "measures_dim", "logarithm", "bary") + RUN_ANALYSIS
# the words of a base and their counts need its expansion of 1 alone, not beta
NO_BETA = NO_GENERATOR + ("numerics", "roots", "beta_values")
WORDS_ONLY = NO_BETA + ("digit_files",)
# and a base given by its expansion of 1 steps no greedy orbit
GIVEN_BY_ONE = WORDS_ONLY + ("orbits",)
FOOTPRINTS = [
    ("dim formula --theta 3 --vhat 1/3", CLOSED_FORMS),
    ("dim formula --vhat 1/3 --sup", CLOSED_FORMS),
    ("dim s0 --theta 3 --vhat 1/3 --eps 1/10", CLOSED_FORMS),
    ("reprove --v 1 --thetas 4 8", CLOSED_FORMS),
    ("--version", CLOSED_FORMS),
    # an expansion loads bary's producers, no run analysis
    ("expand --base 10 --x 1/7 --digits 20", NO_REAL_BASE + RUN_ANALYSIS),
    ("expand --base 10 --lacunary 1 --digits 20", NO_REAL_BASE + RUN_ANALYSIS),
    # the run analysis loads no producer
    ("exponents --input e.digits", NO_REAL_BASE + ("bary",)),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --stages 6", INTEGER_BASE),
    ("construct restricted --theta 3 --vhat 1/3 --base 3 --digit-set 0,2 --fill random",
     INTEGER_BASE),
    # a real-base generator loads the fills, not the integer-base generator
    ("construct beta --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 4",
     ("numerics", "roots", "beta_values", "orbits", "logarithm", "closed_forms", "measures_dim",
      "constructions", "bary") + RUN_ANALYSIS),
    ("construct param --theta 3 --vhat 1/3 --beta0 rat:3/2 --beta1 root:1,1 --beta2 root:1,1,1"
     " --N 5 --stages 3", ("logarithm", "closed_forms", "measures_dim", "beta_values",
                           "constructions", "bary") + RUN_ANALYSIS),
    ("dim local --theta 3 --vhat 1/3 --base 3 --stages 8", LAYOUT_ONLY + ("digit_sets",)),
    # a digit set is read without bary's expansions and words
    ("dim formula --theta 3 --vhat 1/3 --digit-set 0,2", NO_WORDS + ("layout", "measures_dim")),
    ("dim local --theta 3 --vhat 1/3 --base 3 --digit-set 0,2 --stages 8", NO_WORDS),
    ("dim local --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 3",
     ("fills", "constructions", "beta_constructions", "digit_files", "beta_values", "orbits",
      "bary") + RUN_ANALYSIS),
    # the integer-base exponent is counted by layout alone
    ("measure --sidecar e.digits.json --n 54",
     LAYOUT_ONLY + ("closed_forms", "digit_sets", "measures_dim", "jsontext")),
    ("measure --sidecar k.digits.json --n 54",
     LAYOUT_ONLY + ("closed_forms", "measures_dim", "jsontext")),
    ("admissible count --beta root:1,1 --len 5", GIVEN_BY_ONE),
    ("admissible count --beta word:2,0,1,1 --len 50", GIVEN_BY_ONE),
    ("admissible count --beta word:2,(1,0) --len 50", GIVEN_BY_ONE),
    ("admissible count --beta int:3 --len 20", GIVEN_BY_ONE),
    # a rational base's expansion of 1 is its greedy orbit of 1, stepped in
    # ints: no roots, no numerics
    ("admissible count --beta rat:3/2 --len 20", WORDS_ONLY),
    ("admissible count --beta int:3 --len 20 --renyi", GIVEN_BY_ONE),
    # the Rényi check reads beta through roots and numerics alone
    ("admissible count --beta root:1,1 --len 60 --renyi",
     NO_GENERATOR + ("digit_files", "words", "beta_values", "orbits")),
    ("admissible check --beta root:1,1 --word 1,0,1", GIVEN_BY_ONE),
    ("admissible check --beta rat:3/2 --word 1,0,1,0,1", WORDS_ONLY),
    ("admissible list --beta root:1,1,1 --len 4", GIVEN_BY_ONE),
    ("admissible list --beta int:2 --len 3", GIVEN_BY_ONE),
    # a cylinder steps no orbit and inverts no word
    ("cylinder --beta root:1,1 --word 1,0", NO_GENERATOR + ("digit_files", "orbits")),
    ("expand --beta root:1,1 --x 1 --digits 5", NO_GENERATOR),
    # a rational base's greedy digits read no beta as an interval
    ("expand --beta rat:3/2 --x 1/2 --digits 5",
     NO_GENERATOR + ("numerics", "roots", "beta_values")),
    ("expand-one --beta int:3 --digits 4", NO_BETA + ("orbits",)),
    ("expand-one --beta root:1,1,1 --digits 8", NO_BETA + ("orbits",)),
    # a root whose coefficients are not its expansion of 1: its certified orbit
    ("expand-one --beta root:1,0,2 --digits 8", NO_GENERATOR + ("beta_values",)),
    # self-admissibility is the automaton's alone
    ("parry check --word 1,1,0", WORDS_ONLY + ("beta_shift", "orbits")),
    ("parry invert --word 1,1 --bits 64", NO_GENERATOR + ("digit_files", "beta_values", "orbits")),
]


# runs the command under -S and prints the modules it loaded to stderr
RUN_MAIN = ("import sys, betadio.cli\n"
            "try:\n"
            "    sys.exit(betadio.cli.main(sys.argv[1:]))\n"
            "finally:\n"
            "    print(*sys.modules, file=sys.stderr)\n")


@pytest.fixture
def sidecars(tmp_path):
    """A directory holding e.digits and k.digits with their sidecars, an
    integer-base and a restricted construction."""
    assert main(["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3",
                 "--stages", "8", "-o", str(tmp_path / "e.digits")]) == 0
    assert main(["construct", "restricted", "--theta", "3", "--vhat", "1/3", "--base", "3",
                 "--digit-set", "0,2", "--fill", "random", "--stages", "8",
                 "-o", str(tmp_path / "k.digits")]) == 0
    return tmp_path


@pytest.mark.parametrize("command, unused", FOOTPRINTS, ids=[c for c, _u in FOOTPRINTS])
def test_command_footprint(sidecars, command, unused):
    """A command loads only the layers it calls and its own handler module,
    and the stdlib modules kept off the start-up path stay off but for
    argparse's on --version."""
    loaded = _loaded(_cli("-S", "-c", RUN_MAIN, *command.split(), cwd=sidecars))
    assert not {f"betadio.{layer}" for layer in unused} & loaded
    name = command.split()[0]
    own = {f"betadio.commands.{name.replace('-', '_')}"} if name in _COMMANDS else set()
    assert {m for m in loaded if m.startswith("betadio.commands.")} == own
    if command == "--version":
        loaded -= {"argparse", "gettext", "locale"}
    assert not KEPT_OFF & loaded


# a base given by its expansion of 1 has its words counted, checked and
# listed in ints, without fractions (and the decimal and numbers it imports)
# and without a digit word; so has an integer base its Rényi check, and an
# integer-base or restricted sidecar its measure, whose schedule is rebuilt
# in ints (a real-base sidecar's measure reads beta through numerics)
INT_COMMANDS = [
    "admissible count --beta root:1,1 --len 5",
    "admissible check --beta root:1,1 --word 1,0,1",
    "admissible list --beta int:2 --len 3",
    "parry check --word 1,1,0",
    "admissible count --beta int:3 --len 20 --renyi",
    "measure --sidecar e.digits.json --n 54",
    "measure --sidecar k.digits.json --n 54",
]


@pytest.mark.parametrize("command", INT_COMMANDS)
def test_int_commands_load_no_fractions_or_digit_words(sidecars, command):
    loaded = _loaded(_cli("-S", "-c", RUN_MAIN, *command.split(), cwd=sidecars))
    assert not {"fractions", "decimal", "numbers", "betadio.words"} & loaded


# JSON is written by jsontext, the same bytes as json.dumps(..., indent=2);
# json is imported only to read a sidecar, and measure writes with it too
JSON_COMMANDS = [
    ("cylinder --beta root:1,1 --word 1,0", False),
    ("admissible count --beta root:1,1 --len 60 --renyi", False),
    ("dim local --theta 3 --vhat 1/3 --base 3 --stages 8", False),
    ("dim local --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 3", False),
    ("reprove --v 1 --thetas 4 8", False),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --stages 6 -o c.digits", False),
    ("construct beta --theta 3 --vhat 1/3 --beta root:1,1 --N 3 --stages 4 -o b.digits", False),
    ("expand-one --beta int:3 --digits 4 -o one.digits", False),
    ("measure --sidecar e.digits.json --n 54", True),
    ("measure --sidecar k.digits.json --n 54", True),
]


@pytest.mark.parametrize("command, reads", JSON_COMMANDS, ids=[c for c, _r in JSON_COMMANDS])
def test_only_a_command_that_reads_json_imports_json(sidecars, command, reads):
    loaded = _loaded(_cli("-S", "-c", RUN_MAIN, *command.split(), cwd=sidecars))
    assert ("json" in loaded) is reads
    assert ("betadio.jsontext" in loaded) is not reads


MAIN_PATH = [
    ("dim formula --theta 3 --vhat 1/3", 0),
    ("admissible count --beta root:1,1 --len 5", 0),
    ("measure --sidecar e.digits.json --n 54", 0),
    ("expand --base 10 --x 1/7 --digits 0", 1),
    ("measure --sidecar e.digits.json --n -1", 1),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --digit-set 0,2", 1),
    ("construct bary --theta 3 --vhat 1/3 --base 3 --fill const:abc", 1),
]


@pytest.mark.parametrize("command, code", MAIN_PATH, ids=[c for c, _code in MAIN_PATH])
def test_main_path_never_imports_the_cli_module(tmp_path, command, code):
    """Under ``python -m betadio.cli`` the floor runs as ``__main__``: no
    handler imports ``betadio.cli``, which would compile the floor again and
    raise a second ``UsageError`` that ``__main__`` does not catch."""
    assert main(["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3",
                 "--stages", "8", "-o", str(tmp_path / "e.digits")]) == 0
    # the process ends in os._exit, after the atexit callbacks: a finally
    # after run_module would not run
    run_main = ("import atexit, runpy, sys\n"
                "atexit.register(lambda: print('betadio.cli' in sys.modules, file=sys.stderr))\n"
                "runpy.run_module('betadio.cli', run_name='__main__')\n")
    for argv in (["-c", run_main], ["-m", "betadio.cli"]):
        proc = _cli(*argv, *command.split(), cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        err = proc.stderr.splitlines()
        if argv[0] == "-c":
            assert err.pop() == "False"
        if code:
            assert len(err) == 1 and err[0].startswith("usage error:"), proc.stderr
        else:
            assert err == [] and proc.stdout


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


HELP = Path(__file__).resolve().parent / "help_py{}{}.txt".format(*sys.version_info[:2])


@pytest.mark.skipif(not HELP.exists(), reason="argparse lays out help differently from one "
                    "Python version to the next; no copy is recorded for this one")
def test_help_is_the_recorded_copy(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = ""
    for argv in [["--help"], *([name, "--help"] for name in _COMMANDS)]:
        with pytest.raises(SystemExit):
            main(argv)
        text += f"$ betadio {' '.join(argv)}\n{capsys.readouterr().out}"
    assert text == HELP.read_text()


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
    assert (proc.returncode, out, err) == (2, b"", b"error: Broken pipe\n")


@pytest.mark.parametrize("argv, path, reason", [
    ("parry invert --word 1,1,0 -o .", ".", "Is a directory"),
    ("parry invert --word 1,1,0 -o missing/o", "missing/o", "No such file or directory"),
    ("exponents --input missing.digits", "missing.digits", "No such file or directory"),
    ("measure --sidecar missing.json --n 3", "missing.json", "No such file or directory"),
])
def test_a_file_error_names_the_reason_and_the_path(tmp_path, monkeypatch, capsys, argv, path,
                                                    reason):
    """An OSError reaches stderr as its reason and its file, without
    Python's ``[Errno N]``; exit 2."""
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {reason}: {path!r}\n")


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
    base = DigitSet(3, {0, 2}) if flavor == "restricted" else 3
    clamps = generate_bary(base, F(4), F(1, 8), 2, FillPolicy.parse(extra[-1])).clamps
    assert clamps
    assert proc.stderr.splitlines() == lines + [f"fill policy clamped at {len(clamps)} positions"]
