"""Tests of the benchmark itself: job lists, span arithmetic, output checks.

The checks are run on real outputs of the CLI (made in-process into a
temporary directory) to show they accept them, then on the same outputs
with one digit, one count or one bound corrupted to show they reject them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import basemath  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

betadio_cli = pytest.importorskip("betadio.cli")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert jobs.make_jobs(workload, 5) == jobs.make_jobs(workload, 5)
    assert jobs.make_jobs(workload, 5) != jobs.make_jobs(workload, 6)
    names = [j.name for j in jobs.make_jobs(workload, 5)]
    assert len(names) == len(set(names))


def test_readme_seed_zero_is_the_readme():
    argv = [" ".join(j.argv) for j in jobs.make_jobs("readme", 0)]
    assert "dim formula --theta 3 --vhat 1/3" in argv
    assert "admissible check --beta root:1,1 --word 0,1,1,0" in argv
    assert "parry invert --word (1,0)" in argv


def test_known_defect_counts_pass_the_int_str_limit():
    for job in jobs.make_jobs("beta_certify", 3):
        if job.check == "count":
            c = basemath.count_words(basemath.parse_base(job.params["beta"]), job.params["n"])
            assert (c >= 10 ** jobs.INT_STR_DIGITS) == bool(job.known_defect), job.name


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        [tracer.IMPORT, 0.0, 1.0, -1],
        ["cli:main", 1.0, 10.0, -1],
        ["numerics:ln", 2.0, 5.0, 1],
        ["numerics:ln", 3.0, 4.0, 2],        # nested in a span of the same name
        ["beta_shift:count", 6.0, 9.0, 1],
        ["numerics:PolyRoot.refine", 7.0, 8.5, 4],
    ]
    assert tracer.self_times(spans) == {"import": 1.0, "cli": 3.0, "numerics": 4.5,
                                        "beta_shift": 1.5}
    assert tracer.inclusive(spans, "numerics:ln") == (2, 3.0)
    doc = {"spans": spans, "calls": {"numerics:Scalar.ops": 7}, "stats": {}}
    m = tracer.job_metrics(doc, wall=12.0)
    assert m["cli.import_s"] == 1.0 and m["cli.self_s"] == 3.0
    assert m["trace.untraced_s"] == 2.0
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + m["cli.import_s"] + m["trace.untraced_s"] == 12.0
    assert m["numerics.calls"] == 3 + 7 and m["numerics.scalar_ops"] == 7
    assert m["numerics.ln_calls"] == 2 and m["numerics.ln_s"] == 3.0
    assert m["numerics.refine_s"] == 1.5


def test_pass_metrics_hit_ratio():
    a = {"beta_shift.count_calls": 4, "beta_shift.count_cache_hits": 1}
    b = {"beta_shift.count_calls": 6, "beta_shift.count_cache_hits": 4}
    assert tracer.pass_metrics([a, b])["beta_shift.count_cache_hit_ratio"] == 0.5


def test_each_job_is_scaled_by_its_nearest_references(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_S", 0.14)
    monkeypatch.setattr(run, "REFERENCE_EVERY", 3)
    monkeypatch.setattr(run, "REFERENCE_WINDOW", 3)
    results = [run.Result(None, 1.0, 0.0, 0) for _ in range(10)]  # four groups
    p = run.Pass(results, True, [0.07, 0.07, 0.28, 0.28])
    # groups 0 and 1 take references 0-2 (median 0.07), groups 2 and 3 take 1-3 (0.28)
    assert p.scaled_walls() == pytest.approx([2.0] * 6 + [0.5] * 4)
    assert run.Pass(results[:2], False, [0.28]).scaled_walls() == pytest.approx([0.5] * 2)


@pytest.mark.parametrize("spec", ["root:1,1", "root:1,1,1", "root:2,0,1,1", "rat:3/2",
                                  "approx:root:1,1:3", "int:3"])
def test_recurrence_matches_brute_force(spec):
    base = basemath.parse_base(spec)
    for n in range(7):
        words = itertools.product(range(base.top + 1), repeat=n)
        assert basemath.count_words(base, n) == sum(basemath.is_admissible(base, w)
                                                    for w in words)


def test_admissible_word_sampler_gives_admissible_words():
    rng = random.Random(1)
    for spec in ("root:1,1,1", "root:2,0,1,1", "rat:3/2"):
        base = basemath.parse_base(spec)
        assert basemath.is_admissible(base, jobs.admissible_word(base, 300, rng))


# ---------------------------------------------------------------------------
# checks: accept the real output, reject a corrupted one


def cli(tmp_path, monkeypatch, *argv) -> checks.Output:
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert betadio_cli.main(list(argv)) == 0
    return checks.Output(tmp_path, buf.getvalue().encode())


def verdict(name, params, out):
    job = jobs.Job("t", [], name, params)
    return checks.check(job, out)


def test_count_check(tmp_path, monkeypatch):
    p = {"beta": "root:1,1,1", "n": 40}
    out = cli(tmp_path, monkeypatch, "admissible", "count", "--beta", "root:1,1,1", "--len", "40")
    assert verdict("count", p, out) is None
    wrong = checks.Output(tmp_path, str(int(out.text) + 1).encode())
    assert "off by 1" in verdict("count", p, wrong)


def test_admissible_check_check(tmp_path, monkeypatch):
    p = {"beta": "root:1,1", "word": [1, 0, 1, 1]}
    out = cli(tmp_path, monkeypatch, "admissible", "check", "--beta", "root:1,1",
              "--word", "1,0,1,1")
    assert out.text.strip() == "false" and verdict("admissible_check", p, out) is None
    assert verdict("admissible_check", p, checks.Output(tmp_path, b"true\n"))


def test_parry_invert_check(tmp_path, monkeypatch):
    p = {"word": "1,1,0,1"}
    out = cli(tmp_path, monkeypatch, "parry", "invert", "--word", "1,1,0,1")
    assert verdict("parry_invert", p, out) is None
    off = f"{float(out.text) + 1e-9:.15f}".encode()
    assert verdict("parry_invert", p, checks.Output(tmp_path, off))


def test_cylinder_check(tmp_path, monkeypatch):
    p = {"beta": "root:1,1,1"}
    out = cli(tmp_path, monkeypatch, "cylinder", "--beta", "root:1,1,1", "--word", "1,1,0,1")
    assert verdict("cylinder", p, out) is None
    d = out.json()
    d["full"] = not d["full"]
    assert verdict("cylinder", p, checks.Output(tmp_path, json.dumps(d).encode()))
    d = out.json()
    d["left"]["lower"] = d["left"]["upper"]
    d["left"]["upper"] = "1/1"
    assert verdict("cylinder", p, checks.Output(tmp_path, json.dumps(d).encode()))


def flip(path: Path, position: int) -> None:
    """Change the digit at a 1-based position of a digit file."""
    head, _, body = path.read_bytes().partition(b"\n")
    tokens = body.split()
    tokens[position - 1] = b"1" if tokens[position - 1] != b"1" else b"0"
    path.write_bytes(head + b"\n" + b" ".join(tokens) + b"\n")


def test_construct_bary_check_and_its_readers(tmp_path, monkeypatch):
    cli(tmp_path, monkeypatch, "construct", "bary", "--theta", "3", "--vhat", "1/3",
        "--base", "3", "--stages", "6", "-o", "e.digits")
    out = checks.Output(tmp_path, b"")
    assert verdict("construct_bary", {"file": "e.digits"}, out) is None
    for n in (27, 500, 3 ** 7):
        m = cli(tmp_path, monkeypatch, "measure", "--sidecar", "e.digits.json", "--n", str(n))
        assert verdict("measure", {"file": "e.digits", "n": n}, m) is None
        d = m.json()
        d["exponent"] += 1
        bad = checks.Output(tmp_path, json.dumps(d).encode())
        assert verdict("measure", {"file": "e.digits", "n": n}, bad)
    ex = cli(tmp_path, monkeypatch, "exponents", "--input", "e.digits")
    assert verdict("exponents", {"file": "e.digits"}, ex) is None
    d = ex.json()
    d["v_lower"] = "2"
    assert verdict("exponents", {"file": "e.digits"}, checks.Output(tmp_path, json.dumps(d).encode()))
    run_start = json.loads((tmp_path / "e.digits.json").read_text())["schedule"]["n"][2] + 1
    flip(tmp_path / "e.digits", run_start)
    assert "run" in verdict("construct_bary", {"file": "e.digits"}, out)


def test_construct_beta_check(tmp_path, monkeypatch):
    cli(tmp_path, monkeypatch, "construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta",
        "root:1,1", "--N", "3", "--stages", "6", "--fill", "random", "--seed", "7",
        "-o", "b.digits")
    out = checks.Output(tmp_path, b"")
    assert verdict("construct_beta", {"file": "b.digits"}, out) is None
    n = 1500
    m = cli(tmp_path, monkeypatch, "measure", "--sidecar", "b.digits.json", "--n", str(n))
    assert verdict("measure", {"file": "b.digits", "n": n}, m) is None
    d = m.json()
    d["factors"][-1][1] += 1
    bad = checks.Output(tmp_path, json.dumps(d).encode())
    assert verdict("measure", {"file": "b.digits", "n": n}, bad)
    l1 = json.loads((tmp_path / "b.digits.json").read_text())["schedule"]["l"][1]
    flip(tmp_path / "b.digits", l1 + 1)
    assert "block" in verdict("construct_beta", {"file": "b.digits"}, out)


def test_digit_reader_handles_both_layouts():
    assert checks.digits_of(b"base=3\n0 1 2\n2 1\n") == (3, bytes([0, 1, 2, 2, 1]))
    assert checks.digits_of(b"base=16\n0 15 11\n") == (16, bytes([0, 15, 11]))
