"""The job lists of the benchmark's workloads, made from a seed.

A job is one ``python -m betadio.cli ARGV`` process.  A pass runs a
workload's job list once, in order; jobs that read a file come after the
job that writes it.  The seed picks the light inputs (words, lengths, fill
seeds, rationals) and the order of independent jobs.  The heavy jobs keep
the same arguments on every seed, so a pass costs about the same whatever
the seed; seed 0 of ``readme`` is the README's examples verbatim.

Every file a job writes has a fixed relative name, because the JSON output
embeds the ``--input`` and ``--sidecar`` paths and must be byte-identical
from run to run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import basemath

WORKLOADS = ("readme", "beta_certify", "digit_pipeline")

# Counts whose decimal form has more digits than this cannot be printed by
# CPython's default int-to-str limit; the program hits that limit today.
INT_STR_DIGITS = 4300


@dataclass
class Job:
    name: str                  # unique within a pass; keys the digest table
    argv: list[str]            # arguments after ``python -m betadio.cli``
    check: str                 # name of the output check in checks.py
    params: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)  # files written, relative
    timeout: float = 30.0      # seconds before the job is killed and failed
    known_defect: str = ""     # the program fails this job today, and why


def frac(x) -> str:
    return str(Fraction(x))


def admissible_word(base: basemath.Base, n: int, rng: random.Random) -> list[int]:
    """A uniformly stepped random admissible word: each digit is drawn from
    those that keep every suffix at or below the same-length prefix of t*."""
    word: list[int] = []
    tight: list[int] = []  # starts of suffixes equal to a prefix of t*
    for i in range(n):
        limit = min([base.tstar(i - k) for k in tight] + [base.tstar(0), base.top])
        d = rng.randint(0, limit)
        tight = [k for k in tight if d == base.tstar(i - k)]
        if d == base.tstar(0):
            tight.append(i)
        word.append(d)
    return word


def self_admissible_word(rng: random.Random, length: int, top: int = 1) -> list[int]:
    while True:
        w = [rng.randint(1, top)] + [rng.randint(0, top) for _ in range(length - 1)]
        if w[-1] and basemath.is_self_admissible(w):
            return w


def max_count_length(spec: str) -> int:
    """Largest n whose admissible-word count stays within INT_STR_DIGITS digits."""
    beta = float(basemath.parse_base(spec).beta)
    return int((INT_STR_DIGITS - 10) / math.log10(beta))


def slug(spec: str) -> str:
    """A base spec as a file-name-safe job name part."""
    return spec.replace(":", "-").replace(",", "").replace("/", "_")


def commas(word) -> str:
    return ",".join(map(str, word))


# ---------------------------------------------------------------------------
# readme: the README's CLI examples; process start-up dominates


def readme_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"readme:{seed}")
    verbatim = seed == 0

    def pick(default, choices):
        return default if verbatim else rng.choice(choices)

    theta, vhat = pick(("3", "1/3"), [("3", "1/3"), ("4", "1/2"), ("5", "1/4"),
                                      ("7/2", "2/5"), ("3", "1/5")])
    sup_vhat = pick("1/3", ["1/3", "1/4", "2/5", "1/2", "3/5"])
    eps = pick("1/10", ["1/10", "1/20", "1/7", "0", "1/3"])
    local_vhat = pick("1/3", ["1/3", "1/4", "1/5"])
    golden = basemath.parse_base("root:1,1")
    count_len = 5 if verbatim else rng.randint(3, 40)
    check_word = [0, 1, 1, 0] if verbatim else [rng.randint(0, 1) for _ in range(4)]
    list_len = 4 if verbatim else rng.randint(3, 6)
    x = "1/7" if verbatim else frac(Fraction(rng.randint(1, 96), 97))
    x_digits = 7 if verbatim else rng.randint(7, 40)
    lacunary = pick("1", ["1", "1/2", "2"])
    beta_x = "1" if verbatim else frac(Fraction(rng.randint(1, 30), 31))
    one_base = pick("int:3", ["int:2", "int:3", "int:5", "int:10"])
    cyl_word = [1] if verbatim else admissible_word(golden, rng.randint(1, 8), rng)
    fill = "7" if verbatim else str(rng.randint(0, 999))
    parry_word = [1, 0, 1, 0] if verbatim else [1] + [rng.randint(0, 1) for _ in range(3)]
    invert_word = "(1,0)" if verbatim else rng.choice(["(1,0)", "(1,1,0)", "1,(1,0)", "(1,0,0)",
                                                       "1,1,(0,1)", "(2,1)"])
    measure_n = 54 if verbatim else rng.randint(10, 3 ** 9)
    v = pick("1", ["1", "2", "1/2"])

    dim = ["dim"]
    return [
        Job("formula", dim + ["formula", "--theta", theta, "--vhat", vhat],
            "dim_formula", {"theta": theta, "vhat": vhat}),
        Job("formula-sup", dim + ["formula", "--vhat", sup_vhat, "--sup"],
            "dim_formula_sup", {"vhat": sup_vhat}),
        Job("s0", dim + ["s0", "--theta", theta, "--vhat", vhat, "--eps", eps],
            "dim_s0", {"theta": theta, "vhat": vhat, "eps": eps}),
        Job("local-bary", dim + ["local", "--theta", "3", "--vhat", local_vhat, "--base", "3",
                                 "--stages", "15", "--format", "csv"],
            "dim_local_csv", {"theta": "3", "vhat": local_vhat}),
        Job("local-beta", dim + ["local", "--theta", "3", "--vhat", "1/3", "--beta", "root:1,1",
                                 "--N", "6", "--stages", "8"],
            "dim_local_beta", {"beta": "root:1,1", "N": 6}),
        Job("count", ["admissible", "count", "--beta", "root:1,1", "--len", str(count_len)],
            "count", {"beta": "root:1,1", "n": count_len}),
        Job("check", ["admissible", "check", "--beta", "root:1,1", "--word", commas(check_word)],
            "admissible_check", {"beta": "root:1,1", "word": check_word}),
        Job("list", ["admissible", "list", "--beta", "root:1,1", "--len", str(list_len)],
            "admissible_list", {"beta": "root:1,1", "n": list_len}),
        Job("expand-rational", ["expand", "--base", "10", "--x", x, "--digits", str(x_digits)],
            "expand_rational", {"base": 10, "x": x}),
        Job("expand-lacunary", ["expand", "--base", "10", "--lacunary", lacunary, "--digits", "64"],
            "expand_lacunary", {"base": 10, "v": lacunary, "n": 64}),
        Job("expand-beta", ["expand", "--beta", "root:1,1", "--x", beta_x, "--digits", "5"],
            "greedy_digits", {"beta": "root:1,1", "x": beta_x, "n": 5}),
        Job("expand-one", ["expand-one", "--beta", one_base, "--digits", "4"],
            "expansion_of_one", {"beta": one_base, "n": 4}),
        Job("cylinder", ["cylinder", "--beta", "root:1,1", "--word", commas(cyl_word)],
            "cylinder", {"beta": "root:1,1"}),
        Job("construct-bary", ["construct", "bary", "--theta", "3", "--vhat", "1/3", "--base", "3",
                               "--stages", "8", "-o", "e.digits"],
            "construct_bary", {"file": "e.digits"}, outputs=["e.digits", "e.digits.json"]),
        Job("construct-restricted", ["construct", "restricted", "--theta", "3", "--vhat", "1/3",
                                     "--base", "3", "--digit-set", "0,2", "--stages", "8",
                                     "-o", "k.digits"],
            "construct_bary", {"file": "k.digits"}, outputs=["k.digits", "k.digits.json"]),
        Job("construct-beta", ["construct", "beta", "--theta", "3", "--vhat", "1/3", "--beta",
                               "root:1,1", "--N", "3", "--stages", "6", "--fill", "random",
                               "--seed", fill, "-o", "b.digits"],
            "construct_beta", {"file": "b.digits"}, outputs=["b.digits", "b.digits.json"]),
        Job("construct-param", ["construct", "param", "--theta", "3", "--vhat", "1/3",
                                "--beta0", "rat:3/2", "--beta1", "root:1,1", "--beta2",
                                "root:1,1,1", "--N", "5", "--stages", "3", "-o", "p.digits"],
            "construct_param", {"file": "p.digits"}, outputs=["p.digits", "p.digits.json"]),
        Job("exponents", ["exponents", "--input", "e.digits"],
            "exponents", {"file": "e.digits"}),
        Job("measure", ["measure", "--sidecar", "e.digits.json", "--n", str(measure_n)],
            "measure", {"file": "e.digits", "n": measure_n}),
        Job("parry-check", ["parry", "check", "--word", commas(parry_word)],
            "parry_check", {"word": commas(parry_word)}),
        Job("parry-invert", ["parry", "invert", "--word", invert_word],
            "parry_invert", {"word": invert_word}),
        Job("reprove", ["reprove", "--v", v, "--thetas", "4", "8", "16", "64"],
            "reprove", {"v": v, "thetas": ["4", "8", "16", "64"]}),
    ]


# ---------------------------------------------------------------------------
# beta_certify: certified real-base work (numerics and beta_shift counting)


def beta_certify_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"beta_certify:{seed}")
    jobs = []
    for spec, N, stages in (("root:1,1", 7, 10), ("root:1,1,1", 6, 10),
                            ("root:2,0,1,1", 6, 10), ("rat:3/2", 6, 10)):
        argv = ["dim", "local", "--theta", "3", "--vhat", "1/3", "--beta", spec,
                "--N", str(N), "--stages", str(stages)]
        jobs.append(Job(f"local-{slug(spec)}", argv, "dim_local_beta", {"beta": spec, "N": N},
                        timeout=60))
    word = self_admissible_word(rng, 6)
    jobs.append(Job("parry-invert-4096", ["parry", "invert", "--word", commas(word),
                                          "--bits", "4096"],
                    "parry_invert", {"word": commas(word)}, timeout=60))
    jobs.append(Job("construct-param", ["construct", "param", "--theta", "3", "--vhat", "1/3",
                                        "--beta0", "rat:3/2", "--beta1", "root:1,1",
                                        "--beta2", "root:1,1,1", "--N", "5", "--stages", "4",
                                        "--fill", "random", "--seed", str(rng.randint(0, 999)),
                                        "-o", "param.digits"],
                    "construct_param", {"file": "param.digits"},
                    outputs=["param.digits", "param.digits.json"]))
    for spec in ("root:1,1", "root:1,1,1", "root:2,0,1,1", "root:1,0,0,1"):
        w = admissible_word(basemath.parse_base(spec), 400, rng)
        jobs.append(Job(f"cylinder-{slug(spec)}", ["cylinder", "--beta", spec,
                                                   "--word", commas(w)],
                        "cylinder", {"beta": spec}))
    for spec, n in (("root:1,1", 3000), ("root:1,1,1", 2000), ("root:2,0,1,1", 1000),
                    ("root:1,0,0,1", 1000), ("rat:3/2", 300)):
        w = admissible_word(basemath.parse_base(spec), n, rng)
        if rng.random() < 0.5:  # nudge one digit up: usually no longer admissible
            i = rng.randrange(n)
            w[i] = min(w[i] + 1, basemath.parse_base(spec).top)
        jobs.append(Job(f"check-{slug(spec)}", ["admissible", "check", "--beta", spec,
                                                "--word", commas(w)],
                        "admissible_check", {"beta": spec, "word": w}))
    x = frac(Fraction(rng.randint(1, 999), 1000))
    jobs.append(Job("expand-tribonacci", ["expand", "--beta", "root:1,1,1", "--x", x,
                                          "--digits", "120"],
                    "greedy_digits", {"beta": "root:1,1,1", "x": x, "n": 120}))
    jobs.append(Job("expand-one-nonparry", ["expand-one", "--beta", "root:1,0,2",
                                            "--digits", "300"],
                    "expansion_of_one", {"beta": "root:1,0,2", "n": 300}))
    counts = [("root:1,1", 5, 60, False), ("root:1,1", 60, 2000, True),
              ("root:1,1", 2000, 8000, True), ("root:1,1,1", 100, 1000, True),
              ("root:1,1,1", 1000, 8000, False), ("root:1,1,1", 8000, None, False),
              ("root:2,0,1,1", 10, 100, True), ("root:2,0,1,1", 100, 3000, True),
              ("root:2,0,1,1", 3000, None, False), ("root:1,0,0,1", 20, 400, True),
              ("root:1,0,0,1", 400, 6000, False), ("int:2", 100, 10000, False),
              ("int:3", 100, 5000, True), ("int:5", 100, 5000, True),
              ("rat:3/2", 12, 16, False)]
    for i, (spec, lo, hi, renyi) in enumerate(counts):
        n = rng.randint(lo, hi or max_count_length(spec))
        argv = ["admissible", "count", "--beta", spec, "--len", str(n)]
        jobs.append(Job(f"count-{i}", argv + ["--renyi"] * renyi, "count",
                        {"beta": spec, "n": n, "renyi": renyi}))
    # counts past the int-to-str limit: the program exits 2 on these today
    for i, (spec, renyi) in enumerate((("root:1,1,1", False), ("root:1,1", True))):
        lo = max_count_length(spec) + 200
        n = rng.randint(lo, lo + 8000)
        argv = ["admissible", "count", "--beta", spec, "--len", str(n)]
        jobs.append(Job(f"count-huge-{i}", argv + ["--renyi"] * renyi, "count",
                        {"beta": spec, "n": n, "renyi": renyi},
                        known_defect="count above the 4300-digit int-to-str limit"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# digit_pipeline: write and read digit files of millions of digits


def digit_pipeline_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"digit_pipeline:{seed}")
    common = ["--theta", "3", "--vhat", "1/3"]
    # The integer-base measure jobs are mostly process start-up and make three
    # quarters of a pass, so that job_s.p50 falls inside their cluster of
    # times, not at its edge next to the heavier jobs.
    makers = [  # (stem, construct arguments, depth, measure jobs)
        ("bary3", ["bary", "--base", "3", "--stages", "12", "--fill", "const:1"], 3 ** 13, 10),
        ("bary10", ["bary", "--base", "10", "--stages", "11", "--fill", "random",
                    "--seed", str(rng.randint(0, 999))], 3 ** 12, 10),
        ("bary2", ["bary", "--base", "2", "--stages", "11"], 3 ** 12, 10),
        ("restricted", ["restricted", "--base", "3", "--digit-set", "0,2", "--stages", "11",
                        "--fill", "random", "--seed", str(rng.randint(0, 999))], 3 ** 12, 10),
        ("beta", ["beta", "--beta", "root:1,1", "--N", "3", "--stages", "10", "--fill",
                  "random", "--seed", str(rng.randint(0, 999))], 3 ** 11, 4),
    ]
    rng.shuffle(makers)
    jobs = []
    for stem, args, depth, measures in makers:
        f = f"{stem}.digits"
        check = "construct_beta" if stem == "beta" else "construct_bary"
        jobs.append(Job(f"construct-{stem}", ["construct", args[0]] + common + args[1:]
                        + ["-o", f], check, {"file": f}, outputs=[f, f + ".json"]))
        jobs.append(Job(f"exponents-{stem}", ["exponents", "--input", f], "exponents",
                        {"file": f}))
        for j in range(measures):
            n = rng.randint(depth // 10, depth - 1)
            jobs.append(Job(f"measure-{stem}-{j}", ["measure", "--sidecar", f + ".json",
                                                    "--n", str(n)],
                            "measure", {"file": f, "n": n}))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    return {"readme": readme_jobs, "beta_certify": beta_certify_jobs,
            "digit_pipeline": digit_pipeline_jobs}[workload](seed)
