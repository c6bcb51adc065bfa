"""End-to-end and per-layer benchmark of the ``betadio`` CLI.

    python3 perfbench/run.py --workload readme --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; the program is ``src/betadio``, run as
``python -m betadio.cli`` with ``PYTHONPATH=src``, one process per job, in a
fresh directory under ``.perfbench_work/``.  One client runs the jobs one at
a time (a closed loop), which keeps the load within two cores.

A run makes the job list from the seed, runs one untimed warm-up pass
(``setup_s`` is its wall time plus the median of three input generations,
both scaled by the reference task described below),
then repeats passes until ``--seconds`` have passed and at least 100 jobs
ran.  Every job's exit code and output are checked after each pass (outside
the timed region) by ``checks.py``; on the default seed the output bytes
must also match ``digests.json``, recorded at the seed commit.  With
``--trace 1`` the run alternates untraced passes with passes whose jobs run
under ``tracer.py`` and reports the per-layer metrics instead.

The last line of stdout is one JSON object; a readable summary goes to
stderr.  ``correct`` is false when any job that exited 0 gave a wrong
answer; ``failed`` counts those jobs plus the ones that exited non-zero or
timed out.  A job marked ``known_defect`` that fails in the documented way
counts apart, as a known defect: the program cannot print counts above
CPython's 4300-digit int-to-str limit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import jobs as joblists
import tracer

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_JOBS = 100        # so that job_s.p90 has at least ten samples beyond it
SETUP_REPEATS = 3
HARD_LIMIT_S = 150.0  # start no job after this, so a hung program cannot
                      # keep the run past 180 s
DEFECT_MARK = b"4300 digits"

# The machine's speed switches between states up to ~40% apart, each lasting
# seconds to a minute (other tenants of the host).  Each pass therefore also
# times this fixed task, which does not touch betadio (interpreter start and
# the import of stdlib modules, as in a short job), before every
# REFERENCE_EVERY jobs, and scales each job's wall time by
# REFERENCE_S / (median of the REFERENCE_WINDOW reference times nearest to
# it): the reported times are seconds on a machine where the reference task
# takes REFERENCE_S.  A median over the whole run would mix the states; the
# nearest references were timed in the state the job ran in.
REFERENCE = """\
import argparse, bisect, calendar, csv, dataclasses, decimal, difflib, email.parser, enum
import fractions, http.client, io, itertools, json, logging, math, pathlib, pprint, random
import re, statistics, string, textwrap, threading, tokenize, typing, unittest, xml.dom.minidom
"""
REFERENCE_S = 0.14
REFERENCE_EVERY = 3
REFERENCE_WINDOW = 3


@dataclass
class Result:
    job: joblists.Job
    wall: float
    rss_mb: float
    returncode: int | None  # None: killed at its timeout
    outcome: str = ""       # ok | failed | incorrect | defect
    reason: str = ""
    layers: dict = field(default_factory=dict)


@dataclass
class Pass:
    results: list[Result]
    complete: bool
    references: list[float]  # wall times of the reference task in this pass

    @property
    def wall(self) -> float:
        """The jobs' wall times back to back (the reference runs excluded)."""
        return sum(r.wall for r in self.results)

    def scaled_walls(self) -> list[float]:
        """Each job's wall time, scaled by the references timed nearest to it:
        the one before its group of REFERENCE_EVERY jobs and its neighbours."""
        out = []
        for i, res in enumerate(self.results):
            group = i // REFERENCE_EVERY
            lo = max(0, min(group - REFERENCE_WINDOW // 2,
                            len(self.references) - REFERENCE_WINDOW))
            near = self.references[lo:lo + REFERENCE_WINDOW]
            out.append(res.wall * REFERENCE_S / statistics.median(near))
        return out


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path, t_start: float, spawner):
        self.spawner = spawner  # a running spawner.py, with pipes
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = t_start + HARD_LIMIT_S
        self.jobs: list[joblists.Job] = []
        self.expected: dict[str, str] = {}
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.expected = json.loads(DIGESTS.read_text()).get(workload, {})
        self.first_digest: dict[str, str] = {}

    def generate(self) -> float:
        """Make the work directory and the job list; returns the time taken."""
        start = clock()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.jobs = joblists.make_jobs(self.workload, self.seed)
        return clock() - start

    def spawn(self, argv: list[str], stem: Path, timeout: float) -> dict:
        req = {"argv": argv, "cwd": str(self.workdir), "stdout": f"{stem}.stdout",
               "stderr": f"{stem}.stderr", "timeout": min(timeout, self.deadline - clock())}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def run_job(self, job: joblists.Job, traced: bool) -> Result:
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), f"{job.name}.spans.json", "--"]
        else:
            cmd = [sys.executable, "-m", "betadio.cli"]
        reply = self.spawn(cmd + job.argv, self.workdir / job.name, job.timeout)
        return Result(job, reply["wall"], reply["maxrss_kb"] / 1024, reply["returncode"])

    def run_reference(self) -> float:
        reply = self.spawn([sys.executable, "-c", REFERENCE], self.workdir / "reference", 30)
        if reply["returncode"] != 0:
            raise RuntimeError("the reference task failed")
        return reply["wall"]

    def run_pass(self, traced: bool) -> Pass:
        results, references = [], []
        for i, job in enumerate(self.jobs):
            if clock() >= self.deadline:
                break
            if i % REFERENCE_EVERY == 0:
                references.append(self.run_reference())
            results.append(self.run_job(job, traced))
        for res in results:
            self.evaluate(res, traced)
        return Pass(results, len(results) == len(self.jobs), references)

    def evaluate(self, res: Result, traced: bool) -> None:
        job, stem = res.job, self.workdir / res.job.name
        stderr = Path(f"{stem}.stderr").read_bytes()
        if res.returncode is None:
            res.outcome, res.reason = "failed", f"killed after {job.timeout:.0f} s"
        elif res.returncode != 0:
            if job.known_defect and res.returncode == 2 and DEFECT_MARK in stderr:
                res.outcome, res.reason = "defect", job.known_defect
            else:
                last = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
                res.outcome, res.reason = "failed", f"exit {res.returncode}: {last[0]}"
        else:
            stdout = Path(f"{stem}.stdout").read_bytes()
            reason = checks.check(job, checks.Output(self.workdir, stdout))
            digest = hashlib.sha256(stdout)
            for name in job.outputs:
                digest.update((self.workdir / name).read_bytes())
            digest = digest.hexdigest()
            first = self.first_digest.setdefault(job.name, digest)
            if not reason and job.name in self.expected and digest != self.expected[job.name]:
                reason = "output bytes differ from the digest recorded at the seed commit"
            if not reason and digest != first:
                reason = "output bytes differ from an earlier pass"
            res.outcome, res.reason = ("incorrect", reason) if reason else ("ok", "")
        spans = Path(f"{stem}.spans.json")
        if traced and spans.is_file():
            res.layers = tracer.job_metrics(json.loads(spans.read_text()), res.wall)


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[Pass], warm: Pass, generate_s: float) -> dict:
    references = [t for p in passes for t in p.references]
    print(f"reference task: median {statistics.median(references):.4f} s, range "
          f"{min(references):.4f}-{max(references):.4f} s over {len(references)}; "
          f"job times are scaled to {REFERENCE_S} s for it", file=sys.stderr)
    whole = [p for p in passes if p.complete] or passes
    walls = [w for p in passes for w in p.scaled_walls()]
    warm_scale = REFERENCE_S / statistics.median(warm.references)
    return {
        "wall_s": (statistics.median(sum(p.scaled_walls()) for p in whole), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.p90": (percentile(walls, 90), "s"),
        "peak_rss_mb": (max(r.rss_mb for p in passes for r in p.results), "MB"),
        "setup_s": (warm_scale * generate_s + sum(warm.scaled_walls()), "s"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [tracer.pass_metrics([r.layers for r in p.results if r.layers])
                for p in traced]
    out = {}
    for name, unit in tracer.PER_LAYER:
        out[name] = (statistics.median(m[name] for m in per_pass), unit)
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def summary(bench: Bench, passes: list[Pass], metrics: dict) -> dict:
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.outcome in ("failed", "incorrect")]
    defects = [r for r in results if r.outcome == "defect"]
    log = sys.stderr
    print(f"workload {bench.workload}  seed {bench.seed}  passes {len(passes)}  "
          f"jobs {len(results)}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}", file=log)
    print(f"  {'failed_frac':34s} {len(failed) / len(results):14.6f} ratio", file=log)
    print(f"  {'known_defect_frac':34s} {len(defects) / len(results):14.6f} ratio"
          f"  ({defects[0].reason if defects else 'none'})", file=log)
    for r in failed[:10]:
        print(f"  FAILED {r.job.name}: {r.outcome}: {r.reason}", file=log)
    return {
        "correct": not any(r.outcome == "incorrect" for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    setup = [bench.generate() for _ in range(SETUP_REPEATS)]
    warm = bench.run_pass(traced=False)
    start = clock()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    while clock() < bench.deadline:
        untraced.append(bench.run_pass(traced=False))
        if trace:
            if clock() - start >= seconds and traced:
                break
            traced.append(bench.run_pass(traced=True))
        jobs_run = sum(len(p.results) for p in untraced)
        if clock() - start >= seconds and (trace or jobs_run >= MIN_JOBS):
            break
    if trace and not traced:
        raise RuntimeError("hard time limit reached before a traced pass")
    if trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, warm, statistics.median(setup))
    return summary(bench, [warm] + untraced + traced, metrics)


@contextlib.contextmanager
def session(workload: str, seed: int):
    """A Bench with its spawner running; stops the spawner and removes the
    work directory on the way out."""
    t_start = clock()
    workdir = WORK / f"{workload}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BETADIO_PRECISION", None)
    spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env, text=True,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        yield Bench(workload, seed, workdir, t_start, spawner)
    finally:
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=joblists.WORKLOADS + ("all",), required=True,
                   help="one workload, or all of them in turn (one result line each)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "betadio" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'betadio'}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the checks parse counts of any size
    workloads = joblists.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        with session(workload, args.seed) as bench:
            result = measure(bench, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
