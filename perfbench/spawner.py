"""Starts the benchmark's job processes and reports their wall time and max-RSS.

Linux carries a process's RSS high-water mark across fork and exec, so the
max-RSS that ``wait4`` reports for a job includes the memory of whichever
process started it.  The benchmark keeps whole digit files and reference
tables in memory; this small process, started before any of that, starts
the jobs instead, so that ``peak_rss_mb`` is the job's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": dir, "stdout": path, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout,
``{"wall": s, "maxrss_kb": n, "returncode": code, or null when killed at the timeout}``.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished = bool(select.select([pidfd], [], [], max(req["timeout"], 0.0))[0])
            if not finished:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss,
            "returncode": proc.returncode if finished else None}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
