"""Write digests.json: a hash of every job's output bytes (stdout and the
files it writes) on the default seed, for each workload.

The CLI promises byte-identical output for identical configurations, so the
benchmark compares each default-seed job against this table.  Record it
only at a commit whose outputs are the reference:

    python3 perfbench/record_digests.py
"""

import json
import sys

import run


def main() -> int:
    sys.set_int_max_str_digits(0)
    table = {}
    for workload in run.joblists.WORKLOADS:
        with run.session(workload, run.DEFAULT_SEED) as bench:
            bench.expected = {}
            bench.generate()
            bad = [r for r in bench.run_pass(traced=False).results
                   if r.outcome not in ("ok", "defect")]
            if bad:
                print(f"{workload}: {bad[0].job.name}: {bad[0].reason}", file=sys.stderr)
                return 1
            table[workload] = dict(sorted(bench.first_digest.items()))
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
