"""Set-up probe: a fresh interpreter that gets ready to run a workload.

It imports ctsid, builds the workload's first inputs, runs one warm-up job
and prints ``ready <seconds spent in import ctsid>``. The parent times it
from process start to that line.

    python3 perfbench/probe.py --workload aircraft --seed 1
"""

import argparse
import sys
import time

import benchenv


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    benchenv.prepare()
    start = time.perf_counter()
    import ctsid  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workloads.run_job(wl, wl.inputs(args.seed, 0), [])
    print(f"ready {import_s!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
