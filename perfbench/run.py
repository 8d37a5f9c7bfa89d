"""Benchmark of the ctsid pipeline.

    python3 perfbench/run.py --workload aircraft --seed 1 --seconds 30 --trace 0

Workloads: aircraft, horizon, design-sweep (see workloads.py for what each
exercises and why). With ``--trace 0`` the run measures the end-to-end
metrics (times rescaled to a fixed machine speed by an interleaved
calibration kernel, see README.md); with ``--trace 1`` it reports
per-layer metrics from a traced run of a fixed job list. Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Details (sample counts, environment, check results)
go to perfbench/out/result-*.json, spans of traced runs to
perfbench/out/trace-*.json.

Exit codes: 0 when every output check passed and no job failed, 1 when a
check failed or a job failed, 2 when the checkout has no ctsid source.
``--jobs N`` runs exactly N jobs instead of a timed loop (for smoke tests).
"""

import argparse
import sys

import benchenv


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("aircraft", "horizon", "design-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None)
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.jobs is not None and args.jobs < 1):
        p.error("--seconds and --jobs must be positive")
    try:
        benchenv.prepare()
    except benchenv.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import runner

    return runner.run(args.workload, args.seed, args.seconds, bool(args.trace), args.jobs)


if __name__ == "__main__":
    sys.exit(main())
