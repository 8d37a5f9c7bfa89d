"""Smoke test of the benchmark itself.

Runs every workload with a handful of jobs, untraced and twice traced,
and checks that:

- the last output line has exactly the keys correct, attempted, failed and
  metrics, and the run passed its output checks;
- every metric named in BENCHMARK.json is reported, with its unit;
- call counts and fail.* counts of two traced runs with one seed are equal;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  command exits non-zero without printing a result.

    python3 perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
JOBS = "3"
SEED = "7"


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--jobs", JOBS]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    def check(cond: bool, msg: str) -> None:
        if not cond:
            problems.append(msg)
            print(f"FAIL {msg}")

    for wl in (w["name"] for w in SPEC["workloads"]):
        code, out = run(wl, 0)
        res = last_json(out)
        check(code == 0, f"{wl}: untraced run exited {code}")
        check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{wl}: result keys {sorted(res)}")
        check(res["correct"] is True and res["failed"] == 0, f"{wl}: correct={res['correct']} failed={res['failed']}")
        check(res["attempted"] == int(JOBS), f"{wl}: attempted {res['attempted']}")
        for spec in SPEC["end_to_end"]:
            got = res["metrics"].get(spec["name"])
            check(got is not None and got["unit"] == spec["unit"], f"{wl}: end-to-end {spec['name']} is {got}")
        traced = []
        for _ in range(2):
            code, out = run(wl, 1)
            check(code == 0, f"{wl}: traced run exited {code}")
            traced.append(last_json(out)["metrics"])
        for spec in SPEC["per_layer"]:
            got = traced[0].get(spec["name"])
            check(got is not None and got["unit"] == spec["unit"], f"{wl}: per-layer {spec['name']} is {got}")
        counts = [n for n in traced[0] if n.endswith(".calls") or n.startswith("fail.")]
        for name in counts:
            a, b = traced[0][name]["value"], traced[1][name]["value"]
            check(a == b, f"{wl}: {name} differs between traced runs: {a} vs {b}")
        print(f"{wl}: checked {len(SPEC['end_to_end'])} end-to-end, {len(SPEC['per_layer'])} per-layer metrics, "
              f"{len(counts)} counts")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    check(code != 0 and not out.strip(), f"bare directory: exit {code}, output {out.strip()[:80]!r}")
    shutil.rmtree(bare)

    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
