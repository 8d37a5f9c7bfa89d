"""Measurements that need a fresh interpreter: set-up time, import time and
fresh-process CLI commands, plus the in-process CLI session."""

from __future__ import annotations

import contextlib
import io
import json
import select
import subprocess
import sys
import time
from pathlib import Path

import benchenv

PROBE = Path(__file__).resolve().parent / "probe.py"
CLI_COMMANDS = ("simulate", "design", "filter", "identify", "verify")
CHILD_TIMEOUT_S = 60


class ChildFailure(RuntimeError):
    """A child interpreter exited abnormally or printed something unexpected."""


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has imported
    ctsid, built the workload's inputs and run one warm-up job; and the
    seconds its ``import ctsid`` took."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=benchenv.child_env(),
        cwd=benchenv.ROOT,
    ) as proc:
        readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        ready = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailure("setup probe did not exit") from None
    fields = line.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
        raise ChildFailure(f"setup probe failed ({proc.returncode}): {line!r} {err.strip()}")
    return ready, float(fields[1])


def cli_config(seed: int) -> dict:
    from ctsid import aircraft

    return {
        "T": aircraft.T,
        "system": {"preset": "aircraft"},
        "input": {"levels": aircraft.MU.tolist()},
        "filter": {"family": "poly_test", "rho": aircraft.POLY_TEST_RHO, "M": aircraft.M},
        "design": {"policy": "random", "seed": seed},
    }


def _argvs(outdir: Path, seed: int) -> list[list[str]]:
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir / "config.json"
    cfg.write_text(json.dumps(cli_config(seed), indent=2, sort_keys=True) + "\n")
    base = ["--config", str(cfg), "--out", str(outdir)]
    argvs = []
    for cmd in CLI_COMMANDS:
        extra = [str(outdir / "filtered_dataset.json")] if cmd == "identify" else []
        argvs.append([cmd, *base, *extra])
    return argvs


def cli_session_fresh(outdir: Path, seed: int) -> list[tuple[str, float]]:
    """Run every command as ``python -m ctsid.cli``; wall seconds per command."""
    times = []
    for argv in _argvs(outdir, seed):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ctsid.cli", *argv],
                capture_output=True,
                text=True,
                env=benchenv.child_env(),
                cwd=benchenv.ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailure(f"ctsid {argv[0]} did not exit in {CHILD_TIMEOUT_S} s") from None
        times.append((argv[0], time.perf_counter() - start))
        if proc.returncode != 0:
            raise ChildFailure(f"ctsid {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def cli_session_inprocess(outdir: Path, seed: int) -> None:
    """Run every command through ``ctsid.cli.main`` in this process."""
    import ctsid.cli

    for argv in _argvs(outdir, seed):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = ctsid.cli.main(argv)
        if code != 0:
            raise ChildFailure(f"in-process ctsid {argv[0]} returned {code}")


def same_files(a: Path, b: Path) -> tuple[bool, str]:
    """Whether two output directories hold byte-identical files."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False, f"file sets differ: {names_a} vs {names_b}"
    differ = [n for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]
    if differ:
        return False, f"differ: {', '.join(differ)}"
    return True, f"{len(names_a)} files byte-identical"
