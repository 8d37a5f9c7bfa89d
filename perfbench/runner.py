"""One benchmark run of one workload: checks, measurement and the result.

Untraced runs (``trace=False``) measure the end-to-end metrics: jobs run
back to back in one process (a closed loop with one client) for at least
the given seconds and at least ``MIN_JOBS`` jobs. Each time is rescaled by
a calibration kernel timed right before and after it, so that the drift of
a shared machine's speed cancels (see README.md); the raw wall times are
reported next to them. Traced runs execute a fixed list of jobs,
first untraced and then traced, so that call counts and failure counts
repeat exactly for a seed, and report the per-layer metrics and the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import Counter

import numpy as np
import scipy
import scipy.linalg

import benchenv
import ctsid
import procs
import workloads
from tracer import Tracer

MIN_JOBS = 100  # so that at least 10 job times lie beyond p90
HARD_LIMIT_S = 120  # measurement stops here even if MIN_JOBS is not reached
TRACE_JOBS = {"aircraft": 100, "horizon": 50, "design-sweep": 1000}
SETUP_PROBES = 5
# The calibration kernel runs between jobs every CALIBRATION_EVERY_S and
# between set-up probes. End-to-end times are reported at the machine speed
# where the kernel takes CALIBRATION_NOMINAL_MS (about its time on an idle
# 2.1 GHz Xeon core); the constant only sets the scale.
CALIBRATION_EVERY_S = 0.5
CALIBRATION_NOMINAL_MS = 1.0
CLI_SESSIONS = 2
INPROCESS_CLI_SESSIONS = 3
CLI_WORKLOAD = "aircraft"  # the one workload that also runs the CLI and the reference tables
FAIL_OUTCOMES = (
    "design_failure",
    "numerical",
    "validation",
    "not_informative",
    "error_bound",
    "verification",
    "error",
)


# environment ----------------------------------------------------------------
def steal_ticks() -> int | None:
    """Host steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


_CAL_RNG = np.random.default_rng(0)
_CAL_EXPM = [0.3 * _CAL_RNG.standard_normal((6, 6)) for _ in range(4)]
_CAL_SVD = [_CAL_RNG.standard_normal(shape) for shape in ((6, 12), (6, 12), (14, 20))]
_CAL_GRID = np.linspace(0.0, 0.1, 16)


def _calibration_kernel() -> dict:
    for a in _CAL_EXPM:
        scipy.linalg.expm(a)
    for b in _CAL_SVD:
        np.linalg.svd(b)
    for k in range(20):
        mask = (_CAL_GRID >= 0.005 * k) & (_CAL_GRID < 0.1)
        np.where(mask, np.exp(-(_CAL_GRID - 0.005 * k) * mask), 0.0)
    table = {}
    for k in range(300):
        table[k % 17] = table.get(k % 17, 0.0) + k * 0.5
    return table


def calibration_ms() -> float:
    """Time of a fixed kernel shaped like the jobs' work (small expm and SVD
    calls, ufuncs on short arrays and plain interpreter work, never through
    ctsid), so a drifting machine can be told apart from a code change."""
    reps = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        _calibration_kernel()
        reps.append(time.perf_counter() - start)
    return 1e3 * statistics.median(reps)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


# statistics -----------------------------------------------------------------
def _ms(values, q: float) -> float:
    return float(1e3 * np.percentile(values, q)) if len(values) else 0.0


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# checks ---------------------------------------------------------------------
def determinism_check(wl, seed: int) -> tuple[str, bool, str]:
    """Two runs of the same job give bit-identical output."""
    first = workloads.run_job(wl, wl.inputs(seed, 0), [])
    second = workloads.run_job(wl, wl.inputs(seed, 0), [])
    same = first[0] == second[0] and first[2] == second[2]
    return ("repeated job bit-identical", same, f"outcome {first[0]}")


def output_checks(wl, seed: int) -> list[tuple[str, bool, str]]:
    checks = [determinism_check(wl, seed)]
    if wl.name == CLI_WORKLOAD:
        checks += workloads.reference_check()
    return checks


def fresh_cli(seed: int, out) -> tuple[list[float], tuple[str, bool, str]]:
    """Fresh-process CLI sessions; their output files must be byte-identical."""
    times, dirs = [], []
    try:
        for i in range(CLI_SESSIONS):
            d = out / f"cli-{i}"
            shutil.rmtree(d, ignore_errors=True)
            times += [t for _, t in procs.cli_session_fresh(d, seed)]
            dirs.append(d)
    except procs.ChildFailure as exc:
        return times, ("CLI outputs byte-identical", False, str(exc))
    ok, detail = procs.same_files(dirs[0], dirs[1])
    return times, ("CLI outputs byte-identical", ok, detail)


# job loops ------------------------------------------------------------------
def run_jobs(wl, seed: int, indices, tracer: Tracer | None = None, calibrations: list | None = None):
    """Run the jobs. When ``calibrations`` is given (holding one sample taken
    just before), time the calibration kernel between jobs every
    CALIBRATION_EVERY_S and once after the last job; ``windows`` then gives
    for each job the index of the calibration taken last before it."""
    times, steps, outcomes, errors, windows = [], [], Counter(), {}, []
    last_cal = time.perf_counter()
    for i in indices:
        inp = wl.inputs(seed, i)
        if tracer:
            tracer.begin_job()
        outcome, secs, fp = workloads.run_job(wl, inp, steps)
        if tracer:
            tracer.end_job()
        times.append(secs)
        outcomes[outcome] += 1
        if outcome != "ok":
            errors.setdefault(outcome, f"job {i}: {fp}")
        if calibrations is not None:
            windows.append(len(calibrations) - 1)
            if time.perf_counter() - last_cal >= CALIBRATION_EVERY_S:
                calibrations.append(calibration_ms())
                last_cal = time.perf_counter()
    if calibrations is not None and windows and windows[-1] == len(calibrations) - 1:
        calibrations.append(calibration_ms())
    return times, steps, outcomes, errors, windows


def rescaled(times, windows, calibrations) -> list[float]:
    """Times at the nominal machine speed: each one scaled by the mean of the
    two calibrations taken right before and right after it."""
    return [
        t * 2 * CALIBRATION_NOMINAL_MS / (calibrations[w] + calibrations[w + 1])
        for t, w in zip(times, windows)
    ]


def timed_indices(seconds: float, min_jobs: int):
    """Job indices 1, 2, ... until both the time and the job count are met."""
    start = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i > min_jobs) or elapsed >= HARD_LIMIT_S:
            return
        yield i
        i += 1


# per-layer metrics ------------------------------------------------------------
EVAL = ("filters.eval_g", "filters.eval_g_deriv", "filters.left_limit_g")
SVD = ("linalg.svd_rank", "linalg.pinv", "linalg.left_kernel_basis")


def per_layer(tr: Tracer, cli_tr: Tracer | None, steps, outcomes, overhead, import_ms, cli_ms):
    k = max(tr.jobs, 1)

    def calls(*names):
        return sum(tr.stat(n).calls for n in names) / k

    def self_ms(*names):
        return 1e3 * sum(tr.stat(n).self_time for n in names) / k

    def incl_ms(name, t=tr, per=k):
        return 1e3 * t.stat(name).total / per

    tcalls = tr.stat("ltisim.transition").calls
    membership = tr.stat("design.image_membership").calls
    m = {
        "linalg.expm.calls": _metric(calls("linalg.expm"), "calls/job"),
        "linalg.expm.self_ms": _metric(self_ms("linalg.expm"), "ms/job"),
        "ltisim.transition.calls": _metric(calls("ltisim.transition"), "calls/job"),
        "ltisim.transition.self_ms": _metric(self_ms("ltisim.transition"), "ms/job"),
        "ltisim.transition.repeat_share": _metric(
            tr.transition_repeats / tcalls if tcalls else 0.0, "share"
        ),
        "ltisim.simulate_sampled.calls": _metric(calls("ltisim.simulate_sampled"), "calls/job"),
        "ltisim.simulate_sampled.self_ms": _metric(self_ms("ltisim.simulate_sampled"), "ms/job"),
        "filters.eval.calls": _metric(calls(*EVAL), "calls/job"),
        "filters.eval.self_ms": _metric(self_ms(*EVAL), "ms/job"),
    }
    for fam in workloads.FAMILIES:
        m[f"filtering.filter_lti_dataset.ms.{fam}"] = _metric(
            incl_ms(f"filtering.filter_lti_dataset.{fam}"), "ms/job"
        )
    m.update(
        {
            "filtering.build_relation_matrices.ms": _metric(
                incl_ms("filtering.build_relation_matrices"), "ms/job"
            ),
            "design.verify_intersample.ms": _metric(incl_ms("design.verify_intersample"), "ms/job"),
            "linalg.svd.calls": _metric(calls(*SVD), "calls/job"),
            "linalg.svd.self_ms": _metric(self_ms(*SVD), "ms/job"),
            "design.run_online_design.ms": _metric(incl_ms("design.run_online_design"), "ms/job"),
            "design.image_membership.calls": _metric(calls("design.image_membership"), "calls/job"),
            "design.kernel_certificate.calls": _metric(
                calls("design.kernel_certificate"), "calls/job"
            ),
            "design.certificate_share": _metric(
                tr.stat("design.kernel_certificate").calls / membership if membership else 0.0,
                "share",
            ),
            "design.step_ms_p50": _metric(_ms(steps, 50), "ms"),
            "design.step_ms_p90": _metric(_ms(steps, 90), "ms"),
            "sysid.identify.ms": _metric(incl_ms("sysid.identify"), "ms/job"),
            "sysid.identify_discrete.ms": _metric(incl_ms("sysid.identify_discrete"), "ms/job"),
        }
    )
    for name in FAIL_OUTCOMES:
        m[f"fail.{name}"] = _metric(outcomes.get(name, 0), "count")
    m["cli.import_ms"] = _metric(import_ms, "ms")
    for cmd in procs.CLI_COMMANDS:
        v = incl_ms(f"cli.main.{cmd}", cli_tr, cli_tr.jobs) if cli_tr else 0.0
        m[f"cli.command_ms.{cmd}"] = _metric(v, "ms")
    m["serialize.write_json.ms"] = _metric(
        incl_ms("serialize.write_json", cli_tr, cli_tr.jobs) if cli_tr else 0.0, "ms/session"
    )
    m["cli.process_ms_p50"] = _metric(_ms(cli_ms, 50), "ms")
    m["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return m


# the run ----------------------------------------------------------------------
def traced_jobs(wl, seed: int, count: int, out):
    """The fixed job list untraced (for the overhead ratio), then a disjoint
    list of the same length traced, so no job meets a cache its own untraced
    run filled. Returns the traced pass's results, the tracer and the ratio
    of traced to untraced median job time, both rescaled like end-to-end
    times."""
    plain_cal, traced_cal = [calibration_ms()], [calibration_ms()]
    plain, _, _, _, plain_windows = run_jobs(
        wl, seed, range(count + 1, 2 * count + 1), calibrations=plain_cal
    )
    tr = Tracer(ctsid)
    tr.install()
    try:
        times, steps, outcomes, errors, windows = run_jobs(
            wl, seed, range(1, count + 1), tr, calibrations=traced_cal
        )
    finally:
        tr.uninstall()
    tr.write_spans(out / f"trace-{wl.name}-seed{seed}.json")
    overhead = statistics.median(rescaled(times, windows, traced_cal)) / statistics.median(
        rescaled(plain, plain_windows, plain_cal)
    )
    return (times, steps, outcomes, errors), tr, overhead


def traced_cli(seed: int, out) -> tuple[Tracer, tuple[str, bool, str]]:
    """In-process CLI sessions under a tracer of their own."""
    tr = Tracer(ctsid, span_jobs=0)
    tr.install()
    try:
        for _ in range(INPROCESS_CLI_SESSIONS):
            tr.begin_job()
            try:
                procs.cli_session_inprocess(out / "cli-inprocess", seed)
            finally:
                tr.end_job()
    except procs.ChildFailure as exc:
        return tr, ("in-process CLI session", False, str(exc))
    finally:
        tr.uninstall()
    return tr, ("in-process CLI session", True, f"{INPROCESS_CLI_SESSIONS} sessions")


def run(workload: str, seed: int, seconds: float, trace: bool, jobs: int | None) -> int:
    wl = workloads.WORKLOADS[workload]
    out = benchenv.OUT
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    steal0 = steal_ticks()

    probes, probe_cal = [], [calibration_ms()]
    for _ in range(SETUP_PROBES):
        probes.append(procs.setup_probe(workload, seed))
        probe_cal.append(calibration_ms())
    import_ms = 1e3 * statistics.median(p[1] for p in probes)
    checks = output_checks(wl, seed)

    cli_tr = None
    job_cal = [calibration_ms()]
    if trace:
        count = jobs or TRACE_JOBS[workload]
        (times, steps, outcomes, errors), tr, overhead = traced_jobs(wl, seed, count, out)
        if wl.name == CLI_WORKLOAD:
            cli_tr, check = traced_cli(seed, out)
            checks.append(check)
    else:
        indices = range(1, jobs + 1) if jobs else timed_indices(seconds, MIN_JOBS)
        times, steps, outcomes, errors, windows = run_jobs(wl, seed, indices, calibrations=job_cal)

    cli_ms = []
    if wl.name == CLI_WORKLOAD:
        cli_ms, check = fresh_cli(seed, out)
        checks.append(check)

    attempted = sum(outcomes.values())
    failed = sum(v for k, v in outcomes.items() if k != "ok" and k not in wl.refusals)
    correct = failed == 0 and all(ok for _, ok, _ in checks)

    info = {}
    if trace:
        metrics = per_layer(tr, cli_tr, steps, outcomes, overhead, import_ms, cli_ms)
    else:
        job_times = rescaled(times, windows, job_cal)
        setup_times = [p[0] for p in probes]
        setup_s = statistics.median(rescaled(setup_times, range(len(probes)), probe_cal))
        metrics = {
            "job_ms_p50": _metric(_ms(job_times, 50), "ms"),
            "job_ms_p90": _metric(_ms(job_times, 90), "ms"),
            "solved_share": _metric(outcomes["ok"] / attempted, "share"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info["wall_job_ms_p50"] = _metric(_ms(times, 50), "ms")
        info["wall_job_ms_p90"] = _metric(_ms(times, 90), "ms")
        info["wall_setup_s"] = _metric(statistics.median(setup_times), "s")
        if steps:
            info["step_ms_p50"] = _metric(_ms(steps, 50), "ms")
            info["step_ms_p90"] = _metric(_ms(steps, 90), "ms")
        if wl.name == CLI_WORKLOAD:
            info["cli_ms_p50"] = _metric(_ms(cli_ms, 50), "ms")

    env.update(
        steal_ticks_delta=None if steal0 is None else steal_ticks() - steal0,
        calibration_ms_setup_p50=statistics.median(probe_cal),
        calibration_ms_jobs_p50=statistics.median(job_cal),
        calibration_samples=len(probe_cal) + len(job_cal),
    )
    samples = {
        "job_ms_p50": len(times),
        "job_ms_p90": len(times),
        "wall_job_ms_p50": len(times),
        "wall_job_ms_p90": len(times),
        "wall_setup_s": len(probes),
        "solved_share": attempted,
        "setup_s": len(probes),
        "step_ms_p50": len(steps),
        "step_ms_p90": len(steps),
        "design.step_ms_p50": len(steps),
        "design.step_ms_p90": len(steps),
        "cli_ms_p50": len(cli_ms),
        "cli.process_ms_p50": len(cli_ms),
        "cli.import_ms": len(probes),
    }
    report(wl, seed, trace, metrics, info, samples, outcomes, errors, checks, env)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "info": info,
        "samples": samples,
        "outcomes": dict(outcomes),
        "first_errors": errors,
        "checks": checks,
        "environment": env,
    }
    (out / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report(wl, seed, trace, metrics, info, samples, outcomes, errors, checks, env) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print(f"workload {wl.name}  seed {seed}  {'traced' if trace else 'untraced'}")
    print(f"  outcomes {dict(outcomes)}  (refusals counted as verdicts: {list(wl.refusals)})")
    for name, why in errors.items():
        print(f"  first {name}: {why[:200]}")
    for name, m in {**metrics, **info}.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{n}")
    for name, ok, detail in checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"  environment {json.dumps(env)}")
