"""Command-line surface tying simulation, design, filtering, identification
and verification together.

Commands: simulate, design, filter, identify, verify, demo-aircraft, and
"filters plot-data". Configuration comes from a JSON file (--config); each
command accepts only the flags it reads, and a flag overrides the config field
it names. Outputs land under --out; verify and demo-aircraft print PASS/FAIL
rows. Exit codes: 0 success, 2 validation error or unknown flag, 3
numerical/design failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import aircraft
from .design import (
    CyclingPolicy,
    SeededRandomPolicy,
    SimulatedPlant,
    run_online_design,
    verify_intersample,
)
from .errors import (
    DesignFailureError,
    NumericalError,
    ValidationError,
    VerificationError,
)
from .filtering import (
    build_relation_matrices,
    factorization_residual,
    filter_lti_dataset,
    verify_algebraic,
)
from .filters import decompose, eval_g, make_filter_bank
from .linalg import svd_rank
from .ltisim import (
    LtiSystem,
    PiecewiseConstantInput,
    Trajectory,
    check_nonpathological,
    simulate_sampled,
    state_at,
)
from .serialize import (
    design_result_to_dict,
    filtered_dataset_from_dict,
    filtered_dataset_to_dict,
    identification_result_to_dict,
    matrix_to_csv,
    read_json,
    sampled_dataset_from_dict,
    sampled_dataset_to_dict,
    trajectory_to_csv,
    write_json,
)
from .sysid import identify


# flag -> the config field it overrides (section None: the top level), type
_OVERRIDES = {
    "seed": ("design", "seed", int),
    "rtol": ("numeric", "rank_rtol", float),
    "family": ("filter", "family", str),
    "rho": ("filter", "rho", float),
    "T": (None, "T", float),
    "M": ("filter", "M", int),
    "N": (None, "N", int),
}


def _load_config(args) -> dict:
    cfg = read_json(args.config) if args.config else {}
    for flag, (section, field, _) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            (cfg.setdefault(section, {}) if section else cfg)[field] = value
    return cfg


def _rtol(cfg: dict) -> float:
    """numeric.rank_rtol, the rtol= of every rank verdict."""
    try:
        rtol = float(cfg.get("numeric", {}).get("rank_rtol", 1e-8))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if not rtol > 0:
        raise ValidationError("rank_rtol must be positive")
    return rtol


def _system(cfg: dict) -> tuple[LtiSystem, float]:
    sysc = cfg.get("system")
    if sysc is None:
        raise ValidationError("config is missing a 'system' section")
    t_val = cfg.get("T")
    if sysc.get("preset") == "aircraft":
        return aircraft.system(), float(t_val if t_val is not None else aircraft.T)
    if sysc.get("preset") is not None:
        raise ValidationError(f"unknown preset {sysc['preset']!r}")
    if t_val is None or float(t_val) <= 0:
        raise ValidationError("config must set T > 0")
    try:
        return (
            LtiSystem(
                a=np.array(sysc["A"], dtype=float),
                b=np.array(sysc["B"], dtype=float),
                x0=np.array(sysc["x0"], dtype=float),
            ),
            float(t_val),
        )
    except KeyError as exc:
        raise ValidationError(f"system section is missing {exc}") from exc


def _input(cfg: dict, T: float) -> PiecewiseConstantInput:
    inp = cfg.get("input")
    if inp is None or "levels" not in inp:
        raise ValidationError("config must provide input levels")
    return PiecewiseConstantInput(T=T, levels=np.array(inp["levels"], dtype=float))


def _bank(cfg: dict, T: float, N: int, n: int, m: int):
    fc = cfg.get("filter", {})
    family = fc.get("family", "poly_test")
    rho = float(fc.get("rho", 1.0))
    M = int(fc.get("M", n + m))
    return make_filter_bank(family, rho, T, M, N)


def _policy(cfg: dict, m: int):
    dc = cfg.get("design", {})
    name = dc.get("policy", "cycling")
    if name == "cycling":
        return CyclingPolicy(m)
    if name == "random":
        return SeededRandomPolicy(m, seed=int(dc.get("seed", 0)))
    raise ValidationError(f"unknown design policy {name!r}")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    sys_, T = _system(cfg)
    inp = _input(cfg, T)
    sd = simulate_sampled(sys_, inp)
    out = _outdir(args)
    write_json(out / "sampled_dataset.json", sampled_dataset_to_dict(sd))
    grid = np.linspace(0.0, inp.horizon, 20 * inp.N, endpoint=False)
    trajectory_to_csv(out / "trajectory.csv",
                      Trajectory(times=grid, states=state_at(sys_, inp, grid)))
    print(f"wrote {out / 'sampled_dataset.json'} and {out / 'trajectory.csv'}")
    return 0


def cmd_design(args) -> int:
    cfg = _load_config(args)
    sys_, T = _system(cfg)
    rtol = _rtol(cfg)
    ok, offending = check_nonpathological(sys_, T)
    if not ok:
        raise DesignFailureError(
            f"sampling period T={T} is pathological for this system: eigenvalue "
            f"pairs {offending} differ by a nonzero multiple of 2*pi*i/T, so the "
            "discretized pair cannot stay controllable"
        )
    plant = SimulatedPlant(sys_, T)
    result = run_online_design(
        plant, sys_.n, sys_.m, T, policy=_policy(cfg, sys_.m), rtol=rtol
    )
    out = _outdir(args)
    write_json(out / "design_result.json", design_result_to_dict(result))
    print(
        f"designed {result.dataset.N} samples, rank "
        f"{result.rank_report.rank} of {sys_.n + sys_.m}"
    )
    return 0


def cmd_filter(args) -> int:
    cfg = _load_config(args)
    sys_, T = _system(cfg)
    if args.dataset:
        sd = sampled_dataset_from_dict(read_json(args.dataset))
        inp = PiecewiseConstantInput(T=sd.T, levels=sd.mu)
    else:
        inp = _input(cfg, T)
    bank = _bank(cfg, inp.T, inp.N, sys_.n, sys_.m)
    fd = filter_lti_dataset(sys_, inp, bank)
    out = _outdir(args)
    write_json(out / "filtered_dataset.json", filtered_dataset_to_dict(fd))
    print(f"wrote {out / 'filtered_dataset.json'}")
    return 0


def cmd_identify(args) -> int:
    cfg = _load_config(args)
    fd = filtered_dataset_from_dict(read_json(args.data))
    truth = None
    n, m = fd.x_f.shape[0], fd.u_f.shape[0]
    if cfg.get("system"):
        truth, _ = _system(cfg)
    result = identify(fd, n, m, rtol=_rtol(cfg), truth=truth)
    out = _outdir(args)
    write_json(out / "identification.json", identification_result_to_dict(result))
    print(f"rank {result.stacked_rank.rank} of {n + m} "
          f"({'informative' if result.informative else 'NOT informative'})")
    print(f"residual {result.residual:.3e}")
    if result.frobenius_error is not None:
        print(f"frobenius error vs truth {result.frobenius_error:.4e}")
    return 0


_JUDGE_FLOOR = 2.0**-459  # sqrt(smallest normal double) / eps, about 6.7e-139


def _relative_row(name: str, data: np.ndarray, what: str, relative):
    """PASS when relative(||data||_F) <= 1e-6. Data whose norm is not finite
    or so small that the residual would underflow cannot be judged: FAIL."""
    norm = float(np.linalg.norm(data))
    if not _JUDGE_FLOOR <= norm < np.inf:
        return name, False, (f"cannot judge: ||{what}||_F = {norm:.3e}, "
                             f"not in [{_JUDGE_FLOOR:.1e}, inf)")
    rel = relative(norm)
    return name, rel <= 1e-6, f"relative residual {rel:.3e}"


def _report(rows: list[tuple[str, bool, str]]) -> None:
    """Print one PASS/FAIL row per check; raise naming the failed checks."""
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    failed = [name for name, ok, _ in rows if not ok]
    if failed:
        raise VerificationError(f"checks failed: {', '.join(failed)}")


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    sys_, T = _system(cfg)
    rtol = _rtol(cfg)
    inp = _input(cfg, T)
    bank = _bank(cfg, T, inp.N, sys_.n, sys_.m)
    rel = build_relation_matrices(sys_, decompose(bank, inp.N))
    if args.filtered:
        fd = filtered_dataset_from_dict(read_json(args.filtered))
        filtered_by = make_filter_bank(fd.family, fd.rho, fd.T, fd.M, bank.N)
        if filtered_by != bank:
            raise ValidationError(f"{args.filtered} was filtered by {filtered_by}, not by {bank}")
    else:
        fd = filter_lti_dataset(sys_, inp, bank)
    sd = simulate_sampled(sys_, inp)
    s_sampled, s_filtered = sd.stacked(), fd.stacked()

    rows = [
        _relative_row("algebraic-relation", fd.x_df, "x_df",
                      lambda norm: verify_algebraic(fd, sys_) / norm),
        _relative_row("factorization", s_filtered, "[x_f; u_f]",
                      lambda _: factorization_residual(fd, sd, rel)),
    ]
    ladder = [tuple(svd_rank(s[:, :k], rtol).rank for s in (s_sampled, s_filtered))
              for k in range(1, min(inp.N, bank.M) + 1)]
    rows.append(("rank-ladder", all(r_s == r_f for r_s, r_f in ladder),
                 " ".join(f"k={k}:{r_s}/{r_f}" for k, (r_s, r_f) in enumerate(ladder, 1))))
    rng = np.random.default_rng(cfg.get("design", {}).get("seed", 0))
    ranks = verify_intersample(sys_, inp, rng.uniform(0.0, T, size=10), rtol)
    target = svd_rank(s_sampled, rtol).rank
    rows.append(("intersample-rank", all(r.rank == target for _, r in ranks),
                 f"rank {target} at {len(ranks)} offsets"))
    if target == 0:  # every rank reads 0 on data that excite nothing
        rows[2:] = [(name, False, "cannot judge: [chi; mu] has rank 0") for name, _, _ in rows[2:]]

    write_json(_outdir(args) / "verification.json",
               {name: {"passed": ok, "detail": detail} for name, ok, detail in rows})
    _report(rows)
    return 0


def cmd_demo_aircraft(args) -> int:
    sys_, inp = aircraft.system(), aircraft.reference_input()
    p = sys_.n + sys_.m

    def printed(name, computed, table):
        delta = float(np.max(np.abs(computed - table)))
        return name, delta <= 5e-4, f"max |computed - printed| {delta:.2e} (bar 5e-4)"

    def rank(name, r):
        return name, r == p, f"rank {r} of {p}"

    sd = simulate_sampled(sys_, inp)
    rows = [printed("chi", sd.chi_all, aircraft.CHI_PRINTED),
            rank("rank [chi; mu]", svd_rank(sd.stacked()).rank)]
    for family, rho, tables, reference_error in aircraft.REFERENCE_RUNS:
        bank = make_filter_bank(family, rho, aircraft.T, aircraft.M, aircraft.N)
        fd = filter_lti_dataset(sys_, inp, bank)
        for name, computed, table in zip(("x_f", "u_f", "x_df"), (fd.x_f, fd.u_f, fd.x_df), tables):
            rows.append(printed(f"{family} {name}", computed, table))
        result = identify(fd, sys_.n, sys_.m, truth=sys_)
        rows += [rank(f"{family} rank [x_f; u_f]", result.stacked_rank.rank),
                 (f"{family} identification error", result.frobenius_error <= 1e-5,
                  f"{result.frobenius_error:.4e} (bar 1e-5; reference run {reference_error:.4e})")]
    _report(rows)
    print("all aircraft reference values reproduced")
    return 0


def cmd_filters_plot_data(args) -> int:
    cfg = _load_config(args)
    fc = cfg.get("filter", {})
    family, M = fc.get("family", "poly_test"), int(fc.get("M", 3))
    if args.points < 1:
        raise ValidationError(f"--points must be >= 1, not {args.points}")
    bank = make_filter_bank(family, float(fc.get("rho", 1.0)), float(cfg.get("T", 1.0)), M,
                            max(M, int(cfg.get("N", 3))))
    grid = np.linspace(0.0, bank.horizon, args.points, endpoint=False)
    cols = [grid] + [np.asarray(eval_g(bank, ell, grid)) for ell in range(1, M + 1)]
    out = _outdir(args)
    matrix_to_csv(out / f"filter_{family}.csv", np.column_stack(cols))
    print(f"wrote {out / f'filter_{family}.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctsid", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(parsers, name, func, summary, *overrides):
        sp = parsers.add_parser(name, help=summary)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default=".", help="output directory")
        for flag in overrides:
            section, field, kind = _OVERRIDES[flag]
            sp.add_argument(f"--{flag}", type=kind,
                            help=f"overrides {section + '.' if section else ''}{field}")
        sp.set_defaults(func=func)
        return sp

    command(sub, "simulate", cmd_simulate, "simulate sampled data and a dense trajectory")
    command(sub, "design", cmd_design, "run the online experiment design", "seed", "rtol")
    command(sub, "filter", cmd_filter, "produce a filtered dataset").add_argument(
        "--dataset", help="sampled-dataset JSON to take the input from")
    command(sub, "identify", cmd_identify, "identify (A, B) from a filtered dataset",
            "rtol").add_argument("data", help="filtered-dataset JSON file")
    command(sub, "verify", cmd_verify, "run the verification checks", "seed", "rtol"
            ).add_argument("--filtered", help="filtered-dataset JSON to verify")
    sub.add_parser("demo-aircraft", help="reproduce the aircraft example end-to-end"
                   ).set_defaults(func=cmd_demo_aircraft)
    fsub = sub.add_parser("filters", help="filter-function utilities").add_subparsers(
        dest="filters_command", required=True)
    command(fsub, "plot-data", cmd_filters_plot_data, "emit (t, g_l(t)) CSV for a filter bank",
            "family", "rho", "T", "M", "N").add_argument("--points", type=int, default=600)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DesignFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
