"""Command-line surface tying simulation, design, filtering, identification
and verification together.

Commands: simulate, design, filter, identify, verify, demo-aircraft, and
"filters plot-data". Configuration comes from a JSON file (--config) with
flag overrides; all outputs land under --out.

Exit codes: 0 success, 2 validation error, 3 numerical/design failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import aircraft
from .config import NumericConfig
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
    FilteredDataset,
    build_relation_matrices,
    factorization_residual,
    filter_lti_dataset,
    verify_algebraic,
)
from .filters import decompose, eval_g, make_filter_bank
from .linalg import frobenius_distance, svd_rank
from .ltisim import (
    LtiSystem,
    PiecewiseConstantInput,
    check_nonpathological,
    dense_trajectory,
    simulate_sampled,
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


def _load_config(args) -> dict:
    cfg = read_json(args.config) if args.config else {}
    if args.rtol is not None:
        cfg.setdefault("numeric", {})["rank_rtol"] = args.rtol
    if args.panels is not None:
        cfg.setdefault("numeric", {})["quad_panels"] = args.panels
    if args.seed is not None:
        cfg.setdefault("design", {})["seed"] = args.seed
    return cfg


def _numeric(cfg: dict) -> NumericConfig:
    num = cfg.get("numeric", {})
    try:
        return NumericConfig(
            rank_rtol=float(num.get("rank_rtol", 1e-8)),
            quad_panels=int(num.get("quad_panels", 8)),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


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
    trajectory_to_csv(out / "trajectory.csv", dense_trajectory(sys_, inp, grid))
    print(f"wrote {out / 'sampled_dataset.json'} and {out / 'trajectory.csv'}")
    return 0


def cmd_design(args) -> int:
    cfg = _load_config(args)
    sys_, T = _system(cfg)
    num = _numeric(cfg)
    ok, offending = check_nonpathological(sys_, T)
    if not ok:
        raise DesignFailureError(
            f"sampling period T={T} is pathological for this system: eigenvalue "
            f"pairs {offending} differ by a nonzero multiple of 2*pi*i/T, so the "
            "discretized pair cannot stay controllable"
        )
    plant = SimulatedPlant(sys_, T)
    result = run_online_design(
        plant, sys_.n, sys_.m, T, policy=_policy(cfg, sys_.m), rtol=num.rank_rtol
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
    num = _numeric(cfg)
    if args.dataset:
        sd = sampled_dataset_from_dict(read_json(args.dataset))
        inp = PiecewiseConstantInput(T=sd.T, levels=sd.mu)
    else:
        inp = _input(cfg, T)
    bank = _bank(cfg, inp.T, inp.N, sys_.n, sys_.m)
    fd = filter_lti_dataset(sys_, inp, bank, num)
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
    num = _numeric(cfg)
    result = identify(fd, n, m, rtol=num.rank_rtol, truth=truth)
    out = _outdir(args)
    write_json(out / "identification.json", identification_result_to_dict(result))
    print(f"rank {result.stacked_rank.rank} of {n + m} "
          f"({'informative' if result.informative else 'NOT informative'})")
    print(f"residual {result.residual:.3e}")
    if result.frobenius_error is not None:
        print(f"frobenius error vs truth {result.frobenius_error:.4e}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    sys_, T = _system(cfg)
    num = _numeric(cfg)
    inp = _input(cfg, T)
    n, m = sys_.n, sys_.m
    bank = _bank(cfg, T, inp.N, n, m)
    if args.filtered:
        fd = filtered_dataset_from_dict(read_json(args.filtered))
    else:
        fd = filter_lti_dataset(sys_, inp, bank, num)
    sd = simulate_sampled(sys_, inp)

    checks: list[tuple[str, bool, str]] = []

    res13 = verify_algebraic(fd, sys_)
    rel13 = res13 / max(float(np.linalg.norm(fd.x_df)), 1e-300)
    checks.append(("algebraic-relation", rel13 <= 1e-6, f"relative residual {rel13:.3e}"))

    try:
        decomp = decompose(bank, inp.N)
        rel = build_relation_matrices(sys_, decomp, num)
        fres = factorization_residual(fd, sd, rel)
        checks.append(("factorization", fres <= 1e-6, f"relative residual {fres:.3e}"))
        ladder_ok = True
        detail = []
        s_sampled, s_filtered = sd.stacked(), fd.stacked()
        for k in range(1, min(inp.N, bank.M) + 1):
            r_sampled = svd_rank(s_sampled[:, :k], num.rank_rtol).rank
            r_filtered = svd_rank(s_filtered[:, :k], num.rank_rtol).rank
            detail.append(f"k={k}:{r_sampled}/{r_filtered}")
            ladder_ok &= r_sampled == r_filtered
        checks.append(("rank-ladder", ladder_ok, " ".join(detail)))
    except ValidationError as exc:
        checks.append(("factorization", True, f"not applicable: {exc}"))
        checks.append(("rank-ladder", True, f"not applicable: {exc}"))

    rng = np.random.default_rng(cfg.get("design", {}).get("seed", 0))
    offsets = rng.uniform(0.0, T, size=10)
    ranks = verify_intersample(sys_, inp, offsets, num.rank_rtol)
    target = svd_rank(sd.stacked(), num.rank_rtol).rank
    inter_ok = all(r.rank == target for _, r in ranks)
    checks.append(
        ("intersample-rank", inter_ok, f"rank {target} at {len(ranks)} offsets")
    )

    out = _outdir(args)
    write_json(
        out / "verification.json",
        {name: {"passed": ok, "detail": detail} for name, ok, detail in checks},
    )
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if failed:
        raise VerificationError(f"checks failed: {', '.join(failed)}")
    return 0


def cmd_demo_aircraft(args) -> int:
    sys_ = aircraft.system()
    inp = aircraft.reference_input()
    n, m = sys_.n, sys_.m
    num = NumericConfig(quad_panels=args.panels or 8)
    rows: list[tuple[str, float, float, float]] = []  # name, reference, computed, bar

    sd = simulate_sampled(sys_, inp)
    chi_diff = float(np.max(np.abs(sd.chi_all - aircraft.CHI_PRINTED)))
    rows.append(("max |chi - reference|", 0.0, chi_diff, 5e-4))

    results = {}
    for family, rho, refs in (
        (
            "poly_test",
            aircraft.POLY_TEST_RHO,
            (aircraft.XF_POLY_PRINTED, aircraft.UF_POLY_PRINTED, aircraft.XDF_POLY_PRINTED),
        ),
        (
            "lowpass",
            aircraft.LOWPASS_RHO,
            (
                aircraft.XF_LOWPASS_PRINTED,
                aircraft.UF_LOWPASS_PRINTED,
                aircraft.XDF_LOWPASS_PRINTED,
            ),
        ),
    ):
        bank = make_filter_bank(family, rho, aircraft.T, aircraft.M, aircraft.N)
        fd = filter_lti_dataset(sys_, inp, bank, num)
        for name, mat, ref in zip(("x_f", "u_f", "x_df"), (fd.x_f, fd.u_f, fd.x_df), refs):
            rows.append(
                (f"{family} max |{name} - reference|", 0.0, float(np.max(np.abs(mat - ref))), 5e-4)
            )
        results[family] = identify(fd, n, m, truth=sys_)

    rank_sampled = svd_rank(sd.stacked()).rank
    rank_poly = results["poly_test"].stacked_rank.rank
    rows.append(("rank [chi; mu]", 6, float(rank_sampled), 0.0))
    rows.append(("rank [x_f; u_f]", 6, float(rank_poly), 0.0))
    rows.append(
        (
            "identification error (poly_test)",
            aircraft.REFERENCE_ERROR_POLY,
            results["poly_test"].frobenius_error,
            1e-5,
        )
    )
    rows.append(
        (
            "identification error (lowpass)",
            aircraft.REFERENCE_ERROR_LOWPASS,
            results["lowpass"].frobenius_error,
            1e-5,
        )
    )

    print(f"{'quantity':42s} {'reference':>12s} {'computed':>12s} {'|delta|':>10s}")
    failed = False
    for name, ref, computed, bar in rows:
        if bar == 0.0:  # exact check (ranks)
            delta = abs(computed - ref)
            ok = delta == 0
        elif ref == 0.0:  # computed value is itself a deviation
            delta = computed
            ok = computed <= bar
        else:  # bounded absolute quantity
            delta = abs(computed)
            ok = computed <= bar
        failed |= not ok
        print(f"{name:42s} {ref:12.4e} {computed:12.4e} {delta:10.2e}"
              + ("" if ok else "  <-- FAIL"))
    if failed:
        raise VerificationError("aircraft demo deviates from the reference values")
    print("all aircraft reference values reproduced")
    return 0


def cmd_filters_plot_data(args) -> int:
    cfg = _load_config(args)
    fc = cfg.get("filter", {})
    family = fc.get("family", args.family)
    rho = float(fc.get("rho", args.rho))
    T = float(cfg.get("T", args.T))
    M = int(fc.get("M", args.M))
    N = int(cfg.get("N", max(M, args.N)))
    bank = make_filter_bank(family, rho, T, M, N)
    grid = np.linspace(0.0, bank.horizon, args.points, endpoint=False)
    cols = [grid] + [np.asarray(eval_g(bank, ell, grid)) for ell in range(1, M + 1)]
    out = _outdir(args)
    matrix_to_csv(out / f"filter_{family}.csv", np.column_stack(cols))
    print(f"wrote {out / f'filter_{family}.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctsid", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--rtol", type=float, default=None)
        sp.add_argument("--panels", type=int, default=None)

    sp = sub.add_parser("simulate", help="simulate sampled data and a dense trajectory")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("design", help="run the online experiment design")
    common(sp)
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("filter", help="produce a filtered dataset")
    common(sp)
    sp.add_argument("--dataset", help="sampled-dataset JSON to take the input from")
    sp.set_defaults(func=cmd_filter)

    sp = sub.add_parser("identify", help="identify (A, B) from a filtered dataset")
    common(sp)
    sp.add_argument("data", help="filtered-dataset JSON file")
    sp.set_defaults(func=cmd_identify)

    sp = sub.add_parser("verify", help="run the verification checks")
    common(sp)
    sp.add_argument("--filtered", help="filtered-dataset JSON to verify")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("demo-aircraft", help="reproduce the aircraft example end-to-end")
    common(sp)
    sp.set_defaults(func=cmd_demo_aircraft)

    sp = sub.add_parser("filters", help="filter-function utilities")
    fsub = sp.add_subparsers(dest="filters_command", required=True)
    fp = fsub.add_parser("plot-data", help="emit (t, g_l(t)) CSV for a filter bank")
    common(fp)
    fp.add_argument("--family", default="poly_test")
    fp.add_argument("--rho", type=float, default=1.0)
    fp.add_argument("--T", type=float, default=1.0)
    fp.add_argument("--M", type=int, default=3)
    fp.add_argument("--N", type=int, default=3)
    fp.add_argument("--points", type=int, default=600)
    fp.set_defaults(func=cmd_filters_plot_data)

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
