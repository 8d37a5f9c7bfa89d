import json
import re
from pathlib import Path

import numpy as np
import pytest

import ctsid.aircraft as aircraft
from ctsid import (
    SimulatedPlant,
    Trajectory,
    filter_lti_dataset,
    make_filter_bank,
    run_online_design,
    simulate_sampled,
    state_at,
)
from ctsid.cli import main
from ctsid.serialize import (
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


class TestSerializationRoundTrip:
    def test_sampled_dataset_bit_exact(self, aircraft_system, aircraft_input, tmp_path):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        path = tmp_path / "sd.json"
        write_json(path, sampled_dataset_to_dict(sd))
        back = sampled_dataset_from_dict(read_json(path))
        assert np.array_equal(back.chi, sd.chi)
        assert np.array_equal(back.mu, sd.mu)
        assert np.array_equal(back.chi_final, sd.chi_final)
        assert back.T == sd.T

    def test_sampled_dataset_without_final_state(self, tmp_path):
        from ctsid import SampledDataset

        sd = SampledDataset(chi=np.eye(2), mu=np.ones((1, 2)), T=0.1)
        back = sampled_dataset_from_dict(sampled_dataset_to_dict(sd))
        assert back.chi_final is None

    def test_filtered_dataset_bit_exact(self, aircraft_system, aircraft_input, tmp_path):
        bank = make_filter_bank("lowpass", 1.0, aircraft.T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        path = tmp_path / "fd.json"
        write_json(path, filtered_dataset_to_dict(fd))
        back = filtered_dataset_from_dict(read_json(path))
        for name in ("x_f", "u_f", "x_df"):
            assert np.array_equal(getattr(back, name), getattr(fd, name)), name
        assert back.family == fd.family and back.rho == fd.rho and back.M == fd.M
        for k in fd.quadrature_report:
            assert np.array_equal(back.quadrature_report[k], fd.quadrature_report[k])

    def test_design_result_round_trip(self, aircraft_system, tmp_path):
        res = run_online_design(SimulatedPlant(aircraft_system, aircraft.T), 4, 2, aircraft.T)
        path = tmp_path / "dr.json"
        write_json(path, design_result_to_dict(res))
        back = read_json(path)
        assert back == design_result_to_dict(res)  # every float parses back exactly
        assert np.array_equal(back["dataset"]["chi"], res.dataset.chi)
        assert back["branches"] == res.branches
        assert back["rank_history"] == res.rank_history
        assert back["rank_report"]["rank"] == res.rank_report.rank
        assert len(back["certificates"]) == len(res.certificates)
        for a, b in zip(back["certificates"], res.certificates):
            assert np.array_equal(a["xi"], b.xi) and np.array_equal(a["eta"], b.eta)

    def test_identification_dict_is_json_clean(self, aircraft_system, aircraft_input):
        from ctsid import identify

        bank = make_filter_bank("poly_test", aircraft.POLY_TEST_RHO, aircraft.T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        d = identification_result_to_dict(identify(fd, 4, 2, truth=aircraft_system))
        json.dumps(d)  # must not raise (no numpy scalars left)
        assert d["informative"] is True

    def test_deterministic_bytes(self, aircraft_system, aircraft_input, tmp_path):
        """Identical runs write byte-identical files."""
        sd = simulate_sampled(aircraft_system, aircraft_input)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, sampled_dataset_to_dict(sd))
        write_json(p2, sampled_dataset_to_dict(simulate_sampled(aircraft_system, aircraft_input)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matrix_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 5))
        path = tmp_path / "m.csv"
        matrix_to_csv(path, m)
        assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), m)

    def test_trajectory_csv(self, aircraft_system, aircraft_input, tmp_path):
        grid = np.linspace(0, 0.59, 10)
        traj = Trajectory(times=grid, states=state_at(aircraft_system, aircraft_input, grid))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,x1,x2,x3,x4"
        assert len(lines) == 11
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert np.allclose(first[1:], aircraft.X0)

    def test_read_json_reports_bad_file(self, tmp_path):
        from ctsid import ValidationError

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            read_json(bad)
        with pytest.raises(ValidationError):
            read_json(tmp_path / "missing.json")


AIRCRAFT_CFG = {
    "system": {"preset": "aircraft"},
    "input": {"levels": aircraft.MU.tolist()},
    "filter": {"family": "poly_test", "rho": aircraft.POLY_TEST_RHO, "M": 6},
}


@pytest.fixture
def aircraft_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(AIRCRAFT_CFG))
    return path


class TestCli:
    def test_simulate(self, aircraft_config, tmp_path, capsys):
        rc = main(["simulate", "--config", str(aircraft_config), "--out", str(tmp_path / "o")])
        assert rc == 0
        sd = sampled_dataset_from_dict(read_json(tmp_path / "o" / "sampled_dataset.json"))
        assert np.max(np.abs(sd.chi_all - aircraft.CHI_PRINTED)) <= 5e-4
        assert (tmp_path / "o" / "trajectory.csv").exists()

    def test_design(self, aircraft_config, tmp_path):
        rc = main(["design", "--config", str(aircraft_config), "--out", str(tmp_path / "o")])
        assert rc == 0
        res = read_json(tmp_path / "o" / "design_result.json")
        assert res["rank_report"]["rank"] == 6

    def test_filter_identify_verify_pipeline(self, aircraft_config, tmp_path):
        out = tmp_path / "o"
        assert main(["filter", "--config", str(aircraft_config), "--out", str(out)]) == 0
        fd_path = out / "filtered_dataset.json"
        assert main(["identify", "--config", str(aircraft_config), "--out", str(out), str(fd_path)]) == 0
        ident = read_json(out / "identification.json")
        assert ident["informative"] is True
        assert ident["frobenius_error"] <= aircraft.REFERENCE_ERROR_POLY
        assert main(["verify", "--config", str(aircraft_config), "--out", str(out),
                     "--filtered", str(fd_path)]) == 0
        ver = read_json(out / "verification.json")
        assert all(entry["passed"] for entry in ver.values())

    def test_filter_from_designed_dataset(self, aircraft_config, tmp_path):
        out = tmp_path / "o"
        assert main(["design", "--config", str(aircraft_config), "--out", str(out)]) == 0
        design = read_json(out / "design_result.json")
        ds_path = out / "designed_dataset.json"
        write_json(ds_path, design["dataset"])
        assert main(["filter", "--config", str(aircraft_config), "--out", str(out),
                     "--dataset", str(ds_path)]) == 0
        fd = filtered_dataset_from_dict(read_json(out / "filtered_dataset.json"))
        assert fd.x_f.shape == (4, 6)

    def test_demo_aircraft(self, tmp_path, capsys):
        rc = main(["demo-aircraft"])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        assert "all aircraft reference values reproduced" in captured.out
        assert "FAIL" not in captured.out

    def test_filters_plot_data(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["filters", "plot-data", "--family", "lowpass", "--rho", "2.0",
                   "--T", "0.1", "--M", "4", "--N", "4", "--out", str(out)])
        assert rc == 0
        data = np.loadtxt(out / "filter_lowpass.csv", delimiter=",", ndmin=2)
        assert data.shape == (600, 5)
        from ctsid import eval_g

        bank = make_filter_bank("lowpass", 2.0, 0.1, 4, 4)
        assert np.allclose(data[:, 1], eval_g(bank, 1, data[:, 0]))

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 2

    def test_bad_config_file_exits_2(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("not json at all")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, rtol", [("design", "0"), ("verify", "-1"), ("verify", "nan")])
    def test_non_positive_rtol_exits_2(self, command, rtol, aircraft_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--config", str(aircraft_config), "--out", str(out),
                     "--rtol", rtol]) == 2
        assert "rank_rtol must be positive" in capsys.readouterr().err
        assert not out.exists()  # refused before any output file is written

    def test_design_failure_exits_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "T": 0.1,
            "system": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]],
                       "x0": [1.0, 0.0]},
        }))
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_verification_failure_exits_4(self, aircraft_config, tmp_path):
        out = tmp_path / "o"
        assert main(["filter", "--config", str(aircraft_config), "--out", str(out)]) == 0
        fd_path = out / "filtered_dataset.json"
        payload = read_json(fd_path)
        payload["x_df"] = (np.array(payload["x_df"]) + 1.0).tolist()  # corrupt
        write_json(fd_path, payload)
        assert main(["verify", "--config", str(aircraft_config), "--out", str(out),
                     "--filtered", str(fd_path)]) == 4

    def test_cli_runs_are_deterministic(self, aircraft_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["design", "--config", str(aircraft_config), "--out", str(out),
                         "--seed", "3"]) == 0
        assert (out1 / "design_result.json").read_bytes() == (
            out2 / "design_result.json"
        ).read_bytes()

    def test_demo_prints_one_row_per_check(self, capsys):
        assert main(["demo-aircraft"]) == 0
        rows = capsys.readouterr().out.splitlines()[:-1]
        assert len(rows) == 12 and all(row.startswith("PASS  ") for row in rows)
        for family in ("poly_test", "lowpass"):
            assert f"PASS  {family} rank [x_f; u_f]: rank 6 of 6" in rows

    def test_demo_fails_on_a_moved_table_entry(self, monkeypatch, capsys):
        family, rho, (x_f, u_f, x_df), error = aircraft.REFERENCE_RUNS[0]
        moved = x_f.copy()
        moved[1, 2] += 1e-3
        monkeypatch.setattr(
            aircraft, "REFERENCE_RUNS",
            ((family, rho, (moved, u_f, x_df), error), *aircraft.REFERENCE_RUNS[1:]),
        )
        assert main(["demo-aircraft"]) == 4
        out = capsys.readouterr().out
        assert f"FAIL  {family} x_f:" in out
        assert "all aircraft reference values reproduced" not in out

    @pytest.mark.parametrize("scale", [0.0, 2.0**-500])
    def test_verify_fails_on_data_it_cannot_judge(self, scale, tmp_path):
        """All-zero data give no check anything to measure; at 2^-500 the data
        are normal doubles, but a residual at rounding level underflows in the
        norm and would read 0. verify fails on both instead of passing blind."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "T": aircraft.T,
            "system": {"A": aircraft.A.tolist(), "B": aircraft.B.tolist(),
                       "x0": (scale * aircraft.X0).tolist()},
            "input": {"levels": (scale * aircraft.MU).tolist()},
            "filter": AIRCRAFT_CFG["filter"],
        }))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        ver = read_json(tmp_path / "o" / "verification.json")
        blind = ["algebraic-relation", "factorization"]
        if scale == 0.0:
            blind += ["rank-ladder", "intersample-rank"]
        else:  # the rank verdicts are relative and still see rank 6
            assert ver["intersample-rank"] == {"passed": True, "detail": "rank 6 at 10 offsets"}
        for name in blind:
            assert not ver[name]["passed"], name
            assert ver[name]["detail"].startswith("cannot judge"), name

    def test_non_finite_rho_exits_2(self, tmp_path, capsys):
        # the filter command once wrote a filtered_dataset.json full of NaN
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**AIRCRAFT_CFG, "filter": {**AIRCRAFT_CFG["filter"],
                                                              "rho": float("nan")}}))
        out = tmp_path / "o"
        assert main(["filter", "--config", str(cfg), "--out", str(out)]) == 2
        assert "rho and T must be finite and positive" in capsys.readouterr().err
        assert not (out / "filtered_dataset.json").exists()

    def test_verify_lowpass_at_large_rho_t(self, tmp_path, capsys):
        """At rho T = 1000 the relation matrices once overflowed, and the
        factorization row read "relative residual nan" (exit 4). The panel
        count follows rho T and resolves lowpass g, a spike of width 1/rho;
        a fixed 8 panels did not."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**AIRCRAFT_CFG, "filter": {"family": "lowpass", "rho": 1e4}}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0, \
            capsys.readouterr().out

    @pytest.mark.parametrize("period", (float("nan"), float("inf")))
    @pytest.mark.parametrize("command", ("simulate", "design"))
    def test_non_finite_T_exits_2(self, command, period, tmp_path, capsys):
        # both once failed only inside expm, and inf warned in transition first
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**AIRCRAFT_CFG, "T": period}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "T must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, fields", (
        ("design", {"numeric": {"rank_rtol": None}}),
        ("filter", {"filter": {**AIRCRAFT_CFG["filter"], "M": "x"}}),
        ("design", {"T": "abc"}),
        ("simulate", {"T": "abc"}),
    ))
    def test_config_field_of_wrong_type_exits_2(self, command, fields, tmp_path, capsys):
        # each once escaped main as a TypeError or ValueError traceback, exit 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**AIRCRAFT_CFG, **fields}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_filtered_with_m_above_n_exits_2(self, aircraft_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["filter", "--config", str(aircraft_config), "--out", str(out)]) == 0
        cfg = tmp_path / "m7.json"
        cfg.write_text(json.dumps({**AIRCRAFT_CFG, "filter": {**AIRCRAFT_CFG["filter"], "M": 7}}))
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--filtered", str(out / "filtered_dataset.json")]) == 2
        assert "N >= M" in capsys.readouterr().err

    def test_verify_filtered_from_another_bank_exits_2(self, aircraft_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["filter", "--config", str(aircraft_config), "--out", str(out)]) == 0
        cfg = tmp_path / "lowpass.json"
        cfg.write_text(json.dumps({**AIRCRAFT_CFG, "filter": {"family": "lowpass", "rho": 1.0}}))
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--filtered", str(out / "filtered_dataset.json")]) == 2
        err = capsys.readouterr().err
        assert "'poly_test'" in err and "'lowpass'" in err
        assert not (out / "verification.json").exists()

    def test_plot_data_flags_override_the_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"T": 0.1, "filter": {"family": "poly_test", "rho": 5.0, "M": 4}}))
        out = tmp_path / "o"
        assert main(["filters", "plot-data", "--config", str(cfg), "--family", "lowpass",
                     "--rho", "2", "--out", str(out)]) == 0
        assert not (out / "filter_poly_test.csv").exists()
        data = np.loadtxt(out / "filter_lowpass.csv", delimiter=",", ndmin=2)
        assert data.shape == (600, 5)  # M = 4 and T = 0.1 still come from the file
        from ctsid import eval_g

        bank = make_filter_bank("lowpass", 2.0, 0.1, 4, 4)
        assert np.allclose(data[:, 4], eval_g(bank, 4, data[:, 0]))

    @pytest.mark.parametrize("points", ("0", "-5"))
    def test_plot_data_points_below_1_exits_2(self, points, tmp_path, capsys):
        # -5 once escaped as a numpy traceback, 0 wrote a CSV of one empty line
        out = tmp_path / "o"
        assert main(["filters", "plot-data", "--points", points, "--out", str(out)]) == 2
        assert "--points must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_console_script_installed(self):
        import shutil
        import subprocess

        exe = shutil.which("ctsid")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("simulate", "design", "filter", "identify", "verify", "demo-aircraft"):
            assert name in proc.stdout


# The flags each command reads, besides -h/--help. Every command accepts
# exactly these; argparse rejects any other with exit code 2.
READS = {
    "simulate": {"--config", "--out"},
    "design": {"--config", "--out", "--seed", "--rtol"},
    "filter": {"--config", "--out", "--dataset"},
    "identify": {"--config", "--out", "--rtol"},
    "verify": {"--config", "--out", "--seed", "--rtol", "--filtered"},
    "demo-aircraft": set(),
    "filters plot-data": {"--config", "--out", "--family", "--rho", "--T", "--M", "--N",
                          "--points"},
}
SHARED = {"--config": "c.json", "--out": "o", "--seed": "1", "--rtol": "1e-8", "--panels": "4"}


def _argv(command: str) -> list[str]:
    return command.split() + (["fd.json"] if command == "identify" else [])


class TestFlagSurface:
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, reads in READS.items() for f in SHARED if f not in reads],
    )
    def test_unread_flag_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*_argv(command), flag, SHARED[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*_argv(command), "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}
        assert listed == READS[command]

    def test_readme_flag_table_matches(self):
        """The README's `| `command` | flags |` rows list exactly the flags read."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", table, flags=re.MULTILINE)
        assert {command: set(re.findall(r"--\w+", flags)) for command, flags in rows} == READS
