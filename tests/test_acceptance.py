"""Acceptance suite: one test (or test group) per acceptance criterion.

Criteria 5-9 share a battery of 100 seeded random controllable systems
(n in 2..5, m in 1..2, entries in [-2, 2], T = 0.1, pathological sampling
excluded), built once per session. Filtered datasets per family are
memoized on the battery so each run filters each family once.

Criterion 4 identifies (A, B) twice: from the full-precision filtered data,
against a fixed 1e-5 bar, and from the 4-decimal printed reference tables,
against the bound that 4-decimal data allow. For a full-rank printed stack
S_p = [x_f; u_f] the error is exactly E = (dx_df - [A B] dS) S_p^+, where d
is the print error, so the +-5e-5 rounding is amplified by ||[A B]||_2 (about
81) and by cond(S_p) (about 1e2 for poly_test, 4e2 for lowpass). Rounding the
program's own filtered data to 4 decimals gives errors of the same size
(0.027 and 0.18) as the printed tables do (0.028 and 0.16); no fixed bar near
1e-4 is reachable from such data.
"""

import json

import numpy as np
import pytest

import ctsid.aircraft as aircraft
from ctsid import (
    DesignFailureError,
    FilteredDataset,
    LtiSystem,
    PiecewiseConstantInput,
    SimulatedPlant,
    build_F_bar,
    build_relation_matrices,
    check_nonpathological,
    decompose,
    factorization_residual,
    filter_lti_dataset,
    identify,
    make_filter_bank,
    run_online_design,
    simulate_sampled,
    svd_rank,
    verify_algebraic,
    verify_intersample,
)
from ctsid.linalg import frobenius_distance
from ctsid.oracles import (
    filter_signal,
    filtered_derivative_data,
    lowpass_derivative_identity,
    lowpass_realization,
    rk4_oracle,
)
from ctsid.filters import FAMILIES
from conftest import random_controllable_system, state_fn

T = 0.1
BATTERY_SIZE = 100
FAMILY_RHO = {
    "poly_test": 10.0 / T**5,
    "bump_test": 2.0,
    "laguerre": 1.0,
    "lowpass": 1.0,
}
PRINT_HALF_UNIT = 5e-5  # rounding error of the 4-decimal reference tables


class Run:
    """One battery member: system, designed experiment, cached filtered data."""

    def __init__(self, sys_, result):
        self.sys = sys_
        self.result = result
        self.sd = result.dataset
        self.inp = PiecewiseConstantInput(T=T, levels=self.sd.mu)
        self._fds = {}
        self._state = None

    @property
    def n(self):
        return self.sys.n

    @property
    def m(self):
        return self.sys.m

    def fd(self, family):
        if family not in self._fds:
            bank = make_filter_bank(family, FAMILY_RHO[family], T, self.n + self.m, self.n + self.m)
            self._fds[family] = filter_lti_dataset(self.sys, self.inp, bank)
        return self._fds[family]

    def state(self):
        if self._state is None:
            self._state = state_fn(self.sys, self.inp)
        return self._state


@pytest.fixture(scope="session")
def battery():
    rng = np.random.default_rng(2024)
    runs = []
    for i in range(BATTERY_SIZE):
        n = 2 + i % 4
        m = 1 + (i // 4) % 2
        sys_ = random_controllable_system(rng, n, m, T=T)
        result = run_online_design(SimulatedPlant(sys_, T), n, m, T)
        runs.append(Run(sys_, result))
    return runs


# --- criterion 1: sampled-data reproduction of the aircraft example -------


def test_criterion_1_sampled_reproduction(aircraft_system, aircraft_input):
    sd = simulate_sampled(aircraft_system, aircraft_input)
    assert sd.chi_all.shape == aircraft.CHI_PRINTED.shape
    assert np.max(np.abs(sd.chi_all - aircraft.CHI_PRINTED)) <= 5e-4


# --- criterion 2: filtered-data reproduction -------------------------------


@pytest.mark.parametrize(
    "family, rho, refs",
    [
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
    ],
)
def test_criterion_2_filtered_reproduction(family, rho, refs, aircraft_system, aircraft_input):
    bank = make_filter_bank(family, rho, aircraft.T, 6, 6)
    fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
    for name, mat, ref in zip(("x_f", "u_f", "x_df"), (fd.x_f, fd.u_f, fd.x_df), refs):
        assert np.max(np.abs(mat - ref)) <= 5e-4, name


# --- criterion 3: rank verdicts --------------------------------------------


def test_criterion_3_rank_verdicts(aircraft_system, aircraft_input):
    sd = simulate_sampled(aircraft_system, aircraft_input)
    assert svd_rank(sd.stacked(), rtol=1e-8).rank == 6
    for family, rho in (("poly_test", aircraft.POLY_TEST_RHO), ("lowpass", aircraft.LOWPASS_RHO)):
        bank = make_filter_bank(family, rho, aircraft.T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        assert svd_rank(fd.stacked(), rtol=1e-8).rank == 6, family


# --- criterion 4: identification error -------------------------------------


@pytest.mark.parametrize(
    "family, rho", [("poly_test", aircraft.POLY_TEST_RHO), ("lowpass", aircraft.LOWPASS_RHO)]
)
def test_criterion_4_identification_error_full_precision(
    family, rho, aircraft_system, aircraft_input
):
    bank = make_filter_bank(family, rho, aircraft.T, 6, 6)
    fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
    res = identify(fd, 4, 2, truth=aircraft_system)
    assert res.informative
    assert res.frobenius_error <= 1e-5


@pytest.mark.parametrize(
    "family, rho, refs",
    [
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
    ],
)
def test_criterion_4_identification_error_from_printed_data(
    family, rho, refs, aircraft_system, aircraft_input
):
    """Identification from the 4-decimal tables stays within what 4 decimals allow.

    With print errors dS = S_p - S (S the exact stack) and dx_df, and S_p of
    full row rank, ||E||_F <= (||dx_df||_F + ||[A B]||_2 ||dS||_F) ||S_p^+||_2.
    Half a unit in the 4th decimal, delta, gives each table the Frobenius
    budget delta * sqrt(entries). The budget, not a per-entry bound, is the
    premise: a few printed entries are off by up to about 2 delta (see the
    tables in ctsid.aircraft). The premise is checked against the
    full-precision filtered data, and the bound (about 0.88 for poly_test,
    4.4 for lowpass) is computed from delta and the printed matrices.
    """
    fd = FilteredDataset(
        x_f=refs[0], u_f=refs[1], x_df=refs[2], family=family, rho=rho, T=aircraft.T, M=6
    )
    res = identify(fd, 4, 2, truth=aircraft_system)
    assert res.informative

    exact = filter_lti_dataset(
        aircraft_system, aircraft_input, make_filter_bank(family, rho, aircraft.T, 6, 6)
    )
    stacked = fd.stacked()
    stacked_budget = PRINT_HALF_UNIT * np.sqrt(stacked.size)
    x_df_budget = PRINT_HALF_UNIT * np.sqrt(fd.x_df.size)
    assert frobenius_distance(stacked, exact.stacked()) <= stacked_budget
    assert frobenius_distance(fd.x_df, exact.x_df) <= x_df_budget

    ab = np.hstack([aircraft_system.a, aircraft_system.b])
    bound = (x_df_budget + np.linalg.norm(ab, 2) * stacked_budget) * np.linalg.norm(
        np.linalg.pinv(stacked), 2
    )
    assert res.frobenius_error <= bound


# --- criterion 5: minimal-sample online design ------------------------------


def test_criterion_5_online_design_sample_optimal(battery):
    assert len(battery) == BATTERY_SIZE
    sizes = set()
    for run in battery:
        nm = run.n + run.m
        sizes.add((run.n, run.m))
        assert run.sd.N == nm
        assert run.result.rank_report.rank == nm
        # rank grows by exactly one each step
        assert run.result.rank_history == list(range(1, nm + 1))
    # the battery actually covers the full (n, m) grid
    assert sizes == {(n, m) for n in range(2, 6) for m in (1, 2)}


# --- criterion 6: intersample rank ------------------------------------------


def test_criterion_6_intersample_rank(battery):
    rng = np.random.default_rng(77)
    for run in battery:
        offsets = rng.uniform(0.0, T, size=10)
        for t, rep in verify_intersample(run.sys, run.inp, offsets):
            assert rep.rank == run.n + run.m, (run.n, run.m, t)


# --- criterion 7: rank ladder sampled vs filtered ---------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_7_rank_ladder(battery, family):
    for run in battery:
        fd = run.fd(family)
        stacked_s = run.sd.stacked()
        stacked_f = fd.stacked()
        for k in range(1, run.n + run.m + 1):
            r_s = svd_rank(stacked_s[:, :k]).rank
            r_f = svd_rank(stacked_f[:, :k]).rank
            assert r_s == r_f, (family, run.n, run.m, k)


# --- criterion 8: algebraic and factorization residuals ---------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_8_residuals(battery, family):
    for run in battery:
        fd = run.fd(family)
        rel_alg = verify_algebraic(fd, run.sys) / max(np.linalg.norm(fd.x_df), 1e-300)
        assert rel_alg <= 1e-8, (family, run.n, run.m)
        bank = make_filter_bank(family, FAMILY_RHO[family], T, run.n + run.m, run.n + run.m)
        rel_mat = build_relation_matrices(run.sys, decompose(bank))
        assert factorization_residual(fd, run.sd, rel_mat) <= 1e-8, (family, run.n, run.m)


# --- criterion 9: low-pass identities ----------------------------------------


def test_criterion_9_lowpass_identities(battery):
    rho = FAMILY_RHO["lowpass"]
    for run in battery:
        fd = run.fd("lowpass")
        w = run.state()
        m_filters = run.n + run.m
        wf = lowpass_realization(rho, w, T, m_filters, substeps=256)
        scale = 1.0 + np.max(np.abs(fd.x_f))
        assert np.max(np.abs(wf - fd.x_f)) <= 1e-6 * scale, (run.n, run.m)
        for ell in range(1, m_filters + 1):
            lhs = lowpass_derivative_identity(rho, w, T, ell, fd.x_f[:, ell - 1])
            diff = np.max(np.abs(lhs - fd.x_df[:, ell - 1]))
            assert diff <= 1e-8 * (1.0 + np.max(np.abs(fd.x_df))), (run.n, run.m, ell)


# --- criterion 10: F_bar structure -------------------------------------------


@pytest.mark.parametrize("nm", [3, 5, 7])
def test_criterion_10_f_bar_structure(nm):
    for family in ("poly_test", "bump_test"):
        dec = decompose(make_filter_bank(family, FAMILY_RHO[family], T, nm, nm))
        assert np.allclose(build_F_bar(dec), np.eye(nm)), family

    rho = FAMILY_RHO["laguerre"]
    fb = build_F_bar(decompose(make_filter_bank("laguerre", rho, T, nm, nm)))
    assert np.allclose(np.triu(fb, 1), 0.0)  # lower triangular
    assert np.allclose(np.diag(fb), 1.0)  # unit diagonal
    assert svd_rank(fb).rank == nm

    rho = FAMILY_RHO["lowpass"]
    fb = build_F_bar(decompose(make_filter_bank("lowpass", rho, T, nm, nm)))
    assert np.allclose(np.tril(fb, -1), 0.0)  # upper triangular
    assert np.allclose(np.diag(fb), np.exp(-rho * T))
    assert svd_rank(fb).rank == nm


# --- criterion 11: oracle equivalence ----------------------------------------


def _oracle_cases():
    cases = [(aircraft.system(), aircraft.reference_input())]
    rng = np.random.default_rng(99)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        sys_ = random_controllable_system(rng, n, m, T=T)
        inp = PiecewiseConstantInput(T=T, levels=rng.uniform(-1, 1, size=(m, n + m)))
        cases.append((sys_, inp))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_criterion_11_simulation_oracle(case):
    sys_, inp = _oracle_cases()[case]
    sd = simulate_sampled(sys_, inp)
    traj = rk4_oracle(sys_, inp, h=T / 4096)
    for k in range(inp.N + 1):
        i = int(round(k * 4096))
        assert np.allclose(sd.chi_all[:, k], traj.states[:, i], atol=1e-8), k


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_11_derivative_oracle(family, aircraft_system, aircraft_input):
    """Integration-by-parts x_df equals direct quadrature of g_l (A x + B u)."""
    bank = make_filter_bank(family, FAMILY_RHO[family], T, 6, 6)
    f = state_fn(aircraft_system, aircraft_input)
    x_df = filtered_derivative_data(bank, f)

    def xdot(t):
        t_in = min(t, aircraft_input.horizon - 1e-12)
        return aircraft_system.a @ f(t) + aircraft_system.b @ aircraft_input.value_at(t_in)

    direct = filter_signal(bank, xdot, extra_splits=np.arange(1, 6) * T)
    assert np.max(np.abs(x_df - direct)) <= 1e-8 * (1.0 + np.max(np.abs(direct)))


# --- criterion 12: pathological-sampling negative control --------------------


def test_criterion_12_negative_control(tmp_path):
    w = 2.0 * np.pi / T
    sys_ = LtiSystem(a=[[0.0, w], [-w, 0.0]], b=[[0.0], [1.0]], x0=[1.0, 0.0])
    ok, offending = check_nonpathological(sys_, T)
    assert not ok
    assert offending  # the offending eigenvalue pair is reported

    # the library design loop cannot reach full rank on this plant
    with pytest.raises(DesignFailureError):
        run_online_design(SimulatedPlant(sys_, T), 2, 1, T)

    # the pipeline front end reports the assumption violation (exit code 3)
    from ctsid.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "T": T,
                "system": {
                    "A": [[0.0, w], [-w, 0.0]],
                    "B": [[0.0], [1.0]],
                    "x0": [1.0, 0.0],
                },
            }
        )
    )
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
