"""Work that every job would otherwise repeat is done once.

Counted by monkeypatching, so the removed work cannot creep back: a
horizon-shaped pipeline (simulate, then filter and identify with all four
families) runs the ZOH recurrence once, builds the Gauss-Legendre rule at
most once per node count and each lag matrix F_bar once per filter bank
value, a closed-form family evaluates its filtered data once per call,
stacked() hands out the dataset's own buffer without stacking again, each
identify or identify_discrete takes exactly one SVD, and an online design
takes one SVD per step: n + m - 1 of K_u and the final rank verdict. Once
a plant's propagator is memoized, the benchmark's horizon job on it takes
no matrix exponential and its aircraft job one (the random intersample
offsets).
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

import ctsid.aircraft as aircraft
import ctsid.filtering as filtering
import ctsid.linalg as linalg
import ctsid.ltisim as ltisim
from ctsid import (
    LtiSystem,
    NumericConfig,
    PiecewiseConstantInput,
    filter_lti_dataset,
    identify,
    identify_discrete,
    make_filter_bank,
    SimulatedPlant,
    run_online_design,
    simulate_sampled,
)
from ctsid.filters import FAMILIES, FilterBank
from conftest import controllable_by_construction

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

N = 32
RHO = {"poly_test": aircraft.POLY_TEST_RHO, "bump_test": 2.0, "laguerre": 1.0, "lowpass": 1.0}


def horizon_job(sys_, inp, config=NumericConfig()):
    simulate_sampled(sys_, inp)
    for family in FAMILIES:
        bank = make_filter_bank(family, RHO[family], inp.T, N, N)
        res = identify(filter_lti_dataset(sys_, inp, bank, config), sys_.n, sys_.m)
        assert res.informative


def fresh_job_inputs(seed):
    rng = np.random.default_rng(seed)
    sys_ = LtiSystem(a=aircraft.A, b=aircraft.B, x0=aircraft.X0 + rng.standard_normal(4))
    return sys_, PiecewiseConstantInput(T=aircraft.T, levels=rng.uniform(-1, 1, size=(2, N)))


def counting(fn, counter, key=lambda *args, **kwargs: None):
    def wrapper(*args, **kwargs):
        counter[key(*args, **kwargs)] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_recurrence_runs_once_per_job(monkeypatch):
    # simulate_sampled builds one SampledDataset per run of the recurrence
    built = Counter()
    monkeypatch.setattr(ltisim, "SampledDataset", counting(ltisim.SampledDataset, built))
    for seed in range(2):
        horizon_job(*fresh_job_inputs(seed))
        assert built[None] == seed + 1


def test_legendre_rule_built_at_most_once_per_node_count(monkeypatch):
    built = Counter()
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", counting(leggauss, built, key=lambda nodes: nodes)
    )
    ltisim._legendre.cache_clear()
    for seed, nodes in ((0, 16), (1, 16), (2, 8)):
        horizon_job(*fresh_job_inputs(seed), NumericConfig(quad_nodes=nodes))
    assert built == {16: 1, 8: 1}


def test_lag_matrix_built_once_per_bank_value(monkeypatch):
    # each job makes new FilterBank objects; equal values share one F_bar
    built = Counter()
    coef = counting(FilterBank._coef, built, key=lambda bank, ell, j: bank)
    monkeypatch.setattr(FilterBank, "_coef", coef)
    FilterBank._lag_matrix.cache_clear()
    for seed in range(2):
        horizon_job(*fresh_job_inputs(seed))
    assert built == {make_filter_bank(f, RHO[f], aircraft.T, N, N): 1 for f in FAMILIES}


class CountedMoments(tuple):
    """Moments that count their unpackings, one per evaluation of the data."""

    unpacked = Counter()

    def __new__(cls, moments, family):
        self = super().__new__(cls, moments)
        self.family = family
        return self

    def __iter__(self):
        self.unpacked[self.family] += 1
        return super().__iter__()


def test_closed_form_data_evaluated_once_per_call(monkeypatch):
    interval_moments = filtering._interval_moments

    def counted(sys_, bank, config):
        fine, coarse = interval_moments(sys_, bank, config)
        counted_fine = CountedMoments(fine, bank.family)
        return counted_fine, counted_fine if coarse is fine else CountedMoments(coarse, bank.family)

    monkeypatch.setattr(filtering, "_interval_moments", counted)
    CountedMoments.unpacked.clear()
    horizon_job(*fresh_job_inputs(0))
    # fine and coarse are one exact triple; bump_test is quadrature at two panel counts
    assert CountedMoments.unpacked == {"poly_test": 1, "laguerre": 1, "lowpass": 1, "bump_test": 2}


def test_stacked_hands_out_the_owned_buffer(monkeypatch):
    sys_, inp = fresh_job_inputs(0)
    sd = simulate_sampled(sys_, inp)
    fd = filter_lti_dataset(sys_, inp, make_filter_bank("lowpass", 1.0, inp.T, N, N))
    vstacks = Counter()
    monkeypatch.setattr(np, "vstack", counting(np.vstack, vstacks))
    for k in range(1, N + 1):  # the rank ladder of the benchmark's checks
        assert sd.stacked()[:, :k].shape == fd.stacked()[:, :k].shape == (6, k)
    identify(fd, sys_.n, sys_.m)
    identify_discrete(sd)
    assert vstacks[None] == 0


def test_each_identification_takes_one_svd(monkeypatch):
    sys_, inp = fresh_job_inputs(0)
    horizon_job(sys_, inp)  # builds the propagators outside the count
    svds = Counter()
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, svds))
    horizon_job(sys_, inp)
    assert svds[None] == len(FAMILIES)  # filtering takes none
    identify_discrete(simulate_sampled(sys_, inp))
    assert svds[None] == len(FAMILIES) + 1


def test_online_design_takes_one_svd_per_step(monkeypatch):
    # n + m - 1 SVDs of K_u and the final verdict; recomputing the prefix's
    # left kernel after each sample took 2(n + m) - 1 (11 and 23 here)
    ten_states = controllable_by_construction(np.random.default_rng([10, 2, 0]), 10, 2, 0.1)
    plants = [
        (SimulatedPlant(aircraft.system(), aircraft.T), 4, 2, aircraft.T),
        (SimulatedPlant(ten_states, 0.1), 10, 2, 0.1),
    ]
    svds = Counter()
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, svds))
    for plant, n, m, T in plants:
        svds.clear()
        res = run_online_design(plant, n, m, T)
        assert res.rank_report.rank == n + m
        assert svds[None] == n + m


def test_warm_jobs_take_no_exponential_of_the_plant(monkeypatch):
    # a propagator memoized per system object made each horizon job take 6
    # exponentials and each aircraft job 7, all of one (A, B, T), because
    # each job builds a new system
    expms = Counter()
    expm = counting(linalg.expm, expms)
    for mod in (linalg, ltisim, filtering):
        monkeypatch.setattr(mod, "expm", expm)
    counts = {}
    for name in ("horizon", "aircraft"):
        wl = workloads.WORKLOADS[name]
        counts[name] = []
        for index in range(3):
            expms.clear()
            outcome, _, detail = workloads.run_job(wl, wl.inputs(5, index), [])
            assert outcome == "ok", detail
            counts[name].append(expms[None])
    cold = counts["horizon"][0]
    assert cold > 0  # the first job builds the plant's propagator and moments
    # an aircraft job's one exponential is of its random intersample offsets
    assert counts == {"horizon": [cold, 0, 0], "aircraft": [1, 1, 1]}
