import numpy as np
import pytest

import ctsid.aircraft as aircraft
from ctsid import (
    CyclingPolicy,
    DesignFailureError,
    LtiSystem,
    NumericalError,
    PiecewiseConstantInput,
    ReplayPlant,
    SeededRandomPolicy,
    SimulatedPlant,
    ValidationError,
    hankel,
    pe_check,
    run_online_design,
    simulate_sampled,
    state_at,
    svd_rank,
    verify_intersample,
)
from ctsid.design import choose_input, image_membership, kernel_certificate
from conftest import random_controllable_system


class TestHankel:
    def test_scalar_depth_two(self):
        h = hankel(np.array([[1.0, 2.0, 3.0, 4.0]]), 2)
        assert np.allclose(h, [[1, 2, 3], [2, 3, 4]])

    def test_block_rows(self):
        mu = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        h = hankel(mu, 2)
        assert h.shape == (4, 2)
        assert np.allclose(h, [[1, 2], [4, 5], [2, 3], [5, 6]])

    def test_depth_bounds(self):
        with pytest.raises(ValidationError):
            hankel(np.ones((1, 3)), 4)
        with pytest.raises(ValidationError):
            hankel(np.ones((1, 3)), 0)


class TestPeCheck:
    def test_random_input_is_pe(self):
        rng = np.random.default_rng(0)
        mu = rng.standard_normal((2, 40))
        assert pe_check(mu, n=4)

    def test_constant_input_is_not_pe(self):
        assert not pe_check(np.ones((1, 40)), n=2)

    def test_too_short_is_not_pe(self):
        # rank (n+1)m needs at least n + (n+1)m samples
        rng = np.random.default_rng(1)
        assert not pe_check(rng.standard_normal((2, 6)), n=4)

    def test_aircraft_reference_input(self):
        # N = 6 = n + m samples: enough for the rank condition, never for PE
        assert not pe_check(aircraft.MU, n=4)


class TestImageMembership:
    def test_basic(self):
        prefix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert image_membership(prefix, [2.0, -3.0, 0.0])
        assert not image_membership(prefix, [0.0, 0.0, 1.0])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        prefix = rng.standard_normal((4, 2)) * 1e6
        v = prefix @ rng.standard_normal(2)
        assert image_membership(prefix, v)
        assert not image_membership(prefix, v + 1e3 * np.linalg.svd(prefix)[0][:, -1])


class TestKernelCertificate:
    def test_simple(self):
        # chi prefix spans e1, mu prefix is zero: kernel contains (0, 1) pairs
        stacked = np.array([[1.0], [0.0], [0.0]])  # n=2, m=1
        cert = kernel_certificate(stacked, n=2, m=1)
        assert cert.eta.shape == (1,)
        assert abs(cert.eta[0]) > 0.5
        assert np.linalg.norm(cert.vector() @ stacked) <= 1e-12

    def test_annihilates_prefix(self):
        rng = np.random.default_rng(3)
        chi = rng.standard_normal((3, 2))
        mu = np.zeros((2, 2))
        stacked = np.vstack([chi, mu])
        cert = kernel_certificate(stacked, n=3, m=2)
        assert np.linalg.norm(cert.vector() @ stacked) <= 1e-10
        assert np.linalg.norm(cert.eta) > 0.9  # eta maximized over the kernel

    def test_full_rank_prefix_fails(self):
        with pytest.raises(NumericalError):
            kernel_certificate(np.eye(3), n=2, m=1)

    def test_no_eta_component_fails(self):
        # kernel orthogonal to the input rows: eta-block numerically zero
        stacked = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # n=2, m=1
        with pytest.raises(NumericalError):
            kernel_certificate(stacked, n=2, m=1)


class TestPolicies:
    def test_cycling_first_is_ones(self):
        p = CyclingPolicy(3)
        assert np.allclose(p(0), [1.0, 1.0, 1.0])
        assert np.linalg.norm(p(4)) == 1.0

    def test_seeded_random_reproducible(self):
        a = [SeededRandomPolicy(2, seed=7)(k) for k in range(4)]
        b = [SeededRandomPolicy(2, seed=7)(k) for k in range(4)]
        assert all(np.allclose(x, y) for x, y in zip(a, b))
        for x in a:
            assert np.linalg.norm(x) == pytest.approx(1.0)


class TestChooseInput:
    def test_free_branch_uses_policy(self):
        mu = choose_input("new-direction", None, np.zeros(2), CyclingPolicy(2), 3)
        assert np.allclose(mu, CyclingPolicy(2)(3))

    def test_zero_mu0_rejected(self):
        with pytest.raises(ValidationError):
            choose_input("new-direction", None, np.zeros(2), lambda k: np.zeros(2), 0)

    def test_certificate_branch_keeps_affine_form_away_from_zero(self):
        from ctsid.design import KernelCertificate

        xi = np.array([1.0, 0.0])
        eta = np.array([0.5])
        chi_k = np.array([0.5, 0.0])  # base = 0.5
        cert = KernelCertificate(xi=xi, eta=eta, k=1)
        mu = choose_input("certificate", cert, chi_k, CyclingPolicy(1), 1)
        assert abs(xi @ chi_k + eta @ mu) > 1e-6

    def test_certificate_sign_flip(self):
        from ctsid.design import KernelCertificate

        # base = -1 and eta direction gives +1: c=+1 would cancel exactly
        cert = KernelCertificate(xi=np.array([1.0]), eta=np.array([1.0]), k=1)
        mu = choose_input("certificate", cert, np.array([-1.0]), CyclingPolicy(1), 1)
        assert abs(-1.0 + mu[0]) > 1e-6


class TestRunOnlineDesign:
    def test_aircraft_reaches_full_rank_in_six_steps(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        res = run_online_design(plant, n=4, m=2, T=aircraft.T)
        assert res.dataset.N == 6
        assert res.rank_report.rank == 6
        assert res.rank_history == [1, 2, 3, 4, 5, 6]
        assert len(res.branches) == 6
        assert len(res.certificates) == res.branches.count("certificate")

    def test_dataset_is_a_true_trajectory(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        res = run_online_design(plant, n=4, m=2, T=aircraft.T)
        inp = PiecewiseConstantInput(T=aircraft.T, levels=res.dataset.mu)
        sd = simulate_sampled(aircraft_system, inp)
        assert np.allclose(sd.chi, res.dataset.chi, atol=1e-10)
        assert np.allclose(sd.chi_final, res.dataset.chi_final, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_systems_always_succeed(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        sys_ = random_controllable_system(rng, n, m, T=0.1)
        res = run_online_design(SimulatedPlant(sys_, 0.1), n, m, T=0.1)
        assert res.rank_report.rank == n + m
        # rank grows by one every step: minimal-length experiment
        assert res.rank_history == list(range(1, n + m + 1))

    def test_random_policy_also_succeeds(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        res = run_online_design(
            plant, 4, 2, aircraft.T, policy=SeededRandomPolicy(2, seed=5)
        )
        assert res.rank_report.rank == 6

    def test_zero_initial_state_forces_certificates(self):
        # x0 = 0: chi_0 = 0 is trivially in the (empty) image at every early
        # step, so certificate branches carry the whole design
        sys_ = LtiSystem(
            a=[[0.0, 1.0], [-1.0, -0.5]], b=[[0.0], [1.0]], x0=[0.0, 0.0]
        )
        res = run_online_design(SimulatedPlant(sys_, 0.1), 2, 1, T=0.1)
        assert res.rank_report.rank == 3

    def test_uncontrollable_plant_fails_with_diagnostics(self):
        # block-diagonal with an unreachable, unexcited second state
        sys_ = LtiSystem(
            a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]], x0=[1.0, 0.0]
        )
        with pytest.raises(DesignFailureError) as ei:
            run_online_design(SimulatedPlant(sys_, 0.1), 2, 1, T=0.1)
        err = ei.value
        assert err.dataset is not None
        assert err.rank_report.rank < 3
        assert len(err.branch_log) == 3


class TestReplayPlant:
    def test_replay_reproduces_design(self, aircraft_system):
        res = run_online_design(SimulatedPlant(aircraft_system, aircraft.T), 4, 2, aircraft.T)
        replay = ReplayPlant(res.dataset)
        res2 = run_online_design(replay, 4, 2, aircraft.T)
        assert np.allclose(res2.dataset.chi, res.dataset.chi)
        assert res2.branches == res.branches

    def test_deviating_input_rejected(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        replay = ReplayPlant(sd)
        replay.reset()
        replay.apply(sd.mu[:, 0])
        with pytest.raises(ValidationError):
            replay.apply(sd.mu[:, 1] + 1.0)

    def test_requires_final_state(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        from ctsid import SampledDataset

        stripped = SampledDataset(chi=sd.chi, mu=sd.mu, T=sd.T)
        with pytest.raises(ValidationError):
            ReplayPlant(stripped)


class TestSimulatedPlantProbe:
    def test_probe_matches_state_at(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        plant.reset()
        plant.apply([1.0, 1.0])
        plant.apply([-1.0, -1.0])
        inp = PiecewiseConstantInput(
            T=aircraft.T, levels=np.array([[1.0, -1.0], [1.0, -1.0]])
        )
        t = 0.04
        assert np.allclose(
            plant.probe(t, interval=1), state_at(aircraft_system, inp, aircraft.T + t)
        )

    def test_probe_before_any_step(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        plant.reset()
        with pytest.raises(ValidationError):
            plant.probe(0.01)

    def test_probe_starts_from_the_reset_state(self, aircraft_system):
        x0 = np.array([0.5, 0.0, -1.0, 2.0])
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        plant.reset(x0)
        levels = np.array([[1.0, 0.0, 0.5], [0.0, -1.0, 0.5]])
        for mu in levels.T:
            plant.apply(mu)
        inp = PiecewiseConstantInput(T=aircraft.T, levels=levels)
        sys_ = LtiSystem(a=aircraft_system.a, b=aircraft_system.b, x0=x0)
        for k, t in ((0, 0.0), (1, 0.03), (2, 0.099)):
            assert np.allclose(
                plant.probe(t, interval=k), state_at(sys_, inp, k * aircraft.T + t), rtol=1e-13
            )

    def test_apply_rejects_wrong_dimensions(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        plant.reset()
        with pytest.raises(ValidationError):
            plant.apply([1.0, 0.0, 0.0])
        plant.reset([1.0, 2.0])
        with pytest.raises(ValidationError):
            plant.apply([1.0, 0.0])


class TestRankCondition:
    def test_aircraft_reference(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        assert svd_rank(sd.stacked()).rank == 6


class TestVerifyIntersample:
    def test_aircraft_full_rank_at_all_offsets(self, aircraft_system, aircraft_input):
        offsets = np.linspace(0, aircraft.T, 7, endpoint=False)
        reports = verify_intersample(aircraft_system, aircraft_input, offsets)
        assert len(reports) == 7
        for t, rep in reports:
            assert rep.rank == 6, f"rank dropped at offset {t}"

    def test_offset_zero_equals_sampled_rank(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        [(t, rep)] = verify_intersample(aircraft_system, aircraft_input, [0.0])
        assert rep.rank == svd_rank(sd.stacked()).rank

    def test_rejects_offsets_outside_period(self, aircraft_system, aircraft_input):
        with pytest.raises(ValidationError):
            verify_intersample(aircraft_system, aircraft_input, [aircraft.T])

    @pytest.mark.parametrize("seed", range(5))
    def test_designed_experiments_hold_intersample(self, seed):
        rng = np.random.default_rng(400 + seed)
        sys_ = random_controllable_system(rng, n=3, m=2, T=0.1)
        res = run_online_design(SimulatedPlant(sys_, 0.1), 3, 2, T=0.1)
        inp = PiecewiseConstantInput(T=0.1, levels=res.dataset.mu)
        offsets = rng.uniform(0.0, 0.1, size=4)
        for t, rep in verify_intersample(sys_, inp, offsets):
            assert rep.rank == 5
