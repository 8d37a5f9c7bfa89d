import numpy as np
import pytest

import ctsid.aircraft as aircraft
from ctsid import (
    CyclingPolicy,
    DesignFailureError,
    LtiSystem,
    PiecewiseConstantInput,
    ReplayPlant,
    SeededRandomPolicy,
    SimulatedPlant,
    ValidationError,
    discretize,
    hankel,
    identify_discrete,
    pe_check,
    run_online_design,
    simulate_sampled,
    svd_rank,
    verify_intersample,
)
from ctsid.linalg import left_kernel_basis
from conftest import controllable_by_construction, random_controllable_system


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


def check_design_steps(res, policy_factory):
    """Properties of every step of a finished design, recomputed from its data.

    Policy steps take the policy's input unchanged. A certificate step k
    takes an input of the policy's norm whose certificate (xi, eta)
    annihilates the prefix, has the largest eta-block of any unit left-kernel
    vector of it, and makes |xi^T chi_k + eta^T mu_k| = |xi^T chi_k| +
    ||eta|| ||mu_k||; the input then sticks out of the prefix further than
    the policy's would have. Returns the signs of xi^T chi_k seen.
    """
    data = res.dataset.stacked()
    n = res.dataset.chi.shape[0]
    policy = policy_factory()  # a fresh policy replays the inputs it offered
    certs = iter(res.certificates)
    signs = set()
    assert len(res.certificates) == res.branches.count("certificate")
    for k, branch in enumerate(res.branches):
        chi_k, mu_k, p_k = data[:n, k], data[n:, k], policy(k)
        if branch == "new-direction":
            assert np.array_equal(mu_k, p_k)
            continue
        assert branch == "certificate" and k > 0
        cert = next(certs)
        assert cert.k == k
        prefix = data[:, :k]
        assert np.linalg.norm(cert.vector() @ prefix) <= 1e-10 * np.linalg.norm(prefix)
        basis = left_kernel_basis(prefix)
        eta_max = np.linalg.svd(basis[:, n:], compute_uv=False)[0]
        assert np.linalg.norm(cert.eta) == pytest.approx(eta_max, rel=1e-12)
        base = cert.xi @ chi_k
        assert abs(base + cert.eta @ mu_k) == pytest.approx(
            abs(base) + np.linalg.norm(cert.eta) * np.linalg.norm(mu_k), rel=1e-12
        )
        assert np.linalg.norm(mu_k) == pytest.approx(np.linalg.norm(p_k), rel=1e-12)
        assert np.linalg.norm(basis @ np.concatenate([chi_k, mu_k])) > np.linalg.norm(
            basis @ np.concatenate([chi_k, p_k])
        )
        signs.add(np.sign(base))
    return signs


def assert_rank_history_is_prefix_rank(res, rtol=1e-8):
    """The Householder-updated rank of each prefix is its svd_rank."""
    data = res.dataset.stacked()
    prefix_ranks = [svd_rank(data[:, : k + 1], rtol).rank for k in range(data.shape[1])]
    assert res.rank_history == prefix_ranks


class TestRunOnlineDesign:
    def test_aircraft_reaches_full_rank_in_six_steps(self, aircraft_system):
        plant = SimulatedPlant(aircraft_system, aircraft.T)
        res = run_online_design(plant, n=4, m=2, T=aircraft.T)
        assert res.dataset.N == 6
        assert res.rank_report.rank == 6
        assert res.rank_history == [1, 2, 3, 4, 5, 6]
        assert len(res.branches) == 6
        check_design_steps(res, lambda: CyclingPolicy(2))
        assert res.certificates

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
        assert_rank_history_is_prefix_rank(res)
        check_design_steps(res, lambda: CyclingPolicy(m))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_systems_random_policy(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        sys_ = random_controllable_system(rng, n, m, T=0.1)
        res = run_online_design(
            SimulatedPlant(sys_, 0.1), n, m, 0.1, policy=SeededRandomPolicy(m, seed=seed)
        )
        assert res.rank_history == list(range(1, n + m + 1))
        check_design_steps(res, lambda: SeededRandomPolicy(m, seed=seed))

    def test_random_policy_also_succeeds(self, aircraft_system):
        signs = set()
        for seed in range(20):
            res = run_online_design(
                SimulatedPlant(aircraft_system, aircraft.T), 4, 2, aircraft.T,
                policy=SeededRandomPolicy(2, seed=seed),
            )
            assert res.rank_report.rank == 6
            assert_rank_history_is_prefix_rank(res)
            signs |= check_design_steps(res, lambda: SeededRandomPolicy(2, seed=seed))
        assert signs == {-1.0, 1.0}  # the sign fix is exercised both ways

    def test_zero_mu0_rejected(self, aircraft_system):
        with pytest.raises(ValidationError):
            run_online_design(
                SimulatedPlant(aircraft_system, aircraft.T), 4, 2, aircraft.T,
                policy=lambda k: np.zeros(2),
            )

    def test_zero_initial_state_forces_certificates(self):
        # x0 = 0: chi_0 = 0 and chi_1 = B_T mu_0, so the prefix [0; mu_0]
        # leaves every (xi, 0) in the kernel; only an input off mu_0's
        # direction (the certificate input) makes progress at step 1
        sys_ = LtiSystem(
            a=[[0.0, 1.0], [-1.0, -0.5]], b=[[0.0], [1.0]], x0=[0.0, 0.0]
        )
        res = run_online_design(SimulatedPlant(sys_, 0.1), 2, 1, T=0.1)
        assert res.rank_report.rank == 3
        check_design_steps(res, lambda: CyclingPolicy(1))

    def test_uncontrollable_plant_fails_with_diagnostics(self):
        # block-diagonal with an unreachable, unexcited second state: after
        # two steps the prefix's left kernel is e_2 alone, whose eta-block is
        # zero, so no certificate input exists and the policy's is taken
        sys_ = LtiSystem(
            a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]], x0=[1.0, 0.0]
        )
        with pytest.raises(DesignFailureError) as ei:
            run_online_design(SimulatedPlant(sys_, 0.1), 2, 1, T=0.1)
        err = ei.value
        assert err.dataset is not None
        assert err.rank_report.rank < 3
        assert len(err.branch_log) == 3
        basis = left_kernel_basis(err.dataset.stacked()[:, :2])
        assert basis.shape == (1, 3) and basis[0, 2] == 0.0
        assert err.branch_log[2] == "new-direction"
        assert np.array_equal(err.dataset.mu[:, 2], CyclingPolicy(1)(2))


def assert_discrete_model_exact(res, sys_, T):
    est = identify_discrete(res.dataset)
    assert est.informative
    truth = discretize(sys_, T)
    ref = np.hstack([truth.a_t, truth.b_t])
    err = np.linalg.norm(np.hstack([est.a_t_hat, est.b_t_hat]) - ref) / np.linalg.norm(ref)
    assert err <= 1e-6


class TestLargeStateDimension:
    @pytest.mark.parametrize("n", [10, 15, 20, 30])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("seed", range(2))
    def test_full_rank_with_exact_model_or_loud_refusal(self, n, m, seed):
        T = 0.1
        sys_ = controllable_by_construction(np.random.default_rng([n, m, seed]), n, m, T)
        try:
            res = run_online_design(SimulatedPlant(sys_, T), n, m, T)
        except DesignFailureError as exc:
            assert exc.rank_report.rank < n + m
            return
        assert res.rank_report.rank == n + m
        assert_rank_history_is_prefix_rank(res)
        assert_discrete_model_exact(res, sys_, T)

    def test_ten_states_two_inputs(self):
        # a seed on which the membership-and-guard design ended at rank 11 < 12
        sys_ = controllable_by_construction(np.random.default_rng([10, 2, 0]), 10, 2, 0.1)
        res = run_online_design(SimulatedPlant(sys_, 0.1), 10, 2, 0.1)
        assert res.rank_history == list(range(1, 13))
        assert_discrete_model_exact(res, sys_, 0.1)


class CountingPlant:
    """Aircraft plant that counts apply calls."""

    def __init__(self, sys_):
        self._plant = SimulatedPlant(sys_, aircraft.T)
        self.applied = 0

    def reset(self, x0=None):
        return self._plant.reset(x0)

    def apply(self, mu):
        self.applied += 1
        return self._plant.apply(mu)


class TestRejectedBeforeThePlantMoves:
    @pytest.mark.parametrize("rtol", [0.0, -1e-8])
    def test_nonpositive_rtol(self, aircraft_system, rtol):
        plant = CountingPlant(aircraft_system)
        with pytest.raises(ValidationError, match="rtol"):
            run_online_design(plant, 4, 2, aircraft.T, rtol=rtol)
        assert plant.applied == 0

    @pytest.mark.parametrize("length", [1, 3])
    def test_policy_input_of_the_wrong_length(self, aircraft_system, length):
        # length 1 used to be broadcast into the record while the plant got
        # the length-1 vector; length 3 raised a bare numpy ValueError
        plant = CountingPlant(aircraft_system)
        with pytest.raises(ValidationError, match="expected 2"):
            run_online_design(plant, 4, 2, aircraft.T, policy=lambda k: np.ones(length))
        assert plant.applied == 0

    def test_plant_state_of_the_wrong_length(self, aircraft_system):
        plant = CountingPlant(aircraft_system)  # four states
        with pytest.raises(ValidationError, match="expected 3"):
            run_online_design(plant, 3, 2, aircraft.T)
        assert plant.applied == 0

    def test_non_finite_policy_input(self, aircraft_system):
        plant = CountingPlant(aircraft_system)
        with pytest.raises(ValidationError, match="finite"):
            run_online_design(plant, 4, 2, aircraft.T, policy=lambda k: np.full(2, np.nan))
        assert plant.applied == 0

    def test_non_finite_input_later_never_reaches_the_plant(self, aircraft_system):
        plant = CountingPlant(aircraft_system)
        policy = lambda k: np.ones(2) if k < 2 else np.array([1.0, np.inf])
        with pytest.raises(ValidationError, match="finite"):
            run_online_design(plant, 4, 2, aircraft.T, policy=policy)
        assert plant.applied == 2

    def test_non_finite_plant_state(self, aircraft_system):
        plant = CountingPlant(aircraft_system)
        plant.reset = lambda x0=None: np.full(4, np.inf)
        with pytest.raises(ValidationError, match="finite"):
            run_online_design(plant, 4, 2, aircraft.T)
        assert plant.applied == 0

    def test_plant_of_another_sampling_period(self, aircraft_system):
        # the T = 0.1 map used to be recorded as the model of T = 0.2
        plant = CountingPlant(aircraft_system)
        plant.T = 2 * aircraft.T
        with pytest.raises(ValidationError, match=r"plant sampling period T=0\.2.*T=0\.1"):
            run_online_design(plant, 4, 2, aircraft.T)
        assert plant.applied == 0
        with pytest.raises(ValidationError, match="sampling period"):
            run_online_design(SimulatedPlant(aircraft_system, aircraft.T), 4, 2, 2 * aircraft.T)

    def test_sampling_period_within_rounding_or_absent(self, aircraft_system):
        # the relative 1e-12 rule of filtering; a plant without T is trusted
        close = SimulatedPlant(aircraft_system, aircraft.T * (1 + 1e-13))
        assert run_online_design(close, 4, 2, aircraft.T).rank_report.rank == 6
        plant = CountingPlant(aircraft_system)
        assert not hasattr(plant, "T")
        assert run_online_design(plant, 4, 2, aircraft.T).rank_report.rank == 6


class TestReplayPlant:
    def test_replay_reproduces_design(self, aircraft_system):
        res = run_online_design(SimulatedPlant(aircraft_system, aircraft.T), 4, 2, aircraft.T)
        replay = ReplayPlant(res.dataset)
        res2 = run_online_design(replay, 4, 2, aircraft.T)
        assert np.allclose(res2.dataset.chi, res.dataset.chi)
        assert res2.branches == res.branches

    def test_replay_at_its_own_period(self, aircraft_system):
        T = 0.05
        res = run_online_design(SimulatedPlant(aircraft_system, T), 4, 2, T)
        replay = ReplayPlant(res.dataset)
        assert replay.T == T
        assert np.array_equal(run_online_design(replay, 4, 2, T).dataset.chi_all, res.dataset.chi_all)
        with pytest.raises(ValidationError, match="sampling period"):
            run_online_design(ReplayPlant(res.dataset), 4, 2, aircraft.T)

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

    def test_no_offsets_give_no_reports(self, aircraft_system, aircraft_input):
        assert verify_intersample(aircraft_system, aircraft_input, []) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_reports_equal_per_offset_svd_rank(self, seed):
        # one batched SVD over every offset must give the verdict, spectrum
        # and tolerance of svd_rank on each [chi(t); mu] bit for bit
        rng = np.random.default_rng(700 + seed)
        n, m, N = 2 + seed % 3, 1 + seed % 2, 7
        sys_ = random_controllable_system(rng, n=n, m=m, T=0.1)
        levels = rng.uniform(-1.0, 1.0, size=(m, N))
        if seed % 2:
            levels[:] = 0.0  # mu = 0, so [chi(t); mu] has rank at most n < n + m
        inp = PiecewiseConstantInput(T=0.1, levels=levels)
        offsets = np.append(rng.uniform(0.0, 0.1, size=9), 0.0)
        sd = simulate_sampled(sys_, inp)
        chi_t = discretize(sys_, 0.1).at(offsets) @ sd.stacked()
        reports = verify_intersample(sys_, inp, offsets, rtol=1e-8)
        assert [t for t, _ in reports] == offsets.tolist()
        for (_, rep), chi in zip(reports, chi_t):
            ref = svd_rank(np.vstack([chi, sd.mu]), 1e-8)
            assert rep.rank == ref.rank
            assert rep.singular_values.tobytes() == ref.singular_values.tobytes()
            assert rep.tolerance_used == ref.tolerance_used
            assert rep.rank <= n if seed % 2 else rep.rank == n + m

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
