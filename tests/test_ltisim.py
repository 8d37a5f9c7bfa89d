import threading
import time
import weakref

import numpy as np
import pytest

import ctsid.aircraft as aircraft
import ctsid.ltisim as ltisim
from ctsid import (
    LtiSystem,
    PiecewiseConstantInput,
    SampledDataset,
    ValidationError,
    check_nonpathological,
    discretize,
    simulate_sampled,
    state_at,
)
from ctsid.ltisim import _legendre, gauss_legendre_panels, transition
from ctsid.oracles import rk4_oracle
from conftest import controllability_matrix, random_controllable_system, state_fn


def scalar_system(a=1.0, b=1.0, x0=0.0):
    return LtiSystem(a=[[a]], b=[[b]], x0=[x0])


def one_step(a, b, chi, mu, T=1.0):
    """chi_1 of the plant (a, b) started at chi under the constant input mu."""
    sys_ = LtiSystem(a=a, b=b, x0=chi)
    inp = PiecewiseConstantInput(T=T, levels=np.reshape(np.asarray(mu, float), (-1, 1)))
    return simulate_sampled(sys_, inp).chi_final


class TestLtiSystemArrays:
    def test_caller_mutation_leaves_system_unchanged(self):
        a, b, x0 = np.eye(2), np.ones((2, 1)), np.zeros(2)
        sys_ = LtiSystem(a=a, b=b, x0=x0)
        a[0, 0] += 1.0
        b[0, 0] = 5.0
        x0[1] = 3.0
        assert np.array_equal(sys_.a, np.eye(2))
        assert np.array_equal(sys_.b, np.ones((2, 1)))
        assert np.array_equal(sys_.x0, np.zeros(2))

    @pytest.mark.parametrize("name", ("a", "b", "x0"))
    def test_arrays_are_read_only(self, name):
        sys_ = LtiSystem(a=np.eye(2), b=np.ones((2, 1)), x0=np.zeros(2))
        with pytest.raises(ValueError):
            getattr(sys_, name)[0, ...] = 1.0

    def test_aircraft_module_arrays_stay_writable(self):
        aircraft.system()
        assert aircraft.A.flags.writeable and aircraft.B.flags.writeable
        assert aircraft.X0.flags.writeable


class TestDiscretize:
    def test_integrator(self):
        sys_ = LtiSystem(a=np.zeros((2, 2)), b=np.eye(2), x0=np.zeros(2))
        d = discretize(sys_, 1.0)
        assert np.allclose(d.a_t, np.eye(2))
        assert np.allclose(d.b_t, np.eye(2))

    def test_scalar_analytic(self):
        d = discretize(scalar_system(), np.log(2.0))
        assert d.a_t[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert d.b_t[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_aircraft_first_step(self, aircraft_system):
        d = discretize(aircraft_system, aircraft.T)
        chi1 = d.a_t @ aircraft.X0 + d.b_t @ np.array([1.0, 1.0])
        assert np.allclose(chi1, [1.9877, -0.9492, -2.5648, 0.4124], atol=5e-4)

    def test_a_t_always_nonsingular(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 6)
            a = rng.uniform(-3, 3, size=(n, n))
            sys_ = LtiSystem(a=a, b=rng.standard_normal((n, 1)), x0=np.zeros(n))
            d = discretize(sys_, rng.uniform(0.05, 1.0))
            assert np.linalg.det(d.a_t) > 0  # det(e^{AT}) = e^{tr(A) T}

    def test_rejects_nonpositive_T(self):
        # check_nonpathological once read (True, []) at T = nan
        refusers = (lambda T: discretize(scalar_system(), T),
                    lambda T: PiecewiseConstantInput(T=T, levels=np.ones((1, 2))),
                    lambda T: check_nonpathological(scalar_system(), T))
        for refuse in refusers:
            for bad in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValidationError, match="T must be finite and positive"):
                    refuse(bad)

    def test_one_propagator_per_system_and_period(self):
        sys_ = scalar_system()
        d = discretize(sys_, 0.5)
        assert discretize(sys_, 0.5) is d
        assert discretize(sys_, 1.0) is not d
        assert discretize(scalar_system(), 0.5) is d
        assert discretize(scalar_system(x0=3.0), 0.5) is d
        assert discretize(scalar_system(b=np.nextafter(1.0, 2.0)), 0.5) is not d

    def test_least_recently_used_plant_is_evicted(self):
        kept = ltisim._PROPAGATORS_KEPT
        plants = [scalar_system(a=-float(i)) for i in range(kept + 2)]
        first = [discretize(p, 0.5) for p in plants[:kept]]
        assert all(discretize(p, 0.5) is d for p, d in zip(plants, first))
        discretize(plants[kept], 0.5)  # one past the bound evicts plants[0]
        assert discretize(plants[1], 0.5) is first[1]  # now the latest used
        fresh = discretize(plants[0], 0.5)  # evicts plants[2]
        assert fresh is not first[0]
        assert np.array_equal(fresh.a_t, first[0].a_t)
        assert discretize(plants[1], 0.5) is first[1]
        assert discretize(plants[2], 0.5) is not first[2]
        assert len(ltisim._propagators) == kept

    def test_threads_update_the_memo_one_at_a_time(self, monkeypatch):
        # unlocked, threads evicting from the full memo at once raised
        # KeyError or "dictionary changed size during iteration"; here four
        # threads each build a plant, and no two builds may overlap
        plants = [scalar_system(a=-0.1 * i) for i in range(ltisim._PROPAGATORS_KEPT + 4)]
        for p in plants[:-4]:
            discretize(p, 0.5)
        count = threading.Lock()
        inside, peak = [0], [0]
        transition = ltisim.transition

        def slow(sys_, tau):
            with count:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            time.sleep(0.01)
            with count:
                inside[0] -= 1
            return transition(sys_, tau)

        monkeypatch.setattr(ltisim, "transition", slow)
        threads = [threading.Thread(target=discretize, args=(p, 0.5)) for p in plants[-4:]]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert peak[0] == 1
        # the four oldest plants were evicted, one by each thread
        assert {key[2] for key in ltisim._propagators} == {p.a.tobytes() for p in plants[4:]}

    def test_shared_arrays_are_read_only(self, aircraft_system):
        d = discretize(aircraft_system, aircraft.T)
        _, _, tops = d.nodes(8)
        for arr in (d.a_t, d.b_t, d.aug, tops):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_system_is_freed_without_gc(self, aircraft_system):
        sys_ = LtiSystem(a=aircraft_system.a, b=aircraft_system.b, x0=aircraft_system.x0)
        ref = weakref.ref(sys_)
        discretize(sys_, aircraft.T).nodes(8)
        del sys_
        assert ref() is None

    def test_at_is_the_transition_per_offset(self, aircraft_system):
        d = discretize(aircraft_system, aircraft.T)
        offsets = [0.03, 0.0, 0.07, 0.03]
        tops = d.at(offsets)
        assert tops.shape == (4, 4, 6)
        assert np.array_equal(tops[1], np.eye(4, 6))
        assert np.array_equal(tops[0], tops[3])
        for tau, top in zip(offsets, tops):
            if tau:
                assert np.array_equal(top, np.hstack(transition(aircraft_system, tau)))


class TestStep:
    def test_identity_dynamics(self):
        assert one_step([[0.0]], [[0.0]], [3.0], [5.0]) == pytest.approx([3.0])

    def test_pure_input(self):
        chi1 = one_step(np.zeros((2, 2)), np.eye(2), np.zeros(2), [1.0, 0.0])
        assert np.allclose(chi1, [1.0, 0.0])

    def test_aircraft_second_step(self):
        chi2 = one_step(aircraft.A, aircraft.B, aircraft.CHI_PRINTED[:, 1], [-1.0, -1.0], aircraft.T)
        assert np.allclose(chi2, [1.9308, -0.4078, 6.9073, 0.6720], atol=5e-4)

    def test_dimension_mismatch(self, aircraft_system):
        inp = PiecewiseConstantInput(T=aircraft.T, levels=np.zeros((3, 1)))
        with pytest.raises(ValidationError):
            simulate_sampled(aircraft_system, inp)


class TestSimulateSampled:
    def test_zero_everything(self):
        sys_ = LtiSystem(a=np.zeros((2, 2)), b=np.eye(2), x0=np.zeros(2))
        inp = PiecewiseConstantInput(T=0.5, levels=np.zeros((2, 4)))
        sd = simulate_sampled(sys_, inp)
        assert np.allclose(sd.chi_all, 0.0)

    def test_aircraft_reference_table(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        assert sd.chi_all.shape == (4, 7)
        assert np.max(np.abs(sd.chi_all - aircraft.CHI_PRINTED)) <= 5e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_rk4_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(rng, n=3, m=2, T=0.2)
        inp = PiecewiseConstantInput(T=0.2, levels=rng.uniform(-1, 1, size=(2, 5)))
        sd = simulate_sampled(sys_, inp)
        traj = rk4_oracle(sys_, inp, h=0.2 / 4096)
        for k in range(6):
            i = np.argmin(np.abs(traj.times - k * 0.2))
            assert np.allclose(sd.chi_all[:, k], traj.states[:, i], atol=1e-8)


class TestSampledMemo:
    """simulate_sampled runs the recurrence once per (system, input) and
    hands out read-only arrays, so a caller cannot corrupt the memo."""

    def test_source_mutation_leaves_levels_unchanged(self):
        levels = np.array([[1.0, -2.0, 3.0]])
        inp = PiecewiseConstantInput(T=0.1, levels=levels)
        levels[0, 0] = 9.0
        assert np.array_equal(inp.levels, [[1.0, -2.0, 3.0]])

    def test_levels_are_read_only(self):
        inp = PiecewiseConstantInput(T=0.1, levels=np.ones((2, 3)))
        with pytest.raises(ValueError):
            inp.levels[0, 0] = 2.0

    def test_memoized_dataset_is_shared_and_read_only(self, aircraft_system):
        inp = aircraft.reference_input()
        sd = simulate_sampled(aircraft_system, inp)
        assert simulate_sampled(aircraft_system, inp) is sd
        for arr in (sd.chi, sd.mu, sd.chi_final):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        assert np.max(np.abs(sd.chi_all - aircraft.CHI_PRINTED)) <= 5e-4

    @pytest.mark.parametrize("order", ((0, 1), (1, 0)))
    def test_each_system_gets_its_own_trajectory(self, order):
        # equal (A, B), different x0: only the system object tells them apart
        systems = [
            LtiSystem(a=aircraft.A, b=aircraft.B, x0=x0) for x0 in (aircraft.X0, -2 * aircraft.X0)
        ]
        expected = [simulate_sampled(s, aircraft.reference_input()) for s in systems]
        inp = aircraft.reference_input()
        for i in order + order:
            sd = simulate_sampled(systems[i], inp)
            assert np.array_equal(sd.chi_all, expected[i].chi_all)
            assert np.array_equal(sd.chi[:, 0], systems[i].x0)


class TestSampledDatasetBuffer:
    """A SampledDataset owns one read-only [chi; mu] buffer, which stacked()
    returns and chi and mu view, and builds chi_all once."""

    @staticmethod
    def arrays():
        return np.arange(6.0).reshape(2, 3), np.ones((1, 3)), np.array([7.0, 8.0])

    def test_caller_arrays_are_copied(self):
        chi, mu, chi_final = self.arrays()
        sd = SampledDataset(chi=chi, mu=mu, T=0.1, chi_final=chi_final)
        for arr in (chi, mu, chi_final):
            arr[(0,) * arr.ndim] = 99.0
        assert np.array_equal(sd.stacked(), np.vstack(self.arrays()[:2]))
        assert np.array_equal(sd.chi_all, [[0.0, 1.0, 2.0, 7.0], [3.0, 4.0, 5.0, 8.0]])

    @pytest.mark.parametrize("with_final", (True, False))
    def test_stacked_is_one_read_only_buffer_viewed_by_chi_and_mu(self, with_final):
        chi, mu, chi_final = self.arrays()
        sd = SampledDataset(chi=chi, mu=mu, T=0.1, chi_final=chi_final if with_final else None)
        s = sd.stacked()
        assert sd.stacked() is s
        assert not s.flags.writeable
        assert sd.chi.base is s and sd.mu.base is s
        for arr in (s, sd.chi, sd.mu, sd.chi_all):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_chi_final_of_another_length_is_refused(self):
        # it used to be kept unchecked until chi_all stacked it
        chi, mu, _ = self.arrays()
        with pytest.raises(ValidationError, match="chi_final has 3 entries, expected 2"):
            SampledDataset(chi=chi, mu=mu, T=0.1, chi_final=np.zeros(3))

    def test_chi_final_is_the_last_column_of_chi_all(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        assert sd.chi_final.base is sd.chi_all
        assert np.array_equal(sd.chi_all[:, -1], sd.chi_final)
        assert np.array_equal(sd.chi_all[:, :-1], sd.chi)


class TestGaussLegendre:
    @pytest.mark.parametrize("nodes", (1, 5, 16))
    def test_equals_a_fresh_leggauss_build(self, nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        ts, ws = gauss_legendre_panels(-1.0, 1.0, 1, nodes)
        assert ts.tobytes() == x.tobytes() and ws.tobytes() == w.tobytes()
        ts, ws = gauss_legendre_panels(0.0, 0.5, 2, nodes)
        assert ts.tobytes() == np.concatenate([0.125 * x + 0.125, 0.125 * x + 0.375]).tobytes()
        assert ws.tobytes() == np.concatenate([0.125 * w, 0.125 * w]).tobytes()

    def test_memoized_rule_is_read_only(self):
        x, w = _legendre(16)
        assert _legendre(16)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestStateAt:
    def test_sampling_instants_exact(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        for k in range(aircraft_input.N):
            assert np.allclose(
                state_at(aircraft_system, aircraft_input, k * aircraft.T), sd.chi[:, k]
            )

    def test_pure_integrator(self):
        sys_ = LtiSystem(a=np.zeros((2, 2)), b=np.eye(2), x0=np.zeros(2))
        inp = PiecewiseConstantInput(T=1.0, levels=np.array([[1.0], [0.0]]))
        assert np.allclose(state_at(sys_, inp, 0.3), [0.3, 0.0])

    def test_matches_rk4_between_samples(self):
        rng = np.random.default_rng(7)
        sys_ = random_controllable_system(rng, n=3, m=1, T=0.25)
        inp = PiecewiseConstantInput(T=0.25, levels=rng.uniform(-1, 1, size=(1, 4)))
        t = 0.37 * 0.25
        traj = rk4_oracle(sys_, inp, h=0.25 / 5000)
        i = np.argmin(np.abs(traj.times - t))
        assert np.allclose(state_at(sys_, inp, traj.times[i]), traj.states[:, i], atol=1e-8)

    def test_out_of_range(self, aircraft_system, aircraft_input):
        with pytest.raises(ValidationError):
            state_at(aircraft_system, aircraft_input, aircraft_input.horizon)
        with pytest.raises(ValidationError):
            state_at(aircraft_system, aircraft_input, [0.1, -0.01])

    def test_vectorized_matches_pointwise(self, aircraft_system, aircraft_input):
        ts = np.array([0.0, 0.05, 0.1, 0.13, 0.25, 0.599])
        states = state_at(aircraft_system, aircraft_input, ts)
        assert states.shape == (4, ts.size)
        for t, x in zip(ts, states.T):
            assert np.array_equal(x, state_at(aircraft_system, aircraft_input, t))

    def test_semigroup_within_interval(self):
        # evolving by t1 then t2 equals evolving by t1 + t2 (same input level)
        rng = np.random.default_rng(11)
        sys_ = random_controllable_system(rng, n=3, m=1, T=1.0)
        inp = PiecewiseConstantInput(T=1.0, levels=np.array([[0.7]]))
        t1, t2 = 0.3, 0.45
        mid = state_at(sys_, inp, t1)
        sys2 = LtiSystem(a=sys_.a, b=sys_.b, x0=mid)
        assert np.allclose(
            state_at(sys2, inp, t2), state_at(sys_, inp, t1 + t2), atol=1e-12
        )


class TestDenseTrajectory:
    def test_single_point(self, aircraft_system, aircraft_input):
        states = state_at(aircraft_system, aircraft_input, [0.0])
        assert np.allclose(states[:, 0], aircraft.X0)

    def test_sampling_grid_consistency(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        grid = np.arange(aircraft_input.N) * aircraft.T
        assert np.allclose(state_at(aircraft_system, aircraft_input, grid), sd.chi)

    def test_against_rk4_on_fine_grid(self, aircraft_system, aircraft_input):
        traj_rk4 = rk4_oracle(aircraft_system, aircraft_input, h=aircraft.T / 4096)
        idx = np.arange(0, traj_rk4.times.size - 1, 25)
        grid = traj_rk4.times[idx]
        grid[0] = 0.0
        states = state_at(aircraft_system, aircraft_input, grid)
        assert np.max(np.abs(states - traj_rk4.states[:, idx])) <= 1e-8

    def test_state_fn_agrees(self, aircraft_system, aircraft_input):
        f = state_fn(aircraft_system, aircraft_input)
        for t in (0.0, 0.05, 0.31, 0.599, aircraft_input.horizon):
            if t < aircraft_input.horizon:
                assert np.allclose(f(t), state_at(aircraft_system, aircraft_input, t))
        sd = simulate_sampled(aircraft_system, aircraft_input)
        assert np.allclose(f(aircraft_input.horizon), sd.chi_final)


class TestCheckNonpathological:
    def test_real_distinct_eigenvalues(self):
        sys_ = LtiSystem(a=np.diag([-1.0, -2.0]), b=np.ones((2, 1)), x0=np.zeros(2))
        ok, offending = check_nonpathological(sys_, T=0.7)
        assert ok and offending == []

    def test_rotation_at_resonant_period(self):
        w = np.pi
        sys_ = LtiSystem(a=[[0.0, w], [-w, 0.0]], b=[[0.0], [1.0]], x0=[0.0, 0.0])
        ok, offending = check_nonpathological(sys_, T=1.0)
        assert not ok
        assert any(q == 1 for _, _, q in offending)

    def test_aircraft_holds(self, aircraft_system):
        ok, _ = check_nonpathological(aircraft_system, aircraft.T)
        assert ok


class TestRk4Oracle:
    def test_constant_trajectory(self):
        sys_ = LtiSystem(a=[[0.0]], b=[[0.0]], x0=[2.5])
        inp = PiecewiseConstantInput(T=1.0, levels=np.array([[1.0, 2.0]]))
        traj = rk4_oracle(sys_, inp, h=0.125)
        assert np.allclose(traj.states, 2.5)

    def test_scalar_decay(self):
        sys_ = LtiSystem(a=[[-1.0]], b=[[0.0]], x0=[1.0])
        inp = PiecewiseConstantInput(T=1.0, levels=np.array([[0.0]]))
        traj = rk4_oracle(sys_, inp, h=1e-3)
        assert traj.states[0, -1] == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_h_must_divide_T(self):
        sys_ = scalar_system()
        inp = PiecewiseConstantInput(T=1.0, levels=np.array([[1.0]]))
        with pytest.raises(ValidationError):
            rk4_oracle(sys_, inp, h=0.3)


@pytest.mark.parametrize("seed", range(20))
def test_controllability_preserved_under_discretization(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 3))
    sys_ = random_controllable_system(rng, n, m, T=0.1)
    d = discretize(sys_, 0.1)
    ctrb = controllability_matrix(d.a_t, d.b_t)
    assert np.linalg.matrix_rank(ctrb) == n
