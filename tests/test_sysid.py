import math
import tracemalloc

import numpy as np
import pytest

import ctsid.aircraft as aircraft
from ctsid import (
    FilteredDataset,
    LtiSystem,
    NumericalError,
    PiecewiseConstantInput,
    SampledDataset,
    SimulatedPlant,
    ValidationError,
    filter_lti_dataset,
    identify,
    identify_discrete,
    make_filter_bank,
    run_online_design,
    simulate_sampled,
)
from ctsid.filters import FAMILIES
from ctsid.linalg import expm, frobenius_distance, pinv, svd_rank
from conftest import random_controllable_system

T = aircraft.T
RHO = {
    "poly_test": aircraft.POLY_TEST_RHO,
    "bump_test": 2.0,
    "laguerre": 1.0,
    "lowpass": aircraft.LOWPASS_RHO,
}


def aircraft_filtered(family, aircraft_system, aircraft_input):
    bank = make_filter_bank(family, RHO[family], T, 6, 6)
    return filter_lti_dataset(aircraft_system, aircraft_input, bank)


class TestInformativityCheck:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_aircraft_is_informative(self, family, aircraft_system, aircraft_input):
        fd = aircraft_filtered(family, aircraft_system, aircraft_input)
        assert svd_rank(fd.stacked()).rank == 6
        assert identify(fd, 4, 2).informative

    def test_zero_input_is_not_informative(self, aircraft_system):
        # u = 0: u_f rows vanish, rank can be at most n
        inp = PiecewiseConstantInput(T=T, levels=np.zeros((2, 6)))
        bank = make_filter_bank("lowpass", 1.0, T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, inp, bank)
        assert svd_rank(fd.stacked()).rank <= 4
        assert not identify(fd, 4, 2).informative

    def test_dimension_check(self, aircraft_system, aircraft_input):
        fd = aircraft_filtered("lowpass", aircraft_system, aircraft_input)
        with pytest.raises(ValidationError):
            identify(fd, 3, 2)
        with pytest.raises(ValidationError):
            identify(fd, 3, 3)


class TestIdentify:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_aircraft_exact_recovery(self, family, aircraft_system, aircraft_input):
        """Full-precision pipeline beats the reference accuracy by orders
        of magnitude for every filter family."""
        fd = aircraft_filtered(family, aircraft_system, aircraft_input)
        res = identify(fd, 4, 2, truth=aircraft_system)
        assert res.informative
        truth = np.hstack([aircraft.A, aircraft.B])
        assert frobenius_distance(truth, res.ab_hat) <= 1e-9
        assert res.frobenius_error == pytest.approx(
            frobenius_distance(truth, res.ab_hat)
        )
        assert res.residual <= 1e-9 * max(1.0, np.linalg.norm(fd.x_df))

    def test_reference_error_bars(self, aircraft_system, aircraft_input):
        """The two headline cases attain at least the reference accuracy."""
        for family, bar in (
            ("poly_test", aircraft.REFERENCE_ERROR_POLY),
            ("lowpass", aircraft.REFERENCE_ERROR_LOWPASS),
        ):
            fd = aircraft_filtered(family, aircraft_system, aircraft_input)
            res = identify(fd, 4, 2, truth=aircraft_system)
            assert res.frobenius_error <= bar, family

    def test_uninformative_data_flagged(self, aircraft_system):
        inp = PiecewiseConstantInput(T=T, levels=np.zeros((2, 6)))
        bank = make_filter_bank("lowpass", 1.0, T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, inp, bank)
        res = identify(fd, 4, 2)
        assert not res.informative

    def test_minimum_norm_on_rank_deficient_data(self):
        # hand-built rank-deficient filtered data: identify must return the
        # minimum-norm least-squares solution, matching the normal-equations
        # oracle restricted to the row space
        rng = np.random.default_rng(5)
        z = np.outer(rng.standard_normal(3), rng.standard_normal(4))  # rank 1
        x_df = rng.standard_normal((2, 4))
        fd = FilteredDataset(
            x_f=z[:2], u_f=z[2:], x_df=x_df, family="lowpass", rho=1.0, T=T, M=4
        )
        res = identify(fd, 2, 1)
        assert not res.informative
        # oracle: lstsq of z^T w^T = x_df^T gives the same minimum-norm fit
        w, *_ = np.linalg.lstsq(z.T, x_df.T, rcond=None)
        assert np.allclose(res.ab_hat, w.T, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_systems_exact_recovery(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        sys_ = random_controllable_system(rng, n, m, T=T)
        inp = PiecewiseConstantInput(
            T=T, levels=rng.uniform(-1, 1, size=(m, n + m))
        )
        bank = make_filter_bank("laguerre", 1.0, T, n + m, n + m)
        fd = filter_lti_dataset(sys_, inp, bank)
        res = identify(fd, n, m, truth=sys_)
        if res.informative:  # random inputs almost surely informative
            assert res.frobenius_error <= 1e-7 * (1 + np.linalg.norm(sys_.a))

    def test_noise_sensitivity_scales_with_conditioning(self, aircraft_system, aircraft_input):
        # perturbing the filtered data by eps moves the estimate by
        # at most ~ eps * ||pinv|| * scale: sanity-check the error model
        fd = aircraft_filtered("poly_test", aircraft_system, aircraft_input)
        rng = np.random.default_rng(6)
        eps = 1e-6
        noisy = FilteredDataset(
            x_f=fd.x_f + eps * rng.standard_normal(fd.x_f.shape),
            u_f=fd.u_f + eps * rng.standard_normal(fd.u_f.shape),
            x_df=fd.x_df + eps * rng.standard_normal(fd.x_df.shape),
            family=fd.family,
            rho=fd.rho,
            T=fd.T,
            M=fd.M,
        )
        res = identify(noisy, 4, 2, truth=aircraft_system)
        s = np.linalg.svd(fd.stacked(), compute_uv=False)
        bound = 10 * eps * (1 + np.linalg.norm(res.ab_hat)) * (1 + s[0]) / s[-1]
        assert res.frobenius_error <= bound


def test_subnormal_data_raise(aircraft_system, aircraft_input):
    """Data scaled by 1e-308 have subnormal singular values, whose reciprocals
    overflow: both identifications raise instead of returning inf or nan."""
    sys_ = LtiSystem(a=aircraft_system.a, b=aircraft_system.b, x0=aircraft_system.x0 * 1e-308)
    inp = PiecewiseConstantInput(T=T, levels=aircraft_input.levels * 1e-308)
    fd = aircraft_filtered("poly_test", sys_, inp)
    with pytest.raises(NumericalError, match="not finite"):
        identify(fd, 4, 2)
    with pytest.raises(NumericalError, match="not finite"):
        identify_discrete(simulate_sampled(sys_, inp))


class TestScaledData:
    """identify on the aircraft reference input with x0 and the levels scaled
    by 2^k, which filtering carries exactly. linalg._rank_svd divides far-off
    data by a power of two before the SVD; without that, LAPACK rescaled
    them and at k = -500 and k = 540 the residual over 2^k read 3.8 times
    its k = 0 value."""

    @staticmethod
    def identified(family, k):
        sys_ = LtiSystem(a=aircraft.A, b=aircraft.B, x0=np.ldexp(aircraft.X0, k))
        inp = PiecewiseConstantInput(T=T, levels=np.ldexp(aircraft.reference_input().levels, k))
        return identify(aircraft_filtered(family, sys_, inp), 4, 2)

    @pytest.mark.parametrize("k", (-600, -500, -101, 101, 540, 600))
    @pytest.mark.parametrize("family", ("poly_test", "lowpass"))
    def test_estimate_and_residual_scale_with_the_data(self, family, k):
        ref, res = self.identified(family, 0), self.identified(family, k)
        assert res.a_hat.tobytes() == ref.a_hat.tobytes()
        assert res.b_hat.tobytes() == ref.b_hat.tobytes()
        residual = math.ldexp(res.residual, -k)
        assert 0.0 < residual < math.inf
        assert ref.residual / 2 <= residual <= 2 * ref.residual


class TestIdentifyDiscrete:
    def test_aircraft_recovers_zoh_matrices(self, aircraft_system, aircraft_input):
        from ctsid import discretize

        sd = simulate_sampled(aircraft_system, aircraft_input)
        res = identify_discrete(sd)
        d = discretize(aircraft_system, T)
        assert res.informative
        assert np.allclose(res.a_t_hat, d.a_t, atol=1e-10)
        assert np.allclose(res.b_t_hat, d.b_t, atol=1e-10)

    def test_requires_final_state(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        stripped = SampledDataset(chi=sd.chi, mu=sd.mu, T=sd.T)
        with pytest.raises(ValidationError):
            identify_discrete(stripped)

    def test_expm_consistency_ties_both_routes(self, aircraft_system, aircraft_input):
        """expm(A_hat T) from the continuous route matches A_T_hat from the
        discrete route."""
        fd = aircraft_filtered("poly_test", aircraft_system, aircraft_input)
        res_ct = identify(fd, 4, 2)
        sd = simulate_sampled(aircraft_system, aircraft_input)
        res_dt = identify_discrete(sd)
        assert frobenius_distance(expm(res_ct.a_hat * T), res_dt.a_t_hat) <= 1e-8


def test_long_data_build_no_square_factor():
    # identify once took a full SVD: a 4096 x 4096 vh, 134 MB, and 0.6 s
    rng = np.random.default_rng(11)
    fd = FilteredDataset(x_f=rng.standard_normal((4, 4096)), u_f=rng.standard_normal((2, 4096)),
                         x_df=rng.standard_normal((4, 4096)), family="lowpass", rho=1.0, T=T,
                         M=4096)
    tracemalloc.start()
    try:
        res = identify(fd, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.informative
    assert peak < 8e6


def same_report(rep, ref) -> bool:
    return (
        rep.rank == ref.rank
        and rep.singular_values.tobytes() == ref.singular_values.tobytes()
        and rep.tolerance_used == ref.tolerance_used
    )


class TestOneSvdPerVerdict:
    """identify and identify_discrete take the rank and the pseudo-inverse
    from one SVD; the results equal the two public calls bit for bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_identify_equals_svd_rank_and_pinv(self, family, aircraft_system, aircraft_input):
        fd = aircraft_filtered(family, aircraft_system, aircraft_input)
        s = fd.stacked()
        res = identify(fd, 4, 2)
        assert same_report(res.stacked_rank, svd_rank(s))
        assert res.ab_hat.tobytes() == (fd.x_df @ pinv(s)).tobytes()

    def test_identify_discrete_equals_svd_rank_and_pinv(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        res = identify_discrete(sd)
        assert same_report(res.regressor_rank, svd_rank(sd.stacked()))
        ab_t = sd.chi_all[:, 1:] @ pinv(sd.stacked())
        assert np.hstack([res.a_t_hat, res.b_t_hat]).tobytes() == ab_t.tobytes()

    def test_identify_discrete_on_zero_data(self):
        sd = SampledDataset(chi=np.zeros((3, 5)), mu=np.zeros((2, 5)), T=0.1, chi_final=np.zeros(3))
        res = identify_discrete(sd)
        assert res.regressor_rank.rank == 0
        assert res.regressor_rank.tolerance_used == 0.0
        assert np.array_equal(res.regressor_rank.singular_values, np.zeros(5))
        assert not res.informative
        assert not np.any(res.a_t_hat) and not np.any(res.b_t_hat)


class TestTimeRescaling:
    """The aircraft plant (cA, cB) sampled at T / c, c a power of two: cA
    times T / c is A T exactly, so the discrete plant and everything the
    online design and identify_discrete compute are bit-identical to c = 1.
    The filters at c rho see the same data on a time axis shrunk by c, so
    identify's (A_hat, B_hat) / c matches c = 1 up to rounding."""

    @staticmethod
    def rescaled(c):
        sys_ = LtiSystem(a=c * aircraft.A, b=c * aircraft.B, x0=aircraft.X0)
        inp = PiecewiseConstantInput(T=T / c, levels=aircraft.reference_input().levels)
        return sys_, inp

    @pytest.mark.parametrize("c", (0.5, 2.0, 8.0))
    def test_design_and_discrete_fit_are_bit_identical(self, c):
        results = []
        for scale in (1.0, c):
            sys_, inp = self.rescaled(scale)
            design = run_online_design(SimulatedPlant(sys_, inp.T), 4, 2, inp.T)
            fit = identify_discrete(design.dataset)
            results.append([design.dataset.chi, design.dataset.mu, design.dataset.chi_final,
                             design.rank_report.singular_values, fit.a_t_hat, fit.b_t_hat])
        for ref, got in zip(*results):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c", (0.5, 2.0, 8.0))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_filtered_estimate_scales_with_c(self, family, c):
        estimates = []
        for scale in (1.0, c):
            sys_, inp = self.rescaled(scale)
            bank = make_filter_bank(family, scale * RHO[family], inp.T, 6, 6)
            estimates.append(identify(filter_lti_dataset(sys_, inp, bank), 4, 2).ab_hat / scale)
        ref, got = estimates
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
