import math

import numpy as np
import pytest

import ctsid.aircraft as aircraft
import ctsid.filtering
import ctsid.linalg
import ctsid.ltisim
from ctsid import (
    FilteredDataset,
    LtiSystem,
    NumericConfig,
    NumericalError,
    PiecewiseConstantInput,
    ValidationError,
    build_relation_matrices,
    decompose,
    discretize,
    factorization_residual,
    filter_lti_dataset,
    identify,
    make_filter_bank,
    simulate_sampled,
    verify_algebraic,
)
from ctsid.filtering import _interval_moments
from ctsid.filters import FAMILIES
from ctsid.ltisim import DiscreteSystem, transition
from ctsid.oracles import (
    filter_signal,
    filtered_derivative_data,
    filtered_input_data,
    lowpass_derivative_identity,
    lowpass_realization,
    quad_piece,
)
from conftest import random_controllable_system, state_fn

T = aircraft.T
RHO = {
    "poly_test": aircraft.POLY_TEST_RHO,
    "bump_test": 2.0,
    "laguerre": 1.0,
    "lowpass": aircraft.LOWPASS_RHO,
}


def bank_of(family, M=6, N=6):
    return make_filter_bank(family, RHO[family], T, M, N)


class TestQuadPiece:
    def test_polynomial_exact(self):
        # degree-7 polynomial is exact for any Gauss rule with >= 4 nodes
        val, err = quad_piece(lambda t: t**7, 0.0, 1.0, panels=1, nodes=8)
        assert val == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert err <= 1e-14

    def test_exponential(self):
        val, err = quad_piece(np.exp, 0.0, 1.0)
        assert val == pytest.approx(np.e - 1.0, rel=1e-13)
        assert err <= 1e-12

    def test_vector_valued(self):
        val, _ = quad_piece(lambda t: np.array([1.0, 2 * t]), 0.0, 3.0)
        assert np.allclose(val, [3.0, 9.0])

    def test_error_estimate_tracks_truth(self):
        # a sharply peaked integrand under-resolved by one panel
        f = lambda t: np.exp(-200 * (t - 0.5) ** 2)
        truth = np.sqrt(np.pi / 200)  # tails are ~1e-22, negligible
        val, err = quad_piece(f, 0.0, 1.0, panels=1, nodes=4)
        assert err >= abs(val - truth) * 1e-2

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            quad_piece(np.exp, 1.0, 1.0)


class TestFilterSignal:
    def test_constant_signal_poly(self):
        # int_0^T rho tau^2 (T-tau)^2 dtau = rho T^5 / 30
        bank = bank_of("poly_test")
        out = filter_signal(bank, lambda t: 1.0)
        expected = RHO["poly_test"] * T**5 / 30.0
        assert np.allclose(out, expected, rtol=1e-12)

    def test_constant_signal_lowpass(self):
        # int_0^{lT} e^{rho(t - lT)} dt = (1 - e^{-rho l T}) / rho
        bank = bank_of("lowpass")
        out = filter_signal(bank, lambda t: np.array([1.0]))
        rho = RHO["lowpass"]
        expected = (1.0 - np.exp(-rho * np.arange(1, 7) * T)) / rho
        assert np.allclose(out[0], expected, rtol=1e-12)

    def test_sine_against_antiderivative(self):
        # poly filter of sin(w t): compare against scipy adaptive quadrature
        from scipy.integrate import quad as scipy_quad
        from ctsid import eval_g

        bank = bank_of("poly_test", M=3, N=3)
        w = 13.0
        out = filter_signal(bank, lambda t: np.sin(w * t))
        for ell in (1, 2, 3):
            ref, _ = scipy_quad(
                lambda t: eval_g(bank, ell, t) * np.sin(w * t),
                (ell - 1) * T,
                ell * T - 1e-15,
                limit=200,
            )
            assert out[0, ell - 1] == pytest.approx(ref, abs=1e-10)

    def test_matches_lti_pipeline(self, aircraft_system, aircraft_input):
        for family in FAMILIES:
            bank = bank_of(family)
            fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
            f = state_fn(aircraft_system, aircraft_input)
            x_f = filter_signal(bank, f)
            assert np.allclose(x_f, fd.x_f, atol=1e-9), family


class TestFilteredInputData:
    def test_aircraft_poly_matches_reference(self, aircraft_input):
        bank = bank_of("poly_test")
        u_f = filtered_input_data(bank, aircraft_input)
        assert np.max(np.abs(u_f - aircraft.UF_POLY_PRINTED)) <= 5e-4

    def test_aircraft_lowpass_matches_reference(self, aircraft_input):
        bank = bank_of("lowpass")
        u_f = filtered_input_data(bank, aircraft_input)
        assert np.max(np.abs(u_f - aircraft.UF_LOWPASS_PRINTED)) <= 5e-4

    def test_matches_generic_path(self, aircraft_input):
        bank = bank_of("laguerre")
        u_f = filtered_input_data(bank, aircraft_input)
        ref = filter_signal(
            bank,
            aircraft_input.value_at,
            extra_splits=np.arange(1, 6) * T,
        )
        assert np.allclose(u_f, ref, atol=1e-12)

    def test_rejects_short_input(self):
        bank = bank_of("lowpass")
        inp = PiecewiseConstantInput(T=T, levels=np.ones((2, 3)))
        with pytest.raises(ValidationError):
            filtered_input_data(bank, inp)


class TestFilteredDerivativeData:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_against_direct_derivative_quadrature(self, family, aircraft_system, aircraft_input):
        """Integration by parts must equal directly integrating g_l * dx/dt."""
        bank = bank_of(family, M=3, N=6)
        f = state_fn(aircraft_system, aircraft_input)
        x_df = filtered_derivative_data(bank, f)

        a, b = aircraft_system.a, aircraft_system.b

        def xdot(t):
            return a @ f(t) + b @ aircraft_input.value_at(min(t, aircraft_input.horizon - 1e-12))

        direct = filter_signal(bank, xdot, extra_splits=np.arange(1, 6) * T)
        assert np.allclose(x_df, direct, atol=1e-8)

    def test_aircraft_poly_matches_reference(self, aircraft_system, aircraft_input):
        bank = bank_of("poly_test")
        x_df = filtered_derivative_data(bank, state_fn(aircraft_system, aircraft_input))
        assert np.max(np.abs(x_df - aircraft.XDF_POLY_PRINTED)) <= 5e-4

    def test_constant_state_gives_zero(self):
        bank = bank_of("laguerre")
        x_df = filtered_derivative_data(bank, lambda t: np.array([3.0, -1.0]))
        assert np.max(np.abs(x_df)) <= 1e-12


class TestFilterLtiDataset:
    @pytest.mark.parametrize(
        "family, xf_ref, uf_ref, xdf_ref",
        [
            (
                "poly_test",
                aircraft.XF_POLY_PRINTED,
                aircraft.UF_POLY_PRINTED,
                aircraft.XDF_POLY_PRINTED,
            ),
            (
                "lowpass",
                aircraft.XF_LOWPASS_PRINTED,
                aircraft.UF_LOWPASS_PRINTED,
                aircraft.XDF_LOWPASS_PRINTED,
            ),
        ],
    )
    def test_aircraft_reference_tables(
        self, family, xf_ref, uf_ref, xdf_ref, aircraft_system, aircraft_input
    ):
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank_of(family))
        assert np.max(np.abs(fd.x_f - xf_ref)) <= 5e-4
        assert np.max(np.abs(fd.u_f - uf_ref)) <= 5e-4
        assert np.max(np.abs(fd.x_df - xdf_ref)) <= 5e-4

    @pytest.mark.parametrize("family", FAMILIES)
    def test_algebraic_identity(self, family, aircraft_system, aircraft_input):
        """x_df = A x_f + B u_f holds to quadrature accuracy for exact data."""
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank_of(family))
        scale = max(1.0, np.linalg.norm(fd.x_df))
        assert verify_algebraic(fd, aircraft_system) <= 1e-9 * scale

    @pytest.mark.parametrize("family", FAMILIES)
    def test_quadrature_report_present_and_small(self, family, aircraft_system, aircraft_input):
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank_of(family))
        assert set(fd.quadrature_report) == {"x_f", "u_f", "x_df"}
        for mat in fd.quadrature_report.values():
            assert np.max(mat) <= 1e-8 * (1 + np.max(np.abs(fd.x_df)))
        if family != "bump_test":  # closed-form moments: exact zeros
            assert not any(mat.any() for mat in fd.quadrature_report.values())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_slow_generic_path(self, family, aircraft_system, aircraft_input):
        bank = bank_of(family)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        f = state_fn(aircraft_system, aircraft_input)
        assert np.allclose(fd.x_f, filter_signal(bank, f), atol=1e-9)
        assert np.allclose(fd.u_f, filtered_input_data(bank, aircraft_input), atol=1e-12)
        assert np.allclose(fd.x_df, filtered_derivative_data(bank, f), atol=1e-9)

    def test_coarse_config_still_close(self, aircraft_system, aircraft_input):
        cfg = NumericConfig(quad_panels=2, quad_nodes=8)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank_of("bump_test"), config=cfg)
        ref = filter_lti_dataset(aircraft_system, aircraft_input, bank_of("bump_test"))
        assert np.max(np.abs(fd.x_f - ref.x_f)) <= 1e-6 * (1 + np.max(np.abs(ref.x_f)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rejects_more_filters_than_intervals(self, family, aircraft_system, aircraft_input):
        with pytest.raises(ValidationError, match=r"N=6, M=8"):
            filter_lti_dataset(aircraft_system, aircraft_input, bank_of(family, M=8, N=6))

    @pytest.mark.parametrize("family", ("lowpass", "laguerre", "poly_test"))
    @pytest.mark.parametrize("period", (0.01, 0.1, 1.0))
    @pytest.mark.parametrize("rho", (0.1, 1.0, 10.0))
    def test_closed_form_moments_match_quadrature(self, family, period, rho, aircraft_system):
        """The closed-form interval moments agree with fine Gauss-Legendre."""
        decomp = decompose(make_filter_bank(family, rho, period, 6, 6))
        (g_x, _, g_int), _ = _interval_moments(aircraft_system, decomp.bank)
        rel = build_relation_matrices(aircraft_system, decomp, NumericConfig(quad_panels=32))
        # lowpass moments belong to g(tau) = e^{rho (tau - T)}, e^{-rho T} times decompose's g
        scale = np.exp(-rho * period) if family == "lowpass" else 1.0
        ref = scale * np.hstack([rel.a_bar, rel.b_bar])
        g_ref = scale * rel.g_bar[0, 0]
        assert np.linalg.norm(g_x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(g_int - g_ref) <= 1e-12 * abs(g_ref)

    @pytest.mark.parametrize("rho_t", (0.1, 10.0, 100.0, 720.0, 1e4))
    def test_lowpass_exact_at_any_rho_t(self, rho_t, aircraft_system, aircraft_input):
        """The balanced lowpass split neither overflows nor underflows.

        The Van Loan block [[-rho T I, I], [0, M T]] has norm about rho T, so
        the rounding of its exponential, and with it the residual, grows in
        proportion to rho T.
        """
        bank = make_filter_bank("lowpass", rho_t / T, T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        res = identify(fd, aircraft_system.n, aircraft_system.m)
        assert res.informative
        rel = verify_algebraic(fd, aircraft_system) / np.linalg.norm(fd.x_df)
        assert rel <= 1e-12 * max(1.0, rho_t)

    @pytest.mark.parametrize("rho", (2.0, 100.0, 690.0, 699.0))
    def test_bump_exact_to_the_edge_of_double_precision(self, rho, aircraft_system, aircraft_input):
        """The bump split g(0) = 1, F_bar = e^{-rho} I keeps g exact while e^{-rho}
        is a normal double; the same 1e-5 bar as criterion 4."""
        bank = make_filter_bank("bump_test", rho, T, 6, 6)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        res = identify(fd, aircraft_system.n, aircraft_system.m, truth=aircraft_system)
        assert res.informative
        assert res.frobenius_error <= 1e-5

    @pytest.mark.parametrize("rho", (745.0, 1000.0))
    def test_vanishing_bump_filters_raise(self, rho, aircraft_system, aircraft_input):
        bank = make_filter_bank("bump_test", rho, T, 6, 6)
        with pytest.raises(NumericalError, match=rf"bump_test.*rho={rho!r}"):
            filter_lti_dataset(aircraft_system, aircraft_input, bank)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rejects_period_mismatch(self, family, aircraft_system, aircraft_input):
        bank = make_filter_bank(family, RHO[family], 2 * T, 6, 6)
        with pytest.raises(ValidationError, match=r"T=0\.1.*T=0\.2"):
            filter_lti_dataset(aircraft_system, aircraft_input, bank)
        with pytest.raises(ValidationError, match=r"T=0\.1.*T=0\.2"):
            filtered_input_data(bank, aircraft_input)


class TestFilteredDatasetBuffer:
    """A FilteredDataset owns read-only copies of its data: one [x_f; u_f]
    buffer, which stacked() returns and x_f and u_f view, and x_df."""

    def test_caller_arrays_are_copied(self):
        x_f, u_f, x_df = np.ones((2, 3)), np.full((1, 3), 2.0), np.full((2, 3), 3.0)
        fd = FilteredDataset(x_f=x_f, u_f=u_f, x_df=x_df, family="lowpass", rho=1.0, T=T, M=3)
        for arr in (x_f, u_f, x_df):
            arr[0, 0] = 99.0
        assert np.array_equal(fd.stacked(), [[1.0] * 3, [1.0] * 3, [2.0] * 3])
        assert np.array_equal(fd.x_df, np.full((2, 3), 3.0))

    def test_column_mismatch_is_refused(self):
        # it used to surface as a bare numpy ValueError from stacked()
        with pytest.raises(ValidationError, match="same column count"):
            FilteredDataset(x_f=np.ones((2, 2)), u_f=np.ones((1, 3)), x_df=np.ones((2, 2)),
                            family="lowpass", rho=1.0, T=T, M=2)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_is_one_read_only_buffer_viewed_by_x_f_and_u_f(
        self, family, aircraft_system, aircraft_input
    ):
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank_of(family))
        s = fd.stacked()
        assert fd.stacked() is s
        assert fd.x_f.base is s and fd.u_f.base is s
        assert s.shape == (6, 6)
        for arr in (s, fd.x_f, fd.u_f, fd.x_df):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def _gate_system(kind, n, norm_t, period, rng):
    """A with ||A||_2 T = norm_t: random, stiff (negative eigenvalues over four
    decades) or unstable (eigenvalues with positive real part)."""
    if kind == "random":
        a = rng.standard_normal((n, n))
    elif kind == "stiff":
        v = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        a = v @ np.diag(-np.logspace(-4, 0, n)) @ np.linalg.inv(v)
    else:
        a = rng.standard_normal((n, n))
        a += np.linalg.norm(a, 2) * np.eye(n)
    a *= norm_t / (period * np.linalg.norm(a, 2))
    return LtiSystem(a=a, b=rng.standard_normal((n, 2)), x0=np.zeros(n))


class TestNodePropagators:
    @pytest.mark.parametrize("kind", ("random", "stiff", "unstable"))
    @pytest.mark.parametrize("norm_t", (0.1, 1.0, 5.0, 20.0))
    def test_panel_powers_match_per_node_exponentials(self, kind, norm_t):
        """(e^{M h})^p e^{M c_i} agrees with one exponential per node.

        The product chain amplifies rounding by ||e^{M h}||^p. For these
        matrices that growth is mostly the growth of e^{M tau} itself, so the
        relative error stays a few hundred roundings even at ||A|| T = 20.
        """
        rng = np.random.default_rng(round(10 * norm_t))
        for period in (0.01, 0.1, 1.0):
            for n in (4, 10):
                sys_ = _gate_system(kind, n, norm_t, period, rng)
                for panels in (8, 16):
                    taus, _, tops = discretize(sys_, period).nodes(panels, 16)
                    ref = np.array([np.hstack(transition(sys_, float(t))) for t in taus])
                    err = np.linalg.norm(tops - ref) / np.linalg.norm(ref)
                    assert err <= 1e-12, (period, n, panels, err)

    def test_overflow_is_loud(self):
        # e^{800} overflows in discretize's e^{A T}, before any node is built
        sys_ = LtiSystem(a=np.array([[800.0]]), b=np.ones((1, 1)), x0=np.zeros(1))
        with pytest.raises(NumericalError, match="expm overflowed"):
            discretize(sys_, 1.0).nodes(8, 16)

    def test_panel_chain_overflow_is_loud(self):
        # e^{M h} and the first panel's nodes are at most e^{100}, but the
        # chain of panel powers reaches e^{800}
        aug = np.array([[800.0, 1.0], [0.0, 0.0]])
        prop = DiscreteSystem(aug=aug, n=1, T=1.0, a_t=np.eye(1), b_t=np.zeros((1, 1)))
        with pytest.raises(NumericalError, match="panel-power propagators overflowed"):
            prop.nodes(8, 16)


class TestLowpassRealization:
    def test_matches_quadrature_filtering_of_state(self, aircraft_system, aircraft_input):
        """The ODE realization reproduces the quadrature x_f for lowpass."""
        bank = bank_of("lowpass")
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        f = state_fn(aircraft_system, aircraft_input)
        wf = lowpass_realization(aircraft.LOWPASS_RHO, f, T, 6)
        assert np.max(np.abs(wf - fd.x_f)) <= 1e-8

    def test_step_response_analytic(self):
        # w = 1: wf(t) = (1 - e^{-rho t}) / rho
        rho = 2.0
        wf = lowpass_realization(rho, lambda t: 1.0, 0.5, 4)
        expected = (1.0 - np.exp(-rho * np.arange(1, 5) * 0.5)) / rho
        assert np.allclose(wf[0], expected, atol=1e-10)

    def test_derivative_identity(self, aircraft_system, aircraft_input):
        """w_df_l = w(lT) - e^{-rho lT} w(0) - rho w_f_l, checked against
        the integration-by-parts pipeline."""
        bank = bank_of("lowpass")
        f = state_fn(aircraft_system, aircraft_input)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        for ell in range(1, 7):
            lhs = lowpass_derivative_identity(
                aircraft.LOWPASS_RHO, f, T, ell, fd.x_f[:, ell - 1]
            )
            assert np.allclose(lhs, fd.x_df[:, ell - 1], atol=1e-8)


class TestRelationMatrices:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_factorization_residual_tiny(self, family, aircraft_system, aircraft_input):
        """[x_f; u_f] = C_bar [chi; mu] F_bar to quadrature accuracy."""
        bank = bank_of(family)
        fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
        sd = simulate_sampled(aircraft_system, aircraft_input)
        rel = build_relation_matrices(aircraft_system, decompose(bank))
        assert factorization_residual(fd, sd, rel) <= 1e-10

    def test_a_bar_for_zero_dynamics(self):
        # A = 0: A_bar = I * int g, B_bar = B * int tau g(tau)
        from ctsid import LtiSystem

        sys_ = LtiSystem(a=np.zeros((2, 2)), b=np.array([[1.0], [2.0]]), x0=np.zeros(2))
        bank = bank_of("poly_test")
        rel = build_relation_matrices(sys_, decompose(bank))
        rho = RHO["poly_test"]
        g_int = rho * T**5 / 30.0  # int_0^T rho tau^2 (T - tau)^2 dtau
        tau_g_int = rho * T**6 / 60.0  # int_0^T tau g(tau) dtau
        assert np.allclose(rel.a_bar, g_int * np.eye(2), rtol=1e-12)
        assert np.allclose(rel.b_bar, tau_g_int * sys_.b, rtol=1e-12)
        assert np.allclose(rel.g_bar, g_int * np.eye(1), rtol=1e-12)

    def test_c_bar_block_structure(self, aircraft_system):
        rel = build_relation_matrices(aircraft_system, decompose(bank_of("lowpass")))
        c = rel.c_bar
        assert c.shape == (6, 6)
        assert np.allclose(c[4:, :4], 0.0)
        assert np.allclose(c[:4, :4], rel.a_bar)
        assert np.allclose(c[4:, 4:], rel.g_bar)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_systems_factorize(self, seed):
        rng = np.random.default_rng(200 + seed)
        sys_ = random_controllable_system(rng, n=3, m=2, T=T)
        for N in (6, 32):
            inp = PiecewiseConstantInput(T=T, levels=rng.uniform(-1, 1, size=(2, N)))
            sd = simulate_sampled(sys_, inp)
            for family in FAMILIES:
                bank = bank_of(family, M=N, N=N)
                fd = filter_lti_dataset(sys_, inp, bank)
                rel = build_relation_matrices(sys_, decompose(bank))
                assert factorization_residual(fd, sd, rel) <= 1e-10, (family, N)
                assert verify_algebraic(fd, sys_) <= 1e-9 * max(1.0, np.linalg.norm(fd.x_df))


def count_expm(monkeypatch) -> list:
    """Record every linalg.expm call, under each module name that binds it."""
    calls: list = []
    original = ctsid.linalg.expm

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    for mod in (ctsid.linalg, ctsid.ltisim, ctsid.filtering):
        monkeypatch.setattr(mod, "expm", counting)
    return calls


class TestScaledResiduals:
    """The residuals on the aircraft reference input with x0 and the levels
    scaled by 2^k. np.linalg.norm squared the entries: every residual read
    exactly 0 at k = -500 (the squares underflow), and the factorization
    residual read 0 at k = 540 (the denominator overflows). The absolute
    residuals are compared over 2^k."""

    @staticmethod
    def residuals(family, k):
        sys_ = LtiSystem(a=aircraft.A, b=aircraft.B, x0=np.ldexp(aircraft.X0, k))
        inp = PiecewiseConstantInput(T=T, levels=np.ldexp(aircraft.reference_input().levels, k))
        bank = bank_of(family)
        fd = filter_lti_dataset(sys_, inp, bank)
        res = identify(fd, 4, 2, truth=sys_)
        rel = build_relation_matrices(sys_, decompose(bank))
        sd = simulate_sampled(sys_, inp)
        assert res.informative and res.frobenius_error <= 1e-11
        return fd, res, rel, sd, (
            math.ldexp(res.residual, -k),
            math.ldexp(verify_algebraic(fd, sys_), -k),
            factorization_residual(fd, sd, rel),
        )

    @pytest.mark.parametrize("k", (-500, 540))
    @pytest.mark.parametrize("family", ("poly_test", "lowpass", "bump_test"))
    def test_nonzero_and_finite_at_extreme_scales(self, family, k):
        *_, scaled = self.residuals(family, k)
        for r in scaled:
            assert 0.0 < r <= 1e-10  # rounding level, as at k = 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unscaled_residuals_equal_the_numpy_norm(self, family):
        fd, res, rel, sd, got = self.residuals(family, 0)
        sys_ = aircraft.system()
        lhs = fd.stacked()
        assert got == (
            float(np.linalg.norm(fd.x_df - res.a_hat @ fd.x_f - res.b_hat @ fd.u_f)),
            float(np.linalg.norm(fd.x_df - sys_.a @ fd.x_f - sys_.b @ fd.u_f)),
            float(np.linalg.norm(lhs - rel.c_bar @ sd.stacked() @ rel.f_bar) / np.linalg.norm(lhs)),
        )
        ab = np.hstack([sys_.a, sys_.b])
        assert res.frobenius_error == float(np.linalg.norm(ab - res.ab_hat))


class TestPropagatorMemo:
    """discretize shares one propagator per value of (A, B, T), with its
    nodes and filter moments.

    A shared cache keyed on (panels, nodes) alone once handed one system's
    propagators to another and reported the wrong model as informative.
    """

    def test_interleaved_systems_and_periods_match_fresh_systems(self):
        # three plants at two periods and two quadrature settings, each
        # interleaved with the others, against a cold memo per run
        rng = np.random.default_rng(31)
        plants = [random_controllable_system(rng, n=4, m=2, T=T) for _ in range(3)]
        levels = rng.uniform(-1, 1, size=(2, 6))
        configs = (NumericConfig(), NumericConfig(quad_panels=6, quad_nodes=12))

        def run(sys_, period, config):
            inp = PiecewiseConstantInput(T=period, levels=levels)
            bank = make_filter_bank("bump_test", 2.0, period, 6, 6)
            fd = filter_lti_dataset(sys_, inp, bank, config)
            rel = build_relation_matrices(sys_, decompose(bank), config)
            # another system's propagators would give a wrong model or residual
            assert identify(fd, 4, 2, truth=sys_).frobenius_error <= 1e-6
            assert factorization_residual(fd, simulate_sampled(sys_, inp), rel) <= 1e-10
            report = fd.quadrature_report.values()
            return fd.x_f, fd.u_f, fd.x_df, *report, rel.a_bar, rel.b_bar, rel.g_bar

        order = [(i, period, c) for c in (0, 1) for period in (T, 2 * T) for i in range(3)]
        order = order[::2] + order[1::2]  # plants, periods and configs alternate
        cold = {}
        for i, period, c in order:
            ctsid.ltisim._propagators.clear()
            cold[i, period, c] = run(plants[i], period, configs[c])
        ctsid.ltisim._propagators.clear()
        for i, period, c in order + order[::-1]:
            fresh = LtiSystem(a=plants[i].a, b=plants[i].b, x0=plants[i].x0)
            for got, ref in zip(run(fresh, period, configs[c]), cold[i, period, c]):
                assert np.array_equal(got, ref), (i, period, c)

    def test_second_relation_build_makes_no_expm_call(self, monkeypatch):
        calls = count_expm(monkeypatch)
        sys_ = aircraft.system()
        build_relation_matrices(sys_, decompose(bank_of("lowpass")))
        first = len(calls)
        assert first > 0
        build_relation_matrices(sys_, decompose(bank_of("poly_test")))
        assert len(calls) == first

    @pytest.mark.parametrize("moved", ("A", "B", "T"))
    def test_one_ulp_apart_gets_its_own_propagator(self, moved):
        a, b, period = aircraft.A.copy(), aircraft.B.copy(), T
        if moved == "A":
            a[1, 2] = np.nextafter(a[1, 2], np.inf)
        elif moved == "B":
            b[3, 0] = np.nextafter(b[3, 0], np.inf)
        else:
            period = np.nextafter(T, np.inf)
        runs = ((aircraft.system(), T), (LtiSystem(a=a, b=b, x0=aircraft.X0), period))
        levels = aircraft.reference_input().levels

        def run(sys_, p):
            bank = make_filter_bank("bump_test", 2.0, p, 6, 6)
            fd = filter_lti_dataset(sys_, PiecewiseConstantInput(T=p, levels=levels), bank)
            assert identify(fd, 4, 2, truth=sys_).frobenius_error <= 1e-10
            return fd.x_f, fd.u_f, fd.x_df

        cold = []
        for sys_, p in runs:
            ctsid.ltisim._propagators.clear()
            cold.append(run(sys_, p))
        ctsid.ltisim._propagators.clear()
        assert discretize(*runs[0]) is not discretize(*runs[1])
        for (sys_, p), ref in zip(runs + runs, cold + cold):
            assert all(np.array_equal(got, r) for got, r in zip(run(sys_, p), ref)), moved

    def test_each_family_and_rho_gets_its_own_moments(self):
        sys_ = aircraft.system()
        banks = [make_filter_bank(f, rho, T, 6, 6) for rho in (1.0, 2.0) for f in FAMILIES]
        cold = []
        for bank in banks:
            ctsid.ltisim._propagators.clear()
            cold.append(_interval_moments(sys_, bank))
        ctsid.ltisim._propagators.clear()
        for bank, ref in zip(banks + banks, cold + cold):
            for got, r in zip(_interval_moments(sys_, bank), ref):
                assert all(np.array_equal(g, x) for g, x in zip(got, r)), bank

    @pytest.mark.parametrize("family", FAMILIES)
    def test_moments_are_built_once_and_read_only(self, family, monkeypatch):
        sys_ = aircraft.system()
        bank = bank_of(family)
        first = _interval_moments(sys_, bank)
        calls = count_expm(monkeypatch)
        assert _interval_moments(aircraft.system(), bank) is first
        assert calls == []
        # every quadrature setting has its own entry, also where it is unused
        others = {id(_interval_moments(sys_, bank, NumericConfig(**kw)))
                  for kw in ({"quad_nodes": 8}, {"quad_panels": 4})}
        assert id(first) not in others and len(others) == 2
        for g_x, gd_x, _ in first:
            for arr in (g_x, gd_x):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0
