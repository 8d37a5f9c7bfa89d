import math

import numpy as np
import pytest

from ctsid import (
    ValidationError,
    build_F_bar,
    decompose,
    eval_g,
    make_filter_bank,
)
from ctsid.filters import FAMILIES, eval_g_deriv, left_limit_g

T = 0.1
RHO = {"poly_test": 1e6, "bump_test": 2.0, "laguerre": 1.0, "lowpass": 1.0}


def bank_of(family, M=6, N=6, rho=None):
    return make_filter_bank(family, RHO[family] if rho is None else rho, T, M, N)


class TestFilterBank:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            make_filter_bank("boxcar", 1.0, T, 6, 6)

    def test_rejects_bad_params(self):
        # non-finite rho or T once gave all-NaN data, and a fractional M one
        # more filter than the bank records
        cases = [(-1.0, T, 6, 6), (1.0, T, 0, 6), (math.nan, T, 6, 6), (math.inf, T, 6, 6),
                 (1.0, math.nan, 6, 6), (1.0, math.inf, 6, 6), (1.0, T, 2.5, 6), (1.0, T, 6, 6.0)]
        for family in ("lowpass", "poly_test"):
            for rho, period, M, N in cases:
                with pytest.raises(ValidationError):
                    make_filter_bank(family, rho, period, M, N)

    def test_support_intervals(self):
        assert list(bank_of("poly_test").support_intervals(3)) == [2]
        assert list(bank_of("bump_test").support_intervals(1)) == [0]
        assert list(bank_of("laguerre").support_intervals(3)) == [2, 3, 4, 5]
        assert list(bank_of("lowpass").support_intervals(3)) == [0, 1, 2]

    def test_breakpoints(self):
        bps = bank_of("lowpass").breakpoints(2)
        assert np.allclose(bps, [0.0, T, 2 * T])

    def test_ell_bounds(self):
        with pytest.raises(ValidationError):
            bank_of("lowpass").support_intervals(7)


class TestEvalG:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_outside_support(self, family):
        bank = bank_of(family)
        grid = np.linspace(0, bank.horizon, 601, endpoint=False)
        for ell in (1, 3, 6):
            vals = eval_g(bank, ell, grid)
            lo, hi = bank.breakpoints(ell)[0], bank.breakpoints(ell)[-1]
            outside = (grid < lo) | (grid >= hi)
            assert np.all(vals[outside] == 0.0)
            assert np.all(vals >= 0.0)

    def test_poly_analytic_values(self):
        bank = bank_of("poly_test", rho=1.0)
        # at the midpoint of [(l-1)T, lT): (T/2)^2 (T/2)^2
        mid = 2.5 * T
        assert eval_g(bank, 3, mid) == pytest.approx((T / 2) ** 4)
        assert eval_g(bank, 3, 2 * T) == 0.0

    def test_bump_analytic_values(self):
        bank = bank_of("bump_test", rho=2.0)
        # at the midpoint tp = T/2: exp(-rho T^2 / (T^2 - T^2/4)) = exp(-4 rho/3)
        assert eval_g(bank, 1, T / 2) == pytest.approx(np.exp(-8.0 / 3.0))
        assert eval_g(bank, 1, 0.0) == pytest.approx(np.exp(-2.0))

    def test_laguerre_analytic_values(self):
        bank = bank_of("laguerre", rho=1.0)
        assert eval_g(bank, 2, T) == pytest.approx(np.sqrt(2.0))
        assert eval_g(bank, 2, 2 * T) == pytest.approx(np.sqrt(2.0) * np.exp(-T))
        assert eval_g(bank, 2, 0.05) == 0.0

    def test_lowpass_analytic_values(self):
        bank = bank_of("lowpass", rho=1.0)
        assert eval_g(bank, 3, 0.0) == pytest.approx(np.exp(-3 * T))
        assert eval_g(bank, 3, 3 * T) == 0.0  # support is [0, lT)

    def test_scalar_in_scalar_out(self):
        v = eval_g(bank_of("lowpass"), 1, 0.05)
        assert isinstance(v, float)

    def test_rejects_out_of_horizon(self):
        with pytest.raises(ValidationError):
            eval_g(bank_of("lowpass"), 1, 0.7)

    def test_bump_no_overflow_with_huge_rho(self):
        bank = bank_of("bump_test", rho=5e4)
        grid = np.linspace(0, bank.horizon, 1001, endpoint=False)
        vals = eval_g(bank, 2, grid)
        assert np.all(np.isfinite(vals))


class TestEvalGDeriv:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("ell", [1, 4])
    def test_matches_central_difference(self, family, ell):
        bank = bank_of(family)
        # interior points of smooth pieces only
        pts = []
        bps = bank.breakpoints(ell)
        for a, b in zip(bps[:-1], bps[1:]):
            pts.extend(np.linspace(a, b, 9)[1:-1])
        pts = np.array(pts)
        h = 1e-7
        fd = (eval_g(bank, ell, pts + h) - eval_g(bank, ell, pts - h)) / (2 * h)
        an = eval_g_deriv(bank, ell, pts)
        scale = 1.0 + np.max(np.abs(an))
        assert np.max(np.abs(fd - an)) <= 1e-5 * scale

    def test_lowpass_ode_identity(self):
        # on its support the lowpass filter satisfies g' = rho g
        bank = bank_of("lowpass", rho=1.7)
        grid = np.linspace(0.0, 3 * T, 50, endpoint=False)
        assert np.allclose(
            eval_g_deriv(bank, 3, grid), 1.7 * eval_g(bank, 3, grid)
        )

    def test_zero_outside_support(self):
        bank = bank_of("poly_test")
        assert eval_g_deriv(bank, 2, 0.35) == 0.0


class TestLeftLimit:
    def test_poly_vanishes_at_support_end(self):
        bank = bank_of("poly_test")
        assert left_limit_g(bank, 2, 2 * T) == pytest.approx(0.0, abs=1e-20)

    def test_bump_vanishes_at_support_end(self):
        bank = bank_of("bump_test")
        assert left_limit_g(bank, 2, 2 * T) == 0.0

    def test_lowpass_is_one_at_ell_T(self):
        bank = bank_of("lowpass", rho=3.0)
        assert left_limit_g(bank, 4, 4 * T) == pytest.approx(1.0)
        assert left_limit_g(bank, 4, 2 * T) == pytest.approx(np.exp(3.0 * (2 * T - 4 * T)))

    def test_laguerre_continuous_interior(self):
        # laguerre is continuous inside its support: left limit equals value
        bank = bank_of("laguerre", rho=2.0)
        assert left_limit_g(bank, 2, 3 * T) == pytest.approx(eval_g(bank, 2, 3 * T))

    def test_outside_support_is_zero(self):
        bank = bank_of("poly_test")
        assert left_limit_g(bank, 2, 5 * T) == 0.0
        assert left_limit_g(bank, 2, T) == 0.0  # approaching from the left of supp

    def test_rejects_non_breakpoint(self):
        with pytest.raises(ValidationError):
            left_limit_g(bank_of("lowpass"), 1, 0.15)


def paper_g_ell(family, rho, ell, j, tau, N=6):
    """The paper's g_ell at t = jT + tau, written out as in the filters.py docstring."""
    t = j * T + tau
    if family == "poly_test":
        inside = j == ell - 1
        value = rho * (t - (ell - 1) * T) ** 2 * (ell * T - t) ** 2
    elif family == "bump_test":
        inside = j == ell - 1
        with np.errstate(divide="ignore", over="ignore"):  # values outside the support are unused
            value = np.exp(-rho * T**2 / (T**2 - (t - (ell - 1) * T) ** 2))
    elif family == "laguerre":
        inside = ell - 1 <= j < N
        value = np.sqrt(2 * rho) * np.exp(rho * ((ell - 1) * T - t))
    else:  # lowpass
        inside = 0 <= j < ell
        value = np.exp(rho * (t - ell * T))
    return value if inside else np.zeros_like(tau)


class TestDecomposition:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_reconstructs_g_ell(self, family):
        """eval_g and g(tau) * f_ell(jT) equal the paper's g_ell(tau + jT)."""
        bank = bank_of(family)
        dec = decompose(bank)
        taus = np.linspace(0, T, 13, endpoint=False)
        for ell in range(1, bank.M + 1):
            for j in range(bank.N):
                paper = paper_g_ell(family, RHO[family], ell, j, taus)
                direct = eval_g(bank, ell, taus + j * T)
                product = dec.g(taus) * dec.f(ell, np.array([j * T]))[0]
                assert np.allclose(direct, paper, rtol=1e-12, atol=1e-300), (ell, j)
                assert np.allclose(product, paper, rtol=1e-12, atol=1e-300), (ell, j)

    def test_lowpass_in_range_at_large_rho_t(self):
        """At rho T = 1e4 the paper's factors e^{rho tau} and e^{-rho T} leave
        double range, but g_ell itself is at most 1."""
        bank = bank_of("lowpass", rho=1e4 / T)
        grid = np.linspace(0, bank.horizon, 601, endpoint=False)
        for ell in range(1, bank.M + 1):
            vals = eval_g(bank, ell, grid)
            assert np.all(np.isfinite(vals)) and np.all(vals <= 1.0), ell

    @pytest.mark.parametrize("family", FAMILIES)
    def test_g_deriv_matches(self, family):
        bank = bank_of(family)
        dec = decompose(bank)
        taus = np.linspace(0.01 * T, 0.99 * T, 25)
        h = 1e-8
        fd = (dec.g(taus + h) - dec.g(taus - h)) / (2 * h)
        an = dec.g_deriv(taus)
        assert np.max(np.abs(fd - an)) <= 1e-4 * (1.0 + np.max(np.abs(an)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_g_positive_integral(self, family):
        from ctsid.oracles import quad_piece

        bank = bank_of(family)
        dec = decompose(bank)
        val, _ = quad_piece(dec.g, 0.0, T)
        assert val > 0

    def test_requires_N_ge_M(self):
        bank = make_filter_bank("lowpass", 1.0, T, 6, 6)
        with pytest.raises(ValidationError):
            decompose(bank, N=4)


class TestFBar:
    def test_compact_families_give_identity(self):
        for family in ("poly_test", "bump_test"):
            dec = decompose(bank_of(family))
            assert np.allclose(build_F_bar(dec), np.eye(6))

    def test_lowpass_structure(self):
        rho = 1.3
        dec = decompose(bank_of("lowpass", rho=rho))
        fb = build_F_bar(dec)
        # strictly lower-left exponential profile: entry (j, l) = e^{rho(j-l)T} for j < l
        for j in range(6):
            for l in range(1, 7):
                expected = np.exp(rho * (j - l) * T) if j < l else 0.0
                assert fb[j, l - 1] == pytest.approx(expected)
        assert np.linalg.matrix_rank(fb) == 6

    def test_laguerre_structure(self):
        rho = 0.9
        dec = decompose(bank_of("laguerre", rho=rho))
        fb = build_F_bar(dec)
        for j in range(6):
            for l in range(1, 7):
                expected = np.exp(rho * ((l - 1) - j) * T) if j >= l - 1 else 0.0
                assert fb[j, l - 1] == pytest.approx(expected)
        assert np.linalg.matrix_rank(fb) == 6

    @pytest.mark.parametrize("family", FAMILIES)
    def test_full_column_rank(self, family):
        fb = build_F_bar(decompose(bank_of(family)))
        assert fb.shape == (6, 6)
        assert np.linalg.matrix_rank(fb) == 6
