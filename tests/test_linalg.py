import math

import numpy as np
import pytest

import ctsid.aircraft as aircraft
import ctsid.filtering
from ctsid import (
    NumericalError,
    PiecewiseConstantInput,
    ValidationError,
    discretize,
    filter_lti_dataset,
    make_filter_bank,
    simulate_sampled,
    svd_rank,
)
from ctsid.linalg import RankReport, _frobenius, expm, frobenius_distance, left_kernel_basis, pinv


class TestSvdRank:
    def test_identity(self):
        assert svd_rank(np.eye(6), 1e-8).rank == 6

    def test_aircraft_stacked_rank(self, aircraft_system, aircraft_input):
        sd = simulate_sampled(aircraft_system, aircraft_input)
        assert svd_rank(np.vstack([sd.chi, sd.mu]), 1e-8).rank == 6

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        assert svd_rank(np.outer(u, v), 1e-8).rank == 1

    def test_spectrum_is_full_and_sorted(self):
        r = svd_rank(np.diag([3.0, 1.0, 0.0]), 1e-8)
        assert r.singular_values.shape == (3,)
        assert np.all(np.diff(r.singular_values) <= 0)
        assert r.rank == np.sum(r.singular_values > r.tolerance_used)

    @pytest.mark.parametrize("k", (-1000, -600, -101, 101, 600, 1000))
    def test_singular_values_scale_exactly(self, k):
        m = np.random.default_rng(2).standard_normal((5, 7))
        ref, got = svd_rank(m), svd_rank(np.ldexp(m, k))
        assert np.array_equal(got.singular_values, np.ldexp(ref.singular_values, k))
        assert got.rank == ref.rank

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            svd_rank(np.eye(2), rtol=0.0)
        with pytest.raises(ValidationError, match="rtol"):
            svd_rank(np.eye(2), rtol=np.nan)
        with pytest.raises(ValidationError):
            svd_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="finite"):
            svd_rank(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestRankReport:
    def test_rejects_increasing_singular_values(self):
        with pytest.raises(ValidationError, match="nonincreasing"):
            RankReport(rank=2, singular_values=np.array([1.0, 2.0]), tolerance_used=0.0)
        with pytest.raises(ValidationError, match="nonincreasing"):
            RankReport(rank=2, singular_values=np.array([3.0, 3.0, 1.0, 1.5]), tolerance_used=0.0)

    @pytest.mark.parametrize("s", ([], [2.0], [3.0, 3.0, 0.0]))
    def test_accepts_short_and_nonincreasing_vectors(self, s):
        rep = RankReport(rank=len(s), singular_values=s, tolerance_used=0.0)
        assert rep.singular_values.shape == (len(s),)


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(4)), np.eye(4))

    def test_singular_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_subnormal_kept_singular_value_raises(self):
        # the threshold underflows to 0, so 1e-309 is kept and 1/1e-309 overflows
        with pytest.raises(NumericalError, match="not finite"):
            pinv(np.diag([1e-309, 1e-310]))

    def test_full_row_rank_right_inverse(self):
        # oracle: minimum-norm solution x = M^T (M M^T)^{-1} b per column
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 7))
        mp = pinv(m)
        assert np.allclose(m @ mp, np.eye(4), atol=1e-10)
        gram = m @ m.T
        for i in range(4):
            x_oracle = m.T @ np.linalg.solve(gram, np.eye(4)[:, i])
            assert np.allclose(mp[:, i], x_oracle, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(2, 7, size=2)
        # condition number <= 1e6 by construction
        u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        k = min(rows, cols)
        s = np.logspace(0, -rng.uniform(0, 6), k)
        m = u[:, :k] @ np.diag(s) @ v[:, :k].T
        mp = pinv(m)
        scale = np.linalg.norm(m)
        assert np.linalg.norm(m @ mp @ m - m) <= 1e-10 * scale
        assert np.linalg.norm(mp @ m @ mp - mp) <= 1e-10 * np.linalg.norm(mp)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_preserved(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.integers(1, 4)
        m = rng.standard_normal((5, r)) @ rng.standard_normal((r, 6))
        assert svd_rank(pinv(m)).rank == svd_rank(m).rank == r


class TestLeftKernelBasis:
    def test_simple_analytic(self):
        basis = left_kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert basis.shape == (1, 2)
        assert np.allclose(np.abs(basis), [[0.0, 1.0]])

    def test_full_row_rank_empty(self):
        rng = np.random.default_rng(3)
        basis = left_kernel_basis(rng.standard_normal((3, 5)))
        assert basis.shape == (0, 3)

    def test_ones_matrix(self):
        m = np.ones((3, 3))
        basis = left_kernel_basis(m)
        assert basis.shape == (2, 3)
        for row in basis:
            assert np.linalg.norm(row @ m) <= 1e-12
        assert np.allclose(basis @ basis.T, np.eye(2))


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(expm(np.diag([1.0, 2.0])), np.diag([np.e, np.e**2]), rtol=1e-12)

    def test_nilpotent(self):
        assert np.allclose(expm(np.array([[0.0, 1.0], [0.0, 0.0]])), [[1, 1], [0, 1]])

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        a *= 10.0 / np.linalg.norm(a)
        assert np.allclose(expm(a) @ expm(-a), np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_semigroup(self, seed):
        rng = np.random.default_rng(seed + 100)
        a = rng.standard_normal((3, 3))
        s, t = rng.uniform(0.1, 2.0, size=2)
        assert np.allclose(expm((s + t) * a), expm(s * a) @ expm(t * a), atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            expm(np.ones((2, 3)))

    def test_overflow_reported(self):
        with pytest.raises(NumericalError):
            expm(np.array([[1e6]]))


# 1-norm bounds of the Pade degrees 3, 5, 7, 9 and 13 (Higham, SIAM J. Matrix
# Anal. Appl. 26 (2005)), and the 1-norms 2 theta_13 and 8 theta_13 where the
# number of squarings steps from 0 to 1 and from 2 to 3
THETAS = (
    1.495585217958292e-2,
    2.539398330063230e-1,
    9.504178996162932e-1,
    2.097847961257068,
    5.371920351148152,
    2 * 5.371920351148152,
    8 * 5.371920351148152,
)


def with_one_norm(rng, p: int, norm: float) -> np.ndarray:
    """A random p x p matrix whose 1-norm is exactly norm: column 0 is
    [+-norm, 0, ..., 0] and every other column sums to about norm / 2."""
    a = rng.uniform(-1.0, 1.0, (p, p))
    a *= 0.5 * norm / np.abs(a).sum(axis=0).max()
    a[:, 0] = 0.0
    a[0, 0] = rng.choice((-1.0, 1.0)) * norm
    return a


def mp_expm(a: np.ndarray) -> np.ndarray:
    """e^A to 40 significant digits, rounded to doubles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


class TestExpmStack:
    """expm of a (k, p, p) stack chooses the degree and the squarings per
    matrix, so each slice is bit-identical to the exponential of that matrix
    alone, whatever the other matrices in the stack."""

    def test_stack_equals_single(self):
        rng = np.random.default_rng(13)
        norms = [0.0, *np.geomspace(1e-6, 300.0, 20)]
        norms += [x for t in THETAS for x in (t, np.nextafter(t, np.inf))]
        stack = np.array([with_one_norm(rng, 5, x) for x in norms])
        assert [np.abs(a).sum(axis=0).max() for a in stack] == norms
        stack = stack[rng.permutation(len(norms))]
        for a, e in zip(stack, expm(stack)):
            assert np.array_equal(e, expm(a))

    def test_zero_stack_is_identity(self):
        assert np.array_equal(expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValidationError):
            expm(np.ones((2, 2, 3)))
        with pytest.raises(ValidationError):
            expm(np.ones((2, 2, 2, 2)))
        with pytest.raises(ValidationError):
            expm(np.array([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]]))

    def test_overflow_in_one_slice_is_reported(self):
        with pytest.raises(NumericalError, match="expm overflowed"):
            expm(np.array([np.eye(2), 1e6 * np.eye(2)]))
        # finite entries whose 1-norm is beyond the float range
        with pytest.raises(NumericalError, match="expm overflowed"):
            expm(np.array([np.eye(2), np.full((2, 2), 1e308)]))


class TestExpmAccuracy:
    """Against a 40-digit reference. The per-matrix degree selection keeps
    the error near one rounding on the pipeline's matrices and on random
    matrices up to ||A||_F = 100."""

    @pytest.mark.parametrize("period", (0.01, 0.1, 1.0))
    def test_pipeline_matrices(self, period, monkeypatch):
        # M T, and the matrices whose exponentials give the closed-form
        # filter moments: the poly_test chain and the laguerre and lowpass
        # Van Loan blocks, as filtering builds them
        blocks = []
        original = ctsid.filtering.expm

        def recording(a):
            blocks.append(np.array(a))
            return original(a)

        monkeypatch.setattr(ctsid.filtering, "expm", recording)
        sys_ = aircraft.system()
        inp = PiecewiseConstantInput(T=period, levels=aircraft.reference_input().levels)
        for family, rho in (("poly_test", 10.0 / period**5), ("laguerre", 1.0), ("lowpass", 1.0)):
            filter_lti_dataset(sys_, inp, make_filter_bank(family, rho, period, 6, 6))
        assert [b.shape for b in blocks] == [(36, 36), (12, 12), (12, 12)]
        for a in (discretize(sys_, period).aug * period, *blocks):
            ref = mp_expm(a)
            assert np.max(np.abs(expm(a) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("theta", THETAS[:5])
    def test_degree_bounds_on_diagonal_matrices(self, theta):
        # e^{diag(d)} = diag(e^d), entry by entry. Measured: at most 1.2e-14
        # (e^{10.2}, rounding in q(A) = V - U); a degree kept up to twice its
        # theta is off by 3e-14 (degree 5 at 1.9 theta_5) to 2e-8 (degree 13)
        for c in (1.0, 1.4, 1.9):
            d = c * theta * np.array([1.0, -1.0, 0.5])
            e = expm(np.diag(d))
            assert np.array_equal(e, np.diag(np.diag(e)))
            ref = np.array([math.exp(x) for x in d])
            assert np.all(np.abs(np.diag(e) - ref) <= 2e-14 * ref), (theta, c)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        for norm in np.geomspace(0.01, 100.0, 24):
            a = rng.standard_normal((4, 4))
            a *= norm / np.linalg.norm(a)
            ref = mp_expm(a)
            assert np.linalg.norm(expm(a) - ref) <= 1e-13 * np.linalg.norm(ref)


class TestFrobeniusDistance:
    def test_zero_on_equal(self):
        m = np.arange(6.0).reshape(2, 3)
        assert frobenius_distance(m, m) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            frobenius_distance(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_near_unit_scale_it_is_np_linalg_norm(self, seed):
        # largest |entry| in [2^-100, 2^100]: np.linalg.norm itself, and the
        # same bits as the norm of M / 2^e scaled back
        rng = np.random.default_rng(seed)
        m = np.ldexp(rng.uniform(0.5, 1.0, size=rng.integers(1, 9, size=2)), int(rng.integers(-99, 100)))
        m *= rng.choice((-1.0, 1.0), size=m.shape) * (rng.random(m.shape) < 0.8)
        e = math.frexp(float(np.abs(m).max()))[1]
        assert 2.0**-100 <= np.abs(m).max() <= 2.0**100
        assert _frobenius(m) == float(np.linalg.norm(m))
        assert _frobenius(m) == math.ldexp(float(np.linalg.norm(np.ldexp(m, -e))), e)

    @pytest.mark.parametrize("k", (-600, -530, -500, 0, 540, 1000))
    def test_scaled_by_a_power_of_two_exactly(self, k):
        # np.linalg.norm squares the entries: below about 2^-511 the squares
        # are subnormal or 0, above about 2^512 they overflow to inf
        m = np.random.default_rng(4).standard_normal((4, 6))
        d = frobenius_distance(np.ldexp(m, k), np.zeros_like(m))
        assert d == math.ldexp(float(np.linalg.norm(m)), k)

    def test_inf_and_nan_pass_through(self):
        z = np.zeros((2, 2))
        assert frobenius_distance(np.full((2, 2), np.inf), z) == np.inf
        assert np.isnan(frobenius_distance(np.array([[np.nan, 1.0]]), np.zeros((1, 2))))


def _intersection_dim(ker_basis: np.ndarray, im_basis: np.ndarray) -> int:
    # dim(span K cap span R) = dim K + dim R - rank([K R]), by brute force SVD
    if ker_basis.shape[1] == 0 or im_basis.shape[1] == 0:
        return 0
    stacked = np.hstack([ker_basis, im_basis])
    return ker_basis.shape[1] + im_basis.shape[1] - np.linalg.matrix_rank(stacked, tol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_rank_product_identity(seed):
    # rank(PQ) == rank(Q) - dim(ker(P) cap im(Q)) on random low-rank factors
    rng = np.random.default_rng(seed)
    rp, rq = rng.integers(1, 4, size=2)
    p = rng.standard_normal((4, rp)) @ rng.standard_normal((rp, 5))
    q = rng.standard_normal((5, rq)) @ rng.standard_normal((rq, 6))
    _, sp, vhp = np.linalg.svd(p)
    rank_p = np.sum(sp > 1e-10 * sp[0])
    ker_p = vhp[rank_p:].T
    uq, sq, _ = np.linalg.svd(q)
    rank_q = int(np.sum(sq > 1e-10 * sq[0]))
    im_q = uq[:, :rank_q]
    expected = rank_q - _intersection_dim(ker_p, im_q)
    assert svd_rank(p @ q).rank == expected


def test_aircraft_identification_error_scale(aircraft_system, aircraft_input):
    # the reference pipeline attains ~6.2e-7; ours must do at least as well
    from ctsid import filter_lti_dataset, identify, make_filter_bank

    bank = make_filter_bank("poly_test", aircraft.POLY_TEST_RHO, aircraft.T, 6, 6)
    fd = filter_lti_dataset(aircraft_system, aircraft_input, bank)
    res = identify(fd, 4, 2, truth=aircraft_system)
    truth = np.hstack([aircraft.A, aircraft.B])
    assert frobenius_distance(truth, res.ab_hat) <= aircraft.REFERENCE_ERROR_POLY
