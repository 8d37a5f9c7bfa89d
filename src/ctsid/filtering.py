"""Filtered datasets from trajectories through the sampled-data factorization.

Produces the three M-column matrices

    x_f[:, l-1]  = int_0^{NT} g_l(t) x(t) dt
    u_f[:, l-1]  = int_0^{NT} g_l(t) u(t) dt
    x_df[:, l-1] = int_0^{NT} g_l(t) dx/dt dt

where x_df is computed by integration by parts over the smooth pieces of
g_l, so the state derivative is never evaluated:

    x_df_l = sum_j [ g_l(t_j^-) x(t_j) - g_l(t_{j-1}) x(t_{j-1})
                     - int_{t_{j-1}}^{t_j} g'_l(t) x(t) dt ].

filter_lti_dataset uses the split g_l(tau + jT) = g(tau) F_bar[j, l-1] of the
family's spec (ctsid.filters), which is all this module knows of a family:
every integral over a sampling interval is a moment of g or g' against
e^{[[A, B], [0, 0]] tau} on [0, T], applied to [chi_j; mu_j] and weighted by
F_bar. The spec gives the moments in closed form, or else they are composite
Gauss-Legendre at the node propagators of the system's one exact propagator
(ltisim.discretize), which builds them once per (A, B, T). F_bar, g(0) and
g(T^-) are built once per bank value; closed-form data take one pass, and
each dataset holds [x_f; u_f] as one read-only buffer.

The module also builds, independently by quadrature of the spec's g on the
same memoized nodes, the block matrices (A_bar, B_bar, G_bar, C_bar, F_bar)
of [x_f; u_f] = C_bar * [chi; mu] * F_bar as a check. The pointwise
quadrature oracles live in ctsid.oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .filters import Decomposition, FilterBank
from .linalg import _frobenius
from .ltisim import (
    LtiSystem,
    PiecewiseConstantInput,
    SampledDataset,
    discretize,
    simulate_sampled,
)


@dataclass(frozen=True)
class FilteredDataset:
    """Filtered state/input/derivative data plus quadrature error estimates,
    as read-only copies; x_f and u_f view the one [x_f; u_f] buffer stacked() returns."""

    x_f: np.ndarray  # (n, M)
    u_f: np.ndarray  # (m, M)
    x_df: np.ndarray  # (n, M)
    family: str
    rho: float
    T: float
    M: int
    quadrature_report: dict = field(default_factory=dict)
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x_f, u_f = np.atleast_2d(self.x_f), np.atleast_2d(self.u_f)
        if x_f.shape[1:] != u_f.shape[1:]:
            raise ValidationError("x_f and u_f must have the same column count")
        stacked = np.vstack([x_f, u_f], dtype=float)
        x_df = np.array(self.x_df, dtype=float)
        for arr in (stacked, x_df):
            arr.setflags(write=False)
        n = x_f.shape[0]
        for name, value in (("x_f", stacked[:n]), ("u_f", stacked[n:]),
                            ("x_df", x_df), ("_stacked", stacked)):
            object.__setattr__(self, name, value)

    def stacked(self) -> np.ndarray:
        return self._stacked


@dataclass(frozen=True)
class RelationMatrices:
    """A_bar, B_bar, G_bar, F_bar and the block C_bar = [[A_bar, B_bar], [0, G_bar]]."""

    a_bar: np.ndarray  # (n, n)
    b_bar: np.ndarray  # (n, m)
    g_bar: np.ndarray  # (m, m), scalar multiple of I
    f_bar: np.ndarray  # (N, M)

    @property
    def c_bar(self) -> np.ndarray:
        n, m = self.a_bar.shape[0], self.g_bar.shape[0]
        c = np.zeros((n + m, n + m))
        c[:n, :n] = self.a_bar
        c[:n, n:] = self.b_bar
        c[n:, n:] = self.g_bar
        return c


def _check_input(bank: FilterBank, inp: PiecewiseConstantInput) -> None:
    """The input must share the bank's sampling period and cover its horizon."""
    if abs(inp.T - bank.T) > 1e-12 * bank.T:
        raise ValidationError(
            f"input sampling period T={inp.T!r} differs from the filter bank's T={bank.T!r}"
        )
    if inp.N < bank.N:
        raise ValidationError("input shorter than the filter horizon")


def _interval_moments(sys: LtiSystem, bank: FilterBank):
    """Moments of the interval filter g against the augmented exponential.

    With M = [[A, B], [0, 0]], returns the pair (fine, coarse) of triples
    (G_x, G'_x, int g), where G_x is the top n rows of
    G = int_0^T g(tau) e^{M tau} dtau and G'_x the same with g'. The lower
    rows of G are [0, (int g) I]. The spec's closed-form moments are exact up
    to rounding, so coarse is fine; without them, fine and coarse are
    composite Gauss-Legendre at twice and once the bank's panel count. Built
    once per (family, rho) and kept, as read-only arrays, on the one
    propagator of (A, B, T), ltisim.discretize.
    """
    prop = discretize(sys, bank.T)
    key = (bank.family, bank.rho)
    if key in prop._moments:
        return prop._moments[key]
    spec, rho, T = bank._spec, bank.rho, bank.T
    if spec.moments is None:

        def quadrature(panels: int):
            taus, ws, tops = prop.nodes(panels)
            wg = ws * spec.g(rho, T, taus)
            return (
                np.tensordot(wg, tops, axes=1),
                np.tensordot(ws * spec.g_deriv(rho, T, taus), tops, axes=1),
                float(np.sum(wg)),
            )

        moments = quadrature(2 * bank._panels), quadrature(bank._panels)
    else:
        g_full, gd_full = spec.moments(prop.aug, rho, T)
        moments = ((g_full[:prop.n], gd_full[:prop.n], float(g_full[prop.n, prop.n])),) * 2
    for g_x, gd_x, _ in moments:
        g_x.setflags(write=False)
        gd_x.setflags(write=False)
    prop._moments[key] = moments
    return moments


def filter_lti_dataset(
    sys: LtiSystem,
    inp: PiecewiseConstantInput,
    bank: FilterBank,
) -> FilteredDataset:
    """Full filtered dataset for an LTI trajectory, through the factorization.

    With S = [chi; mu] over the first N intervals, the family spec's split
    g_l(tau + jT) = g(tau) F_bar[j, l-1] of the filters,
    G = int_0^T g(tau) e^{[[A, B], [0, 0]] tau} dtau, G' the same with g',
    and G_x, G'_x their top n rows:

        [x_f; u_f] = G S F_bar
        x_df = (g(T^-) chi_{1..N} - g(0) chi_{0..N-1} - G'_x S) F_bar.

    The spec's split keeps every factor in floating-point range. When some
    filter's largest F_bar coefficient is below the smallest normal double,
    its data would vanish or lose precision, and NumericalError is raised
    instead. quadrature_report holds |fine - coarse| per matrix: exact zeros
    for closed-form moments, else the panel-doubling difference. Requires
    N >= M and inp.T equal to bank.T.
    """
    bank._require_n_ge_m(bank.N)
    _check_input(bank, inp)
    f_bar, peak, (g_0, g_end) = bank._lag_matrix()
    if peak < np.finfo(float).tiny:
        raise NumericalError(
            f"{bank.family} filters vanish in double precision at rho={bank.rho!r}: "
            f"the largest F_bar coefficient of some filter is {peak:.3g}, "
            f"below the smallest normal number {np.finfo(float).tiny:.3g}"
        )
    sd = simulate_sampled(sys, inp)
    n, N = sys.n, bank.N
    s_f = sd.stacked()[:, :N] @ f_bar
    next_f = sd.chi_all[:, 1 : N + 1] @ f_bar

    def data(moments):
        g_x, gd_x, g_int = moments
        return (
            g_x @ s_f,
            g_int * s_f[n:],
            g_end * next_f - g_0 * s_f[:n] - gd_x @ s_f,
        )

    fine_moments, coarse_moments = _interval_moments(sys, bank)
    fine = data(fine_moments)
    coarse = fine if coarse_moments is fine_moments else data(coarse_moments)
    report = {
        name: np.abs(f - c)
        for name, f, c in zip(("x_f", "u_f", "x_df"), fine, coarse)
    }
    return FilteredDataset(
        x_f=fine[0],
        u_f=fine[1],
        x_df=fine[2],
        family=bank.family,
        rho=bank.rho,
        T=bank.T,
        M=bank.M,
        quadrature_report=report,
    )


def build_relation_matrices(sys: LtiSystem, decomp: Decomposition) -> RelationMatrices:
    """A_bar = int g(tau) e^{A tau}, B_bar = int g(tau) (int_0^tau e^{A s} B ds),
    G_bar = I * int g by Gauss-Legendre at the bank's panel count, and F_bar,
    in the spec's split of decomp's bank: C_bar F_bar is the paper's, and
    every factor stays in floating-point range wherever filtering does.
    Verification path only (needs the ground-truth A, B)."""
    bank = decomp.bank
    taus, ws, tops = discretize(sys, bank.T).nodes(bank._panels)
    gv = bank._spec.g(bank.rho, bank.T, taus)
    g_top = np.tensordot(ws * gv, tops, axes=1)
    a_bar, b_bar = g_top[:, : sys.n], g_top[:, sys.n :]
    g_int = float(np.dot(ws, gv))
    return RelationMatrices(
        a_bar=a_bar,
        b_bar=b_bar,
        g_bar=g_int * np.eye(sys.m),
        f_bar=bank._lag_matrix()[0],
    )


def factorization_residual(
    fd: FilteredDataset, sd: SampledDataset, rel: RelationMatrices
) -> float:
    """Relative Frobenius residual of [x_f; u_f] = C_bar [chi; mu] F_bar;
    inf when [x_f; u_f] is zero, which leaves nothing to judge."""
    lhs = fd.stacked()
    norm = _frobenius(lhs)
    if norm == 0.0:
        return math.inf
    return float(_frobenius(lhs - rel.c_bar @ sd.stacked() @ rel.f_bar) / norm)


def verify_algebraic(fd: FilteredDataset, sys: LtiSystem) -> float:
    """Frobenius norm of x_df - A x_f - B u_f (zero for exact data)."""
    return _frobenius(fd.x_df - sys.a @ fd.x_f - sys.b @ fd.u_f)
