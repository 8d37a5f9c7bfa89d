"""Filtered datasets from trajectories through the sampled-data factorization.

Produces the three M-column matrices

    x_f[:, l-1]  = int_0^{NT} g_l(t) x(t) dt
    u_f[:, l-1]  = int_0^{NT} g_l(t) u(t) dt
    x_df[:, l-1] = int_0^{NT} g_l(t) dx/dt dt

where x_df is computed by integration by parts over the smooth pieces of
g_l, so the state derivative is never evaluated:

    x_df_l = sum_j [ g_l(t_j^-) x(t_j) - g_l(t_{j-1}) x(t_{j-1})
                     - int_{t_{j-1}}^{t_j} g'_l(t) x(t) dt ].

filter_lti_dataset uses the decomposition g_l(tau + jT) = g(tau) f_l(jT):
every integral over a sampling interval is a moment of g or g' against
e^{[[A, B], [0, 0]] tau} on [0, T], applied to [chi_j; mu_j] and weighted by
F_bar. The moments are closed-form matrix exponentials (Van Loan) for
lowpass, laguerre and poly_test, and composite Gauss-Legendre for bump_test,
whose node propagators come from powers of one panel's exponential.

The module also builds, independently by quadrature, the block matrices
(A_bar, B_bar, G_bar, C_bar, F_bar) of [x_f; u_f] = C_bar * [chi; mu] * F_bar
as a check, and keeps pointwise quadrature paths (filter_signal,
filtered_input_data, filtered_derivative_data) as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, NumericConfig
from .errors import NumericalError, ValidationError
from .filters import (
    Decomposition,
    FilterBank,
    build_F_bar,
    decompose,
    eval_g,
    eval_g_deriv,
    left_limit_g,
)
from .linalg import expm
from .ltisim import (
    LtiSystem,
    PiecewiseConstantInput,
    SampledDataset,
    _augmented,
    simulate_sampled,
)


@dataclass(frozen=True)
class FilteredDataset:
    """Filtered state/input/derivative data plus quadrature error estimates."""

    x_f: np.ndarray  # (n, M)
    u_f: np.ndarray  # (m, M)
    x_df: np.ndarray  # (n, M)
    family: str
    rho: float
    T: float
    M: int
    quadrature_report: dict = field(default_factory=dict)

    def stacked(self) -> np.ndarray:
        return np.vstack([self.x_f, self.u_f])


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


def gauss_legendre_panels(a: float, b: float, panels: int, nodes: int = 16):
    """Nodes and weights of composite Gauss-Legendre on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ts = (half[:, None] * x[None, :] + mids[:, None]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


def quad_piece(f, a: float, b: float, panels: int | None = None, nodes: int = 16):
    """Composite Gauss-Legendre integral of a smooth (vector-valued) function.

    Returns (value, error_estimate) where the estimate is the difference
    against a run with doubled panel count.
    """
    if not a < b:
        raise ValidationError("require a < b")
    panels = DEFAULT_CONFIG.quad_panels if panels is None else panels

    def run(p):
        ts, ws = gauss_legendre_panels(a, b, p, nodes)
        samples = np.array([np.asarray(f(t), dtype=float) for t in ts])
        if not np.all(np.isfinite(samples)):
            raise ValidationError("non-finite integrand sample")
        return np.tensordot(ws, samples, axes=(0, 0))

    coarse = run(panels)
    fine = run(2 * panels)
    return fine, float(np.max(np.abs(fine - coarse)))


def filter_signal(
    bank: FilterBank,
    w,
    extra_splits=(),
    config: NumericConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Generic path of the filtering map: w_f[:, l-1] = int g_l w.

    ``w`` is evaluated pointwise; integration proceeds piecewise between
    consecutive breakpoints of g_l merged with any extra split times
    (e.g. input switches). Prefer filter_lti_dataset for the LTI pipeline.
    """
    w0 = np.atleast_1d(np.asarray(w(0.0), dtype=float))
    out = np.zeros((w0.size, bank.M))
    for ell in range(1, bank.M + 1):
        pts = set(np.round(bank.breakpoints(ell), 15))
        pts.update(s for s in extra_splits if bank.breakpoints(ell)[0] < s < bank.breakpoints(ell)[-1])
        pts = sorted(pts)
        total = np.zeros(w0.size)
        for a, b in zip(pts[:-1], pts[1:]):
            val, _ = quad_piece(
                lambda t: eval_g(bank, ell, t) * np.atleast_1d(np.asarray(w(t), dtype=float)),
                a,
                b,
                panels=config.quad_panels,
                nodes=config.quad_nodes,
            )
            total += val
        out[:, ell - 1] = total
    return out


def filtered_input_data(
    bank: FilterBank,
    inp: PiecewiseConstantInput,
    config: NumericConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """u_f exactly, as sum_j (int_{jT}^{(j+1)T} g_l) mu_j over the support."""
    _check_input(bank, inp)
    out = np.zeros((inp.m, bank.M))
    for ell in range(1, bank.M + 1):
        for j in bank.support_intervals(ell):
            val, _ = quad_piece(
                lambda t: eval_g(bank, ell, t),
                j * bank.T,
                (j + 1) * bank.T,
                panels=config.quad_panels,
                nodes=config.quad_nodes,
            )
            out[:, ell - 1] += float(val) * inp.levels[:, j]
    return out


def filtered_derivative_data(
    bank: FilterBank,
    state,
    config: NumericConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """x_df by integration by parts; ``state`` maps t in [0, N*T] to x(t).

    The state must be continuous (it is, for any trajectory of the plant),
    so x(t_j^-) = x(t_j) and only the filter's left limits matter.
    """
    x0 = np.atleast_1d(np.asarray(state(0.0), dtype=float))
    out = np.zeros((x0.size, bank.M))
    for ell in range(1, bank.M + 1):
        bps = bank.breakpoints(ell)
        total = np.zeros(x0.size)
        for a, b in zip(bps[:-1], bps[1:]):
            xa = np.atleast_1d(np.asarray(state(a), dtype=float))
            xb = np.atleast_1d(np.asarray(state(b), dtype=float))
            g_left = left_limit_g(bank, ell, b)
            g_right_of_a = eval_g(bank, ell, a)
            val, _ = quad_piece(
                lambda t: eval_g_deriv(bank, ell, t)
                * np.atleast_1d(np.asarray(state(t), dtype=float)),
                a,
                b,
                panels=config.quad_panels,
                nodes=config.quad_nodes,
            )
            total += g_left * xb - g_right_of_a * xa - val
        out[:, ell - 1] = total
    return out


def _node_propagators(sys: LtiSystem, T: float, panels: int, nodes: int):
    """(taus, ws, tops) for composite Gauss-Legendre quadrature on [0, T].

    tops[i] = [e^{A tau_i}, int_0^{tau_i} e^{A s} ds B], the top n rows of
    e^{M tau_i} with M = [[A, B], [0, 0]]. The nodes are tau = p h + c_i with
    h = T / panels, so by the semigroup property e^{M tau} = (e^{M h})^p e^{M c_i}:
    nodes + 1 exponentials and a chain of panel powers instead of one
    exponential per node. Rounding grows along the chain by up to
    ||e^{M h}||^p; the tests hold it within 1e-12 relative of per-node
    exponentials for stiff, unstable and random A up to ||A|| T = 20.
    """
    taus, ws = gauss_legendre_panels(0.0, T, panels, nodes)
    aug = _augmented(sys)
    local = np.array([expm(aug * c) for c in taus[:nodes]])
    powers = np.empty((panels, *aug.shape))
    powers[0] = np.eye(aug.shape[0])
    if panels > 1:
        powers[1] = expm(aug * (T / panels))
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(2, panels):
            powers[p] = powers[p - 1] @ powers[1]
        tops = np.matmul(powers[:, None, : sys.n], local[None])
    tops = tops.reshape(panels * nodes, sys.n, -1)
    if not np.all(np.isfinite(tops)):
        raise NumericalError("panel-power propagators overflowed (e^{A T} too large)")
    return taus, ws, tops


def _check_input(bank: FilterBank, inp: PiecewiseConstantInput) -> None:
    """The input must share the bank's sampling period and cover its horizon."""
    if abs(inp.T - bank.T) > 1e-12 * bank.T:
        raise ValidationError(
            f"input sampling period T={inp.T!r} differs from the filter bank's T={bank.T!r}"
        )
    if inp.N < bank.N:
        raise ValidationError("input shorter than the filter horizon")


def _interval_split(decomp: Decomposition):
    """(g(0), g(T^-), F_bar) of the split filter_lti_dataset computes with.

    This is the decomposition's own split except for lowpass, which takes
    g(tau) = e^{rho (tau - T)} and F_bar[j, l-1] = e^{rho (j + 1 - l) T} for
    j < l: every factor is at most 1, so nothing overflows or underflows
    into a wrong result at any rho T. The paper's split (g = e^{rho tau})
    carries e^{rho T} in G and e^{-rho T} in F_bar.
    """
    bank = decomp.bank
    if bank.family != "lowpass":
        g_0, g_end = decomp.g(np.array([0.0, bank.T]))
        return g_0, g_end, build_F_bar(decomp)
    rho_t = bank.rho * bank.T
    lag = np.subtract.outer(np.arange(bank.N), np.arange(bank.M))  # j + 1 - l
    return np.exp(-rho_t), 1.0, np.where(lag <= 0, np.exp(rho_t * np.minimum(lag, 0)), 0.0)


def _interval_moments(
    sys: LtiSystem,
    decomp: Decomposition,
    config: NumericConfig = DEFAULT_CONFIG,
):
    """Moments of the interval filter g against the augmented exponential.

    With M = [[A, B], [0, 0]], returns the pair (fine, coarse) of triples
    (G_x, G'_x, int g), where G_x is the top n rows of
    G = int_0^T g(tau) e^{M tau} dtau and G'_x the same with g'. The lower
    rows of G are [0, (int g) I]. g is the one of _interval_split: for
    lowpass e^{rho (tau - T)}, e^{-rho T} times the decomposition's g.

    lowpass takes one exponential of the Van Loan block
    [[-rho T I, I], [0, M T]], whose top-right block is
    int_0^1 e^{-rho T (1 - s)} e^{M T s} ds and cannot overflow; laguerre
    (g = c e^{-rho tau}) that of [[(M - rho I) T, I], [0, 0]], whose top-right
    block is int_0^1 e^{(M - rho I) T s} ds. Both have G' = alpha G with
    alpha = rho and -rho. poly_test, a quartic in u = 1 - tau/T, takes one
    exponential of the chain [[M T, I], [0, 0, I], ..., [0, 0]] with five
    identity blocks, whose top row holds
    H_k = int_0^1 e^{M T s} (1 - s)^k / k! ds for k = 0..4. These are exact
    up to rounding, so coarse is fine. bump_test has no closed form: fine and
    coarse are composite Gauss-Legendre at 2 * quad_panels and quad_panels.
    """
    bank = decomp.bank
    n, p = sys.n, sys.n + sys.m
    rho, T = bank.rho, bank.T
    if bank.family == "bump_test":

        def quadrature(panels: int):
            taus, ws, tops = _node_propagators(sys, T, panels, config.quad_nodes)
            wg = ws * decomp.g(taus)
            return (
                np.tensordot(wg, tops, axes=1),
                np.tensordot(ws * decomp.g_deriv(taus), tops, axes=1),
                float(np.sum(wg)),
            )

        return quadrature(2 * config.quad_panels), quadrature(config.quad_panels)
    aug = _augmented(sys)
    if bank.family == "poly_test":
        chain = np.eye(6 * p, k=p)
        chain[:p, :p] = aug * T
        h = expm(chain)[:p].reshape(p, 6, p)[:, 1:].transpose(1, 0, 2)
        # g = rho T^4 (u^2 - 2u^3 + u^4), g' = -rho T^3 (2u - 6u^2 + 4u^3)
        g_full = rho * T**5 * (2 * h[2] - 12 * h[3] + 24 * h[4])
        gd_full = -rho * T**4 * (2 * h[1] - 12 * h[2] + 24 * h[3])
    else:
        block = np.eye(2 * p, k=p)
        if bank.family == "lowpass":
            c, alpha = 1.0, rho
            block[:p, :p] = -rho * T * np.eye(p)
            block[p:, p:] = aug * T
        else:
            c, alpha = np.sqrt(2 * rho), -rho
            block[:p, :p] = (aug + alpha * np.eye(p)) * T
        g_full = c * T * expm(block)[:p, p:]
        gd_full = alpha * g_full
    exact = (g_full[:n], gd_full[:n], float(g_full[n, n]))
    return exact, exact


def filter_lti_dataset(
    sys: LtiSystem,
    inp: PiecewiseConstantInput,
    bank: FilterBank,
    config: NumericConfig = DEFAULT_CONFIG,
) -> FilteredDataset:
    """Full filtered dataset for an LTI trajectory, through the factorization.

    With S = [chi; mu] over the first N intervals, a split
    g_l(tau + jT) = g(tau) F_bar[j, l-1] of the filters,
    G = int_0^T g(tau) e^{[[A, B], [0, 0]] tau} dtau, G' the same with g',
    and G_x, G'_x their top n rows:

        [x_f; u_f] = G S F_bar
        x_df = (g(T^-) chi_{1..N} - g(0) chi_{0..N-1} - G'_x S) F_bar.

    The split is the decomposition's, except for lowpass, which moves the
    factor e^{-rho T} from F_bar into g so that it stays exact at any rho T
    (see _interval_split). quadrature_report holds |fine - coarse| per
    matrix: exact zeros for the closed-form families, the panel-doubling
    difference for bump_test. ``config`` (quad_panels, quad_nodes) only
    matters for bump_test. Requires N >= M and inp.T equal to bank.T.
    """
    decomp = decompose(bank)
    _check_input(bank, inp)
    g_0, g_end, f_bar = _interval_split(decomp)
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

    fine, coarse = (data(mom) for mom in _interval_moments(sys, decomp, config))
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


def lowpass_realization(
    rho: float,
    w,
    T: float,
    M: int,
    substeps: int = 1024,
) -> np.ndarray:
    """Realize low-pass filtering as the ODE dwf/dt = -rho wf + w, wf(0) = 0.

    RK4 on a step h = T/substeps aligned with the sampling grid, so input
    switches at multiples of T are never straddled. Returns wf(l*T) for
    l = 1..M as columns; these equal the quadrature-filtered values w_f_l.
    """
    h = T / substeps
    w0 = np.atleast_1d(np.asarray(w(0.0), dtype=float))
    wf = np.zeros_like(w0)
    out = np.empty((w0.size, M))
    for ell in range(M):
        for i in range(substeps):
            t = ell * T + i * h

            def f(y, tt):
                return -rho * y + np.atleast_1d(np.asarray(w(tt), dtype=float))

            k1 = f(wf, t)
            k2 = f(wf + 0.5 * h * k1, t + 0.5 * h)
            k3 = f(wf + 0.5 * h * k2, t + 0.5 * h)
            k4 = f(wf + h * k3, t + h)
            wf = wf + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, ell] = wf
    return out


def lowpass_derivative_identity(
    rho: float,
    w,
    T: float,
    ell: int,
    w_f_ell: np.ndarray,
) -> np.ndarray:
    """Derivative-free identity w_df_l = w(lT) - e^{-rho l T} w(0) - rho w_f_l."""
    w0 = np.atleast_1d(np.asarray(w(0.0), dtype=float))
    w_end = np.atleast_1d(np.asarray(w(ell * T), dtype=float))
    return w_end - np.exp(-rho * ell * T) * w0 - rho * np.asarray(w_f_ell, dtype=float)


def build_relation_matrices(
    sys: LtiSystem,
    decomp: Decomposition,
    config: NumericConfig = DEFAULT_CONFIG,
) -> RelationMatrices:
    """A_bar = int g(tau) e^{A tau}, B_bar = int g(tau) (int_0^tau e^{A s} B ds),
    G_bar = I * int g, F_bar from the decomposition. Verification path only
    (needs the ground-truth A, B)."""
    bank = decomp.bank
    taus, ws, tops = _node_propagators(sys, bank.T, config.quad_panels, config.quad_nodes)
    gv = np.atleast_1d(decomp.g(taus))
    g_top = np.tensordot(ws * gv, tops, axes=1)
    a_bar, b_bar = g_top[:, : sys.n], g_top[:, sys.n :]
    g_int = float(np.dot(ws, gv))
    return RelationMatrices(
        a_bar=a_bar,
        b_bar=b_bar,
        g_bar=g_int * np.eye(sys.m),
        f_bar=build_F_bar(decomp),
    )


def factorization_residual(
    fd: FilteredDataset, sd: SampledDataset, rel: RelationMatrices
) -> float:
    """Relative Frobenius residual of [x_f; u_f] = C_bar [chi; mu] F_bar."""
    lhs = fd.stacked()
    rhs = rel.c_bar @ sd.stacked() @ rel.f_bar
    denom = max(np.linalg.norm(lhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / denom)


def verify_algebraic(fd: FilteredDataset, sys: LtiSystem) -> float:
    """Frobenius norm of x_df - A x_f - B u_f (zero for exact data)."""
    return float(np.linalg.norm(fd.x_df - sys.a @ fd.x_f - sys.b @ fd.u_f))
