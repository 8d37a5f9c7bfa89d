"""Independent oracles for the production paths, kept for checks only.

Nothing in the package imports this module, and ``import ctsid`` does not
load it. Each oracle reaches its result by a route the production code does
not take:

- quad_piece, filter_signal, filtered_input_data, filtered_derivative_data:
  pointwise composite Gauss-Legendre quadrature of g_l times a signal over
  the filters' smooth pieces (the production path, filter_lti_dataset, goes
  through the sampled-data factorization);
- lowpass_realization, lowpass_derivative_identity: low-pass filtering as
  the ODE dwf/dt = -rho wf + w integrated by RK4, and its derivative-free
  identity;
- rk4_oracle: classical RK4 integration of the plant, against the exact
  matrix-exponential simulation.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .filtering import _check_input
from .filters import FilterBank, eval_g, eval_g_deriv, left_limit_g
from .ltisim import LtiSystem, PiecewiseConstantInput, Trajectory, gauss_legendre_panels


def quad_piece(f, a: float, b: float, panels: int = 8, nodes: int = 16):
    """Composite Gauss-Legendre integral of a smooth (vector-valued) function.

    Returns (value, error_estimate) where the estimate is the difference
    against a run with doubled panel count.
    """
    if not a < b:
        raise ValidationError("require a < b")

    def run(p):
        ts, ws = gauss_legendre_panels(a, b, p, nodes)
        samples = np.array([np.asarray(f(t), dtype=float) for t in ts])
        if not np.all(np.isfinite(samples)):
            raise ValidationError("non-finite integrand sample")
        return np.tensordot(ws, samples, axes=(0, 0))

    coarse = run(panels)
    fine = run(2 * panels)
    return fine, float(np.max(np.abs(fine - coarse)))


def filter_signal(bank: FilterBank, w, extra_splits=()) -> np.ndarray:
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
                panels=bank._panels,
            )
            total += val
        out[:, ell - 1] = total
    return out


def filtered_input_data(bank: FilterBank, inp: PiecewiseConstantInput) -> np.ndarray:
    """u_f exactly, as sum_j (int_{jT}^{(j+1)T} g_l) mu_j over the support."""
    _check_input(bank, inp)
    out = np.zeros((inp.m, bank.M))
    for ell in range(1, bank.M + 1):
        for j in bank.support_intervals(ell):
            val, _ = quad_piece(
                lambda t: eval_g(bank, ell, t),
                j * bank.T,
                (j + 1) * bank.T,
                panels=bank._panels,
            )
            out[:, ell - 1] += float(val) * inp.levels[:, j]
    return out


def filtered_derivative_data(bank: FilterBank, state) -> np.ndarray:
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
                panels=bank._panels,
            )
            total += g_left * xb - g_right_of_a * xa - val
        out[:, ell - 1] = total
    return out


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


def rk4_oracle(
    sys: LtiSystem, inp: PiecewiseConstantInput, h: float | None = None
) -> Trajectory:
    """Classical RK4 with step h (T/4096 by default), never across an input switch.

    Independent of the matrix-exponential path; used only to cross-check it.
    """
    h = inp.T / 4096 if h is None else h
    if h <= 0:
        raise ValidationError("h must be positive")
    steps = inp.T / h
    if abs(steps - round(steps)) > 1e-9:
        raise ValidationError("h must divide T")
    steps = int(round(steps))
    a, b = sys.a, sys.b
    times = [0.0]
    states = [sys.x0.copy()]
    x = sys.x0.copy()
    for k in range(inp.N):
        u = inp.levels[:, k]
        bu = b @ u

        def f(y):
            return a @ y + bu

        for i in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            times.append(k * inp.T + (i + 1) * h)
            states.append(x.copy())
    return Trajectory(times=np.array(times), states=np.array(states).T)
