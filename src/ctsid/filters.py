"""Filter-function families for producing filtered data.

Four concrete families are shipped, all parameterized by a gain rho > 0 and
the sampling period T, with M filters over the horizon N*T:

  poly_test  : rho * (t - (l-1)T)^2 * (lT - t)^2     on [(l-1)T, lT)
  bump_test  : exp(-rho T^2 / (T^2 - (t-(l-1)T)^2))  on [(l-1)T, lT)
  laguerre   : sqrt(2 rho) * exp(rho((l-1)T - t))    on [(l-1)T, N*T)
  lowpass    : exp(rho (t - lT))                     on [0, lT)

Each g_l is continuously differentiable between consecutive multiples of T
inside its support and has a finite left limit at every breakpoint, which
is exactly what the integration-by-parts formula for derivative-free
filtered data needs.

All four families decompose as g_l(tau + jT) = g(tau) * f_l(jT), and f_l(jT)
depends only on the lag d = j - (l - 1). Each family is written once, as a
private _Spec: g and g' on [0, T), the left limit g(T^-), the lag
coefficient c(d) and the range of lags where c can be nonzero. Every
function below derives from it: g_l(jT + tau) = g(tau) c(j - l + 1) and
F_bar[j, l-1] = c(j - l + 1).

A spec takes the split that keeps every factor in floating-point range:
lowpass g(tau) = e^{rho (tau - T)} with c(d) = e^{rho d T} <= 1, bump_test
g(0) = 1 with c(0) = e^{-rho}. decompose returns the paper's split,
g = s * g_spec and f_l(jT) = c(d) / s, with one scalar s per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class _Spec:
    """One family on one sampling interval; (rho, T) are the first arguments."""

    g: Callable  # (rho, T, tau) -> g(tau) for tau in [0, T)
    g_deriv: Callable  # (rho, T, tau) -> g'(tau)
    g_end: Callable  # (rho, T) -> g(T^-)
    c: Callable  # (rho, T, d) -> c(d) for lags d in the range below
    lags: tuple[float, float]  # c(d) can be nonzero only for lags[0] <= d <= lags[1]
    scale: Callable  # (rho, T) -> s; the paper's split is g = s g_spec, f = c / s


def _bump_g(rho, T, tau):
    # exp(-rho T^2 / (T^2 - tau^2)) = e^{-rho} exp(-rho tau^2 / (T^2 - tau^2)); 0 at tau = T.
    # (T - tau)(T + tau) keeps full relative accuracy near tau = T, where T^2 - tau^2 cancels.
    with np.errstate(divide="ignore"):
        return np.exp(-rho * tau**2 / ((T - tau) * (T + tau)))


def _bump_g_deriv(rho, T, tau):
    g = _bump_g(rho, T, tau)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chain = -2 * rho * T * T * tau / ((T - tau) * (T + tau)) ** 2
    return np.where(g > 0, g * chain, 0.0)


def _ones(rho, T, d):
    return np.ones(np.shape(d))


_SPECS = {
    "poly_test": _Spec(
        g=lambda rho, T, tau: rho * tau**2 * (T - tau) ** 2,
        g_deriv=lambda rho, T, tau: rho * (2 * tau * (T - tau) ** 2 - 2 * tau**2 * (T - tau)),
        g_end=lambda rho, T: 0.0,
        c=_ones,
        lags=(0, 0),
        scale=lambda rho, T: 1.0,
    ),
    "bump_test": _Spec(
        g=_bump_g,
        g_deriv=_bump_g_deriv,
        g_end=lambda rho, T: 0.0,
        c=lambda rho, T, d: np.exp(-rho) * _ones(rho, T, d),
        lags=(0, 0),
        scale=lambda rho, T: np.exp(-rho),
    ),
    "laguerre": _Spec(
        g=lambda rho, T, tau: np.sqrt(2 * rho) * np.exp(-rho * tau),
        g_deriv=lambda rho, T, tau: -rho * np.sqrt(2 * rho) * np.exp(-rho * tau),
        g_end=lambda rho, T: np.sqrt(2 * rho) * np.exp(-rho * T),
        c=lambda rho, T, d: np.exp(-rho * T * d),
        lags=(0, math.inf),
        scale=lambda rho, T: 1.0,
    ),
    "lowpass": _Spec(
        g=lambda rho, T, tau: np.exp(rho * (tau - T)),
        g_deriv=lambda rho, T, tau: rho * np.exp(rho * (tau - T)),
        g_end=lambda rho, T: 1.0,
        c=lambda rho, T, d: np.exp(rho * T * d),
        lags=(-math.inf, 0),
        scale=lambda rho, T: np.exp(rho * T),
    ),
}

FAMILIES = tuple(_SPECS)


@dataclass(frozen=True)
class FilterBank:
    """M filter functions g_1..g_M of one family on the horizon [0, N*T)."""

    family: str
    rho: float
    T: float
    M: int
    N: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown filter family {self.family!r}")
        if self.rho <= 0 or self.T <= 0:
            raise ValidationError("rho and T must be positive")
        if self.M < 1 or self.N < 1:
            raise ValidationError("M and N must be >= 1")

    @property
    def horizon(self) -> float:
        return self.N * self.T

    @property
    def _spec(self) -> _Spec:
        return _SPECS[self.family]

    def support_intervals(self, ell: int) -> range:
        """Indices j such that [jT, (j+1)T) lies inside supp(g_ell)."""
        self._check_ell(ell)
        lo, hi = self._spec.lags
        return range(max(0, ell - 1 + lo), min(self.N, ell + hi))

    def breakpoints(self, ell: int) -> np.ndarray:
        """Multiples of T bounding the smooth pieces of g_ell, support edges included."""
        j = self.support_intervals(ell)
        return np.arange(j.start, j.stop + 1) * self.T

    def _check_ell(self, ell: int):
        if not 1 <= ell <= self.M:
            raise ValidationError(f"filter index {ell} outside 1..{self.M}")

    def _coef(self, ell, j) -> np.ndarray:
        """c(j - ell + 1) for interval indices j >= 0, zero outside the lag range."""
        lo, hi = self._spec.lags
        d = j - (ell - 1)
        inside = (j >= 0) & (d >= lo) & (d <= hi)
        return np.where(inside, self._spec.c(self.rho, self.T, np.where(inside, d, 0)), 0.0)

    def _lag_matrix(self) -> np.ndarray:
        """N x M matrix c(j - l + 1) of the spec's split, j = 0..N-1, l = 1..M."""
        return self._coef(np.arange(1, self.M + 1), np.arange(self.N)[:, None])

    def _require_n_ge_m(self, N: int) -> None:
        if N < self.M:
            raise ValidationError(f"decomposition requires N >= M (N={N}, M={self.M})")


def make_filter_bank(
    family: str, rho: float, T: float, M: int, N: int
) -> FilterBank:
    return FilterBank(family=family, rho=rho, T=T, M=M, N=N)


def _interval_index(t: np.ndarray, T: float) -> np.ndarray:
    """j with j*T <= t < (j+1)*T, computed with the same products j*T as the breakpoints."""
    j = np.floor(t / T)
    j -= t < j * T
    j += t >= (j + 1) * T
    return j


def _on_pieces(bank: FilterBank, ell: int, t, piece: Callable):
    """piece(rho, T, tau) * c(j - ell + 1) at t = jT + tau in [0, N*T)."""
    bank._check_ell(ell)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < 0) or np.any(t_arr >= bank.horizon):
        raise ValidationError("t outside [0, N*T)")
    j = _interval_index(t_arr, bank.T)
    coef = bank._coef(ell, j)
    tau = np.clip(t_arr - j * bank.T, 0.0, bank.T)  # the subtraction may round past T
    out = np.where(coef != 0, piece(bank.rho, bank.T, tau) * coef, 0.0)
    return float(out[0]) if scalar else out


def eval_g(bank: FilterBank, ell: int, t) -> np.ndarray | float:
    """Closed-form value of g_ell at time(s) t in [0, N*T)."""
    return _on_pieces(bank, ell, t, bank._spec.g)


def eval_g_deriv(bank: FilterBank, ell: int, t) -> np.ndarray | float:
    """Analytic derivative of g_ell on its smooth pieces.

    At a breakpoint the right-sided derivative is returned, matching the
    half-open pieces [t_{j-1}, t_j) the filters are defined on.
    """
    return _on_pieces(bank, ell, t, bank._spec.g_deriv)


def left_limit_g(bank: FilterBank, ell: int, t_j: float) -> float:
    """Left limit g_ell(t_j^-) at a breakpoint t_j (a positive multiple of T)."""
    bank._check_ell(ell)
    j = t_j / bank.T
    if t_j <= 0 or t_j > bank.horizon + 1e-12 or abs(j - round(j)) > 1e-9:
        raise ValidationError(f"{t_j} is not a breakpoint")
    j = int(round(j))
    # the piece ending at t_j is interval j - 1
    return float(bank._coef(ell, j - 1)) * float(bank._spec.g_end(bank.rho, bank.T))


@dataclass(frozen=True)
class Decomposition:
    """The paper's pair (g, f_l) with g_l(tau + jT) = g(tau) f_l(jT).

    g is nonnegative on [0, T) with positive integral; f_l is evaluated on
    the sampling grid jT when assembling F_bar.
    """

    bank: FilterBank

    @property
    def _scale(self) -> float:
        return self.bank._spec.scale(self.bank.rho, self.bank.T)

    def g(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self._scale * self.bank._spec.g(self.bank.rho, self.bank.T, tau)

    def g_deriv(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self._scale * self.bank._spec.g_deriv(self.bank.rho, self.bank.T, tau)

    def f(self, ell: int, t) -> np.ndarray:
        """f_ell(jT) at grid times t = jT."""
        j = _interval_index(np.asarray(t, dtype=float), self.bank.T)
        return self.bank._coef(ell, j) / self._scale


def decompose(bank: FilterBank, N: int | None = None) -> Decomposition:
    """The (g, f_l) pair with g_l(tau + jT) = g(tau) f_l(jT); needs N >= M."""
    bank._require_n_ge_m(bank.N if N is None else N)
    return Decomposition(bank=bank)


def build_F_bar(decomp: Decomposition) -> np.ndarray:
    """N x M matrix with entry (j, l) = f_l(jT), j = 0..N-1, l = 1..M."""
    return decomp.bank._lag_matrix() / decomp._scale
