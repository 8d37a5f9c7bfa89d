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

All four decompose as g_l(tau + jT) = g(tau) c(j - l + 1) with a lag
coefficient c, and F_bar[j, l-1] = c(j - l + 1). Each family is one _Spec
in _SPECS, the only place its formulas live, from which all else derives:
g and g' on [0, T] (g(T) is the left limit g(T^-)), c, the lags where c can
be nonzero, the scale s of the paper's split (decompose: g = s g_spec,
f_l(jT) = c(d) / s), the moments G = int_0^T g(tau) e^{M tau} dtau and
G' (with g') for M = [[A, B], [0, 0]], and the e-folds g makes over [0, T],
from which FilterBank._panels takes the panel count of every quadrature of g.

The spec's split keeps every factor in floating-point range: lowpass
g(tau) = e^{rho (tau - T)} with c(d) = e^{rho d T} <= 1, bump_test g(0) = 1
with c(0) = e^{-rho}. The moments are closed-form (Van Loan, IEEE TAC 23
(1978)) but for bump_test, which filtering integrates by Gauss-Legendre.
lowpass and laguerre share one form, g = a e^{alpha (tau - tau_0)} peaking
at tau_0, with G' = alpha G. Its Van Loan block follows the peak so that no
exponent grows: for tau_0 = T (lowpass) the top-right block of
exp([[-alpha T I, I], [0, M T]]) is int_0^1 e^{-alpha T (1 - s)} e^{M T s} ds,
a decaying weight on the plant's exponential, finite at any rho T; for
tau_0 = 0 (laguerre) that of exp([[(M + alpha I) T, I], [0, 0]]) is
int_0^1 e^{(M + alpha I) T s} ds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .linalg import expm


@dataclass(frozen=True)
class _Spec:
    """One family on one sampling interval; (rho, T) are the first arguments."""

    g: Callable  # (rho, T, tau) -> g(tau) for tau in [0, T]; g(T) is g(T^-)
    g_deriv: Callable  # (rho, T, tau) -> g'(tau)
    c: Callable  # (rho, T, d) -> c(d) for lags d in the range below
    lags: tuple[float, float]  # c(d) can be nonzero only for lags[0] <= d <= lags[1]
    scale: Callable  # (rho, T) -> s; the paper's split is g = s g_spec, f = c / s
    moments: Callable | None  # (aug, rho, T) -> (G, G'); None: Gauss-Legendre of g and g'
    rate: Callable  # (rho, T) -> the e-folds g makes over [0, T], which set the panel count


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


def _poly_moments(aug, rho, T):
    """g = rho T^4 (u^2 - 2u^3 + u^4) and g' = -rho T^3 (2u - 6u^2 + 4u^3) in
    u = 1 - tau/T. One exponential of the chain [[M T, I], [0, 0, I], ..., [0, 0]]
    with five identity blocks holds H_k = int_0^1 e^{M T s} (1 - s)^k / k! ds,
    k = 0..4, in its top row."""
    p = aug.shape[0]
    chain = np.eye(6 * p, k=p)
    chain[:p, :p] = aug * T
    h = expm(chain)[:p].reshape(p, 6, p)[:, 1:].transpose(1, 0, 2)
    return (rho * T**5 * (2 * h[2] - 12 * h[3] + 24 * h[4]),
            -rho * T**4 * (2 * h[1] - 12 * h[2] + 24 * h[3]))


def _exponential(amplitude: Callable, sign: int) -> _Spec:
    """g = a e^{alpha (tau - tau_0)} with a = amplitude(rho) and alpha = sign rho,
    peaking at tau_0 = T when it grows and at tau_0 = 0 when it decays; the
    paper's g is a e^{alpha tau}, so s = e^{alpha tau_0}."""
    grows = sign > 0

    def tau_0(T):
        return T if grows else 0.0

    def exp(rho, T, tau):
        return np.exp(sign * rho * (tau - tau_0(T)))

    def moments(aug, rho, T):
        alpha, p = sign * rho, aug.shape[0]
        block = np.eye(2 * p, k=p)
        if grows:
            block[:p, :p] = -alpha * T * np.eye(p)
            block[p:, p:] = aug * T
        else:
            block[:p, :p] = (aug + alpha * np.eye(p)) * T
        g_full = amplitude(rho) * T * expm(block)[:p, p:]
        return g_full, alpha * g_full

    return _Spec(
        g=lambda rho, T, tau: amplitude(rho) * exp(rho, T, tau),
        g_deriv=lambda rho, T, tau: sign * rho * amplitude(rho) * exp(rho, T, tau),
        c=lambda rho, T, d: np.exp(sign * rho * T * d),
        lags=(-math.inf, 0) if grows else (0, math.inf),
        scale=lambda rho, T: np.exp(sign * rho * tau_0(T)),
        moments=moments,
        rate=lambda rho, T: rho * T,
    )


_SPECS = {
    "poly_test": _Spec(
        g=lambda rho, T, tau: rho * tau**2 * (T - tau) ** 2,
        g_deriv=lambda rho, T, tau: rho * (2 * tau * (T - tau) ** 2 - 2 * tau**2 * (T - tau)),
        c=lambda rho, T, d: np.ones(np.shape(d)),
        lags=(0, 0),
        scale=lambda rho, T: 1.0,
        moments=_poly_moments,
        rate=lambda rho, T: 0.0,
    ),
    "bump_test": _Spec(
        g=_bump_g,
        g_deriv=_bump_g_deriv,
        c=lambda rho, T, d: np.exp(-rho) * np.ones(np.shape(d)),
        lags=(0, 0),
        scale=lambda rho, T: np.exp(-rho),
        moments=None,
        rate=lambda rho, T: 0.0,
    ),
    "laguerre": _exponential(lambda rho: np.sqrt(2 * rho), -1),
    "lowpass": _exponential(lambda rho: 1.0, 1),
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
        if self.family not in _SPECS:
            raise ValidationError(f"unknown filter family {self.family!r}")
        if not (0 < self.rho < math.inf and 0 < self.T < math.inf):  # nan fails too
            raise ValidationError("rho and T must be finite and positive")
        if not (isinstance(self.M, (int, np.integer)) and isinstance(self.N, (int, np.integer))
                and min(self.M, self.N) >= 1):
            raise ValidationError("M and N must be integers >= 1")

    @property
    def horizon(self) -> float:
        return self.N * self.T

    @property
    def _spec(self) -> _Spec:
        return _SPECS[self.family]

    @property
    def _panels(self) -> int:
        """Gauss-Legendre panels (16 nodes each) per sampling interval for
        quadrature of g: the fewest 8 * 2^k that keep each panel within 16
        e-folds of g, at most 1024."""
        rate, panels = self._spec.rate(self.rho, self.T), 8
        while rate > 16 * panels and panels < 1024:
            panels *= 2
        return panels

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

    @functools.lru_cache(maxsize=8)  # the last 8 bank values, 8 KB each at N = M = 32
    def _lag_matrix(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Read-only N x M matrix c(j - l + 1) of the spec's split, j = 0..N-1,
        l = 1..M, its smallest column maximum and the spec's [g(0), g(T^-)];
        once per bank value."""
        f = self._coef(np.arange(1, self.M + 1), np.arange(self.N)[:, None])
        ends = self._spec.g(self.rho, self.T, np.array([0.0, self.T]))
        for arr in (f, ends):
            arr.setflags(write=False)
        return f, float(f.max(axis=0).min()), ends

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
    return float(bank._coef(ell, j - 1)) * float(bank._lag_matrix()[2][1])


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
    return decomp.bank._lag_matrix()[0] / decomp._scale
