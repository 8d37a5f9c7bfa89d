"""Continuous-time LTI plant, exact zero-order-hold discretization, exact
intra-interval state evaluation and the pathological-sampling check.

States under a piecewise-constant input evolve exactly as

    x(kT + tau) = e^{A tau} chi_k + (int_0^tau e^{A s} ds) B mu_k,

so everything here reduces to matrix exponentials of the augmented matrix
[[A, B], [0, 0]], never to approximate ODE integration (the RK4 cross-check
lives in ctsid.oracles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, NumericConfig
from .errors import ValidationError
from .linalg import expm


@dataclass(frozen=True)
class LtiSystem:
    """Ground-truth continuous-time plant dx/dt = A x + B u, x(0) = x0."""

    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if a.shape[0] != a.shape[1]:
            raise ValidationError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValidationError("B row count must match A")
        if x0.shape[0] != a.shape[0]:
            raise ValidationError("x0 length must match A")
        for arr in (a, b, x0):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("system matrices must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class PiecewiseConstantInput:
    """Sampling period T and levels mu_0 ... mu_{N-1}; u(t + kT) = mu_k."""

    T: float
    levels: np.ndarray  # (m, N)

    def __post_init__(self):
        if self.T <= 0:
            raise ValidationError("T must be positive")
        lv = np.atleast_2d(np.asarray(self.levels, dtype=float))
        if lv.size == 0 or not np.all(np.isfinite(lv)):
            raise ValidationError("input levels must be nonempty and finite")
        object.__setattr__(self, "levels", lv)

    @property
    def m(self) -> int:
        return self.levels.shape[0]

    @property
    def N(self) -> int:
        return self.levels.shape[1]

    @property
    def horizon(self) -> float:
        return self.N * self.T

    def interval_of(self, t: float) -> int:
        if t < 0 or t >= self.horizon:
            raise ValidationError(f"t={t} outside [0, {self.horizon})")
        # snap times that sit a rounding error below a switch instant
        k = int(np.floor(t / self.T + 1e-12))
        return min(k, self.N - 1)

    def value_at(self, t: float) -> np.ndarray:
        return self.levels[:, self.interval_of(t)]


@dataclass(frozen=True)
class DiscreteSystem:
    """Exact ZOH discretization: chi_{k+1} = A_T chi_k + B_T mu_k."""

    a_t: np.ndarray
    b_t: np.ndarray
    T: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n, len(times))
    input_ref: PiecewiseConstantInput

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly increasing")
        if x.shape[1] != t.shape[0]:
            raise ValidationError("states/times length mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)


@dataclass(frozen=True)
class SampledDataset:
    """State samples chi_0..chi_{N-1} and inputs mu_0..mu_{N-1}.

    chi_final holds the state at t = N*T (one past the last input sample);
    chi_all stacks it next to chi for displays spanning N+1 states.
    """

    chi: np.ndarray  # (n, N)
    mu: np.ndarray  # (m, N)
    T: float
    chi_final: np.ndarray | None = None

    def __post_init__(self):
        chi = np.atleast_2d(np.asarray(self.chi, dtype=float))
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        if chi.shape[1] != mu.shape[1]:
            raise ValidationError("chi and mu must have the same column count")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mu", mu)
        if self.chi_final is not None:
            object.__setattr__(
                self, "chi_final", np.asarray(self.chi_final, dtype=float).reshape(-1)
            )

    @property
    def N(self) -> int:
        return self.chi.shape[1]

    @property
    def chi_all(self) -> np.ndarray:
        if self.chi_final is None:
            return self.chi
        return np.hstack([self.chi, self.chi_final[:, None]])

    def stacked(self) -> np.ndarray:
        return np.vstack([self.chi, self.mu])


def _augmented(sys: LtiSystem) -> np.ndarray:
    n, m = sys.n, sys.m
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = sys.a
    aug[:n, n:] = sys.b
    return aug


def transition(sys: LtiSystem, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{A tau}, int_0^tau e^{A s} ds B) via the augmented exponential."""
    n = sys.n
    e = expm(_augmented(sys) * tau)
    return e[:n, :n], e[:n, n:]


def discretize(sys: LtiSystem, T: float) -> DiscreteSystem:
    """Exact ZOH discretization A_T = e^{AT}, B_T = int_0^T e^{At} B dt."""
    if T <= 0:
        raise ValidationError("T must be positive")
    a_t, b_t = transition(sys, T)
    return DiscreteSystem(a_t=a_t, b_t=b_t, T=T)


def step(dsys: DiscreteSystem, chi_k, mu_k) -> np.ndarray:
    chi_k = np.asarray(chi_k, dtype=float).reshape(-1)
    mu_k = np.asarray(mu_k, dtype=float).reshape(-1)
    if chi_k.shape[0] != dsys.a_t.shape[0] or mu_k.shape[0] != dsys.b_t.shape[1]:
        raise ValidationError("dimension mismatch in step")
    return dsys.a_t @ chi_k + dsys.b_t @ mu_k


def simulate_sampled(sys: LtiSystem, inp: PiecewiseConstantInput) -> SampledDataset:
    """Propagate chi_0 = x0 through all N periods; exact at sampling instants."""
    dsys = discretize(sys, inp.T)
    states = np.empty((sys.n, inp.N + 1))
    states[:, 0] = sys.x0
    for k in range(inp.N):
        states[:, k + 1] = step(dsys, states[:, k], inp.levels[:, k])
    return SampledDataset(
        chi=states[:, : inp.N], mu=inp.levels, T=inp.T, chi_final=states[:, inp.N]
    )


def state_at(sys: LtiSystem, inp: PiecewiseConstantInput, t: float) -> np.ndarray:
    """Exact state at an arbitrary time in [0, N*T)."""
    k = inp.interval_of(t)
    tau = t - k * inp.T
    chi = simulate_sampled(sys, inp).chi_all
    if tau == 0.0:
        return chi[:, k].copy()
    e_a, h_b = transition(sys, tau)
    return e_a @ chi[:, k] + h_b @ inp.levels[:, k]


def dense_trajectory(sys: LtiSystem, inp: PiecewiseConstantInput, grid) -> Trajectory:
    """Exact states on a strictly increasing grid inside [0, N*T)."""
    grid = np.asarray(grid, dtype=float)
    chi = simulate_sampled(sys, inp).chi_all
    out = np.empty((sys.n, grid.size))
    for i, t in enumerate(grid):
        k = inp.interval_of(t)
        tau = t - k * inp.T
        if tau == 0.0:
            out[:, i] = chi[:, k]
        else:
            e_a, h_b = transition(sys, tau)
            out[:, i] = e_a @ chi[:, k] + h_b @ inp.levels[:, k]
    return Trajectory(times=grid, states=out, input_ref=inp)


def state_fn(sys: LtiSystem, inp: PiecewiseConstantInput):
    """Fast pointwise state evaluator on [0, N*T].

    Propagators are memoized per interval offset, so evaluation grids whose
    offsets repeat across sampling intervals (quadrature nodes, fixed-step
    integrators) cost one augmented exponential per unique offset. The
    closed endpoint t = N*T is allowed and returns the final sample.
    """
    chi = simulate_sampled(sys, inp).chi_all
    memo: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def f(t: float) -> np.ndarray:
        if t == inp.horizon:
            return chi[:, -1].copy()
        k = inp.interval_of(t)
        tau = t - k * inp.T
        if tau == 0.0:
            return chi[:, k].copy()
        key = round(tau, 14)
        if key not in memo:
            memo[key] = transition(sys, tau)
        e_a, h_b = memo[key]
        return e_a @ chi[:, k] + h_b @ inp.levels[:, k]

    return f


def check_nonpathological(
    sys: LtiSystem,
    T: float,
    q_max: int | None = None,
    tol: float | None = None,
) -> tuple[bool, list[tuple[int, int, int]]]:
    """Test the sampling time against the eigenvalue-difference condition.

    Flags eigenvalue pairs (j, l) whose difference comes within ``tol`` of a
    nonzero integer multiple of 2*pi*i/T; such T destroy controllability of
    the discretized pair. Returns (ok, offending (j, l, q) list). Requires
    the ground-truth A, so this is a verification-path check only.
    """
    if T <= 0:
        raise ValidationError("T must be positive")
    q_max = DEFAULT_CONFIG.pathological_q_max if q_max is None else q_max
    if q_max < 1:
        raise ValidationError("q_max must be >= 1")
    base = 2.0 * np.pi / T
    tol = 1e-9 * base if tol is None else tol
    lam = np.linalg.eigvals(sys.a)
    offending: list[tuple[int, int, int]] = []
    for j in range(sys.n):
        for l in range(sys.n):
            if j == l:
                continue
            diff = lam[j] - lam[l]
            for q in range(1, q_max + 1):
                if abs(diff - 1j * q * base) < tol or abs(diff + 1j * q * base) < tol:
                    offending.append((j, l, q))
    return (len(offending) == 0), offending
