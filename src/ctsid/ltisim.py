"""Continuous-time LTI plant, its exact zero-order-hold propagator and the
pathological-sampling check.

States under a piecewise-constant input evolve exactly as

    x(kT + tau) = e^{A tau} chi_k + (int_0^tau e^{A s} ds) B mu_k,

the top n rows of e^{M tau}, M = [[A, B], [0, 0]], applied to [chi_k; mu_k].
discretize(sys, T) returns the one DiscreteSystem per value of (A, B, T)
that evaluates this map: the sampled step (A_T, B_T), the map at any
offsets and at Gauss-Legendre nodes. Simulation, design, filtering and
verification all go through it, never through approximate ODE integration
(the RK4 cross-check lives in ctsid.oracles).

What a job would repeat is memoized as read-only arrays: the propagator per
value of (A, B, T), in a module-level LRU of _PROPAGATORS_KEPT entries, so
every LtiSystem of one plant shares it; the sampled trajectory per (system,
input); and the Gauss-Legendre rule per node count.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import expm


@dataclass(frozen=True)
class LtiSystem:
    """Ground-truth continuous-time plant dx/dt = A x + B u, x(0) = x0, with
    read-only float64 copies of a, b and x0: equal bytes of a and b mean the
    same plant, which is what discretize keys its memo on."""

    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.a, dtype=float))
        b = np.atleast_2d(np.array(self.b, dtype=float))
        x0 = np.array(self.x0, dtype=float).reshape(-1)
        if a.shape[0] != a.shape[1]:
            raise ValidationError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValidationError("B row count must match A")
        if x0.shape[0] != a.shape[0]:
            raise ValidationError("x0 length must match A")
        for name, arr in (("a", a), ("b", b), ("x0", x0)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("system matrices must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class PiecewiseConstantInput:
    """Sampling period T and levels mu_0 ... mu_{N-1}; u(t + kT) = mu_k.

    Holds a read-only copy of levels and simulate_sampled's last (system,
    dataset): one slot, so simulating on many systems keeps one alive.
    """

    T: float
    levels: np.ndarray  # (m, N)
    _sampled: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise ValidationError("T must be positive")
        lv = np.atleast_2d(np.array(self.levels, dtype=float))
        if lv.size == 0 or not np.all(np.isfinite(lv)):
            raise ValidationError("input levels must be nonempty and finite")
        lv.setflags(write=False)
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


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """The exact ZOH propagator of one (A, B, T); discretize builds it.

    aug is M = [[A, B], [0, 0]] and n the state dimension. a_t = e^{AT} and
    b_t = int_0^T e^{At} B dt give the sampled step
    chi_{k+1} = A_T chi_k + B_T mu_k; at and nodes give the top n rows of
    e^{M tau} inside an interval. discretize shares one instance per value
    of (A, B, T), so every array it keeps is read-only. It holds no reference
    to a system, so the memo keeps no system alive. _moments holds the filter
    moments of ctsid.filtering, per (family, rho, quad_panels, quad_nodes).
    """

    aug: np.ndarray
    n: int
    T: float
    a_t: np.ndarray
    b_t: np.ndarray
    _nodes: dict = field(default_factory=dict, init=False, repr=False)
    _moments: dict = field(default_factory=dict, init=False, repr=False)

    def at(self, offsets) -> np.ndarray:
        """Top n rows of e^{M tau} per offset, shape (len(offsets), n, n + m).

        One batched exponential over the distinct offsets; e^0 is exactly I,
        so tau = 0 gives exactly [I, 0].
        """
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        distinct, index = np.unique(offsets, return_inverse=True)
        return expm(self.aug * distinct[:, None, None])[index, : self.n]

    def nodes(self, panels: int, nodes: int):
        """(taus, ws, tops) of composite Gauss-Legendre quadrature on [0, T].

        tops[i] is at(taus[i])[0]. The nodes are tau = p h + c_i with
        h = T / panels, so by the semigroup property
        e^{M tau} = (e^{M h})^p e^{M c_i}: one batched exponential of the
        first panel's nodes and h, then a chain of panel powers. Rounding
        grows along the chain by up to ||e^{M h}||^p; the tests hold it
        within 1e-12 relative of per-node exponentials for stiff, unstable
        and random A up to ||A|| T = 20. Memoized per (panels, nodes).
        """
        if (panels, nodes) in self._nodes:
            return self._nodes[panels, nodes]
        taus, ws = gauss_legendre_panels(0.0, self.T, panels, nodes)
        aug, n = self.aug, self.n
        local = expm(aug * np.append(taus[:nodes], self.T / panels)[:, None, None])
        local, step = local[:nodes], local[nodes]
        powers = [np.eye(aug.shape[0])]
        with np.errstate(over="ignore", invalid="ignore"):
            while len(powers) < panels:
                powers.append(powers[-1] @ step)
            tops = np.matmul(np.array(powers)[:, None, :n], local[None])
        tops = tops.reshape(panels * nodes, n, -1)
        if not np.all(np.isfinite(tops)):
            raise NumericalError("panel-power propagators overflowed (e^{A T} too large)")
        for arr in (taus, ws, tops):
            arr.setflags(write=False)
        self._nodes[panels, nodes] = taus, ws, tops
        return taus, ws, tops


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n, len(times))

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

    The dataset owns one read-only copy of [chi; mu], which stacked()
    returns; chi and mu are views of it. chi_final holds the state at
    t = N*T (one past the last input sample); chi_all, built once, spans the
    N+1 states, and chi_final is a view of its last column.
    """

    chi: np.ndarray  # (n, N)
    mu: np.ndarray  # (m, N)
    T: float
    chi_final: np.ndarray | None = None
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)
    chi_all: np.ndarray = field(init=False, repr=False, compare=False)  # (n, N or N+1)

    def __post_init__(self):
        chi = np.atleast_2d(np.asarray(self.chi, dtype=float))
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        if chi.shape[1] != mu.shape[1]:
            raise ValidationError("chi and mu must have the same column count")
        stacked = np.vstack([chi, mu])
        n, final = chi.shape[0], self.chi_final
        if final is not None and np.size(final) != n:
            raise ValidationError(f"chi_final has {np.size(final)} entries, expected {n}")
        chi_all = stacked[:n] if final is None else np.hstack(
            [chi, np.reshape(np.asarray(final, dtype=float), (n, 1))])
        for arr in (stacked, chi_all):
            arr.setflags(write=False)  # before the views below are taken
        final = None if final is None else chi_all[:, -1]
        for name, value in (("chi", stacked[:n]), ("mu", stacked[n:]), ("_stacked", stacked),
                            ("chi_all", chi_all), ("chi_final", final)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.chi.shape[1]

    def stacked(self) -> np.ndarray:
        return self._stacked


@functools.lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_panels(a: float, b: float, panels: int, nodes: int = 16):
    """Nodes and weights of composite Gauss-Legendre on [a, b]."""
    x, w = _legendre(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ts = (half[:, None] * x[None, :] + mids[:, None]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


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


_PROPAGATORS_KEPT = 8
_propagators: dict = {}  # key -> DiscreteSystem, least recently used first
_propagators_lock = threading.Lock()  # lookup, build and eviction as one step


def discretize(sys: LtiSystem, T: float) -> DiscreteSystem:
    """The exact ZOH propagator of sys at period T: A_T = e^{AT},
    B_T = int_0^T e^{At} B dt. Built once per value of (A, B, T): the key
    is the shapes and bytes of a and b and T, so every system of one plant
    shares it, whatever its x0. The last _PROPAGATORS_KEPT are kept."""
    if T <= 0:
        raise ValidationError("T must be positive")
    key = (sys.a.shape, sys.b.shape, sys.a.tobytes(), sys.b.tobytes(), T)
    with _propagators_lock:
        prop = _propagators.pop(key, None)
        if prop is None:
            a_t, b_t = transition(sys, T)
            aug = _augmented(sys)
            for arr in (aug, a_t, b_t):
                arr.setflags(write=False)
            prop = DiscreteSystem(aug=aug, n=sys.n, T=T, a_t=a_t, b_t=b_t)
            if len(_propagators) >= _PROPAGATORS_KEPT:
                del _propagators[next(iter(_propagators))]
        _propagators[key] = prop
    return prop


def simulate_sampled(sys: LtiSystem, inp: PiecewiseConstantInput) -> SampledDataset:
    """Propagate chi_0 = x0 through all N periods; exact at sampling instants.

    The dataset's arrays are read-only, and it is memoized on inp: a second
    call with this very system object returns the same dataset.
    """
    if inp.m != sys.m:
        raise ValidationError("input dimension does not match B")
    slot = inp._sampled
    if slot and slot[0] is sys:
        return slot[1]
    prop = discretize(sys, inp.T)
    states = np.empty((sys.n, inp.N + 1))
    states[:, 0] = sys.x0
    for k in range(inp.N):
        states[:, k + 1] = prop.a_t @ states[:, k] + prop.b_t @ inp.levels[:, k]
    states.setflags(write=False)
    sd = SampledDataset(
        chi=states[:, : inp.N], mu=inp.levels, T=inp.T, chi_final=states[:, inp.N]
    )
    slot[:] = sys, sd
    return sd


def state_at(sys: LtiSystem, inp: PiecewiseConstantInput, t) -> np.ndarray:
    """Exact state at times t in [0, N*T): shape (n,) for a scalar t, else
    (n, len(t)). One exponential per distinct offset t - kT and one batched
    product over the intervals."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    k = np.array([inp.interval_of(s) for s in ts], dtype=int)
    starts = simulate_sampled(sys, inp).stacked()[:, k]
    x = np.einsum("lij,jl->il", discretize(sys, inp.T).at(ts - k * inp.T), starts)
    return x[:, 0] if np.ndim(t) == 0 else x


def check_nonpathological(sys: LtiSystem, T: float) -> tuple[bool, list[tuple[int, int, int]]]:
    """Test the sampling time against the eigenvalue-difference condition.

    Flags eigenvalue pairs (j, l) whose difference comes within 1e-9 * 2*pi/T
    of q * 2*pi*i/T, 1 <= |q| <= 32; such T destroy controllability of the
    discretized pair. Returns (ok, offending (j, l, q) list). Requires the
    ground-truth A, so this is a verification-path check only.
    """
    if T <= 0:
        raise ValidationError("T must be positive")
    base = 2.0 * np.pi / T
    tol = 1e-9 * base
    lam = np.linalg.eigvals(sys.a)
    offending: list[tuple[int, int, int]] = []
    for j in range(sys.n):
        for l in range(sys.n):
            if j == l:
                continue
            diff = lam[j] - lam[l]
            for q in range(1, 33):
                if abs(diff - 1j * q * base) < tol or abs(diff + 1j * q * base) < tol:
                    offending.append((j, l, q))
    return (len(offending) == 0), offending
