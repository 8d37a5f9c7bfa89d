"""Online experiment design with the minimum number of samples.

The designer drives a plant one sampling period at a time. At step k it
observes chi_k and asks whether chi_k already lies in the image of the
states collected so far. If not, any input keeps the stacked data matrix
growing in rank; if it does, a left-kernel certificate (xi, eta) of the
stacked prefix with eta != 0 exists, and any mu_k with
xi^T chi_k + eta^T mu_k != 0 restores rank growth. After exactly n + m
steps the stacked matrix [chi; mu] has full rank n + m.

Also provides the block-Hankel persistency-of-excitation test (the offline
alternative, which needs at least n + m + n*m samples) and the intersample
rank verification. The simulated plant and the intersample check evaluate
the state through the system's one exact propagator (ltisim.discretize).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DesignFailureError, NumericalError, ValidationError
from .linalg import RankReport, left_kernel_basis, svd_rank
from .ltisim import (
    LtiSystem,
    PiecewiseConstantInput,
    SampledDataset,
    discretize,
    simulate_sampled,
)


@dataclass(frozen=True)
class KernelCertificate:
    """Left-kernel vector (xi, eta) of a stacked data prefix, eta != 0."""

    xi: np.ndarray
    eta: np.ndarray
    k: int

    def vector(self) -> np.ndarray:
        return np.concatenate([self.xi, self.eta])


@dataclass
class DesignResult:
    dataset: SampledDataset
    branches: list[str]  # per step: "new-direction" or "certificate"
    certificates: list[KernelCertificate]
    rank_report: RankReport
    rank_history: list[int] = field(default_factory=list)


class SimulatedPlant:
    """Plant backed by the exact discretized simulator."""

    def __init__(self, sys: LtiSystem, T: float):
        self.sys = sys
        self.T = T
        self._prop = discretize(sys, T)
        self.reset()

    @property
    def n(self) -> int:
        return self.sys.n

    @property
    def m(self) -> int:
        return self.sys.m

    def reset(self, x0=None) -> np.ndarray:
        self._state = self.sys.x0.copy() if x0 is None else np.asarray(x0, float).copy()
        self._starts: list[np.ndarray] = []  # [chi_k; mu_k] per completed interval
        return self._state.copy()

    def apply(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float).reshape(-1)
        if mu.shape[0] != self.m or self._state.shape != (self.n,):
            raise ValidationError("dimension mismatch in apply")
        self._starts.append(np.concatenate([self._state, mu]))
        self._state = self._prop.a_t @ self._state + self._prop.b_t @ mu
        return self._state.copy()

    def probe(self, t: float, interval: int | None = None) -> np.ndarray:
        """State at t + kT inside a completed interval (default: the latest)."""
        if not self._starts:
            raise ValidationError("no interval completed yet")
        if not 0 <= t < self.T:
            raise ValidationError("probe offset must lie in [0, T)")
        k = len(self._starts) - 1 if interval is None else interval
        if not 0 <= k < len(self._starts):
            raise ValidationError(f"interval {k} not completed")
        return self._prop.at(t)[0] @ self._starts[k]


class ReplayPlant:
    """Plant that replays a recorded dataset for offline verification.

    apply() checks that the requested input matches the recording; a
    designer run against it must have produced (or must reproduce) the
    recorded input sequence.
    """

    def __init__(self, dataset: SampledDataset, atol: float = 1e-9):
        if dataset.chi_final is None:
            raise ValidationError("replay needs the final state in the recording")
        self.dataset = dataset
        self.atol = atol
        self.T = dataset.T
        self.n = dataset.chi.shape[0]
        self.m = dataset.mu.shape[0]
        self._k = 0

    def reset(self, x0=None) -> np.ndarray:
        if x0 is not None and not np.allclose(x0, self.dataset.chi[:, 0], atol=self.atol):
            raise ValidationError("recorded initial state differs from requested x0")
        self._k = 0
        return self.dataset.chi[:, 0].copy()

    def apply(self, mu) -> np.ndarray:
        if self._k >= self.dataset.N:
            raise ValidationError("recording exhausted")
        mu = np.asarray(mu, dtype=float).reshape(-1)
        if not np.allclose(mu, self.dataset.mu[:, self._k], atol=self.atol):
            raise ValidationError(
                f"input at step {self._k} deviates from the recording"
            )
        self._k += 1
        return self.dataset.chi_all[:, self._k].copy()

    def probe(self, t: float, interval: int | None = None) -> np.ndarray:
        raise ValidationError("replay recordings hold sampled data only")


def hankel(mu, depth: int) -> np.ndarray:
    """Block-Hankel matrix of depth L: block (i, j) = mu_{i+j}."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    m, N = mu.shape
    if depth < 1 or depth > N:
        raise ValidationError(f"depth must lie in 1..{N}")
    cols = N - depth + 1
    out = np.empty((depth * m, cols))
    for i in range(depth):
        out[i * m : (i + 1) * m, :] = mu[:, i : i + cols]
    return out


def pe_check(mu, n: int, rtol: float = 1e-8) -> bool:
    """Persistency of excitation of order n+1: full row rank of the
    depth-(n+1) Hankel matrix. Automatically false when too few columns."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    m, N = mu.shape
    if N < n + 1 or N - n < (n + 1) * m:
        return False
    h = hankel(mu, n + 1)
    return svd_rank(h, rtol).rank == (n + 1) * m


def image_membership(prefix, v, rtol: float = 1e-8) -> bool:
    """True iff v lies in the column space of prefix (rank comparison)."""
    prefix = np.atleast_2d(np.asarray(prefix, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1, 1)
    base = svd_rank(prefix, rtol).rank
    return svd_rank(np.hstack([prefix, v]), rtol).rank == base


def kernel_certificate(stacked_prefix, n: int, m: int, rtol: float = 1e-8) -> KernelCertificate:
    """A left-kernel vector of the stacked prefix maximizing the eta-block norm.

    From the orthonormal kernel basis K, the combination c^T K with the
    largest eta-block is c = leading left singular vector of K[:, n:].
    """
    stacked_prefix = np.atleast_2d(np.asarray(stacked_prefix, dtype=float))
    if stacked_prefix.shape[0] != n + m:
        raise ValidationError("stacked prefix must have n+m rows")
    k_idx = stacked_prefix.shape[1]
    basis = left_kernel_basis(stacked_prefix, rtol)
    if basis.shape[0] == 0:
        raise NumericalError("stacked prefix has full row rank; no kernel vector")
    eta_block = basis[:, n:]
    u, s, _ = np.linalg.svd(eta_block)
    if s.size == 0 or s[0] <= rtol:
        raise NumericalError(
            "eta-block of the kernel basis is numerically zero; "
            "rank tolerance mis-set or image-membership precondition violated"
        )
    vec = u[:, 0] @ basis
    return KernelCertificate(xi=vec[:n], eta=vec[n:], k=k_idx)


class CyclingPolicy:
    """Deterministic inputs for the free branch: all-ones first, then
    sign-alternating coordinate cycling."""

    def __init__(self, m: int):
        self.m = m

    def __call__(self, k: int) -> np.ndarray:
        if k == 0:
            return np.ones(self.m)
        mu = np.zeros(self.m)
        mu[k % self.m] = (-1.0) ** (k // self.m)
        return mu


class SeededRandomPolicy:
    """Unit-norm Gaussian inputs from a seeded generator."""

    def __init__(self, m: int, seed: int = 0):
        self.m = m
        self._rng = np.random.default_rng(seed)

    def __call__(self, k: int) -> np.ndarray:
        v = self._rng.standard_normal(self.m)
        return v / np.linalg.norm(v)


def choose_input(
    branch: str,
    certificate: KernelCertificate | None,
    chi_k,
    policy,
    k: int,
) -> np.ndarray:
    """Input for step k. Free branch: whatever the policy says. Certificate
    branch: unit vector along eta, sign-flipped if the affine form
    xi^T chi_k + eta^T mu_k would land inside the guard band."""
    if branch == "new-direction":
        mu = np.asarray(policy(k), dtype=float)
        if k == 0 and not np.any(mu):
            raise ValidationError("mu_0 must be nonzero")
        return mu
    if branch != "certificate":
        raise ValidationError(f"unknown branch {branch!r}")
    if certificate is None:
        raise ValidationError("certificate branch requires a certificate")
    chi_k = np.asarray(chi_k, dtype=float).reshape(-1)
    xi, eta = certificate.xi, certificate.eta
    base = float(xi @ chi_k)
    direction = eta / np.linalg.norm(eta)
    guard = 1e-6 * (1.0 + abs(base))
    for c in (1.0, -1.0):
        mu = c * direction
        if abs(base + eta @ mu) > guard:
            return mu
    raise NumericalError("guard test failed for both signs; eta is degenerate")


def run_online_design(
    plant,
    n: int,
    m: int,
    T: float,
    policy=None,
    rtol: float = 1e-8,
) -> DesignResult:
    """Execute exactly n + m design steps and return the full-rank dataset.

    Raises DesignFailureError with diagnostics when the final stacked matrix
    falls short of rank n + m (pathological sampling time, or tolerance
    mis-set for the data scale).
    """
    policy = CyclingPolicy(m) if policy is None else policy
    N = n + m
    chi = np.empty((n, N))
    mu = np.empty((m, N))
    branches: list[str] = []
    certificates: list[KernelCertificate] = []
    rank_history: list[int] = []

    chi_k = np.asarray(plant.reset(), dtype=float)
    for k in range(N):
        chi[:, k] = chi_k
        if k == 0:
            branch = "new-direction"
            cert = None
        elif image_membership(chi[:, :k], chi_k, rtol):
            branch = "certificate"
            try:
                cert = kernel_certificate(np.vstack([chi[:, :k], mu[:, :k]]), n, m, rtol)
            except NumericalError as exc:
                # no usable certificate exists (e.g. uncontrollable plant):
                # report what was collected so far
                partial = SampledDataset(chi=chi[:, :k], mu=mu[:, :k], T=T)
                raise DesignFailureError(
                    f"no kernel certificate at step {k}: {exc}",
                    dataset=partial,
                    branch_log=branches + [branch],
                    rank_report=svd_rank(partial.stacked(), rtol) if k else None,
                ) from exc
            certificates.append(cert)
        else:
            branch = "new-direction"
            cert = None
        branches.append(branch)
        mu[:, k] = choose_input(branch, cert, chi_k, policy, k)
        rank_history.append(svd_rank(np.vstack([chi[:, : k + 1], mu[:, : k + 1]]), rtol).rank)
        chi_k = np.asarray(plant.apply(mu[:, k]), dtype=float)

    dataset = SampledDataset(chi=chi, mu=mu, T=T, chi_final=chi_k)
    report = svd_rank(dataset.stacked(), rtol)
    result = DesignResult(
        dataset=dataset,
        branches=branches,
        certificates=certificates,
        rank_report=report,
        rank_history=rank_history,
    )
    if report.rank < n + m:
        raise DesignFailureError(
            f"design reached rank {report.rank} < {n + m}; "
            f"branches={branches}, rank history={rank_history}",
            dataset=dataset,
            branch_log=branches,
            rank_report=report,
        )
    return result


def verify_intersample(
    sys: LtiSystem,
    inp: PiecewiseConstantInput,
    t_list,
    rtol: float = 1e-8,
) -> list[tuple[float, RankReport]]:
    """Rank of [chi(t); mu] for each offset t in [0, T); needs ground truth.

    chi_k(t) = e^{At} chi_k + (int_0^t e^{As} ds B) mu_k for every interval,
    so each distinct offset costs one augmented exponential.
    """
    offsets = np.asarray(t_list, dtype=float).reshape(-1)
    if not np.all((offsets >= 0) & (offsets < inp.T)):
        raise ValidationError("intersample offsets must lie in [0, T)")
    sd = simulate_sampled(sys, inp)
    chi_t = discretize(sys, inp.T).at(offsets) @ sd.stacked()
    return [
        (float(t), svd_rank(np.vstack([chi, sd.mu]), rtol)) for t, chi in zip(offsets, chi_t)
    ]
