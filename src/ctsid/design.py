"""Online experiment design with the minimum number of samples.

The designer drives a plant one sampling period at a time and keeps an
orthonormal basis K = [K_x, K_u] of the left kernel of the stacked prefix
[chi; mu]. K starts as the identity; each sample whose part outside the
prefix, c = K [chi_k; mu_k], clears the svd_rank threshold removes one row
by a Householder step (Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30
(1976)), so no step refactors the prefix. At step k it observes chi_k and
weighs two inputs of equal norm:
the policy's, and the certificate input along the top right singular vector
of K_u, signed so that the certificate (xi, eta) = u_1^T K gives
|xi^T chi_k + eta^T mu_k| = |xi^T chi_k| + ||eta|| ||mu_k||. It takes the
one with the larger ||K [chi_k; mu_k]||, i.e. the one that sticks out
further from the prefix. If chi_k lies in the image of the earlier states,
only inputs with K_u mu_k != 0 keep the rank growing, and the certificate
input is one; otherwise any input outside a proper subspace does (van
Waarde, IEEE L-CSS 2021), so the better-conditioned choice stays within the
theory. The branch log records which input was taken. After exactly n + m
steps [chi; mu] has full rank n + m.

Also provides the block-Hankel persistency-of-excitation test (the offline
alternative, which needs at least n + m + n*m samples) and the intersample
rank verification. A plant needs only reset() and apply(), which return
the state at each sampling instant; intersample states come from the one
exact propagator (ltisim.discretize) in state_at and verify_intersample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignFailureError, ValidationError
from .linalg import RankReport, _rank_svd, svd_rank
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
    branches: list[str]  # input taken per step: "new-direction" (policy) or "certificate"
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
        return self._state.copy()

    def apply(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float).reshape(-1)
        if mu.shape[0] != self.m or self._state.shape != (self.n,):
            raise ValidationError("dimension mismatch in apply")
        self._state = self._prop.a_t @ self._state + self._prop.b_t @ mu
        return self._state.copy()


class ReplayPlant:
    """Plant that replays a recorded dataset for offline verification.

    reset() and apply() check the requested x0 and input against the
    recording (np.allclose, atol 1e-9); a designer run against it must have
    produced (or must reproduce) the recorded input sequence.
    """

    def __init__(self, dataset: SampledDataset):
        if dataset.chi_final is None:
            raise ValidationError("replay needs the final state in the recording")
        self.dataset = dataset
        self.T = dataset.T
        self.n = dataset.chi.shape[0]
        self.m = dataset.mu.shape[0]
        self._k = 0

    def reset(self, x0=None) -> np.ndarray:
        if x0 is not None and not np.allclose(x0, self.dataset.chi[:, 0], atol=1e-9):
            raise ValidationError("recorded initial state differs from requested x0")
        self._k = 0
        return self.dataset.chi[:, 0].copy()

    def apply(self, mu) -> np.ndarray:
        if self._k >= self.dataset.N:
            raise ValidationError("recording exhausted")
        mu = np.asarray(mu, dtype=float).reshape(-1)
        if not np.allclose(mu, self.dataset.mu[:, self._k], atol=1e-9):
            raise ValidationError(
                f"input at step {self._k} deviates from the recording"
            )
        self._k += 1
        return self.dataset.chi_all[:, self._k].copy()


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


class CyclingPolicy:
    """Deterministic policy inputs: all-ones first, then sign-alternating
    coordinate cycling."""

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
        return v / math.sqrt(v.dot(v))


def run_online_design(
    plant,
    n: int,
    m: int,
    T: float,
    policy=None,
    rtol: float = 1e-8,
) -> DesignResult:
    """Execute exactly n + m design steps and return the full-rank dataset.

    Step 0 takes the policy's input, which must be nonzero. A later step
    takes the certificate input when the largest singular value of K_u
    exceeds rtol and that input gives the larger ||K [chi_k; mu_k]||.

    K starts as the identity and is updated once per sample: with
    c = K [chi_k; mu_k] for the input taken, if ||c|| exceeds
    rtol * ||prefix||_F * (n + m) (svd_rank's threshold, with the Frobenius
    norm bounding s_max), K becomes rows 2.. of H K, H the Householder
    reflector with H c = -sign(c_1) ||c|| e_1; otherwise K stays. Each step
    costs one SVD, of K_u. rank_history[k] is n + m - rows(K) after step k;
    its last entry is the final svd_rank of [chi; mu].

    Raises ValidationError, before the plant is driven, when rtol is not
    positive or the plant's own T differs from T (relative 1e-12), and
    before an input is recorded or applied when the policy's input or the
    plant's state has the wrong length or a non-finite entry. Raises
    DesignFailureError with the dataset, branch log and rank report when
    the final stacked matrix falls short of rank n + m (uncontrollable
    plant, pathological sampling time, or tolerance mis-set for the data
    scale).
    """
    if not rtol > 0:
        raise ValidationError("rtol must be positive")
    plant_T = getattr(plant, "T", T)
    if abs(plant_T - T) > 1e-12 * abs(T):
        raise ValidationError(f"plant sampling period T={plant_T!r} differs from T={T!r}")
    policy = CyclingPolicy(m) if policy is None else policy
    N = n + m
    data = np.empty((N, N))  # [chi; mu], one column per step
    chi, mu = data[:n], data[n:]
    branches: list[str] = []
    certificates: list[KernelCertificate] = []
    rank_history: list[int] = []
    kernel = np.eye(N)
    sumsq = 0.0  # ||prefix||_F^2

    chi_k = _checked(plant.reset(), n, "plant state")
    for k in range(N):
        chi[:, k] = chi_k
        mu_k = _checked(policy(k), m, "policy input")
        branch = "new-direction"
        if k == 0:
            if not np.any(mu_k):
                raise ValidationError("mu_0 must be nonzero")
            c = data[:, 0]
        else:
            a, k_u = kernel[:, :n] @ chi_k, kernel[:, n:]
            u, s, vh = np.linalg.svd(k_u, full_matrices=False)
            cert = u[:, 0] @ kernel
            mu_c = math.sqrt(mu_k.dot(mu_k)) * np.copysign(1.0, cert[:n] @ chi_k) * vh[0]
            c = a + k_u @ mu_k
            if s[0] > rtol:
                c_c = a + k_u @ mu_c
                if math.sqrt(c_c.dot(c_c)) > math.sqrt(c.dot(c)):
                    branch, mu_k, c = "certificate", mu_c, c_c
                    certificates.append(KernelCertificate(xi=cert[:n], eta=cert[n:], k=k))
        branches.append(branch)
        mu[:, k] = mu_k
        if k + 1 < N:
            sumsq += chi_k.dot(chi_k) + mu_k.dot(mu_k)
            norm_c = math.sqrt(c.dot(c))
            if norm_c > rtol * math.sqrt(sumsq) * N:
                v = c.copy()
                v[0] += math.copysign(norm_c, c[0])
                kernel = kernel[1:] - np.outer(v[1:] / (norm_c * abs(v[0])), v @ kernel)
            rank_history.append(N - kernel.shape[0])
        chi_k = _checked(plant.apply(mu_k), n, "plant state")

    dataset = SampledDataset(chi=chi, mu=mu, T=T, chi_final=chi_k)
    report = svd_rank(data, rtol)
    rank_history.append(report.rank)
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


def _checked(vector, length: int, what: str) -> np.ndarray:
    """vector as a flat float array, or ValidationError if its length
    differs or an entry is not finite."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.shape[0] != length:
        raise ValidationError(f"{what} has length {v.shape[0]}, expected {length}")
    # v.v is finite unless an entry is not, or |v| overflows its square
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise ValidationError(f"{what} entries must be finite")
    return v


def verify_intersample(
    sys: LtiSystem,
    inp: PiecewiseConstantInput,
    t_list,
    rtol: float = 1e-8,
) -> list[tuple[float, RankReport]]:
    """Rank of [chi(t); mu] for each offset t in [0, T); needs ground truth.

    chi_k(t) = e^{At} chi_k + (int_0^t e^{As} ds B) mu_k for every interval,
    so each distinct offset costs one augmented exponential, and one batched
    SVD gives every offset's svd_rank report.
    """
    offsets = np.asarray(t_list, dtype=float).reshape(-1)
    if not np.all((offsets >= 0) & (offsets < inp.T)):
        raise ValidationError("intersample offsets must lie in [0, T)")
    sd = simulate_sampled(sys, inp)
    chi_t = discretize(sys, inp.T).at(offsets) @ sd.stacked()
    mu = np.broadcast_to(sd.mu, (len(offsets), *sd.mu.shape))
    _, s, _, tol, rank = _rank_svd(np.concatenate([chi_t, mu], axis=1), rtol)
    return [
        (float(t), RankReport(rank=int(r), singular_values=si, tolerance_used=ti))
        for t, r, si, ti in zip(offsets, rank, s, tol)
    ]
