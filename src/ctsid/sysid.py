"""Informativity verdicts and identification of (A, B) from filtered data.

When the stacked filtered matrix [x_f; u_f] has rank n + m, the algebraic
relation x_df = A x_f + B u_f pins (A, B) down uniquely and the
pseudo-inverse formula recovers it exactly; otherwise the minimum-norm
least-squares solution is returned and flagged. Both fits read their
dataset's own stacked buffer and take one SVD of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .filtering import FilteredDataset
from .linalg import RankReport, _frobenius, _rank_pinv, frobenius_distance
from .ltisim import LtiSystem, SampledDataset


@dataclass(frozen=True)
class IdentificationResult:
    a_hat: np.ndarray
    b_hat: np.ndarray
    stacked_rank: RankReport
    residual: float  # ||x_df - A_hat x_f - B_hat u_f||_F
    informative: bool
    frobenius_error: float | None = None  # vs ground truth, when supplied

    @property
    def ab_hat(self) -> np.ndarray:
        return np.hstack([self.a_hat, self.b_hat])


def identify(
    fd: FilteredDataset,
    n: int,
    m: int,
    rtol: float = 1e-8,
    truth: LtiSystem | None = None,
) -> IdentificationResult:
    """[A_hat B_hat] = x_df [x_f; u_f]^+, informative iff rank [x_f; u_f] = n + m.

    The rank and the pseudo-inverse come from one SVD of fd.stacked().
    """
    if fd.x_f.shape[0] != n or fd.u_f.shape[0] != m:
        raise ValidationError("filtered data dimensions disagree with n, m")
    report, s_pinv = _rank_pinv(fd.stacked(), rtol)
    ab = fd.x_df @ s_pinv
    a_hat, b_hat = ab[:, :n], ab[:, n:]
    residual = _frobenius(fd.x_df - a_hat @ fd.x_f - b_hat @ fd.u_f)
    err = None
    if truth is not None:
        err = frobenius_distance(np.hstack([truth.a, truth.b]), ab)
    return IdentificationResult(
        a_hat=a_hat,
        b_hat=b_hat,
        stacked_rank=report,
        residual=residual,
        informative=report.rank == n + m,
        frobenius_error=err,
    )


@dataclass(frozen=True)
class DiscreteIdentificationResult:
    a_t_hat: np.ndarray
    b_t_hat: np.ndarray
    regressor_rank: RankReport
    informative: bool


def identify_discrete(sd: SampledDataset, rtol: float = 1e-8) -> DiscreteIdentificationResult:
    """Least-squares fit of chi_{k+1} = A_T chi_k + B_T mu_k from the samples.

    Cross-check path for the continuous identification: expm(A_hat * T)
    should reproduce A_T_hat. Needs the final state to form the shifted
    sample matrix. The rank and the pseudo-inverse come from one SVD.
    """
    n = sd.chi.shape[0]
    m = sd.mu.shape[0]
    chi_all = sd.chi_all
    if chi_all.shape[1] != sd.N + 1:
        raise ValidationError("discrete identification needs the final state")
    report, z_pinv = _rank_pinv(sd.stacked(), rtol)
    ab_t = chi_all[:, 1:] @ z_pinv
    return DiscreteIdentificationResult(
        a_t_hat=ab_t[:, :n],
        b_t_hat=ab_t[:, n:],
        regressor_rank=report,
        informative=report.rank == n + m,
    )

