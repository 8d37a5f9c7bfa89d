"""Dense linear-algebra kernel: SVD rank, pseudo-inverse, kernel bases,
matrix exponential and Frobenius distances, all with explicit tolerances.

Everything downstream (simulation, filtering, design, identification) goes
through these wrappers so a single tolerance convention applies everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a matrix together with the evidence for it."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if s.size and np.any(np.diff(s) > 0):
            raise ValidationError("singular values must be nonincreasing")
        object.__setattr__(self, "singular_values", s)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValidationError("expected a nonempty 2-D array")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    return a


def _svd(a: np.ndarray):
    try:
        return np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def svd_rank(m, rtol: float = 1e-8) -> RankReport:
    """Numerical rank with threshold rtol * s_max * max(rows, cols)."""
    a = _as_matrix(m)
    if rtol <= 0:
        raise ValidationError("rtol must be positive")
    s = _svd(a)[1]
    tol = rtol * (s[0] if s.size else 0.0) * max(a.shape)
    return RankReport(rank=int(np.sum(s > tol)), singular_values=s, tolerance_used=tol)


def pinv(m, rtol: float = 1e-8) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, thresholded exactly like svd_rank.

    Raises NumericalError when the result is not finite, which happens when
    a kept singular value is so small (subnormal) that its reciprocal
    overflows.
    """
    a = _as_matrix(m)
    if rtol <= 0:
        raise ValidationError("rtol must be positive")
    u, s, vh = _svd(a)
    tol = rtol * (s[0] if s.size else 0.0) * max(a.shape)
    kept = s > tol
    k = s.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
        out = vh[:k].T @ (inv[:, None] * u[:, :k].T)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"pseudo-inverse is not finite: smallest kept singular value {s[kept].min():.3g}"
        )
    return out


def left_kernel_basis(m, rtol: float = 1e-8) -> np.ndarray:
    """Orthonormal rows spanning { v^T : v^T M = 0 } at the svd_rank tolerance.

    Returns a (p - rank) x p array; empty (0 x p) when M has full row rank.
    """
    a = _as_matrix(m)
    u, s, _ = _svd(a)
    tol = rtol * (s[0] if s.size else 0.0) * max(a.shape)
    r = int(np.sum(s > tol))
    return u[:, r:].T.copy()


def expm(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade core)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expm requires a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValidationError("expm requires finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalError("expm overflowed (matrix norm too large)")
    return out


def frobenius_distance(m1, m2) -> float:
    a, b = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
