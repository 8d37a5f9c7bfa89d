"""Dense linear-algebra kernel on numpy alone: SVD rank, pseudo-inverse,
kernel bases, a batched matrix exponential and Frobenius norms scaled so their
squares cannot underflow or overflow, all with explicit tolerances.

Everything downstream (simulation, filtering, design, identification) goes
through these wrappers so a single tolerance convention applies everywhere:
one helper takes the SVD and applies the rank threshold
rtol * s_max * max(rows, cols), for a matrix or a stack of them, and each
rank verdict costs one SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a matrix together with the evidence for it."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if (s[1:] > s[:-1]).any():
            raise ValidationError("singular values must be nonincreasing")
        object.__setattr__(self, "singular_values", s)


def _svd(a: np.ndarray):
    try:
        return np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def _rank_svd(m, rtol: float):
    """(u, s, vh, tol, rank) of a (p, q) matrix, or per matrix of a (k, p, q)
    stack, from one SVD: tol = rtol * s_max * max(p, q), rank = #{s > tol}.

    Far from unit scale (largest |entry| outside [2^-100, 2^100]) the SVD
    is of M / 2^e, e the frexp exponent of that entry, with s scaled back:
    exact where LAPACK's own rescaling is not, so svd(2^k M) gives 2^k s.
    Each slice of a batched np.linalg.svd equals the single call bit for
    bit, so a stack in that range gives the same verdicts as one call each.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or 0 in a.shape[-2:]:
        raise ValidationError("expected a nonempty 2-D array or a stack of them")
    peak = float(np.abs(a).max(initial=0.0))
    if not peak < math.inf:
        raise ValidationError("matrix entries must be finite")
    if not rtol > 0:
        raise ValidationError("rtol must be positive")
    if 2.0**-100 <= peak <= 2.0**100:
        u, s, vh = _svd(a)
    else:
        e = math.frexp(peak)[1]
        u, s, vh = _svd(np.ldexp(a, -e))
        s = np.ldexp(s, e)
    tol = rtol * s[..., 0] * max(a.shape[-2:])
    return u, s, vh, tol, (s > tol[..., None]).sum(-1)


def _rank_pinv(m, rtol: float) -> tuple[RankReport, np.ndarray]:
    """The svd_rank report and the pseudo-inverse of M from its one SVD."""
    u, s, vh, tol, rank = _rank_svd(m, rtol)
    kept = s > tol
    k = s.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
        out = vh[:k].T @ (inv[:, None] * u[:, :k].T)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"pseudo-inverse is not finite: smallest kept singular value {s[kept].min():.3g}"
        )
    return RankReport(rank=int(rank), singular_values=s, tolerance_used=tol), out


def svd_rank(m, rtol: float = 1e-8) -> RankReport:
    """Numerical rank with threshold rtol * s_max * max(rows, cols)."""
    _, s, _, tol, rank = _rank_svd(m, rtol)
    return RankReport(rank=int(rank), singular_values=s, tolerance_used=tol)


def pinv(m, rtol: float = 1e-8) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, thresholded exactly like svd_rank.

    Raises NumericalError when the result is not finite, which happens when
    a kept singular value is so small (subnormal) that its reciprocal
    overflows.
    """
    return _rank_pinv(m, rtol)[1]


def left_kernel_basis(m, rtol: float = 1e-8) -> np.ndarray:
    """Orthonormal rows spanning { v^T : v^T M = 0 } at the svd_rank tolerance.

    Returns a (p - rank) x p array; empty (0 x p) when M has full row rank.
    """
    u, _, _, _, rank = _rank_svd(m, rtol)
    return u[:, rank:].T.copy()


# Pade degree m: the largest 1-norm theta_m at which q(A)^{-1} p(A), with
# p(A) = sum_j b_j A^j and q(A) = p(-A), is accurate to double precision
# (Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26 (2005)).
_THETAS = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
           9: 2.097847961257068, 13: 5.371920351148152}
_PADE_B = {m: [float(math.factorial(2 * m - j) // math.factorial(j) // math.factorial(m - j))
               for j in range(m + 1)] for m in _THETAS}


def _degree_and_squarings(norm: float) -> tuple[int, int]:
    """The lowest degree whose theta bounds the 1-norm, else (13, s)."""
    for degree, theta in _THETAS.items():
        if norm <= theta:
            return degree, 0
    return 13, math.ceil(math.log2(norm / _THETAS[13]))


def _pade(a: np.ndarray, degree: int) -> np.ndarray:
    """q(A)^{-1} p(A) = (V - U)^{-1} (V + U), with U and V the odd and even parts of p."""
    b = _PADE_B[degree]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if degree == 13:  # in six products, Higham (2005), eq. (2.8)
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        u, v, power = b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2, a2
        for k in range(2, degree // 2 + 1):
            power = power @ a2
            u, v = u + b[2 * k + 1] * power, v + b[2 * k] * power
        u = a @ u
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """e^A of a (p, p) matrix, or of each matrix in a (k, p, p) stack.

    Scaling and squaring with a Pade core: the lowest degree 3, 5, 7 or 9
    whose theta bounds the exact 1-norm, else degree 13 on A / 2^s with
    s = ceil(log2(||A||_1 / theta_13)), squared s times. The degree and s
    are chosen per matrix and the stack runs batched in groups of equal
    (degree, s), so expm(stack)[i] equals expm(stack[i]) bit for bit.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValidationError("expm requires a square matrix or a stack of them")
    if not np.isfinite(m).all():
        raise ValidationError("expm requires finite entries")
    stack = m.reshape(-1, *m.shape[-2:])
    out = np.empty_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        norms = np.abs(stack).sum(axis=1).max(axis=1, initial=0.0)
        if not np.isfinite(norms).all():
            raise NumericalError("expm overflowed (1-norm beyond the float range)")
        keys = [_degree_and_squarings(x) for x in norms.tolist()]
        for degree, s in set(keys):
            group = [i for i, key in enumerate(keys) if key == (degree, s)]
            r = _pade(np.ldexp(stack[group], -s), degree)
            for _ in range(s):
                r = r @ r
            out[group] = r
    if not np.isfinite(out).all():
        raise NumericalError("expm overflowed (matrix norm too large)")
    return out.reshape(m.shape)


def _frobenius(m) -> float:
    """Frobenius norm of M computed on M / 2^e, with 2^e from np.frexp of the
    largest entry, so the squared entries neither underflow nor overflow.
    Scaling by a power of two is exact: where np.linalg.norm's squares stay
    in range the result is bit-identical to it."""
    a = np.asarray(m, dtype=float)
    peak = float(np.max(np.abs(a), initial=0.0))
    if not 0.0 < peak < np.inf:
        return float(np.linalg.norm(a))
    e = int(np.frexp(peak)[1])
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, -e))), e)


def frobenius_distance(m1, m2) -> float:
    a, b = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _frobenius(a - b)
