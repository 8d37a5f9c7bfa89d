"""Numeric configuration shared by all modules.

Every tolerance that influences a rank verdict or an integral estimate
lives here, so tests can sweep them instead of chasing hidden constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and discretization knobs for the numerical pipeline.

    rank_rtol: relative SVD threshold; a singular value s counts toward the
        rank when s > rank_rtol * s_max * max(rows, cols).
    quad_nodes: Gauss-Legendre nodes per panel.
    quad_panels: panels per smooth piece of an integrand. Together with
        quad_nodes it sets the quadrature of build_relation_matrices, of the
        pointwise oracles and, in filter_lti_dataset, of bump_test only: the
        other families use closed-form interval moments.
    """

    rank_rtol: float = 1e-8
    quad_nodes: int = 16
    quad_panels: int = 8

    def __post_init__(self):
        if self.rank_rtol <= 0:
            raise ValueError("rank_rtol must be positive")
        if self.quad_nodes < 2 or self.quad_panels < 1:
            raise ValueError("quadrature settings must be positive")


DEFAULT_CONFIG = NumericConfig()
