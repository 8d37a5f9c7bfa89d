"""Numeric configuration shared by all modules.

Quadrature settings for filtering and the relation matrices. Rank verdicts
take their tolerance as an explicit rtol= argument (default 1e-8) instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    """Discretization knobs for the numerical pipeline.

    quad_nodes: Gauss-Legendre nodes per panel.
    quad_panels: panels per smooth piece of an integrand. Together with
        quad_nodes it sets the quadrature of build_relation_matrices, of the
        pointwise oracles and, in filter_lti_dataset, of bump_test only: the
        other families use closed-form interval moments.
    """

    quad_nodes: int = 16
    quad_panels: int = 8

    def __post_init__(self):
        if self.quad_nodes < 2 or self.quad_panels < 1:
            raise ValueError("quadrature settings must be positive")


DEFAULT_CONFIG = NumericConfig()
