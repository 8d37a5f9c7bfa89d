"""Numeric configuration shared by all modules.

Quadrature settings for filtering and the relation matrices. Rank verdicts
take their tolerance as an explicit rtol= argument (default 1e-8) instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    """Discretization knob for the numerical pipeline.

    quad_panels: Gauss-Legendre panels (16 nodes each) per smooth piece of
        an integrand. It sets the quadrature of build_relation_matrices, of
        the pointwise oracles and, in filter_lti_dataset, of a family without
        closed-form interval moments (bump_test) only.
    """

    quad_panels: int = 8

    def __post_init__(self):
        if self.quad_panels < 1:
            raise ValueError("quadrature settings must be positive")


DEFAULT_CONFIG = NumericConfig()
