"""Experiment design and generalized-filtering identification for
continuous-time LTI systems under piecewise-constant inputs.

The top level holds the pipeline and its checks. Internals stay importable
from their modules (ctsid.design, ctsid.linalg, ...), and the independent
oracles (RK4, quadrature filtering, low-pass ODE realization) from
ctsid.oracles, which this package does not import.
"""

from .design import (
    CyclingPolicy,
    DesignResult,
    KernelCertificate,
    ReplayPlant,
    SeededRandomPolicy,
    SimulatedPlant,
    hankel,
    pe_check,
    run_online_design,
    verify_intersample,
)
from .errors import (
    DesignFailureError,
    NumericalError,
    ValidationError,
    VerificationError,
)
from .filtering import (
    FilteredDataset,
    RelationMatrices,
    build_relation_matrices,
    factorization_residual,
    filter_lti_dataset,
    verify_algebraic,
)
from .filters import (
    Decomposition,
    FilterBank,
    build_F_bar,
    decompose,
    eval_g,
    make_filter_bank,
)
from .linalg import RankReport, svd_rank
from .ltisim import (
    DiscreteSystem,
    LtiSystem,
    PiecewiseConstantInput,
    SampledDataset,
    Trajectory,
    check_nonpathological,
    discretize,
    simulate_sampled,
    state_at,
)
from .sysid import IdentificationResult, identify, identify_discrete

__all__ = [
    "CyclingPolicy",
    "Decomposition",
    "DesignFailureError",
    "DesignResult",
    "DiscreteSystem",
    "FilterBank",
    "FilteredDataset",
    "IdentificationResult",
    "KernelCertificate",
    "LtiSystem",
    "NumericalError",
    "PiecewiseConstantInput",
    "RankReport",
    "RelationMatrices",
    "ReplayPlant",
    "SampledDataset",
    "SeededRandomPolicy",
    "SimulatedPlant",
    "Trajectory",
    "ValidationError",
    "VerificationError",
    "build_F_bar",
    "build_relation_matrices",
    "check_nonpathological",
    "decompose",
    "discretize",
    "eval_g",
    "factorization_residual",
    "filter_lti_dataset",
    "hankel",
    "identify",
    "identify_discrete",
    "make_filter_bank",
    "pe_check",
    "run_online_design",
    "simulate_sampled",
    "state_at",
    "svd_rank",
    "verify_algebraic",
    "verify_intersample",
]

__version__ = "0.1.0"
