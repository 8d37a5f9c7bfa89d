"""The top-level namespace: what ``import ctsid`` exposes and loads.

The top level holds the pipeline, its checks and every name the benchmark
in perfbench/ calls. Internals stay importable from their modules, and the
independent oracles live in ctsid.oracles, which ``import ctsid`` does not
load.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import ctsid

ROOT = Path(__file__).resolve().parents[1]

# the names perfbench/ calls, as listed in ROADMAP.md
BENCHMARK_NAMES = {
    "LtiSystem",
    "PiecewiseConstantInput",
    "SimulatedPlant",
    "SeededRandomPolicy",
    "run_online_design",
    "simulate_sampled",
    "discretize",
    "make_filter_bank",
    "filter_lti_dataset",
    "identify",
    "identify_discrete",
    "decompose",
    "build_relation_matrices",
    "factorization_residual",
    "verify_algebraic",
    "verify_intersample",
    "svd_rank",
    "check_nonpathological",
    "DesignFailureError",
    "NumericalError",
    "ValidationError",
    "VerificationError",
}

ORACLES = {
    "filter_signal",
    "filtered_input_data",
    "filtered_derivative_data",
    "quad_piece",
    "lowpass_realization",
    "lowpass_derivative_identity",
    "rk4_oracle",
}


def public_names() -> set[str]:
    return {
        name
        for name, obj in vars(ctsid).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }


def test_all_lists_the_public_names():
    assert sorted(ctsid.__all__) == sorted(public_names())


def test_at_most_40_names():
    assert len(ctsid.__all__) <= 40


def test_benchmark_names_are_public():
    assert BENCHMARK_NAMES <= set(ctsid.__all__)


def test_scipy_stays_off_the_runtime_path():
    code = (
        "import sys, ctsid; core = 'scipy' in sys.modules; "
        "import ctsid.cli; print(core, 'scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["False", "False"]


def test_oracles_stay_out_of_the_package_namespace():
    assert not ORACLES & set(ctsid.__all__)
    code = "import sys, ctsid; print('ctsid.oracles' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
