"""Process set-up shared by the benchmark's entry points.

Call ``prepare()`` before anything imports numpy: it pins BLAS to one
thread and puts the checkout's ``src`` first on the import path, so the
benchmark always measures the package as it stands in this checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/ctsid`` package to measure."""


def child_env() -> dict:
    """Environment for child interpreters: one BLAS thread, checkout src first."""
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def prepare() -> None:
    if not (SRC / "ctsid" / "__init__.py").is_file():
        raise MissingSourceError(f"no ctsid package under {SRC}")
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
