"""JSON and CSV serialization for datasets and results.

Numbers are written as JSON floats or CSV fields in Python's shortest
round-trip repr, so read_json (or np.loadtxt for CSV) parses them back
bit-for-bit and identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .design import DesignResult
from .errors import ValidationError
from .filtering import FilteredDataset
from .linalg import RankReport
from .ltisim import SampledDataset, Trajectory
from .sysid import IdentificationResult


def _mat(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).tolist()


def _rank_report(r: RankReport) -> dict:
    return {
        "rank": r.rank,
        "singular_values": _mat(r.singular_values),
        "tolerance_used": r.tolerance_used,
    }


def sampled_dataset_to_dict(sd: SampledDataset) -> dict:
    out = {"chi": _mat(sd.chi), "mu": _mat(sd.mu), "T": sd.T}
    if sd.chi_final is not None:
        out["chi_final"] = _mat(sd.chi_final)
    return out


def sampled_dataset_from_dict(d: dict) -> SampledDataset:
    return SampledDataset(
        chi=np.array(d["chi"], dtype=float),
        mu=np.array(d["mu"], dtype=float),
        T=float(d["T"]),
        chi_final=None if d.get("chi_final") is None else np.array(d["chi_final"]),
    )


def filtered_dataset_to_dict(fd: FilteredDataset) -> dict:
    return {
        "x_f": _mat(fd.x_f),
        "u_f": _mat(fd.u_f),
        "x_df": _mat(fd.x_df),
        "family": fd.family,
        "rho": fd.rho,
        "T": fd.T,
        "M": fd.M,
        "quadrature_report": {k: _mat(v) for k, v in fd.quadrature_report.items()},
    }


def filtered_dataset_from_dict(d: dict) -> FilteredDataset:
    return FilteredDataset(
        x_f=np.array(d["x_f"], dtype=float),
        u_f=np.array(d["u_f"], dtype=float),
        x_df=np.array(d["x_df"], dtype=float),
        family=d["family"],
        rho=float(d["rho"]),
        T=float(d["T"]),
        M=int(d["M"]),
        quadrature_report={
            k: np.array(v, dtype=float) for k, v in d.get("quadrature_report", {}).items()
        },
    )


def design_result_to_dict(res: DesignResult) -> dict:
    return {
        "dataset": sampled_dataset_to_dict(res.dataset),
        "branches": list(res.branches),
        "certificates": [
            {"xi": _mat(c.xi), "eta": _mat(c.eta), "k": c.k} for c in res.certificates
        ],
        "rank_report": _rank_report(res.rank_report),
        "rank_history": list(res.rank_history),
    }


def identification_result_to_dict(res: IdentificationResult) -> dict:
    return {
        "A_hat": _mat(res.a_hat),
        "B_hat": _mat(res.b_hat),
        "rank": _rank_report(res.stacked_rank),
        "residual": res.residual,
        "informative": res.informative,
        "frobenius_error": res.frobenius_error,
    }


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON file {path}: {exc}") from exc


def trajectory_to_csv(path, traj: Trajectory) -> None:
    n = traj.states.shape[0]
    header = "time," + ",".join(f"x{i + 1}" for i in range(n))
    lines = [header]
    for i, t in enumerate(traj.times):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in traj.states[:, i]]))
    Path(path).write_text("\n".join(lines) + "\n")


def matrix_to_csv(path, mat: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat)]
    Path(path).write_text("\n".join(lines) + "\n")
