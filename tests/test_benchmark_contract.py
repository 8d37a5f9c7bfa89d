"""The benchmark harness in perfbench/ runs against the package.

perfbench/workloads.py and perfbench/tracer.py call into ctsid by name:
``decompose(bank, N)``, ``bank`` as the third argument of
``filter_lti_dataset`` (the tracer splits its calls by family), the
``sys``/``tau`` parameters of ``transition``, ``identify(...).stacked_rank``,
``SampledDataset.chi_all`` and ``FilteredDataset.stacked()``. A change to
any of them breaks the benchmark, not the package, so these tests run a few
jobs of every workload, the reference check and one traced job.
"""

import sys
from pathlib import Path

import pytest

import ctsid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_end_ok_or_in_a_listed_refusal(name):
    wl = workloads.WORKLOADS[name]
    for index in range(1, 4):
        outcome, _, detail = workloads.run_job(wl, wl.inputs(SEED, index), [])
        assert outcome == "ok" or outcome in wl.refusals, (index, outcome, detail)


def test_reference_check_passes():
    for name, ok, detail in workloads.reference_check():
        assert ok, (name, detail)


def test_traced_job_matches_untraced():
    wl = workloads.WORKLOADS["aircraft"]
    plain = workloads.run_job(wl, wl.inputs(SEED, 0), [])
    inp = wl.inputs(SEED, 0)
    # the plain job left the plant's propagator memoized; a cold memo makes
    # the traced job build it, through transition(sys, tau)
    ctsid.ltisim._propagators.clear()
    tracer = Tracer(ctsid)
    tracer.install()
    try:
        tracer.begin_job()
        traced = workloads.run_job(wl, inp, [])
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert plain[0] == traced[0] == "ok", (plain, traced)
    assert plain[2] == traced[2]
    assert tracer.stat("filtering.filter_lti_dataset.bump_test").calls == 1
    assert tracer.stat("ltisim.transition").calls > 0


@pytest.mark.parametrize("seed, index", [(16, 2394), (1601, 577), (1617, 959)])
def test_aircraft_jobs_that_ended_on_a_near_cancelling_certificate(seed, index):
    # the design used to take +eta whenever |xi^T chi_k + eta^T mu_k| cleared
    # an absolute guard band, so these jobs ended at rank 5 after filtering
    # (laguerre) or already in the design
    wl = workloads.WORKLOADS["aircraft"]
    outcome, _, detail = workloads.run_job(wl, wl.inputs(seed, index), [])
    assert outcome == "ok", detail
