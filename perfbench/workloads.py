"""The benchmark's workloads: inputs made from a seed, one job, its checks.

A job is one complete unit of user work. Its inputs come from
``inputs(seed, index)`` and are built before the job's timer starts. A job
returns a fingerprint of its numerical output (used to check that a job
repeated with the same seed gives bit-identical data) or raises
``CheckMiss`` when its output fails a correctness check; errors of the
package escape as they are and are classified by the runner.

Every call into ctsid goes through the ``ctsid`` namespace at call time
(``ctsid.identify``), so the tracer's wrappers see it.

Workloads, and why each was chosen:

- aircraft: the paper's plant (n = 4, m = 2, T = 0.1, N = M = 6). Online
  design, all four filter families, identification and the checks of
  ``ctsid verify``. Small matrices, so repeated ``expm`` calls and Python
  overhead set the time; every job shares one (A, B, T).
- horizon: the aircraft plant under random levels at N = M = 32, all four
  families, no design. Global-support filters (lowpass, laguerre) cost
  O(N*M) filter evaluations, local ones (poly_test, bump_test) O(N).
- design-sweep: a fresh random system per job (n 2..12, m 1..3, T 0.1 or
  0.01, covered evenly); online design and discrete identification, no
  filtering. No two jobs share a plant. Beyond n ~ 8 the design often refuses loudly; such
  refusals are verdicts of the program, counted but not failures.
"""

from __future__ import annotations

import time

import numpy as np

import ctsid
from ctsid import aircraft

REL_ERROR_MAX = 1e-6
RESIDUAL_MAX = 1e-6
FAMILIES = ("poly_test", "bump_test", "laguerre", "lowpass")
RHO = {
    "poly_test": aircraft.POLY_TEST_RHO,
    "bump_test": 2.0,
    "laguerre": 1.0,
    "lowpass": 1.0,
}


class CheckMiss(Exception):
    """A job's output failed a correctness check."""

    def __init__(self, outcome: str, detail: str):
        super().__init__(f"{outcome}: {detail}")
        self.outcome = outcome


class GeneratorExhausted(RuntimeError):
    """No controllable, non-pathological system within the redraw budget."""


class TimedPlant:
    """Plant wrapper that records the designer's decision latency: the time
    from one ``apply`` returning to the next ``apply`` call."""

    def __init__(self, plant, sink: list):
        self._plant = plant
        self._sink = sink
        self._last: float | None = None

    def reset(self, x0=None):
        self._last = None
        return self._plant.reset(x0)

    def apply(self, mu):
        now = time.perf_counter()
        if self._last is not None:
            self._sink.append(now - self._last)
        out = self._plant.apply(mu)
        self._last = time.perf_counter()
        return out


def controllability(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    blocks = [b]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def random_system(rng, n: int, m: int, T: float, scale: float = 2.0, max_draws: int = 200):
    """Random (A, B, x0) with entries in [-scale, scale], controllable and with
    a non-pathological T. Redraws at most ``max_draws`` times, then raises."""
    for _ in range(max_draws):
        a = rng.uniform(-scale, scale, size=(n, n))
        b = rng.uniform(-scale, scale, size=(n, m))
        x0 = rng.uniform(-scale, scale, size=n)
        if np.linalg.matrix_rank(controllability(a, b)) < n:
            continue
        sys_ = ctsid.LtiSystem(a=a, b=b, x0=x0)
        if ctsid.check_nonpathological(sys_, T)[0]:
            return sys_
    raise GeneratorExhausted(f"no usable system with n={n}, m={m}, T={T} in {max_draws} draws")


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def _rel_error(result, truth) -> float:
    return result.frobenius_error / float(np.linalg.norm(np.hstack([truth.a, truth.b])))


def _filter_and_identify(sys_, inp, N: int, fingerprint: list) -> dict:
    """Filter with every family, identify (A, B) and check the model."""
    out = {}
    for family in FAMILIES:
        bank = ctsid.make_filter_bank(family, RHO[family], inp.T, N, N)
        fd = ctsid.filter_lti_dataset(sys_, inp, bank)
        res = ctsid.identify(fd, sys_.n, sys_.m, truth=sys_)
        if not res.informative:
            raise CheckMiss("not_informative", f"{family}: rank {res.stacked_rank.rank}")
        err = _rel_error(res, sys_)
        if err > REL_ERROR_MAX:
            raise CheckMiss("error_bound", f"{family}: relative error {err:.3e}")
        fingerprint += [fd.x_f.tobytes(), fd.u_f.tobytes(), fd.x_df.tobytes()]
        out[family] = (bank, fd)
    return out


def _verify(sys_, inp, filtered: dict, offsets) -> None:
    """The checks ``ctsid verify`` runs, for every family."""
    sd = ctsid.simulate_sampled(sys_, inp)
    for family, (bank, fd) in filtered.items():
        rel = ctsid.verify_algebraic(fd, sys_) / max(float(np.linalg.norm(fd.x_df)), 1e-300)
        if rel > RESIDUAL_MAX:
            raise CheckMiss("verification", f"{family}: algebraic residual {rel:.3e}")
        relm = ctsid.build_relation_matrices(sys_, ctsid.decompose(bank, inp.N))
        fres = ctsid.factorization_residual(fd, sd, relm)
        if fres > RESIDUAL_MAX:
            raise CheckMiss("verification", f"{family}: factorization residual {fres:.3e}")
        for k in range(1, min(inp.N, bank.M) + 1):
            r_s = ctsid.svd_rank(sd.stacked()[:, :k]).rank
            r_f = ctsid.svd_rank(fd.stacked()[:, :k]).rank
            if r_s != r_f:
                raise CheckMiss("verification", f"{family}: rank ladder k={k}: {r_s}/{r_f}")
    target = ctsid.svd_rank(sd.stacked()).rank
    for t, rep in ctsid.verify_intersample(sys_, inp, offsets):
        if rep.rank != target:
            raise CheckMiss("verification", f"intersample rank {rep.rank} at t={t}")


class Aircraft:
    name = "aircraft"
    refusals: tuple[str, ...] = ()

    def inputs(self, seed: int, index: int) -> dict:
        rng = _rng(seed, index, 1)
        x0 = aircraft.X0 + 0.1 * rng.standard_normal(aircraft.X0.size)
        return {
            "sys": ctsid.LtiSystem(a=aircraft.A, b=aircraft.B, x0=x0),
            "policy_seed": int(rng.integers(2**32)),
            "offsets": rng.uniform(0.0, aircraft.T, size=10),
        }

    def run(self, inp: dict, steps: list) -> bytes:
        sys_, T = inp["sys"], aircraft.T
        n, m = sys_.n, sys_.m
        plant = TimedPlant(ctsid.SimulatedPlant(sys_, T), steps)
        policy = ctsid.SeededRandomPolicy(m, seed=inp["policy_seed"])
        res = ctsid.run_online_design(plant, n, m, T, policy=policy)
        levels = ctsid.PiecewiseConstantInput(T=T, levels=res.dataset.mu)
        fingerprint = [res.dataset.mu.tobytes()]
        filtered = _filter_and_identify(sys_, levels, n + m, fingerprint)
        _verify(sys_, levels, filtered, inp["offsets"])
        return b"".join(fingerprint)


class Horizon:
    name = "horizon"
    refusals: tuple[str, ...] = ()
    N = 32

    def inputs(self, seed: int, index: int) -> dict:
        rng = _rng(seed, index, 2)
        return {
            "sys": aircraft.system(),
            "levels": rng.uniform(-1.0, 1.0, size=(aircraft.B.shape[1], self.N)),
        }

    def run(self, inp: dict, steps: list) -> bytes:
        sys_ = inp["sys"]
        levels = ctsid.PiecewiseConstantInput(T=aircraft.T, levels=inp["levels"])
        sd = ctsid.simulate_sampled(sys_, levels)
        fingerprint = [sd.chi_all.tobytes()]
        _filter_and_identify(sys_, levels, self.N, fingerprint)
        return b"".join(fingerprint)


class DesignSweep:
    name = "design-sweep"
    refusals: tuple[str, ...] = ("design_failure", "numerical")

    # Every run covers the (n, m, T) grid evenly: job i takes the grid point
    # at position i of a seeded permutation (repeating), so the job-time
    # percentiles do not shift with how a seed happens to mix the sizes.
    GRID = [(n, m, T) for n in range(2, 13) for m in (1, 2, 3) for T in (0.1, 0.01)]

    def inputs(self, seed: int, index: int) -> dict:
        order = np.random.default_rng([seed, 3]).permutation(len(self.GRID))
        n, m, T = self.GRID[order[index % len(self.GRID)]]
        return {"sys": random_system(_rng(seed, index, 3), n, m, T), "T": T}

    def run(self, inp: dict, steps: list) -> bytes:
        sys_, T = inp["sys"], inp["T"]
        plant = TimedPlant(ctsid.SimulatedPlant(sys_, T), steps)
        res = ctsid.run_online_design(plant, sys_.n, sys_.m, T)
        est = ctsid.identify_discrete(res.dataset)
        if not est.informative:
            raise CheckMiss("not_informative", f"regressor rank {est.regressor_rank.rank}")
        truth = ctsid.discretize(sys_, T)
        ref = np.hstack([truth.a_t, truth.b_t])
        err = float(np.linalg.norm(np.hstack([est.a_t_hat, est.b_t_hat]) - ref) / np.linalg.norm(ref))
        if err > REL_ERROR_MAX:
            raise CheckMiss("error_bound", f"relative error {err:.3e}")
        return est.a_t_hat.tobytes() + est.b_t_hat.tobytes()


WORKLOADS = {w.name: w for w in (Aircraft(), Horizon(), DesignSweep())}


def run_job(workload, inp: dict, steps: list) -> tuple[str, float, bytes | str]:
    """Run one job; return (outcome, seconds, fingerprint or error text).

    Never raises for a failing job: package errors and check misses become
    outcomes, and any other exception becomes the outcome "error".
    """
    start = time.perf_counter()
    try:
        fp = workload.run(inp, steps)
        outcome = "ok"
    except ctsid.DesignFailureError as exc:
        outcome, fp = "design_failure", str(exc)
    except ctsid.NumericalError as exc:
        outcome, fp = "numerical", str(exc)
    except ctsid.ValidationError as exc:
        outcome, fp = "validation", str(exc)
    except CheckMiss as exc:
        outcome, fp = exc.outcome, str(exc)
    except Exception as exc:  # a crash must be counted, not end the run
        outcome, fp = "error", f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start, fp


def reference_check() -> list[tuple[str, bool, str]]:
    """The aircraft reference run reproduces the printed tables within 5e-4,
    as ``ctsid demo-aircraft`` does: the reference input levels (the tables
    belong to them) through simulation, filtering and identification. The
    default CyclingPolicy design on the same plant must reach rank n + m."""
    sys_, T = aircraft.system(), aircraft.T
    res = ctsid.run_online_design(ctsid.SimulatedPlant(sys_, T), sys_.n, sys_.m, T)
    rank = res.rank_report.rank
    checks = [("reference CyclingPolicy design", rank == sys_.n + sys_.m, f"rank {rank}")]
    inp = aircraft.reference_input()
    sd = ctsid.simulate_sampled(sys_, inp)
    dev = float(np.max(np.abs(sd.chi_all - aircraft.CHI_PRINTED)))
    checks.append(("reference chi", dev <= 5e-4, f"max deviation {dev:.2e}"))
    tables = {
        "poly_test": (aircraft.XF_POLY_PRINTED, aircraft.UF_POLY_PRINTED, aircraft.XDF_POLY_PRINTED),
        "lowpass": (aircraft.XF_LOWPASS_PRINTED, aircraft.UF_LOWPASS_PRINTED, aircraft.XDF_LOWPASS_PRINTED),
    }
    for family, refs in tables.items():
        bank = ctsid.make_filter_bank(family, RHO[family], T, aircraft.M, aircraft.N)
        fd = ctsid.filter_lti_dataset(sys_, inp, bank)
        dev = max(float(np.max(np.abs(a - r))) for a, r in zip((fd.x_f, fd.u_f, fd.x_df), refs))
        checks.append((f"reference {family} tables", dev <= 5e-4, f"max deviation {dev:.2e}"))
        err = ctsid.identify(fd, sys_.n, sys_.m, truth=sys_).frobenius_error
        checks.append((f"reference {family} error", err <= 1e-5, f"frobenius error {err:.2e}"))
    return checks
