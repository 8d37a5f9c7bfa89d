import sys

import numpy as np
import pytest

import ctsid.linalg
import ctsid.ltisim as ltisim
from ctsid import (
    LtiSystem,
    PiecewiseConstantInput,
    aircraft,
    check_nonpathological,
    discretize,
    simulate_sampled,
)


@pytest.fixture(autouse=True)
def cold_propagator_memo():
    """Each test starts with no propagator memoized: discretize keeps them per
    (A, B, T) across systems, so counts of exponentials, rule builds and
    transitions would otherwise depend on the tests run before."""
    ltisim._propagators.clear()


@pytest.fixture
def expm_calls(monkeypatch) -> list:
    """Records every linalg.expm call as (calling module's name, argument).

    Patches every loaded ctsid module that binds expm, found from
    sys.modules: a hand-written list of modules could name one that only
    imports expm, miss the one that calls it, and pass a count of zero."""
    calls: list = []
    original = ctsid.linalg.expm

    def recorder(module):
        def expm(a):
            calls.append((module, np.array(a)))
            return original(a)

        return expm

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "ctsid" and getattr(mod, "expm", None) is original:
            monkeypatch.setattr(mod, "expm", recorder(name))
    return calls


@pytest.fixture(scope="session")
def aircraft_system():
    return aircraft.system()


@pytest.fixture(scope="session")
def aircraft_input():
    return aircraft.reference_input()


def state_fn(sys_: LtiSystem, inp: PiecewiseConstantInput):
    """Pointwise exact state on [0, N*T] for the quadrature oracles.

    Propagators come from the system's one propagator and are memoized per
    interval offset rounded to 14 decimals, so grids whose offsets repeat
    across intervals (quadrature nodes, fixed-step integrators) cost one
    exponential per offset. The closed endpoint t = N*T returns the final
    sample.
    """
    sd = simulate_sampled(sys_, inp)
    starts = sd.stacked()
    prop = discretize(sys_, inp.T)
    memo: dict[float, np.ndarray] = {}

    def f(t: float) -> np.ndarray:
        if t == inp.horizon:
            return sd.chi_final.copy()
        k = inp.interval_of(t)
        tau = t - k * inp.T
        key = round(tau, 14)
        if key not in memo:
            memo[key] = prop.at(tau)[0]
        return memo[key] @ starts[:, k]

    return f


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


MAX_DRAWS = 100


def random_controllable_system(
    rng: np.random.Generator,
    n: int,
    m: int,
    T: float = 0.1,
    scale: float = 2.0,
) -> LtiSystem:
    """Random (A, B, x0) with entries in [-scale, scale], controllable and
    with a non-pathological sampling time T; redraws until both hold.

    Gives up after MAX_DRAWS draws: from n of about 30 on, matrix_rank of the
    controllability matrix falls short of n on every draw, so an unbounded
    search would never end.
    """
    for _ in range(MAX_DRAWS):
        a = rng.uniform(-scale, scale, size=(n, n))
        b = rng.uniform(-scale, scale, size=(n, m))
        x0 = rng.uniform(-scale, scale, size=n)
        ctrb = controllability_matrix(a, b)
        if np.linalg.matrix_rank(ctrb) < n:
            continue
        sys_ = LtiSystem(a=a, b=b, x0=x0)
        ok, _ = check_nonpathological(sys_, T)
        if ok:
            return sys_
    raise RuntimeError(
        f"no controllable, non-pathological system with n={n}, m={m}, T={T} "
        f"in {MAX_DRAWS} draws"
    )


def controllable_by_construction(
    rng: np.random.Generator,
    n: int,
    m: int,
    T: float = 0.1,
) -> LtiSystem:
    """Random (A, B, x0) that is controllable by construction, for any n.

    A = Q D Q^T with Q a random orthogonal matrix (QR of a Gaussian) and D
    block diagonal: 1 x 1 blocks for real eigenvalues and 2 x 2 blocks
    [[a, b], [-b, a]] for pairs a +- ib. The n eigenvalues are drawn with
    real parts in [-1, 0.5], imaginary parts in [0.2, 2] and pairwise
    distance at least 0.05, so every eigenspace is one-dimensional and the
    Popov-Belevitch-Hautus test, rank [A - lambda I, B] = n at each
    eigenvalue, decides controllability; it is checked on the drawn B with a
    relative margin of 1e-6, and T must be non-pathological.
    """
    for _ in range(MAX_DRAWS):
        n_pairs = int(rng.integers(0, n // 2 + 1))
        n_real = n - 2 * n_pairs
        re = rng.uniform(-1.0, 0.5, size=n_real + n_pairs)
        im = rng.uniform(0.2, 2.0, size=n_pairs)
        lam = np.concatenate([re[:n_real], re[n_real:] + 1j * im, re[n_real:] - 1j * im])
        dist = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 0.05:
            continue
        d = np.diag(np.concatenate([re[:n_real], np.repeat(re[n_real:], 2)]))
        for i, b in enumerate(im):
            j = n_real + 2 * i
            d[j, j + 1], d[j + 1, j] = b, -b
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))
        a_mat = q @ d @ q.T
        b_mat = rng.standard_normal((n, m))
        pbh = [
            np.linalg.svd(np.hstack([a_mat - l * np.eye(n), b_mat]), compute_uv=False)
            for l in lam
        ]
        if min(s[-1] / s[0] for s in pbh) < 1e-6:
            continue
        sys_ = LtiSystem(a=a_mat, b=b_mat, x0=rng.standard_normal(n))
        if check_nonpathological(sys_, T)[0]:
            return sys_
    raise RuntimeError(f"no controllable system with n={n}, m={m}, T={T} in {MAX_DRAWS} draws")
