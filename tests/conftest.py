import numpy as np
import pytest

from ctsid import (
    LtiSystem,
    PiecewiseConstantInput,
    aircraft,
    check_nonpathological,
    discretize,
    simulate_sampled,
)


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
