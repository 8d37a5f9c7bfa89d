"""Simulating a continuous-time LTI plant under a piecewise-constant input.

Walks through the exact zero-order-hold discretization, the sampled
dataset, dense intersample evaluation, and the independent RK4 cross-check
on the aircraft longitudinal-dynamics preset.

Run:  python3 demos/01_simulate_and_sample.py
"""

import numpy as np

from ctsid import Trajectory, aircraft, discretize, simulate_sampled, state_at
from ctsid.oracles import rk4_oracle

np.set_printoptions(precision=4, suppress=True)

sys_ = aircraft.system()
inp = aircraft.reference_input()

print("Aircraft plant: n =", sys_.n, "states, m =", sys_.m, "inputs, T =", inp.T)
print("A =\n", sys_.a)
print("B =\n", sys_.b)
print("x0 =", sys_.x0)

# The discretized pair is exact at sampling instants: A_T = e^{AT},
# B_T = int_0^T e^{At} B dt, both from one augmented matrix exponential.
d = discretize(sys_, inp.T)
print("\nExact ZOH discretization:")
print("A_T =\n", d.a_t)
print("B_T =\n", d.b_t)

sd = simulate_sampled(sys_, inp)
print("\nSampled states chi_0 .. chi_6 (columns):")
print(sd.chi_all)

# Between sampling instants the state is still available in closed form.
grid = np.linspace(0.0, inp.horizon, 13, endpoint=False)
traj = Trajectory(times=grid, states=state_at(sys_, inp, grid))
print("\nDense trajectory on a 13-point grid (first state component):")
for t, v in zip(traj.times, traj.states[0]):
    print(f"  x1({t:.3f}) = {v: .4f}")

# Cross-check against a classical RK4 integrator that knows nothing about
# matrix exponentials (steps never straddle an input switch).
rk4 = rk4_oracle(sys_, inp, h=inp.T / 4096)
idx = [int(round(k * 4096)) for k in range(inp.N + 1)]
gap = np.max(np.abs(sd.chi_all - rk4.states[:, idx]))
print(f"\nmax |exact - RK4| at sampling instants: {gap:.2e}")
