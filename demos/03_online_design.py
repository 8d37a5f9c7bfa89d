"""Online experiment design with the minimum number of samples.

The designer observes the state one sampling period at a time and picks
the next input so that the stacked data matrix [chi; mu] gains one rank
per step, reaching rank n + m after exactly n + m samples. At each step it
weighs the policy's input against a certificate input of the same norm,
taken from a left-kernel certificate (xi, eta) of the stacked prefix, and
keeps the one that sticks out further from the data collected so far. The
branch log says which input was taken: "new-direction" (the policy's) or
"certificate". When the new state already lies in the span of earlier
states, the certificate input is the one guaranteed to restore progress.

Run:  python3 demos/03_online_design.py
"""

import numpy as np

from ctsid import (
    PiecewiseConstantInput,
    SimulatedPlant,
    aircraft,
    hankel,
    pe_check,
    run_online_design,
    verify_intersample,
)

np.set_printoptions(precision=4, suppress=True)

sys_ = aircraft.system()
T = aircraft.T
n, m = sys_.n, sys_.m

res = run_online_design(SimulatedPlant(sys_, T), n, m, T)

print(f"designed {res.dataset.N} samples for n + m = {n + m}")
print("rank after each step:", res.rank_history)
print("input taken at each step:")
for k, branch in enumerate(res.branches):
    line = f"  step {k}: {branch:13s} mu_{k} = {res.dataset.mu[:, k]}"
    print(line)

for cert in res.certificates:
    print(f"\ncertificate at step {cert.k}:")
    print("  xi  =", cert.xi)
    print("  eta =", cert.eta)
    # the certificate annihilates every column collected before step k
    stacked_prefix = res.dataset.stacked()[:, : cert.k]
    print("  |(xi, eta)^T . prefix| =", np.abs(cert.vector() @ stacked_prefix))

print("\nfinal singular values of [chi; mu]:", res.rank_report.singular_values)

# The rank condition holds between sampling instants too.
inp = PiecewiseConstantInput(T=T, levels=res.dataset.mu)
offsets = np.linspace(0.0, T, 5, endpoint=False)
print("\nintersample rank at offsets", np.round(offsets, 3), ":")
print(" ", [rep.rank for _, rep in verify_intersample(sys_, inp, offsets)])

# Contrast with the offline persistency-of-excitation route, which needs
# at least n + (n+1)m = 14 samples before its Hankel test can even pass.
print("\nPE of order n+1 with these", res.dataset.N, "samples:", pe_check(res.dataset.mu, n))
rng = np.random.default_rng(0)
long_mu = rng.standard_normal((m, n + (n + 1) * m))
print("PE with", long_mu.shape[1], "random samples:", pe_check(long_mu, n),
      f"(Hankel is {hankel(long_mu, n + 1).shape[0]} x {hankel(long_mu, n + 1).shape[1]})")
