"""End-to-end identification of the aircraft dynamics from filtered data.

Pipeline: simulate the sampled trajectory, filter the state, input, and
(derivative-free) state derivative with two filter families, check the
informativity rank, and recover (A, B) by the pseudo-inverse formula.
Also demonstrates the factorization tying filtered data to sampled data
and the discrete-time cross-check.

Run:  python3 demos/04_aircraft_identification.py
"""

import numpy as np

from ctsid import (
    aircraft,
    build_relation_matrices,
    decompose,
    discretize,
    factorization_residual,
    filter_lti_dataset,
    identify,
    identify_discrete,
    make_filter_bank,
    simulate_sampled,
    verify_algebraic,
)
from ctsid.linalg import expm, frobenius_distance

np.set_printoptions(precision=4, suppress=True)

sys_ = aircraft.system()
inp = aircraft.reference_input()
sd = simulate_sampled(sys_, inp)
truth = np.hstack([sys_.a, sys_.b])

for family, rho in (("poly_test", aircraft.POLY_TEST_RHO), ("lowpass", aircraft.LOWPASS_RHO)):
    print(f"\n=== {family} (rho = {rho:g}) ===")
    bank = make_filter_bank(family, rho, aircraft.T, aircraft.M, aircraft.N)
    fd = filter_lti_dataset(sys_, inp, bank)

    print("x_f =\n", fd.x_f)
    print("u_f =\n", fd.u_f)
    print("x_df =\n", fd.x_df)

    # the filtered data inherit the dynamics: x_df = A x_f + B u_f
    print(f"algebraic residual |x_df - A x_f - B u_f|: {verify_algebraic(fd, sys_):.2e}")

    # and factor through the sampled data: [x_f; u_f] = C_bar [chi; mu] F_bar
    rel = build_relation_matrices(sys_, decompose(bank))
    print(f"factorization residual: {factorization_residual(fd, sd, rel):.2e}")

    res = identify(fd, sys_.n, sys_.m, truth=sys_)
    print("rank [x_f; u_f] =", res.stacked_rank.rank,
          "(informative)" if res.informative else "(NOT informative)")
    print("[A_hat B_hat] =\n", res.ab_hat)
    print(f"Frobenius error vs truth: {res.frobenius_error:.4e} "
          f"(reference pipeline: {aircraft.REFERENCE_ERROR_POLY if family == 'poly_test' else aircraft.REFERENCE_ERROR_LOWPASS:.4e})")

# Discrete-time cross-check: fit chi_{k+1} = A_T chi_k + B_T mu_k directly,
# then compare expm(A_hat T) against the fitted A_T.
bank = make_filter_bank("poly_test", aircraft.POLY_TEST_RHO, aircraft.T, 6, 6)
res_ct = identify(filter_lti_dataset(sys_, inp, bank), 4, 2)
res_dt = identify_discrete(sd)
print(f"\n|expm(A_hat T) - A_T_hat|: "
      f"{frobenius_distance(expm(res_ct.a_hat * aircraft.T), res_dt.a_t_hat):.2e}")
print(f"|A_T_hat - e^(AT)|:        "
      f"{frobenius_distance(res_dt.a_t_hat, discretize(sys_, aircraft.T).a_t):.2e}")
