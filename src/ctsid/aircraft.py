"""Aircraft longitudinal-dynamics example: the built-in reference problem.

Four states (x/z body-axis velocities, pitch rate, pitch angle), two inputs
(elevator deflection, throttle), sampled at T = 0.1 s. Ships with the
reference tables (4-decimal print precision) that the demo pipeline and the
acceptance suite reproduce.
"""

from __future__ import annotations

import numpy as np

from .ltisim import LtiSystem, PiecewiseConstantInput

T = 0.1
N = 6
M = 6

A = np.array(
    [
        [-0.0190, 0.0825, -0.1005, -0.3206],
        [-0.2154, -2.7859, 1.2031, -0.0271],
        [3.2527, -30.7871, -3.5418, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

B = np.array(
    [
        [0.0065, 0.0534],
        [-0.6103, 0.0020],
        [-74.6355, 0.5431],
        [0.0, 0.0],
    ]
)

X0 = np.array([2.0, -1.0, 1.0, 0.5])

# the input sequence realized by the online designer in the reference run
MU = np.array(
    [
        [1.0, -1.0, 1.0, -1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0, 1.0, -1.0],
    ]
)

LOWPASS_RHO = 1.0

# Quartic-window gain used for the reference tables. The tables normalize
# the window so its integral over one period is 1/3, i.e. rho = 10 / T^5.
POLY_TEST_RHO = 10.0 / T**5

# Identification errors attained by the reference run (full precision).
REFERENCE_ERROR_POLY = 6.2340e-7
REFERENCE_ERROR_LOWPASS = 1.4599e-6

# Reference tables, printed to 4 decimals. Values unchanged from the print.
# Five entries differ from the exact filtered data by more than half a unit
# (5e-5), by at most 1.02e-4: poly_test x_df[2, 1], x_df[2, 5], x_df[3, 1] and
# lowpass x_f[0, 4], x_f[2, 1] (0-based). Two of them are internal mismatches:
# x_df row 3 must equal x_f row 2 (the pitch angle's derivative is the pitch
# rate), yet at column 1 the print has 0.9058 against 0.9059 (poly_test) and
# 0.1765 against 0.1766 (lowpass). A per-entry 5e-5 bound therefore does not
# hold for these tables; a Frobenius budget of 5e-5 * sqrt(entries) does.

CHI_PRINTED = np.array(
    [
        [2, 1.9877, 1.9308, 1.8672, 1.7965, 1.7030, 1.6170],
        [-1, -0.9492, -0.4078, -0.0961, 0.2965, 0.6994, 0.7164],
        [1, -2.5648, 6.9073, -0.5012, 6.2982, 3.5254, 0.9785],
        [0.5, 0.4124, 0.6720, 0.9783, 1.2988, 1.7922, 2.0105],
    ]
)

XF_POLY_PRINTED = np.array(
    [
        [0.6632, 0.6566, 0.6306, 0.6133, 0.5827, 0.5527],
        [-0.3090, -0.2614, -0.0489, 0.0081, 0.1820, 0.2471],
        [-0.3009, 0.9059, 1.0074, 1.0977, 1.6470, 0.7208],
        [0.1649, 0.1468, 0.3017, 0.3552, 0.5252, 0.6429],
    ]
)

UF_POLY_PRINTED = np.array(
    [
        [0.3333, -0.3333, 0.3333, -0.3333, 0.0, 0.0],
        [0.3333, -0.3333, 0.0, 0.0, 0.3333, -0.3333],
    ]
)

XDF_POLY_PRINTED = np.array(
    [
        [-0.0407, -0.1921, -0.2118, -0.2373, -0.3122, -0.2865],
        [0.1488, 1.8755, 1.0010, 1.3597, 1.3355, 0.0418],
        [-11.9604, 31.6734, -24.8886, 22.7354, -9.3601, -8.5424],
        [-0.3009, 0.9058, 1.0074, 1.0977, 1.6470, 0.7208],
    ]
)

XF_LOWPASS_PRINTED = np.array(
    [
        [0.1894, 0.3586, 0.5046, 0.6314, 0.7377, 0.8252],
        [-0.0892, -0.1527, -0.1541, -0.1352, -0.0711, 0.0055],
        [-0.0862, 0.1766, 0.4453, 0.7133, 1.1128, 1.2126],
        [0.0462, 0.0861, 0.1625, 0.2503, 0.3761, 0.5235],
    ]
)

UF_LOWPASS_PRINTED = np.array(
    [
        [0.0952, -0.0091, 0.0870, -0.0165, -0.0149, -0.0135],
        [0.0952, -0.0091, -0.0082, -0.0074, 0.0885, -0.0151],
    ]
)

XDF_LOWPASS_PRINTED = np.array(
    [
        [-0.0114, -0.0653, -0.1190, -0.1756, -0.2477, -0.3058],
        [0.0449, 0.5636, 0.7988, 1.1021, 1.3770, 1.2597],
        [-3.3835, 5.9120, -1.6873, 4.9145, 1.8061, -0.7829],
        [-0.0862, 0.1765, 0.4453, 0.7133, 1.1128, 1.2126],
    ]
)

# (family, rho, printed (x_f, u_f, x_df), identification error) per reference run
REFERENCE_RUNS = (
    ("poly_test", POLY_TEST_RHO, (XF_POLY_PRINTED, UF_POLY_PRINTED, XDF_POLY_PRINTED),
     REFERENCE_ERROR_POLY),
    ("lowpass", LOWPASS_RHO, (XF_LOWPASS_PRINTED, UF_LOWPASS_PRINTED, XDF_LOWPASS_PRINTED),
     REFERENCE_ERROR_LOWPASS),
)


def system() -> LtiSystem:
    return LtiSystem(a=A, b=B, x0=X0)


def reference_input() -> PiecewiseConstantInput:
    return PiecewiseConstantInput(T=T, levels=MU)
