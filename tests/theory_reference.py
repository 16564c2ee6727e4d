"""The bound formulas transcribed with plain scalar arithmetic.

Deliberately does NOT import the package: tests/test_theory.py checks the
calculators in `ddnpca.theory` against it, and its values at four inputs are
frozen there as regression constants, so it must stay an independent
transcription of the formulas.
"""

import math

C_SIMPLE = 32.0 / (0.01 * 0.01)
C_CLUSTER = 32.0 * 16.0 / (0.01 * 0.01)


def alpha0_simple(n, r, f, q, eta, zeta):
    rz = r * zeta
    peak = max(f, q * f, q * q * f)
    return C_SIMPLE * eta * eta * (r * r * 11.0 * math.log(n)) / (rz * rz) * peak * peak


def beta_frac_simple(r, f, q, zeta):
    rz = r * zeta
    first = rz * rz / (4.1 * (q * f) ** 2)
    second = rz / (q * q * f)
    return ((1.0 - rz) / 2.0) ** 2 * min(first, second)


def alpha0_cluster(n, r, f, q, eta, zeta, g_plus, vartheta):
    rz = r * zeta
    peak = max(
        g_plus,
        q * g_plus,
        q * q * f,
        q * rz * f,
        rz * rz * f,
        q * math.sqrt(f * g_plus),
        rz * math.sqrt(f * g_plus),
    )
    logs = 11.0 * math.log(n) + math.log(vartheta)
    return C_CLUSTER * eta * eta * (r * r * logs) / (rz * rz) * peak * peak


def beta_frac_cluster(r, r_k, f, q, zeta, g_plus, chi_plus):
    rz = r * zeta
    rkz = r_k * zeta
    first = rkz * rkz / (4.1 * (q * g_plus) ** 2)
    second = rkz / (q * q * f)
    return ((1.0 - rz - chi_plus) / 2.0) ** 2 * min(first, second)
