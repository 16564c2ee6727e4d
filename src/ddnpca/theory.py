"""Closed-form sample-complexity and correlation-budget calculators, plus
brute-force verification oracles for the block-sum norm bound and the
eigenvector perturbation bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import SupportSchedule
from .errors import DimensionError, ParameterError, PsdError, SpectralGapError
from .linalg import (
    empirical_covariance,  # unused here, but perfbench traces ddnpca.theory.empirical_covariance
    spectral_norm,
    subspace_error,
    sym_eig,
)

C_SIMPLE = 32.0 / 0.01**2          # 320000
C_CLUSTER = 32.0 * 16.0 / 0.01**2  # 5120000


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs to the bound calculators.

    r_k defaults to r (single cluster); g_plus/chi_plus/vartheta matter only
    for the cluster-side calculators.
    """

    n: int
    r: int
    f: float
    q: float
    eta: float
    zeta: float
    r_k: int | None = None
    g_plus: float | None = None
    chi_plus: float = 0.0
    vartheta: int = 1

    def __post_init__(self):
        if self.n < 2 or self.r < 1:
            raise ParameterError("need n >= 2 and r >= 1")
        if not self.f >= 1:
            raise ParameterError(f"condition number f must be >= 1, got {self.f}")
        if not self.q >= 0:
            raise ParameterError(f"q must be non-negative, got {self.q}")
        if not self.eta >= 1:
            raise ParameterError(f"eta must be >= 1, got {self.eta}")
        if not self.zeta > 0:
            raise ParameterError(f"zeta must be positive, got {self.zeta}")
        if self.r_k is None:
            object.__setattr__(self, "r_k", self.r)
        if not 1 <= self.r_k <= self.r:
            raise ParameterError(f"r_k must lie in [1, r], got {self.r_k}")
        if self.vartheta < 1:
            raise ParameterError("vartheta must be >= 1")
        if not self.chi_plus >= 0:
            raise ParameterError("chi_plus must be non-negative")


def _require(cond: bool, name: str):
    if not cond:
        raise ParameterError(f"violated condition: {name}")


def zeta_caps(r: int, f: float) -> tuple[float, float, float]:
    """Largest zeta with r*zeta <= 0.01 (simple), r^2*zeta <= 0.0001 and
    r^2*zeta*f <= 0.01 (cluster); the checks test zeta against these caps."""
    return 0.01 / r, 0.0001 / r**2, 0.01 / (r**2 * f)


def alpha0_simple(inp: BoundInputs) -> float:
    """Batch length sufficient for the one-shot estimator's error target;
    +inf when it is past the float range."""
    rz = inp.r * inp.zeta
    _require(inp.zeta <= zeta_caps(inp.r, inp.f)[0], "r*zeta <= 0.01")
    peak = max(inp.f, inp.q * inp.f, inp.q * inp.q * inp.f)
    ratio = peak / rz
    return C_SIMPLE * inp.eta * inp.eta * (inp.r**2 * 11.0 * math.log(inp.n)) * ratio * ratio


def beta_frac_simple(inp: BoundInputs) -> float:
    """Largest admissible beta/alpha for the one-shot estimator.

    q = 0 means the noise support imposes no constraint; +inf is returned,
    as it is for a value past the float range.  Each square is of a ratio,
    so no square underflows to a zero divisor.
    """
    rz = inp.r * inp.zeta
    _require(inp.zeta <= zeta_caps(inp.r, inp.f)[0], "r*zeta <= 0.01")
    if inp.q == 0.0:
        return math.inf
    ratio = rz / (inp.q * inp.f)
    return ((1.0 - rz) / 2.0) ** 2 * min(ratio * ratio / 4.1, ratio / inp.q)


def _chi_plus_cap(g_plus: float, rz: float) -> float:
    return min(1.0 - rz - 0.08 / 0.25, (g_plus - 0.0001) / (1.01 * g_plus + 0.0001) - 0.0001)


def alpha0_cluster(inp: BoundInputs) -> float:
    """Per-cluster batch length sufficient for the cluster estimator; +inf
    when it is past the float range."""
    _require(inp.g_plus is not None and inp.g_plus >= 1, "g_plus >= 1 supplied")
    rz = inp.r * inp.zeta
    _, r2_cap, r2f_cap = zeta_caps(inp.r, inp.f)
    _require(inp.zeta <= r2_cap, "r^2*zeta <= 0.0001")
    _require(inp.zeta <= r2f_cap, "r^2*zeta*f <= 0.01")
    _require(inp.chi_plus <= _chi_plus_cap(inp.g_plus, rz), "chi_plus within its admissible cap")
    g = inp.g_plus
    peak = max(
        g,
        inp.q * g,
        inp.q * inp.q * inp.f,
        inp.q * rz * inp.f,
        rz * rz * inp.f,
        inp.q * math.sqrt(inp.f * g),
        rz * math.sqrt(inp.f * g),
    )
    logs = 11.0 * math.log(inp.n) + math.log(inp.vartheta)
    ratio = peak / rz
    return C_CLUSTER * inp.eta * inp.eta * (inp.r**2 * logs) * ratio * ratio


def beta_frac_cluster(inp: BoundInputs) -> float:
    """Largest admissible beta/alpha for the cluster estimator; +inf at
    q = 0 and past the float range, its squares formed as `beta_frac_simple`'s."""
    _require(inp.g_plus is not None and inp.g_plus >= 1, "g_plus >= 1 supplied")
    rz = inp.r * inp.zeta
    _require(inp.chi_plus < 1.0 - rz, "chi_plus < 1 - r*zeta")
    if inp.q == 0.0:
        return math.inf
    rkz = inp.r_k * inp.zeta
    ratio = rkz / (inp.q * inp.g_plus)
    return ((1.0 - rz - inp.chi_plus) / 2.0) ** 2 * min(
        ratio * ratio / 4.1, rkz / (inp.q * inp.f) / inp.q
    )


def verify_m2_bound(schedule: SupportSchedule, A) -> tuple[float, float, bool]:
    """Brute-force check of the block-sum norm bound.

    A is an (alpha, s, s) stack, one PSD matrix per frame (a list of equal
    shape matrices works too), symmetric within 1e-9.  Assembles
    sum_t I_T A_t I_T' explicitly, symmetrized unless every A_t is exactly
    symmetric, and compares its spectral norm (lhs) against
    rho^2 * beta_tilde * max_t ||A_t|| (rhs).
    """
    try:
        A = np.asarray(A, dtype=float)
    except ValueError:
        raise DimensionError("the per-frame matrices differ in shape") from None
    if A.shape != (schedule.alpha, schedule.s, schedule.s):
        raise DimensionError(f"need one s x s matrix per frame, (alpha, s, s) = "
                             f"{(schedule.alpha, schedule.s, schedule.s)}; got {A.shape}")
    if not np.isfinite(A).all():
        raise DimensionError("the per-frame matrices contain non-finite entries")
    At = np.swapaxes(A, 1, 2)
    asym = np.abs(A - At).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    w = np.linalg.eigvalsh((A + At) / 2.0)
    not_symmetric = asym > 1e-9 * scale
    bad = np.flatnonzero(not_symmetric | (w[:, 0] < -1e-9))
    if bad.size:
        t = bad[0]
        if not_symmetric[t]:
            raise PsdError(f"frame {t}: matrix is not symmetric")
        raise PsdError(f"frame {t}: negative eigenvalue {w[t, 0]:.3e}")
    S = np.zeros((schedule.n, schedule.n))
    T = schedule.supports
    np.add.at(S, (T[:, :, None], T[:, None, :]), A)  # frame by frame, in order
    max_norm = max(0.0, float(w[:, -1].max()))
    # S is symmetric by construction: its spectral norm is an extreme eigenvalue.
    # From exactly symmetric frames S_ij and S_ji are equal sums in one frame order: (S + S')/2 = S.
    ws = np.linalg.eigvalsh((S + S.T) / 2.0 if asym.any() else S)
    lhs = float(max(abs(ws[0]), abs(ws[-1])))
    rhs = schedule.beta * max_norm
    return lhs, rhs, lhs <= rhs + 1e-9


def sin_theta_gap_check(A_full, H, r: int) -> tuple[float, float]:
    """Compare the measured rotation of the top-r eigenspace against its
    bound ||H|| / (lambda_r(A) - lambda_{r+1}(A) - ||H||).

    Returns (bound, measured); raises SpectralGapError when the eigenvalue
    gap net of ||H|| is not positive, in which case the bound says nothing.
    """
    w, V = sym_eig(A_full)
    n = w.size
    if not 1 <= r < n:
        raise DimensionError(f"r={r} must lie in [1, {n - 1}]")
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise DimensionError(f"H must be {n}x{n}, got {H.shape}")
    h_norm = spectral_norm(H)
    gap = w[r - 1] - w[r] - h_norm
    if gap <= 0.0:
        raise SpectralGapError(f"gap {w[r - 1]} - {w[r]} - {h_norm} = {gap} is not positive")
    bound = h_norm / gap
    measured = subspace_error(sym_eig(np.asarray(A_full) + H)[1][:, :r], V[:, :r])
    return bound, measured
