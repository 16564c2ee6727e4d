"""Closed-form sample-complexity and correlation-budget calculators, plus
brute-force verification oracles for the block-sum norm bound and the
eigenvector perturbation bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import SupportSchedule
from .errors import DimensionError, ParameterError, PsdError
from .linalg import (
    empirical_covariance,
    sin_theta_bound,
    spectral_norm,
    subspace_error,
    sym_eig,
    top_eigenvectors,
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
        if self.f < 1:
            raise ParameterError(f"condition number f must be >= 1, got {self.f}")
        if self.q < 0:
            raise ParameterError(f"q must be non-negative, got {self.q}")
        if self.eta < 1:
            raise ParameterError(f"eta must be >= 1, got {self.eta}")
        if self.zeta <= 0:
            raise ParameterError(f"zeta must be positive, got {self.zeta}")
        if self.r_k is None:
            object.__setattr__(self, "r_k", self.r)
        if not 1 <= self.r_k <= self.r:
            raise ParameterError(f"r_k must lie in [1, r], got {self.r_k}")
        if self.vartheta < 1:
            raise ParameterError("vartheta must be >= 1")
        if self.chi_plus < 0:
            raise ParameterError("chi_plus must be non-negative")


def _require(cond: bool, name: str):
    if not cond:
        raise ParameterError(f"violated condition: {name}")


def alpha0_simple(inp: BoundInputs) -> float:
    """Batch length sufficient for the one-shot estimator's error target."""
    rz = inp.r * inp.zeta
    _require(rz <= 0.01, "r*zeta <= 0.01")
    peak = max(inp.f, inp.q * inp.f, inp.q**2 * inp.f)
    return C_SIMPLE * inp.eta**2 * (inp.r**2 * 11.0 * math.log(inp.n)) / rz**2 * peak**2


def beta_frac_simple(inp: BoundInputs) -> float:
    """Largest admissible beta/alpha for the one-shot estimator.

    q = 0 means the noise support imposes no constraint; +inf is returned.
    """
    rz = inp.r * inp.zeta
    _require(rz <= 0.01, "r*zeta <= 0.01")
    if inp.q == 0.0:
        return math.inf
    qf = inp.q * inp.f
    return ((1.0 - rz) / 2.0) ** 2 * min(rz**2 / (4.1 * qf**2), rz / (inp.q**2 * inp.f))


def _chi_plus_cap(g_plus: float, rz: float) -> float:
    return min(1.0 - rz - 0.08 / 0.25, (g_plus - 0.0001) / (1.01 * g_plus + 0.0001) - 0.0001)


def alpha0_cluster(inp: BoundInputs) -> float:
    """Per-cluster batch length sufficient for the cluster estimator."""
    _require(inp.g_plus is not None and inp.g_plus >= 1, "g_plus >= 1 supplied")
    rz = inp.r * inp.zeta
    _require(inp.r**2 * inp.zeta <= 0.0001, "r^2*zeta <= 0.0001")
    _require(inp.r**2 * inp.zeta * inp.f <= 0.01, "r^2*zeta*f <= 0.01")
    _require(inp.chi_plus <= _chi_plus_cap(inp.g_plus, rz), "chi_plus within its admissible cap")
    g = inp.g_plus
    peak = max(
        g,
        inp.q * g,
        inp.q**2 * inp.f,
        inp.q * rz * inp.f,
        rz**2 * inp.f,
        inp.q * math.sqrt(inp.f * g),
        rz * math.sqrt(inp.f * g),
    )
    logs = 11.0 * math.log(inp.n) + math.log(inp.vartheta)
    return C_CLUSTER * inp.eta**2 * (inp.r**2 * logs) / rz**2 * peak**2


def beta_frac_cluster(inp: BoundInputs) -> float:
    """Largest admissible beta/alpha for the cluster estimator."""
    _require(inp.g_plus is not None and inp.g_plus >= 1, "g_plus >= 1 supplied")
    rz = inp.r * inp.zeta
    _require(inp.chi_plus < 1.0 - rz, "chi_plus < 1 - r*zeta")
    if inp.q == 0.0:
        return math.inf
    rkz = inp.r_k * inp.zeta
    qg = inp.q * inp.g_plus
    return ((1.0 - rz - inp.chi_plus) / 2.0) ** 2 * min(
        rkz**2 / (4.1 * qg**2), rkz / (inp.q**2 * inp.f)
    )


def verify_m2_bound(schedule: SupportSchedule, A) -> tuple[float, float, bool]:
    """Brute-force check of the block-sum norm bound.

    A is an (alpha, s, s) stack, one PSD matrix per frame (a list of equal
    shape matrices works too).  Assembles sum_t I_T A_t I_T' explicitly and
    compares its spectral norm (lhs) against rho^2 * beta_tilde * max_t
    ||A_t|| (rhs).
    """
    try:
        A = np.asarray(A, dtype=float)
    except ValueError:
        raise DimensionError("the per-frame matrices differ in shape") from None
    if A.shape != (schedule.alpha, schedule.s, schedule.s):
        raise DimensionError(f"need one s x s matrix per frame, (alpha, s, s) = "
                             f"{(schedule.alpha, schedule.s, schedule.s)}; got {A.shape}")
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
    # S is symmetric by construction; its spectral norm is the extreme eigenvalue
    ws = np.linalg.eigvalsh((S + S.T) / 2.0)
    lhs = float(max(abs(ws[0]), abs(ws[-1])))
    rhs = schedule.beta * max_norm
    return lhs, rhs, lhs <= rhs + 1e-9


def perturbation_decomposition(Y, L) -> tuple[float, float, float]:
    """Split the covariance perturbation into its signal-noise cross term and
    pure noise term.

    Returns (cross, noise, H_norm) with w_t := y_t - ell_t,
    cross = ||(1/alpha) sum ell_t w_t'||, noise = ||(1/alpha) sum w_t w_t'||,
    H_norm = ||cov(Y) - cov(L)||.  The triangle bound
    H_norm <= 2*cross + noise is re-verified on every call.
    """
    Y = np.asarray(Y, dtype=float)
    L = np.asarray(L, dtype=float)
    if Y.shape != L.shape or Y.ndim != 2:
        raise DimensionError(f"shape mismatch: {Y.shape} vs {L.shape}")
    alpha = Y.shape[1]
    W = Y - L
    cross = spectral_norm(L @ W.T / alpha)
    noise = spectral_norm(W @ W.T / alpha)
    h_norm = spectral_norm(empirical_covariance(Y) - empirical_covariance(L))
    if h_norm > 2.0 * cross + noise + 1e-9:
        raise ArithmeticError(
            f"perturbation split inconsistent: {h_norm} > 2*{cross} + {noise}"
        )
    return cross, noise, h_norm


def sin_theta_gap_check(A_full, H, r: int) -> tuple[float, float]:
    """Compare the measured rotation of the top-r eigenspace against its bound.

    Returns (bound, measured); raises SpectralGapError when the eigenvalue
    gap net of ||H|| is not positive, in which case the bound says nothing.
    """
    ed = sym_eig(A_full)
    n = ed.eigenvalues.size
    if not 1 <= r < n:
        raise DimensionError(f"r={r} must lie in [1, {n - 1}]")
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise DimensionError(f"H must be {n}x{n}, got {H.shape}")
    h_norm = spectral_norm(H)
    bound = sin_theta_bound(ed.eigenvalues[r - 1], ed.eigenvalues[r], h_norm)
    E = ed.eigenvectors[:, :r]
    measured = subspace_error(top_eigenvectors(np.asarray(A_full) + H, r), E)
    return bound, measured
