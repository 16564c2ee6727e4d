"""Dense symmetric eigendecomposition, basis utilities, and the subspace-error metric.

Matrices are plain ``numpy.ndarray`` objects.  A "basis matrix" is a tall
matrix with orthonormal columns; ``check_basis`` enforces the convention.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisError, DimensionError, SpectralGapError, SymmetryError

BASIS_TOL = 1e-10
ACCUMULATED_BASIS_TOL = 1e-8  # slack for bases accumulated block by block


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return A


def check_basis(Q, tol: float = BASIS_TOL, name: str = "basis") -> np.ndarray:
    """Validate that Q has orthonormal columns within `tol` (max-norm)."""
    Q = _as_matrix(Q, name)
    n, k = Q.shape
    if k > n:
        raise BasisError(f"{name} is {n}x{k}; cannot have more columns than rows")
    if k > 0:
        gram = Q.T @ Q
        err = np.max(np.abs(gram - np.eye(k)))
        if err > tol:
            raise BasisError(f"{name} columns not orthonormal: max |Q'Q - I| = {err:.3e} > {tol:.1e}")
    return Q


@dataclass(frozen=True)
class EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues sorted non-increasing."""

    eigenvalues: np.ndarray   # shape (n,), descending
    eigenvectors: np.ndarray  # shape (n, n), column i pairs with eigenvalues[i]


def _fix_signs(V: np.ndarray) -> np.ndarray:
    # Deterministic sign convention: the largest-magnitude entry of each
    # column is positive; np.argmax resolves ties at the lowest index.
    V = V.copy()
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0.0] = 1.0
    return V * signs


def sym_eig(M) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input must be square and symmetric within 1e-10 relative tolerance;
    it is symmetrized before factorization so the reconstruction residual is
    controlled by the solver, not the input's asymmetry.
    """
    M = _as_matrix(M)
    n, m = M.shape
    if n != m:
        raise DimensionError(f"expected a square matrix, got {n}x{m}")
    scale = max(1.0, np.max(np.abs(M))) if M.size else 1.0
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > 1e-10 * scale:
        raise SymmetryError(f"matrix not symmetric: max |M - M'| = {asym:.3e} (scale {scale:.3e})")
    S = (M + M.T) / 2.0
    w, V = np.linalg.eigh(S)
    order = np.arange(n - 1, -1, -1)
    return EigenDecomposition(eigenvalues=w[order], eigenvectors=_fix_signs(V[:, order]))


def top_eigenvectors(M, r: int) -> np.ndarray:
    """Basis matrix for the span of the r largest-eigenvalue eigenvectors."""
    M = _as_matrix(M)
    n = M.shape[0]
    if not 1 <= r <= n:
        raise DimensionError(f"r={r} out of range for a {n}x{n} matrix")
    return sym_eig(M).eigenvectors[:, :r]


def spectral_norm(M) -> float:
    """Largest singular value of a matrix, or the largest over a (..., m, k)
    stack of matrices; 0.0 when there are no entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim > 2:
        if not np.isfinite(A).all():
            raise DimensionError("matrix stack contains non-finite entries")
    else:
        A = _as_matrix(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False).max())


def subspace_error(Phat, P) -> float:
    """sin of the largest principal angle from range(P) into range(Phat).

    Computed as the spectral norm of (I - Phat Phat') P and clamped to [0, 1]
    against roundoff.  Asymmetric when the column counts differ.  Inputs are
    validated at ACCUMULATED_BASIS_TOL.
    """
    Phat = check_basis(Phat, tol=ACCUMULATED_BASIS_TOL, name="Phat")
    P = check_basis(P, tol=ACCUMULATED_BASIS_TOL, name="P")
    if Phat.shape[0] != P.shape[0]:
        raise DimensionError(f"row dimensions differ: {Phat.shape[0]} vs {P.shape[0]}")
    R = P - Phat @ (Phat.T @ P)
    return min(1.0, max(0.0, spectral_norm(R)))


def empirical_covariance(Y) -> np.ndarray:
    """(1/alpha) * sum_t y_t y_t' over the columns of Y."""
    Y = _as_matrix(Y, "Y")
    n, alpha = Y.shape
    if alpha < 1:
        raise DimensionError("Y must have at least one column")
    C = (Y @ Y.T) / alpha
    return (C + C.T) / 2.0


def sin_theta_bound(lambda_min_a: float, lambda_max_aperp: float, h_norm: float) -> float:
    """Perturbation bound ||H|| / (lmin(A) - lmax(A_perp) - ||H||).

    Raises SpectralGapError when the denominator is not strictly positive,
    i.e. the bound is inapplicable.
    """
    if h_norm < 0:
        raise DimensionError("h_norm must be non-negative")
    denom = lambda_min_a - lambda_max_aperp - h_norm
    if denom <= 0.0:
        raise SpectralGapError(
            f"gap {lambda_min_a} - {lambda_max_aperp} - {h_norm} = {denom} is not positive"
        )
    return h_norm / denom
