"""Dense symmetric eigendecomposition, basis utilities, the projector I - GG', and the subspace-error metric.

Matrices are plain ``numpy.ndarray`` objects.  A "basis matrix" is a tall
matrix with orthonormal columns; ``check_basis`` enforces the convention.
The numerical functions are pure and never mutate their arguments;
``one_blas_thread`` sets the BLAS thread count for the length of a block,
and parks OpenBLAS's thread pool.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from .errors import BasisError, DimensionError, SymmetryError

BASIS_TOL = 1e-10
ACCUMULATED_BASIS_TOL = 1e-8  # slack for bases accumulated block by block


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return A


def check_basis(Q, name: str, tol: float = BASIS_TOL) -> np.ndarray:
    """Validate that Q, called `name` in errors, has orthonormal columns within `tol` (max-norm)."""
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


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """The sign convention, applied where vectors leave the package (`BlockEig.leading`
    and `random_basis`): each column's largest-magnitude entry made positive (ties: lowest
    index), in a new C-ordered array whatever V's layout, since that fixes later products' bits."""
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0.0] = 1.0
    return np.multiply(V, signs, order="C")


def sym_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of a symmetric matrix, as `np.linalg.eigh`
    returns it, vectors and signs, but with w descending: column i of V is
    `eigh`'s eigenvector of w[i], with `eigh`'s sign, and both come back as
    reversed views (V is not C-ordered).  The sign convention, `_fix_signs`,
    is applied once, where vectors leave the package: `BlockEig.leading`,
    which both estimators' outputs come from, and `datagen.random_basis`.

    The input must be square and symmetric within 1e-10 relative tolerance.
    One equal to M' bit for bit, as the Grams `Y @ Y.T` and `Z.T @ Z` that
    the estimators decompose are, is factorized as it is; another is
    replaced by (M + M')/2 first, so the reconstruction residual is
    controlled by the solver, not the input's asymmetry.  Since (x + x)/2
    is x, both paths give the bits that always symmetrizing gave.
    """
    M = _as_matrix(M)
    n, m = M.shape
    if n != m:
        raise DimensionError(f"expected a square matrix, got {n}x{m}")
    bits = M.view(np.int64)  # compared as bits: +0.0 and -0.0 differ here, not in M - M'
    if not np.array_equal(bits, bits.T):
        scale = max(1.0, np.max(np.abs(M)))
        asym = np.max(np.abs(M - M.T))
        if asym > 1e-10 * scale:
            raise SymmetryError(f"matrix not symmetric: max |M - M'| = {asym:.3e} (scale {scale:.3e})")
        M = (M + M.T) / 2.0
    w, V = np.linalg.eigh(M)
    return w[::-1], V[:, ::-1]


def spectral_norm(M) -> float:
    """Largest singular value of a matrix, or the largest over a (..., m, k)
    stack of matrices; 0.0 when there are no entries.

    A stack is pruned exactly: sigma_max <= ||.||_F, so only frames whose
    Frobenius norm reaches the largest sigma_max of the 8 top-Frobenius
    frames, less 1e-10 for rounding, are decomposed.  The norms are taken of
    the stack over its largest |entry|, so they neither underflow nor overflow."""
    A = np.asarray(M, dtype=float)
    if A.ndim > 2:
        if not np.isfinite(A).all():
            raise DimensionError("matrix stack contains non-finite entries")
        scale = np.abs(A).max(initial=0.0)
        if scale == 0.0:
            return 0.0
        A = A.reshape(-1, *A.shape[-2:])
        fro = np.linalg.norm(A / scale, axis=(1, 2))
        top = np.linalg.svd(A[np.argsort(fro)[-8:]], compute_uv=False).max()
        A = A[fro >= (1.0 - 1e-10) * (top / scale)]
    else:
        A = _as_matrix(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False).max())


def deflate(Y, G) -> np.ndarray:
    """Psi Y, Psi = I - GG' removing the directions G, in factor form Y - G (G'Y).
    G is checked orthonormal at ACCUMULATED_BASIS_TOL, with Y's row count; an
    empty G (None or zero columns) gives Y's values unchanged."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise DimensionError("Y must be 2-D")
    if G is None:
        return Y
    G = check_basis(G, tol=ACCUMULATED_BASIS_TOL, name="G")
    if G.shape[0] != Y.shape[0]:
        raise DimensionError(f"G has {G.shape[0]} rows, Y has {Y.shape[0]}")
    Z = G @ (G.T @ Y)
    return np.subtract(Y, Z, out=Z)  # in place: one temporary the size of Y, not two


def subspace_error(Phat, P) -> float:
    """sin of the largest principal angle from range(P) into range(Phat).

    Computed as the spectral norm of `deflate(P, Phat)`, (I - Phat Phat') P,
    and clamped to [0, 1] against roundoff.  Asymmetric when the column
    counts differ.  Both bases are validated at ACCUMULATED_BASIS_TOL.
    """
    P = check_basis(P, tol=ACCUMULATED_BASIS_TOL, name="P")
    return min(1.0, max(0.0, spectral_norm(deflate(P, Phat))))


def empirical_covariance(Y) -> np.ndarray:
    """(1/alpha) * sum_t y_t y_t' over the columns of Y."""
    Y = _as_matrix(Y, "Y")
    n, alpha = Y.shape
    if alpha < 1:
        raise DimensionError("Y must have at least one column")
    C = Y @ Y.T
    C /= alpha
    return C


@contextlib.contextmanager
def one_blas_thread():
    """Pin each loaded OpenBLAS to one thread for the block, restoring its
    count afterwards, also on error.  Yields whether an OpenBLAS was pinned:
    False for another BLAS, or where the loaded libraries cannot be listed.

    Once pinned, OpenBLAS's thread pool is shut down, where the library
    exports the call: after a multi-threaded call a helper thread otherwise
    spins for about 120 ms of CPU, on a core another thread may need.
    OpenBLAS starts the pool again at its next multi-threaded call.  Enter
    the block only while no other thread is inside BLAS."""
    pinned = [(get(), set_, park) for get, set_, park in _openblas_threads()]
    for _, set_, park in pinned:
        set_(1)
        if park is not None:
            park()
    try:
        yield bool(pinned)
    finally:
        for count, set_, _ in pinned:
            set_(count)


def _openblas_threads() -> list:
    """(get, set, park) of each OpenBLAS this process loaded: its thread-count
    functions and its thread-pool shutdown, None where it exports none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the symbols of numpy's bundled build, an ILP64 build and a plain one
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                     "openblas_%s_num_threads"):
            if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
                get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                park = getattr(lib, "blas_thread_shutdown_", None)
                if park is not None:
                    park.argtypes, park.restype = [], ctypes.c_int
                found.append((get, set_, park))
                break
    return found
