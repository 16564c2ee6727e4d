"""Subspace estimators: one-shot thresholded EVD and the deflation-based
cluster-by-cluster variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisError,
    DimensionError,
    EmptySubspaceError,
    InsufficientDataError,
    NoClusterError,
    NonTerminationError,
    OrderError,
    ParameterError,
)
from .linalg import _fix_signs, empirical_covariance, sym_eig

_CONSUME_TOL = 1e-8  # orthonormality slack allowed on accumulated bases


@dataclass(frozen=True)
class EvdConfig:
    thresh: float  # eigenvalue retention threshold, > 0

    def __post_init__(self):
        if self.thresh <= 0:
            raise ParameterError(f"thresh must be positive, got {self.thresh}")


@dataclass(frozen=True)
class ClusterEvdConfig:
    alpha: int      # batch length per cluster
    g_hat: float    # within-cluster eigenvalue ratio cap
    thresh: float   # zero threshold for the stop test

    def __post_init__(self):
        if self.alpha < 1:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.g_hat < 1:
            raise ParameterError(f"g_hat must be >= 1, got {self.g_hat}")
        if self.thresh <= 0:
            raise ParameterError(f"thresh must be positive, got {self.thresh}")


@dataclass(frozen=True)
class ClusterEvdResult:
    P_hat: np.ndarray
    cluster_sizes: tuple[int, ...]
    vartheta_hat: int
    per_cluster_eigs: tuple[np.ndarray, ...]  # full spectrum of each deflated block

    def __post_init__(self):
        if sum(self.cluster_sizes) != self.P_hat.shape[1]:
            raise DimensionError("cluster sizes do not add up to the basis width")
        k = self.P_hat.shape[1]
        err = np.max(np.abs(self.P_hat.T @ self.P_hat - np.eye(k)))
        if err > _CONSUME_TOL:
            raise BasisError(f"estimated basis not orthonormal: max |P'P - I| = {err:.3e}")


@dataclass(frozen=True)
class BlockEig:
    """Eigendecomposition of Psi (YY'/alpha) Psi for one n x alpha block Y,
    where Psi = I - GG' removes the directions G already found.

    When alpha < n the smaller alpha x alpha matrix Z'Z/alpha, Z = Psi Y, is
    factorized instead: it has the same nonzero eigenvalues, and an
    eigenvector u of ZZ'/alpha is recovered from one v of Z'Z/alpha as
    u = Z v / sqrt(alpha w).  `leading` lifts only the columns a caller asks
    for.  Z itself is not kept; Z v is formed as Psi (Y v).
    """

    eigenvalues: np.ndarray  # shape (n,), non-increasing; exact zeros past rank alpha
    block: np.ndarray        # the block Y as given, before deflation
    G: np.ndarray | None     # the directions removed, None when none were
    _vectors: np.ndarray     # n x n eigenvectors, or alpha x alpha ones to lift

    def leading(self, k: int) -> np.ndarray:
        """Sign-fixed n x k eigenvectors of the k largest eigenvalues."""
        n, alpha = self.block.shape
        if not 0 <= k <= n:
            raise DimensionError(f"k={k} out of range for n={n}")
        if self._vectors.shape[0] == n:
            return self._vectors[:, :k]
        w = self.eigenvalues[:k]
        if k > 0 and not w[-1] > 0.0:
            raise EmptySubspaceError(
                f"eigenvalue {k} is {w[-1]:.3e}; only positive eigenvalues have a lifted eigenvector"
            )
        ZV = deflate(self.block @ self._vectors[:, :k], self.G)
        return _fix_signs(ZV / np.sqrt(alpha * w))


def deflate(Y, G=None) -> np.ndarray:
    """The block with the detected directions removed: (I - GG') Y, applied
    in factor form as Y - G (G'Y).  An empty G (None or zero columns) gives
    Y unchanged."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise DimensionError("Y must be 2-D")
    if G is None:
        return Y
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise DimensionError("G must be 2-D")
    if G.shape[0] != Y.shape[0]:
        raise DimensionError(f"G has {G.shape[0]} rows, Y has {Y.shape[0]}")
    k = G.shape[1]
    if k == 0:
        return Y
    err = np.max(np.abs(G.T @ G - np.eye(k)))
    if err > _CONSUME_TOL:
        raise BasisError(f"G not orthonormal: max |G'G - I| = {err:.3e}")
    Z = G @ (G.T @ Y)
    return np.subtract(Y, Z, out=Z)  # in place: one n x alpha temporary, not two


def block_eig(Y, G=None) -> BlockEig:
    """Descending spectrum and leading eigenvectors of Psi (YY'/alpha) Psi,
    Psi = I - GG', factorizing the smaller of the n x n and alpha x alpha
    Gram matrices.  No n x n matrix is formed when alpha < n."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise DimensionError("Y must be 2-D with at least one column")
    n, alpha = Y.shape
    if G is not None and np.ndim(G) == 2 and np.shape(G)[1] == 0:
        G = None
    # The deflated block is a temporary: it is released before the eigensolve.
    if n <= alpha:
        ed = sym_eig(empirical_covariance(deflate(Y, G)))
        return BlockEig(ed.eigenvalues, Y, G, ed.eigenvectors)
    ed = sym_eig(_alpha_gram(deflate(Y, G)))
    # sym_eig's order puts every positive eigenvalue ahead of the padding, so
    # the leading columns of ed.eigenvectors still pair with eigenvalues[:k].
    w = np.sort(np.concatenate([ed.eigenvalues, np.zeros(n - alpha)]))[::-1]
    return BlockEig(w, Y, G, ed.eigenvectors)


def _alpha_gram(Z: np.ndarray) -> np.ndarray:
    K = (Z.T @ Z) / Z.shape[1]
    return (K + K.T) / 2.0


def _check_source(eig: BlockEig, Y) -> None:
    if eig.G is not None or (eig.block is not Y and not np.array_equal(eig.block, Y)):
        raise ParameterError("the precomputed decomposition is not of this undeflated block")


def simple_evd(Y, cfg: EvdConfig, eig: BlockEig | None = None):
    """Eigenvectors of the empirical covariance with eigenvalues strictly
    above cfg.thresh, ordered by descending eigenvalue.

    `eig`, when given, is `block_eig(Y)` computed by the caller; it is used
    instead of decomposing Y again.
    """
    if eig is None:
        eig = block_eig(Y)
    else:
        _check_source(eig, Y)
    count = int(np.count_nonzero(eig.eigenvalues > cfg.thresh))
    if count == 0:
        raise EmptySubspaceError(
            f"no eigenvalue above thresh={cfg.thresh} (largest is {eig.eigenvalues[0]:.3e})"
        )
    return eig.leading(count)


def detect_cluster(eigs, g_hat: float, thresh: float) -> tuple[int, bool]:
    """Width of the leading eigenvalue cluster of a non-increasing spectrum.

    Extends the cluster while the ratio of the leading eigenvalue to the
    candidate stays <= g_hat; r_hat is the largest such index.  The stop
    flag is set when the first excluded eigenvalue falls below thresh (a
    missing one counts as below).
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("eigs must be a non-empty 1-D sequence")
    if not np.isfinite(lam).all():
        raise ParameterError("eigs must be finite")
    if np.any(np.diff(lam) > 0):
        raise OrderError("eigs must be sorted non-increasing")
    if g_hat < 1:
        raise ParameterError(f"g_hat must be >= 1, got {g_hat}")
    if lam[0] < thresh:
        raise NoClusterError(
            f"leading eigenvalue {lam[0]:.6e} is below thresh={thresh}"
        )
    r_hat = 1
    # lam may go negative from roundoff; the product form avoids dividing.
    while r_hat < lam.size and lam[0] <= g_hat * lam[r_hat]:
        r_hat += 1
    stop = r_hat == lam.size or lam[r_hat] < thresh
    return r_hat, stop


def cluster_evd(y_blocks, cfg: ClusterEvdConfig, max_clusters: int | None = None,
                first_eig: BlockEig | None = None) -> ClusterEvdResult:
    """Cluster-by-cluster subspace estimation over a stream of n x alpha blocks.

    Each iteration deflates the directions found so far, eigendecomposes the
    deflated covariance of the next block (`block_eig`), detects the leading
    cluster's width, and keeps that many eigenvectors.  The loop ends when
    the first eigenvalue past the detected cluster drops below cfg.thresh.

    `first_eig`, when given, is `block_eig` of the stream's first block,
    computed by the caller (the harness shares it with `simple_evd`); the
    first block is still drawn from the stream and checked.

    max_clusters is a safety cap (defaults to the ambient dimension); hitting
    it raises NonTerminationError rather than looping on degenerate data.
    """
    if max_clusters is not None and max_clusters < 1:
        raise ParameterError("max_clusters must be positive")
    blocks = iter(y_blocks)
    G: np.ndarray | None = None
    sizes: list[int] = []
    spectra: list[np.ndarray] = []
    n = None
    cap = max_clusters
    k = 0
    while True:
        k += 1
        if cap is not None and k > cap:
            raise NonTerminationError(
                f"stop flag not reached within max_clusters={cap} blocks"
            )
        try:
            Y = np.asarray(next(blocks), dtype=float)
        except StopIteration:
            raise InsufficientDataError(
                f"stream ended before cluster {k}; consumed {k - 1} full blocks"
            ) from None
        if Y.ndim != 2:
            raise DimensionError("blocks must be 2-D arrays")
        if n is None:
            n = Y.shape[0]
            if cap is None:
                cap = n
        if Y.shape[0] != n:
            raise DimensionError(f"block {k} has {Y.shape[0]} rows, expected {n}")
        if Y.shape[1] < cfg.alpha:
            raise InsufficientDataError(
                f"block {k} has {Y.shape[1]} columns, expected a full {cfg.alpha}"
            )
        if Y.shape[1] != cfg.alpha:
            raise DimensionError(f"block {k} has {Y.shape[1]} columns, expected {cfg.alpha}")

        if k == 1 and first_eig is not None:
            _check_source(first_eig, Y)
            eig = first_eig
        else:
            eig = block_eig(Y, G)
        r_hat, stop = detect_cluster(eig.eigenvalues, cfg.g_hat, cfg.thresh)
        Gk = eig.leading(r_hat)
        G = Gk if G is None else np.hstack([G, Gk])
        sizes.append(r_hat)
        spectra.append(eig.eigenvalues.copy())
        if stop:
            break
    return ClusterEvdResult(
        P_hat=G,
        cluster_sizes=tuple(sizes),
        vartheta_hat=len(sizes),
        per_cluster_eigs=tuple(spectra),
    )
