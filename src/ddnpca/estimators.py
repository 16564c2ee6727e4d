"""Subspace estimators: one-shot thresholded EVD and the deflation-based
cluster-by-cluster variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EmptySubspaceError,
    InsufficientDataError,
    NoClusterError,
    NonTerminationError,
    ParameterError,
)
from .linalg import _fix_signs, empirical_covariance, sym_eig
from .linalg import deflate  # called by this module's name, which perfbench traces
from .spectrum import _check_spectrum, _cluster_width


@dataclass(frozen=True, eq=False)
class BlockMoment:
    """The second moment C = YY'/alpha of an n x alpha block Y with
    n <= alpha: everything `block_eig` reads of such a block.  Made by
    `reduce_block`; compares and hashes by identity (an array field has no
    single truth value)."""

    C: np.ndarray  # n x n
    alpha: int

    @property
    def shape(self) -> tuple[int, int]:
        """(n, alpha) of the block it stands for."""
        return self.C.shape[0], self.alpha


def reduce_block(Y):
    """A block as `block_eig` reads it: for an n x alpha array with
    n <= alpha, its `BlockMoment`; with alpha < n, the array itself.  A
    `BlockMoment` is returned as given."""
    if isinstance(Y, BlockMoment):
        return Y
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise DimensionError("Y must be 2-D")
    n, alpha = Y.shape
    return BlockMoment(empirical_covariance(Y), alpha) if n <= alpha else Y


@dataclass(frozen=True, eq=False)
class BlockEig:
    """Eigendecomposition of Psi (YY'/alpha) Psi for one n x alpha block Y,
    where Psi = I - GG' removes the directions G already found.

    When alpha < n the smaller alpha x alpha matrix Z'Z/alpha, Z = Psi Y, is
    factorized instead: it has the same nonzero eigenvalues, and an
    eigenvector u of ZZ'/alpha is recovered from one v of Z'Z/alpha as
    u = Z v / sqrt(alpha w).  The spectrum is padded with exact zeros to
    length n.  `leading` lifts only the columns a caller asks for, and
    sign-fixes only those, after the lift.  Z itself is not kept; Z v is
    formed as Psi (Y v), so Y is kept in this case, and only in this one:
    with n <= alpha the n x n eigenvectors are kept and not the block.
    Compares and hashes by identity (an array field has no single truth
    value).
    """

    eigenvalues: np.ndarray    # shape (n,), non-increasing; exact zeros past rank alpha
    shape: tuple[int, int]     # (n, alpha) of the block Y
    G: np.ndarray | None       # the directions removed, None when none were
    _vectors: np.ndarray       # n x n eigenvectors, or alpha x alpha ones to lift
    _block: np.ndarray | None  # Y as given, before deflation, to lift from; None when n <= alpha

    def leading(self, k: int) -> np.ndarray:
        """Sign-fixed n x k eigenvectors of the k largest eigenvalues, in a new C-ordered array."""
        n, alpha = self.shape
        if not 0 <= k <= n:
            raise DimensionError(f"k={k} out of range for n={n}")
        V = self._vectors[:, :k]
        if self._block is not None:
            w = self.eigenvalues[:k]
            if k > 0 and not w[-1] > 0.0:
                raise EmptySubspaceError(
                    f"eigenvalue {k} is {w[-1]:.3e}; only positive eigenvalues have a lifted eigenvector"
                )
            V = deflate(self._block @ V, self.G) / np.sqrt(alpha * w)
        return _fix_signs(V)


def block_eig(Y, G=None) -> BlockEig:
    """Descending spectrum and leading eigenvectors of Psi (YY'/alpha) Psi,
    Psi = I - GG', factorizing the smaller of the n x n and alpha x alpha
    Gram matrices.  Y is an n x alpha array or its `reduce_block`; an array
    is reduced on entry.  No n x n matrix is formed when alpha < n.

    With n <= alpha the block is read only through its second moment
    C = YY'/alpha, and Psi C Psi is formed by two deflations in factor form,
    `deflate(deflate(C, G).T, G)` = Psi (Psi C)', which is Psi C Psi since C
    is symmetric; no n x n projector is formed."""
    Y = reduce_block(Y)
    n, alpha = Y.shape
    if alpha < 1:
        raise DimensionError("Y must have at least one column")
    if G is not None and np.ndim(G) == 2 and np.shape(G)[1] == 0:
        G = None
    if isinstance(Y, BlockMoment):
        # Psi C Psi as Psi (Psi C)', C being symmetric; C itself when G is None
        w, V = sym_eig(deflate(deflate(Y.C, G).T, G))
        return BlockEig(w, Y.shape, G, V, None)
    # The deflated block is a temporary: it is released before the eigensolve.
    w, V = sym_eig(_alpha_gram(deflate(Y, G)))
    # sym_eig's order puts every positive eigenvalue ahead of the padding, so
    # the leading columns of V still pair with eigenvalues[:k].
    w = np.sort(np.concatenate([w, np.zeros(n - alpha)]))[::-1]
    return BlockEig(w, Y.shape, G, V, Y)


def _alpha_gram(Z: np.ndarray) -> np.ndarray:
    M = Z.T @ Z
    M /= Z.shape[1]
    return M


def simple_evd(eig: BlockEig, thresh: float) -> np.ndarray:
    """Eigenvectors of a block's covariance with eigenvalues strictly above
    thresh, ordered by descending eigenvalue; `eig` is `block_eig(Y)`."""
    if not thresh > 0:
        raise ParameterError(f"thresh must be positive, got {thresh}")
    count = int(np.count_nonzero(eig.eigenvalues > thresh))
    if count == 0:
        raise EmptySubspaceError(
            f"no eigenvalue above thresh={thresh} (largest is {eig.eigenvalues[0]:.3e})"
        )
    return eig.leading(count)


def detect_cluster(eigs, g_hat: float, thresh: float) -> tuple[int, bool]:
    """Width of the leading eigenvalue cluster of a non-increasing spectrum.

    r_hat is the width of the ratio-g_hat cluster that starts at the leading
    eigenvalue, by the rule `spectrum.g_partition` uses.  The stop flag is
    set when the first excluded eigenvalue falls below thresh (a missing one
    counts as below).
    """
    lam = _check_spectrum(eigs, g_hat)
    if not thresh > 0:
        raise ParameterError(f"thresh must be positive, got {thresh}")
    if lam[0] < thresh:
        raise NoClusterError(
            f"leading eigenvalue {lam[0]:.6e} is below thresh={thresh}"
        )
    r_hat = _cluster_width(lam, 0, g_hat)
    stop = r_hat == lam.size or lam[r_hat] < thresh
    return r_hat, stop


def cluster_evd(blocks, g_hat: float, thresh: float,
                max_clusters: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Cluster-by-cluster subspace estimation over a stream of n x alpha blocks.

    `blocks` yields `block_eig` of the first block, undeflated, which fixes n
    and alpha, then the later blocks, arrays or their `reduce_block`, each
    taken only when needed.  Each iteration detects the leading cluster's
    width in the current block's deflated spectrum and keeps that many
    eigenvectors.  The loop ends when the first eigenvalue past the detected
    cluster drops below thresh; otherwise the next block is deflated by
    every direction found so far and eigendecomposed (`block_eig`).

    At most one decomposition is held: each is released once its cluster is
    taken, before the next block is, so the first one is freed here when the
    stream kept no other reference to it.  A caller that wants it freed
    yields it as the stream's first item and keeps no reference of its own;
    passing it as an argument would not do, as Python 3.10 keeps a call's
    arguments on the caller's stack until the call returns.

    Returns (P_hat, sizes): the n x sum(sizes) basis of every direction
    found, cluster by cluster, and the tuple of the clusters' widths, whose
    length is the estimated vartheta.  The accumulated basis is checked
    orthonormal wherever it is used, by `deflate` at ACCUMULATED_BASIS_TOL.

    max_clusters is a required, positive safety cap on the blocks taken;
    hitting it raises NonTerminationError rather than looping on degenerate
    data.
    """
    if max_clusters < 1:
        raise ParameterError("max_clusters must be positive")
    blocks = iter(blocks)
    eig = next(blocks, None)
    if not isinstance(eig, BlockEig) or eig.G is not None:
        raise ParameterError("blocks must start with the first block's undeflated block_eig")
    n, alpha = eig.shape
    G: np.ndarray | None = None
    sizes: list[int] = []
    while True:
        r_hat, stop = detect_cluster(eig.eigenvalues, g_hat, thresh)
        Gk = eig.leading(r_hat)
        del eig
        G = Gk if G is None else np.hstack([G, Gk])
        sizes.append(r_hat)
        if stop:
            break
        k = len(sizes) + 1  # the next cluster, and the block it is found in
        if k > max_clusters:
            raise NonTerminationError(
                f"stop flag not reached within max_clusters={max_clusters} blocks"
            )
        try:
            Y = next(blocks)
        except StopIteration:
            raise InsufficientDataError(
                f"stream ended before cluster {k}; consumed {k - 1} full blocks"
            ) from None
        Y = reduce_block(Y)
        if Y.shape[0] != n:
            raise DimensionError(f"block {k} has {Y.shape[0]} rows, expected {n}")
        if Y.shape[1] < alpha:
            raise InsufficientDataError(
                f"block {k} has {Y.shape[1]} columns, expected a full {alpha}"
            )
        if Y.shape[1] != alpha:
            raise DimensionError(f"block {k} has {Y.shape[1]} columns, expected {alpha}")
        eig = block_eig(Y, G)
    return G, tuple(sizes)
