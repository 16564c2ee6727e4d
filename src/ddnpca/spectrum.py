"""Eigenvalue clustering: greedy condition-number partition and its statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoClusterError, OrderError, ParameterError


@dataclass(frozen=True)
class ClusterPartition:
    """Ordered partition of the nonzero eigenvalues of a non-increasing
    spectrum into contiguous clusters, with its statistics.

    Cluster k holds the sizes[k] indices that follow those of clusters
    0..k-1 (0-based); its top over its bottom eigenvalue is at most g.
    """

    sizes: tuple[int, ...]
    g_eff: float  # max within-cluster ratio top/bottom
    chi: float    # max ratio of one cluster's top to the previous cluster's bottom; 0 for one
    f: float      # overall condition number over the nonzero eigenvalues; may be inf

    @property
    def vartheta(self) -> int:
        return len(self.sizes)


def _check_spectrum(eigenvalues, g: float) -> np.ndarray:
    """A 1-D, non-empty, finite, non-increasing spectrum as floats; g >= 1."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("eigenvalues must be a non-empty 1-D sequence")
    if not np.isfinite(lam).all():
        raise ParameterError("eigenvalues must be finite")
    if np.any(np.diff(lam) > 0):
        raise OrderError("eigenvalues must be sorted non-increasing")
    if not g >= 1.0:
        raise ParameterError(f"g must be >= 1, got {g}")
    return lam


def _cluster_width(lam: np.ndarray, i: int, g: float) -> int:
    """Width of the ratio-g cluster that starts at index i of a checked
    spectrum: j > i joins while lam[i] / lam[j] <= g, equality included (the
    ratio form, so that g equal to a ratio resolves exactly).  Only the
    positive prefix joins; on it the ratio never decreases with j, as
    correctly rounded division is monotone, so one count finds the members.
    """
    nz = int(np.count_nonzero(lam > 0.0))
    with np.errstate(over="ignore"):  # a ratio past the float range is inf, correctly > g
        return 1 + int(np.count_nonzero(lam[i] / lam[i + 1:nz] <= g))


def g_partition(eigenvalues, g: float) -> ClusterPartition:
    """Greedy partition of a non-increasing spectrum into ratio-g clusters,
    each as wide as `_cluster_width` from the first unassigned index.
    Trailing zero eigenvalues are excluded."""
    lam = _check_spectrum(eigenvalues, g)
    if lam[-1] < 0:
        raise ParameterError("eigenvalues must be non-negative")
    nz = int(np.count_nonzero(lam > 0.0))
    if nz == 0:
        raise ParameterError("all eigenvalues are zero; nothing to partition")

    sizes: list[int] = []
    g_eff, chi = 1.0, 0.0
    start = 0
    while start < nz:
        end = start + _cluster_width(lam, start, g)
        sizes.append(end - start)
        g_eff = max(g_eff, lam[start] / lam[end - 1])
        if start > 0:
            chi = max(chi, lam[start] / lam[start - 1])
        start = end

    with np.errstate(over="ignore"):  # a range past the float range gives f = inf
        f = float(lam[0] / lam[nz - 1])
    return ClusterPartition(sizes=tuple(sizes), g_eff=float(g_eff), chi=float(chi), f=f)


def detect_cluster(eigs, g_hat: float, thresh: float) -> tuple[int, bool]:
    """Width of the leading eigenvalue cluster of a non-increasing spectrum.

    r_hat is the width of the ratio-g_hat cluster that starts at the leading
    eigenvalue, by the rule `g_partition` uses.  The stop flag is set when
    the first excluded eigenvalue falls below thresh (a missing one counts
    as below).
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
