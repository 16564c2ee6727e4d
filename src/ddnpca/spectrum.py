"""Eigenvalue clustering: greedy condition-number partition and its statistics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import OrderError, ParameterError


@dataclass(frozen=True)
class ClusterPartition:
    """Ordered partition of the nonzero eigenvalues of a non-increasing
    spectrum into contiguous clusters, with its statistics.

    Cluster k holds the sizes[k] indices that follow those of clusters
    0..k-1 (0-based); its top over its bottom eigenvalue is at most g.
    """

    sizes: tuple[int, ...]
    g: float      # the ratio cap the partition was built with
    g_eff: float  # max within-cluster ratio top/bottom
    chi: float    # max ratio of one cluster's top to the previous cluster's bottom; 0 for one
    f: float      # overall condition number over the nonzero eigenvalues

    @property
    def vartheta(self) -> int:
        return len(self.sizes)

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        ends = itertools.accumulate(self.sizes)
        return tuple(tuple(range(end - size, end)) for size, end in zip(self.sizes, ends))


def g_partition(eigenvalues, g: float) -> ClusterPartition:
    """Greedy partition of a non-increasing spectrum into ratio-g clusters.

    Each cluster starts at the first unassigned index i* and extends while
    lam[i*] / lam[j] <= g (equality extends); it closes at the first
    violation.  Trailing zero eigenvalues are excluded.  Comparisons are
    exact floating point.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("eigenvalues must be a non-empty 1-D sequence")
    if np.any(lam < 0):
        raise ParameterError("eigenvalues must be non-negative")
    if np.any(np.diff(lam) > 0):
        raise OrderError("eigenvalues must be sorted non-increasing")
    if g < 1.0:
        raise ParameterError(f"g must be >= 1, got {g}")
    nz = int(np.count_nonzero(lam > 0.0))
    if nz == 0:
        raise ParameterError("all eigenvalues are zero; nothing to partition")

    sizes: list[int] = []
    g_eff, chi = 1.0, 0.0
    start = 0
    while start < nz:
        head = lam[start]
        end = start + 1
        # ratio form, not head <= g*lam: the boundary cases (g equal to an
        # eigenvalue ratio) must resolve exactly
        while end < nz and head / lam[end] <= g:
            end += 1
        sizes.append(end - start)
        g_eff = max(g_eff, head / lam[end - 1])
        if start > 0:
            chi = max(chi, head / lam[start - 1])
        start = end

    return ClusterPartition(
        sizes=tuple(sizes), g=float(g), g_eff=float(g_eff), chi=float(chi),
        f=float(lam[0] / lam[nz - 1]),
    )
