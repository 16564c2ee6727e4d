"""The estimators transcribed densely from their definitions.

Deliberately does NOT import the package (tests/test_theory.py checks its
imports): tests/test_estimators.py checks `simple_evd` and `cluster_evd`
against it, so it must stay an independent transcription.  Every matrix
is formed in full: C = YY'/alpha is n x n, the projector Psi = I - GG' is
explicit, and each block takes one `np.linalg.eigh`.
"""

import numpy as np


def spectrum(Y, G):
    """Descending eigenvalues and eigenvectors of Psi C Psi."""
    n, alpha = Y.shape
    Psi = np.eye(n) - G @ G.T
    w, V = np.linalg.eigh(Psi @ (Y @ Y.T / alpha) @ Psi)
    return w[::-1], V[:, ::-1]


def simple_evd(Y, thresh):
    """The eigenvectors whose eigenvalues are above thresh."""
    w, V = spectrum(Y, np.zeros((Y.shape[0], 0)))
    return V[:, w > thresh]


def cluster_evd(blocks, g_hat, thresh):
    """(P_hat, sizes, spectra): the basis found, the clusters' widths, and
    the deflated spectrum of each block used."""
    G = np.zeros((blocks[0].shape[0], 0))
    sizes, spectra = [], []
    for Y in blocks:
        w, V = spectrum(Y, G)
        if w[0] < thresh:
            raise ValueError("the leading eigenvalue is below thresh")
        r_hat = 1  # a positive eigenvalue joins while top / it <= g_hat
        while r_hat < w.size and w[r_hat] > 0 and w[0] / w[r_hat] <= g_hat:
            r_hat += 1
        G = np.hstack([G, V[:, :r_hat]])
        sizes.append(r_hat)
        spectra.append(w)
        if r_hat == w.size or w[r_hat] < thresh:  # the stop flag
            return G, tuple(sizes), spectra
    raise ValueError("the blocks ran out before the stop flag")


def sin_theta(A, B):
    """||(I - BB')A||, the sine of the largest angle from span A to span B."""
    return np.linalg.norm(A - B @ (B.T @ A), 2)
