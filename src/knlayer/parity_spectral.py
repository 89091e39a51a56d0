"""Structured eigendecomposition of the block anti-diagonal parity matrix.

For M = [[0, B], [B^T, 0]] the spectrum is {+s_i} u {-s_i}, where s_i are
the singular values of B, and the eigenvectors assemble from the left and
right singular vectors.  B is square at every supported order, so one block
size m_even serves both parities and no null space arises.

B is lower triangular with bandwidth three, so the Gram matrix G = B B^T is
banded too: tridiagonal for Kramers (B bidiagonal), pentadiagonal for the
temperature jump.  Its bands are formed from the three diagonals of B in
O(M), negated, and one symmetric LAPACK ``eigh`` of -G gives the left
singular vectors U already in the descending order of G.  W = B^T U, again
band arithmetic, gives the rates as column norms, s_i = |B^T u_i|, which
keep relative accuracy where sqrt(lambda_i) loses the small rates to the
normwise error of lambda_i.  The vectors of close small rates come out of
``eigh`` mixed at the accuracy of G; one first-order correction from the
residual W^T W, whose diagonal holds lambda_i = |w_i|^2, brings them to the
accuracy of B.  Nothing forms B densely, and no SVD runs.  A fixed sign
convention pins the output.  Only the rates and the even block are
returned: a solve reads nothing else, and the odd block B^T E / rates,
which only the oracles read, is built in :mod:`knlayer.verification`.
"""

from __future__ import annotations

import numpy as np

from .system_builder import ReducedSystem, _record

__all__ = ["ParityEigen", "decompose", "RankDeficiencyError"]

RANK_TOL = 1e-12


class RankDeficiencyError(RuntimeError):
    """A singular value collapsed below tolerance; the builder is at fault."""


@_record
class ParityEigen:
    """Positive branch of the parity spectrum and its even eigenvector block.

    ``rates`` are the positive eigenvalues, descending; equal rates keep the
    descending order of the Gram eigenvalues.  E = even_vectors is
    m_even x m_even with E^T E = I/2 and B B^T E = E diag(rates)^2; the
    assembled eigenvector matrix is [[E, E], [O, -O]] with the odd block
    O = B^T E / rates.
    """

    rates: np.ndarray
    even_vectors: np.ndarray


def _neg_gram(system: ReducedSystem) -> np.ndarray:
    """-G = -B B^T as a dense symmetric array, filled band by band in O(M)."""
    d0, d1, d2 = system.diag_main, system.diag_sub1, system.diag_sub2
    m = system.m_even
    diag = d0 * d0  # G[i, i] = B[i, i]^2 + B[i, i-1]^2 + B[i, i-2]^2
    diag[1: d1.size + 1] += d1 * d1
    diag[2: d2.size + 2] += d2 * d2
    # G[i+1, i] = B[i+1, i] B[i, i] + B[i+1, i-1] B[i, i-1]
    off1 = d1 * d0[: d1.size]
    off1[1: d2.size + 1] += d2 * d1[: d2.size]
    off2 = d2 * d0[: d2.size]  # G[i+2, i] = B[i+2, i] B[i, i]
    g = np.zeros((m, m))
    for k, band in ((0, diag), (1, off1), (2, off2)):
        i = np.arange(band.size)
        g[i + k, i] = g[i, i + k] = -band
    return g


def _times_bt(system: ReducedSystem, u: np.ndarray) -> np.ndarray:
    """B^T u for a block of columns u, by band arithmetic."""
    d1, d2 = system.diag_sub1, system.diag_sub2
    w = system.diag_main[:, None] * u
    w[: d1.size] += d1[:, None] * u[1: d1.size + 1]
    w[: d2.size] += d2[:, None] * u[2: d2.size + 2]
    return w


def _column_norms(w: np.ndarray) -> np.ndarray:
    """|w_i| of every column, each one pairwise sum over a contiguous row of W^T."""
    return np.linalg.norm(np.ascontiguousarray(w.T), axis=1)


def decompose(system: ReducedSystem) -> ParityEigen:
    """Structured eigendecomposition of a reduced system.

    U comes from ``eigh`` of the negated banded Gram matrix -B B^T, whose
    ascending order is the descending order of B B^T, and one first-order
    correction; the rates are |B^T u_i| of the corrected U sorted descending
    (a stable sort: equal rates keep the descending order of the Gram
    eigenvalues), and E = U / sqrt(2).  Sign convention: each column of the
    odd block B^T E / rates has its largest-magnitude entry positive, ties
    broken by the lowest row index; the rule is applied to the columns of
    W = B^T U, which have the same signs.  This pins the output bit-for-bit.
    """
    _, u = np.linalg.eigh(_neg_gram(system))  # descending in G
    w = _times_bt(system, u)
    # eigh resolves U only to the accuracy of G, eps |B|^2, which mixes the
    # vectors of close small rates.  Off its diagonal, U^T G U = W^T W holds
    # that mixing, computed to the accuracy of B; the first-order step
    # u_j += sum_i u_i (W^T W)_ij / (lam_j - lam_i) removes it, leaves tied
    # rates alone, and so also makes the columns of W orthogonal.  Its
    # diagonal holds lam_i = |w_i|^2.
    x = w.T @ w
    del w
    lam = x.diagonal()
    gap = lam - lam[:, None]  # lam_j - lam_i
    gap[gap == 0.0] = np.inf
    x /= gap
    del gap
    u += u @ x
    del x
    w = _times_bt(system, u)
    sigma = _column_norms(w)
    perm = np.argsort(-sigma, kind="stable")
    sigma, u = sigma[perm], u[:, perm]
    if not sigma[-1] > RANK_TOL * sigma[0]:
        raise RankDeficiencyError(
            f"coupling block of order {system.order} is numerically rank deficient "
            f"(smallest singular value {sigma[-1]:.3e})"
        )
    cols = np.arange(w.shape[1])
    signs = np.where(w[np.argmax(np.abs(w), axis=0), cols] < 0.0, -1.0, 1.0)[perm]
    del w
    signs /= np.sqrt(2.0)
    u *= signs
    return ParityEigen(rates=sigma, even_vectors=u)
