"""Structured eigendecomposition of the block anti-diagonal parity matrix.

For M = [[0, B], [B^T, 0]] the spectrum is {+s_i} u {-s_i}, where s_i are
the singular values of B, and the eigenvectors assemble from the left and
right singular vectors.  B is square at every supported order, so one block
size m_even serves both parities and no null space arises.  The SVD is
LAPACK's divide-and-conquer routine (gesdd via numpy); a fixed sign
convention pins its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system_builder import ReducedSystem

__all__ = ["ParityEigen", "decompose", "RankDeficiencyError"]

RANK_TOL = 1e-12


class RankDeficiencyError(RuntimeError):
    """A singular value collapsed below tolerance; the builder is at fault."""


@dataclass(frozen=True)
class ParityEigen:
    """Positive branch of the parity spectrum plus the orthogonal blocks.

    ``rates`` are the positive eigenvalues, descending.  The assembled
    eigenvector matrix is [[E, E], [O, -O]] with E = even_vectors and
    O = odd_vectors, both m_even x m_even; E^T E = I/2 and O^T O = I/2.
    """

    rates: np.ndarray
    even_vectors: np.ndarray
    odd_vectors: np.ndarray

    def __post_init__(self):
        for arr in (self.rates, self.even_vectors, self.odd_vectors):
            arr.flags.writeable = False

    @property
    def m_even(self) -> int:
        return self.even_vectors.shape[0]


def decompose(system: ReducedSystem) -> ParityEigen:
    """Structured eigendecomposition of a reduced system.

    Sign convention: each column of the odd block has its largest-magnitude
    entry positive, ties broken by the lowest row index; equal rates keep
    their SVD (descending) order.  This pins the output bit-for-bit.
    """
    u, sigma, vt = np.linalg.svd(system.coupling_dense())
    if sigma[-1] <= RANK_TOL * sigma[0]:
        raise RankDeficiencyError(
            f"coupling block of order {system.order} is numerically rank deficient "
            f"(smallest singular value {sigma[-1]:.3e})"
        )
    v = vt.T
    cols = np.arange(v.shape[1])
    signs = np.where(v[np.argmax(np.abs(v), axis=0), cols] < 0.0, -1.0, 1.0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return ParityEigen(
        rates=sigma,
        even_vectors=u * (signs * inv_sqrt2),
        odd_vectors=v * (signs * inv_sqrt2),
    )
