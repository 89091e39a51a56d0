"""Closed-form half-space integrals of Hermite polynomial pairs, normalized.

Every value here is exact closed-form arithmetic on the even values z_2k of
the Hermite polynomials at the origin (odd z vanish); the quadrature
counterparts live in :mod:`knlayer.verification`.  The scalar form
``half_space_S_normalized`` covers every index pair in normalized form, so
no raw factorial is formed at any order.  ``HalfSpaceTable`` stores only
the even-index block S(2i, 2j) that the wall assemblies read, built in one
vectorized closed form per block, plus the raw even block inside the
double-precision window for the raw reference matrices.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "SQRT_2PI",
    "HalfSpaceTable",
    "half_space_S_normalized",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Raw (un-normalized) values involve factorials and double factorials; beyond
# this order they no longer fit in a double, so ``HalfSpaceTable.s_values``
# stops here.
RAW_ORDER_LIMIT = 150


def _z_even(count: int, normalized: bool = True) -> np.ndarray:
    """z_2k / sqrt((2k)!) for k < count, or the raw z_2k = (-1)^k (2k-1)!!.

    z_0 = 1 and z_{n+1} = -n z_{n-1}, so the even chain is one running
    product of the steps -n (raw) or -sqrt(n / (n + 1)) (normalized) over
    odd n, taken in the order of the recursion.  The normalized chain stays
    bounded at every order.
    """
    n = np.arange(1.0, 2.0 * count - 2.0, 2.0)
    steps = np.empty(count)
    steps[0] = 1.0
    steps[1:] = -np.sqrt(n / (n + 1.0)) if normalized else -n
    return np.cumprod(steps)


def half_space_S_normalized(alpha: int, beta: int) -> float:
    """S(alpha, beta) / sqrt(alpha! beta!), finite for all supported orders.

    Public because it is the paper's closed form for every index pair, odd
    ones included; :class:`HalfSpaceTable` is its even-index block, built
    vectorized for the wall assemblies, and the oracles check both.

    S(alpha, beta) = beta I(alpha, beta-1) + I(alpha, beta+1), where I(a, b)
    is the half-line Gaussian moment of He_a He_b.  The band |a-b| = 1
    collapses to sqrt(2 pi)/2 times a square root; other mixed-parity pairs
    vanish with the odd z; an even pair is a rational multiple of
    z_alpha z_beta, and for odd-odd pairs the z_{alpha+1} cross terms
    survive instead (those pairs never enter a wall assembly but are part of
    the contract).  Arguments are symmetrized first so S(a, b) == S(b, a)
    bit for bit.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be non-negative")
    if alpha > beta:
        alpha, beta = beta, alpha
    if beta - alpha == 1:
        return SQRT_2PI / 2.0 * math.sqrt(beta)
    if (alpha + beta) % 2 == 1:
        return 0.0
    z = _z_even(beta // 2 + 2).tolist()  # through index beta + 1
    if alpha % 2 == 1:
        return (
            math.sqrt(beta * (alpha + 1.0)) * z[(alpha + 1) // 2] * z[(beta - 1) // 2]
            / (alpha - beta + 1)
            + math.sqrt((alpha + 1.0) * (beta + 1.0)) * z[(alpha + 1) // 2] * z[(beta + 1) // 2]
            / (alpha - beta - 1)
        )
    coef = (alpha + beta + 1) / float((alpha - beta) ** 2 - 1)
    return coef * z[alpha // 2] * z[beta // 2]


class HalfSpaceTable:
    """Even-index blocks of S(alpha, beta) for even alpha, beta <= top.

    The Maxwell wall conditions of the reduced parity systems couple only
    even moments, so every half-space integral a wall assembly reads is
    S(2i, 2j).  ``s_normalized[i, j]`` holds S(2i, 2j) / sqrt((2i)! (2j)!)
    for the full range; ``s_values[i, j]`` the raw S(2i, 2j) inside the
    double-precision window (2i, 2j <= RAW_ORDER_LIMIT).  Odd-index pairs
    are left to :func:`half_space_S_normalized`.  Immutable after
    construction, so safe to share across threads.
    """

    @staticmethod
    def _even_block(z_even: np.ndarray) -> np.ndarray:
        """(a + b + 1) / ((a - b)^2 - 1) z_a z_b over a, b = 0, 2, 4, ...

        Even indices never sit on the band |a - b| = 1, so one closed form
        covers the block.  Only the upper triangle is kept and mirrored, for
        exact symmetry; in-place updates keep the peak at two blocks.
        """
        a = 2.0 * np.arange(z_even.size)
        block = np.add.outer(a, a)
        block += 1.0
        den = np.subtract.outer(a, a)
        den *= den
        den -= 1.0
        block /= den
        del den
        block *= z_even[:, None]
        block *= z_even
        upper = np.triu(block)
        del block
        upper += np.tril(upper.T, -1)
        return upper

    def __init__(self, top: int):
        if not (isinstance(top, numbers.Integral) and top >= 0):
            raise ValueError(f"the top index must be a non-negative integer, got {top!r}")
        self._normalized = self._even_block(_z_even(top // 2 + 1))
        raw_top = min(top, RAW_ORDER_LIMIT)
        self._raw = self._even_block(_z_even(raw_top // 2 + 1, normalized=False))
        self._normalized.flags.writeable = False
        self._raw.flags.writeable = False

    @property
    def s_normalized(self) -> np.ndarray:
        """S(2i, 2j) / sqrt((2i)! (2j)!) at [i, j]."""
        return self._normalized

    @property
    def s_values(self) -> np.ndarray:
        """Raw S(2i, 2j) at [i, j], restricted to the double-precision window."""
        return self._raw
