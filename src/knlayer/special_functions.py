"""The wall table: closed-form half-space integrals of even Hermite pairs, normalized.

Every value here is exact closed-form arithmetic on the even values z_2k of
the Hermite polynomials at the origin (odd z vanish), so no raw factorial
is formed at any order.  ``HalfSpaceTable`` builds only the normalized
even-index block S(2i, 2j) that the wall assemblies read, in one vectorized
closed form; the raw even block of the raw reference matrices, inside the
double-precision window, is built on its first read by the same closed form
(``_raw_block``).  The scalar closed form of every index pair, odd ones
included, and the quadrature counterparts live in
:mod:`knlayer.verification`, whose oracles are their only readers.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "SQRT_2PI",
    "HalfSpaceTable",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Raw (un-normalized) values involve factorials and double factorials; beyond
# this order they no longer fit in a double, so ``HalfSpaceTable.s_values``
# stops here.
RAW_ORDER_LIMIT = 150

# Rows of the even block formed per step.  A whole table of denominators
# beside the block, then a triangle copy of it, held two blocks, and that
# second block put the peak RSS of the benchmark's sweeps (M = 129 and 512)
# 0.2-0.4 MB higher.
_TABLE_ROWS = 64


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


class HalfSpaceTable:
    """Even-index blocks of S(alpha, beta) for even alpha, beta <= top.

    The Maxwell wall conditions of the reduced parity systems couple only
    even moments, so every half-space integral a wall assembly reads is
    S(2i, 2j).  ``s_normalized[i, j]`` holds S(2i, 2j) / sqrt((2i)! (2j)!)
    for the full range; ``s_values[i, j]`` the raw S(2i, 2j) inside the
    double-precision window (2i, 2j <= RAW_ORDER_LIMIT), which only the raw
    references read, so it is built on first read and then kept.  Odd-index
    pairs are left to :func:`knlayer.verification.half_space_S_normalized`.
    Both blocks are read-only, so a table is safe to share across threads.
    """

    @staticmethod
    def _even_block(z_even: np.ndarray) -> np.ndarray:
        """(a + b + 1) / ((a - b)^2 - 1) z_a z_b over a, b = 0, 2, 4, ...

        Even indices never sit on the band |a - b| = 1, so one closed form
        covers the block.  It is formed ``_TABLE_ROWS`` rows at a time, so
        the only temporary beside it is those rows' denominators, and the
        upper triangle is mirrored onto the lower in place, for exact
        symmetry.
        """
        a = 2.0 * np.arange(z_even.size)
        block = np.empty((a.size, a.size))
        for start in range(0, a.size, _TABLE_ROWS):
            rows = slice(start, start + _TABLE_ROWS)
            part = np.add.outer(a[rows], a, out=block[rows])
            part += 1.0
            den = np.subtract.outer(a[rows], a)
            den *= den
            den -= 1.0
            part /= den
            part *= z_even[rows, None]
            part *= z_even
        for i in range(1, a.size):
            block[i, :i] = block[:i, i]
        return block

    def __init__(self, top: int):
        if not (isinstance(top, numbers.Integral) and top >= 0):
            raise ValueError(f"the top index must be a non-negative integer, got {top!r}")
        self._raw_top, self._raw = min(top, RAW_ORDER_LIMIT), None
        self._normalized = self._even_block(_z_even(top // 2 + 1))
        self._normalized.flags.writeable = False

    @property
    def s_normalized(self) -> np.ndarray:
        """S(2i, 2j) / sqrt((2i)! (2j)!) at [i, j]."""
        return self._normalized

    @property
    def s_values(self) -> np.ndarray:
        """Raw S(2i, 2j) at [i, j], restricted to the double-precision window."""
        if self._raw is None:
            raw = _raw_block(self._raw_top)
            raw.flags.writeable = False
            self._raw = raw
        return self._raw


def _raw_block(top: int) -> np.ndarray:
    """Raw S(2i, 2j) over 2i, 2j <= top <= RAW_ORDER_LIMIT: the one raw builder,
    which ``s_values`` keeps and the raw references call with no table built."""
    return HalfSpaceTable._even_block(_z_even(top // 2 + 1, normalized=False))
