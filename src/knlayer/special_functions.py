"""Closed-form half-space integrals of Hermite polynomial pairs.

Every value here is exact closed-form arithmetic on the sequence z_n of
Hermite polynomials at the origin (running products and factorial ratios);
the quadrature counterparts live in :mod:`knlayer.verification`.  The
scalar forms ``half_space_S`` and ``half_space_S_normalized`` cover every
index pair; ``HalfSpaceTable`` stores only the even-index block S(2i, 2j)
that the wall assemblies read, built in one vectorized closed form per
block.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SQRT_2PI",
    "ZSequence",
    "HalfSpaceTable",
    "half_space_S",
    "half_space_S_normalized",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Raw (un-normalized) values involve factorials and double factorials; beyond
# this order they no longer fit in a double and only the normalized forms are
# meaningful.
RAW_ORDER_LIMIT = 150


class ZSequence:
    """Values of the Hermite-at-origin sequence z_n, raw and normalized.

    z_0 = 1, z_1 = 0 and z_{n+1} = -n z_{n-1}, so odd entries vanish and the
    even ones alternate in sign while growing like a double factorial.  Raw
    values overflow past the double-precision window; the ratio
    z_n / sqrt(n!) stays bounded and is tabulated directly.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        n = n_max + 1
        # Step k = i - 1 of z_{k+1} = -k z_{k-1} fills index i >= 2, so each
        # parity chain (even: seed 1, odd: seed 0) is a running product, taken
        # in the order of the recursion.
        k = np.arange(1.0, n_max)
        raw_steps = np.zeros(n)
        raw_steps[0] = 1.0
        normed_steps = raw_steps.copy()
        raw_steps[2:] = -k
        normed_steps[2:] = -np.sqrt(k / (k + 1.0))
        values = np.empty(n)
        normed = np.empty(n)
        for chain in (slice(0, None, 2), slice(1, None, 2)):
            with np.errstate(over="ignore"):
                np.cumprod(raw_steps[chain], out=values[chain])
            np.cumprod(normed_steps[chain], out=normed[chain])
        # Saturate early, as the recursion does: once |z_{k-1}| >= 1e304 / k,
        # z_{k+1} and every later entry of its chain become +-inf.  Magnitudes
        # only grow along a chain while 1e304 / k shrinks, so the unsaturated
        # product hits the threshold exactly where the recursion does, and it
        # carries the same sign.
        saturated = np.abs(values[:-2]) >= 1e304 / k
        values[2:][saturated] = np.copysign(np.inf, values[2:][saturated])
        self.n_max = n_max
        self._normalized = normed
        self._values = values
        for arr in (self._normalized, self._values):
            arr.flags.writeable = False

    def value(self, n: int) -> float:
        """Raw z_n; overflows to +-inf for very large even n."""
        return float(self._values[n])

    def normalized(self, n: int) -> float:
        """z_n / sqrt(n!), bounded for all n."""
        return float(self._normalized[n])

    @property
    def normalized_values(self) -> np.ndarray:
        return self._normalized


_Z_CACHE = ZSequence(64)


def _z(n_max: int) -> ZSequence:
    global _Z_CACHE
    if n_max > _Z_CACHE.n_max:
        _Z_CACHE = ZSequence(max(n_max, 2 * _Z_CACHE.n_max))
    return _Z_CACHE


def _check_raw_window(alpha: int, beta: int) -> None:
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be non-negative")
    if alpha > RAW_ORDER_LIMIT or beta > RAW_ORDER_LIMIT:
        raise ValueError(
            f"raw half-space values are only exposed for indices <= {RAW_ORDER_LIMIT}; "
            "use half_space_S_normalized for higher orders"
        )


def half_space_S(alpha: int, beta: int) -> float:
    """Signed half-space flux integral S(alpha, beta) in closed form.

    Equals beta * I(alpha, beta-1) + I(alpha, beta+1), where I(a, b) is the
    half-line Gaussian moment of He_a He_b.  The band |a-b| = 1
    collapses to sqrt(2 pi)/2 times a factorial; when either index is even
    the rest reduces to the rational multiple of z_alpha z_beta, and for
    odd-odd pairs the z_{alpha+1} cross terms survive instead (those pairs
    never enter a wall assembly but are part of the contract).  Arguments
    are symmetrized first so S(a, b) == S(b, a) bit for bit.
    """
    _check_raw_window(alpha, beta)
    if alpha > beta:
        alpha, beta = beta, alpha
    if beta - alpha == 1:
        return SQRT_2PI / 2.0 * math.factorial(beta)
    if alpha % 2 == 1 and beta % 2 == 1:
        zs = _z(beta + 1)
        return (
            beta * zs.value(alpha + 1) * zs.value(beta - 1) / (alpha - beta + 1)
            + zs.value(alpha + 1) * zs.value(beta + 1) / (alpha - beta - 1)
        )
    zs = _z(beta)
    coef = (alpha + beta + 1) / float((alpha - beta) ** 2 - 1)
    return coef * zs.value(alpha) * zs.value(beta)


def half_space_S_normalized(alpha: int, beta: int) -> float:
    """S(alpha, beta) / sqrt(alpha! beta!), finite for all supported orders.

    Computed through the normalized z ratios so no raw factorial is ever
    formed; safe for indices in the thousands.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be non-negative")
    if alpha > beta:
        alpha, beta = beta, alpha
    if beta - alpha == 1:
        return SQRT_2PI / 2.0 * math.sqrt(beta)
    if alpha % 2 == 1 and beta % 2 == 1:
        zs = _z(beta + 1)
        return (
            math.sqrt(beta * (alpha + 1.0))
            * zs.normalized(alpha + 1)
            * zs.normalized(beta - 1)
            / (alpha - beta + 1)
            + math.sqrt((alpha + 1.0) * (beta + 1.0))
            * zs.normalized(alpha + 1)
            * zs.normalized(beta + 1)
            / (alpha - beta - 1)
        )
    zs = _z(beta)
    coef = (alpha + beta + 1) / float((alpha - beta) ** 2 - 1)
    return coef * zs.normalized(alpha) * zs.normalized(beta)


class HalfSpaceTable:
    """Even-index blocks of S(alpha, beta) for even alpha, beta <= max_order.

    The Maxwell wall conditions of the reduced parity systems couple only
    even moments, so every half-space integral a wall assembly reads is
    S(2i, 2j).  ``s_normalized[i, j]`` holds S(2i, 2j) / sqrt((2i)! (2j)!)
    for the full range; ``s_values[i, j]`` the raw S(2i, 2j) inside the
    double-precision window (2i, 2j <= RAW_ORDER_LIMIT).  Odd-index pairs
    are left to :func:`half_space_S` and :func:`half_space_S_normalized`.
    Immutable after construction, so safe to share across threads.
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

    def __init__(self, max_order: int):
        if max_order < 0:
            raise ValueError("max_order must be non-negative")
        self.max_order = max_order
        zs = _z(max_order)
        self._normalized = self._even_block(zs.normalized_values[: max_order + 1 : 2])
        raw_top = min(max_order, RAW_ORDER_LIMIT)
        self._raw = self._even_block(np.array([zs.value(n) for n in range(0, raw_top + 1, 2)]))
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
