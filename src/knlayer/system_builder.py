"""Construction of the reduced even-odd moment systems.

Two half-space problems share the same block skeleton

    [[0, B], [B^T, 0]] d w / dy = -w / Kn

with B a square banded coupling block between scaled even-parity and
odd-parity moment unknowns: every supported order has as many odd unknowns
as even ones, m_even = M - 2 for odd M and M/2 - 1 for even M.  The thermal
(temperature-jump) variant orders the even unknowns as (t0, t2, g2, t4, g4,
...) and the odd ones as (t1 - q/5, t3, g3, t5, g5, ...); the shear
(Kramers) variant uses the pure cross moments (f2, f4, ...) and
(f3, f5, ...).  All entries are factorial ratios evaluated in closed form,
never raw factorials.  The Hermite basis combinations behind each row and
column, and the inner-product oracle that re-derives every entry from them,
live in :mod:`knlayer.verification`, with the dense forms of the block.  The
order's parity names the problem: an odd order is the temperature jump, an
even one Kramers slip.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReducedSystem",
    "build_temperature_system",
    "build_kramers_system",
]

MAX_TEMPERATURE_ORDER = 4097
MAX_KRAMERS_ORDER = 4096
# The leading Kramers coupling sqrt(15 / (4 + Pr)) vanishes as Pr grows: at
# M = 4096 the smallest rate over the largest is 2.806e-9 at this bound (the
# computed rates match a 30-digit inverse iteration to 2e-15 relative), and,
# falling as Pr^(-1/2), it would reach the rank tolerance 1e-12 near 7.9e18.
# ``_check_prandtl`` holds both parities to it.
MAX_KRAMERS_PRANDTL = 1e12


def _check_temperature_order(order: int) -> int:
    """m_even of an odd order in [3, MAX_TEMPERATURE_ORDER]; anything else
    raises ``ValueError``.  The system and wall builders share this domain."""
    if order % 2 == 0:
        raise ValueError(f"temperature-jump systems need an odd order, got {order}")
    if not 3 <= order <= MAX_TEMPERATURE_ORDER:
        raise ValueError(f"order must lie in [3, {MAX_TEMPERATURE_ORDER}], got {order}")
    return order - 2


def _check_prandtl(prandtl: float) -> None:
    """The one Prandtl domain of both parities: finite, normal (a subnormal
    Pr keeps too few digits for the coefficients it scales) and at most
    MAX_KRAMERS_PRANDTL; anything else, NaN included, raises ``ValueError``."""
    if not sys.float_info.min <= prandtl <= MAX_KRAMERS_PRANDTL:
        raise ValueError(f"Prandtl number must be finite and positive, not subnormal and at "
                         f"most {MAX_KRAMERS_PRANDTL:g}, got {prandtl}")


def _check_kramers_order(order: int, prandtl: float) -> int:
    """m_even of an even order in [4, MAX_KRAMERS_ORDER] at a Prandtl number
    in the domain of ``_check_prandtl``; anything else raises ``ValueError``."""
    if order % 2 == 1:
        raise ValueError(f"Kramers systems need an even order, got {order}")
    if not 4 <= order <= MAX_KRAMERS_ORDER:
        raise ValueError(f"order must lie in [4, {MAX_KRAMERS_ORDER}], got {order}")
    _check_prandtl(prandtl)
    return order // 2 - 1


@dataclass(frozen=True)
class ReducedSystem:
    """Reduced moment system in banded form.

    The coupling block is square, m_even x m_even, and lower triangular
    with bandwidth three; only the main diagonal and the first two
    subdiagonals are stored, so construction stays O(M).
    ``log_even_scale`` holds the logs of the even unknowns' diagonal
    normalizations (the raw values overflow for orders in the thousands).
    """

    order: int
    m_even: int
    diag_main: np.ndarray
    diag_sub1: np.ndarray
    diag_sub2: np.ndarray
    log_even_scale: np.ndarray
    prandtl: float | None = None

    def __post_init__(self):
        for arr in (self.diag_main, self.diag_sub1, self.diag_sub2, self.log_even_scale):
            arr.flags.writeable = False

    def coupling_entry(self, i: int, j: int) -> float:
        """Entry (i, j) of the coupling block, 1-based as in the derivation."""
        if not (1 <= i <= self.m_even and 1 <= j <= self.m_even):
            raise IndexError(f"entry ({i}, {j}) outside {self.m_even} x {self.m_even}")
        d = i - j
        if d == 0:
            return float(self.diag_main[j - 1])
        if d == 1 and j - 1 < self.diag_sub1.size:
            return float(self.diag_sub1[j - 1])
        if d == 2 and j - 1 < self.diag_sub2.size:
            return float(self.diag_sub2[j - 1])
        return 0.0

    def even_scale(self, i: int) -> float:
        """Diagonal normalization of the i-th even unknown (1-based)."""
        return math.exp(float(self.log_even_scale[i - 1]))


def build_temperature_system(order: int) -> ReducedSystem:
    """Reduced system of the temperature-jump problem for odd order >= 3."""
    m_even = _check_temperature_order(order)

    # Even scales: a_1 = sqrt(3), a_{2k} = sqrt((2k+2)!), a_{2k+1} = sqrt((2k)!).
    log_a = np.empty(m_even)
    log_a[0] = 0.5 * math.log(3.0)
    for k in range(1, (m_even + 1) // 2):
        log_a[2 * k - 1] = 0.5 * math.lgamma(2 * k + 3)
        log_a[2 * k] = 0.5 * math.lgamma(2 * k + 1)
    # The odd scales b_1 = sqrt(15), b_{2k} = sqrt((2k+3)!) and
    # b_{2k+1} = sqrt((2k+1)!) enter only through the entries below.
    main = np.zeros(m_even)
    sub1 = np.zeros(m_even - 1)
    sub2 = np.zeros(max(m_even - 2, 0))

    # First column couples to the special recombined test functions.
    main[0] = 9.0 / math.sqrt(45.0)            # 9 / (a1 b1)
    if m_even >= 2:
        sub1[0] = 24.0 / math.sqrt(24.0 * 15.0)  # 24 / (a2 b1)
    if m_even >= 3:
        sub2[0] = -6.0 / math.sqrt(2.0 * 15.0)   # -6 / (a3 b1)
    for j in range(2, m_even + 1):
        k = j // 2
        if j % 2 == 0:
            main[j - 1] = math.sqrt(2 * k + 3)           # (2k+3)!/(a_2k b_2k)
        else:
            main[j - 1] = math.sqrt(2 * k + 1)           # (2k+1)!/(a_{2k+1} b_{2k+1})
    for j in range(2, m_even - 1):
        i = j + 2
        k = i // 2
        if i % 2 == 0:
            sub2[j - 1] = math.sqrt(2 * k + 2)           # (2k+2)!/(a_2k b_{2k-2})
        else:
            sub2[j - 1] = math.sqrt(2 * k)               # (2k)!/(a_{2k+1} b_{2k-1})

    return ReducedSystem(
        order=order,
        m_even=m_even,
        diag_main=main,
        diag_sub1=sub1,
        diag_sub2=sub2,
        log_even_scale=log_a,
    )


def build_kramers_system(order: int, prandtl: float) -> ReducedSystem:
    """Reduced system of the Kramers (shear-driven slip) problem, even order >= 4."""
    m_even = _check_kramers_order(order, prandtl)

    log_a = np.array([0.5 * math.lgamma(2 * i + 1) for i in range(1, m_even + 1)])
    log_a[0] += 0.5 * math.log(1.0 - (1.0 - prandtl) / 5.0)

    # Odd scales b_j = sqrt((2j+1)!).
    main = np.zeros(m_even)
    main[0] = math.sqrt(15.0 / (4.0 + prandtl))          # 3!/(a1 b1), Pr-corrected a1
    for j in range(2, m_even + 1):
        main[j - 1] = math.sqrt(2 * j + 1)               # (2j+1)!/(a_j b_j)
    sub1 = np.array([math.sqrt(2.0 * j + 2.0) for j in range(1, m_even)])
    sub2 = np.zeros(0)

    return ReducedSystem(
        order=order,
        m_even=m_even,
        diag_main=main,
        diag_sub1=sub1,
        diag_sub2=sub2,
        log_even_scale=log_a,
        prandtl=prandtl,
    )
