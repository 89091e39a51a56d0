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
never raw factorials, and a :class:`ReducedSystem` holds the block's three
diagonals and nothing else.  Of the moment norms, only the Kramers a_1
(:func:`_kramers_a1`) is read outside those entries: it scales the wall
drive, and through it the slip carrier.
The Hermite basis combinations behind each row and column, the norms and
the inner-product oracle that re-derive every entry from them, live in
:mod:`knlayer.verification`, with the dense forms of the block.  The order's
parity names the problem: an odd order is the temperature jump, an even one
Kramers slip, and :func:`reduced_system` builds the one it names.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReducedSystem",
    "build_temperature_system",
    "build_kramers_system",
    "reduced_system",
]

MAX_TEMPERATURE_ORDER = 4097
MAX_KRAMERS_ORDER = 4096
# The leading Kramers coupling sqrt(15 / (4 + Pr)) vanishes as Pr grows: at
# M = 4096 the smallest rate over the largest is 2.806e-9 at this bound (the
# computed rates match a 30-digit inverse iteration to 2e-15 relative), and,
# falling as Pr^(-1/2), it would reach the rank tolerance 1e-12 near 7.9e18.
# ``_check_prandtl`` holds both parities to it.
MAX_KRAMERS_PRANDTL = 1e12


def _check_integer(value, name: str, inside=None, domain: str = "an integer") -> None:
    """``ValueError`` naming the parameter and its domain unless ``value`` is an
    integer for which ``inside`` holds, if given.  A bool is no integer here
    (True would pass for 1), and a float order (9.0) would reach a numpy
    shape, or share 9's cache entry."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and (inside is None or inside(value))):
        raise ValueError(f"{name} must be {domain}, got {value!r}")


def _one_real(value, name: str, inside=None, domain: str = "") -> float:
    """``value`` as a float when it is one real number, for which ``inside``
    holds if given.  A sequence, an array that is not 0-d, a bool, complex or
    string value, or a number outside the domain raises ``ValueError`` naming
    the parameter, so a record never stores (and freezes) a caller's array."""
    array = np.asarray(value)
    if array.ndim or array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be one real number, got {value!r}")
    number = float(array)
    if inside is not None and not inside(number):
        raise ValueError(f"{name} must be {domain}, got {value}")
    return number


def _check_temperature_order(order: int) -> int:
    """m_even of an odd order in [3, MAX_TEMPERATURE_ORDER]; anything else
    raises ``ValueError``.  The system and wall builders share this domain."""
    _check_integer(order, "order")
    if order % 2 == 0:
        raise ValueError(f"temperature-jump systems need an odd order, got {order}")
    if not 3 <= order <= MAX_TEMPERATURE_ORDER:
        raise ValueError(f"order must lie in [3, {MAX_TEMPERATURE_ORDER}], got {order}")
    return order - 2


def _check_prandtl(prandtl: float) -> float:
    """Pr as a float in the one Prandtl domain of both parities: finite, normal
    (a subnormal Pr keeps too few digits for the coefficients it scales) and
    at most MAX_KRAMERS_PRANDTL; anything else, NaN included, raises
    ``ValueError``."""
    return _one_real(prandtl, "Prandtl number",
                     lambda pr: sys.float_info.min <= pr <= MAX_KRAMERS_PRANDTL,
                     f"finite and positive, not subnormal and at most {MAX_KRAMERS_PRANDTL:g}")


def _check_kramers_order(order: int, prandtl: float) -> int:
    """m_even of an even order in [4, MAX_KRAMERS_ORDER] at a Prandtl number
    in the domain of ``_check_prandtl``; anything else raises ``ValueError``."""
    _check_integer(order, "order")
    if order % 2 == 1:
        raise ValueError(f"Kramers systems need an even order, got {order}")
    if not 4 <= order <= MAX_KRAMERS_ORDER:
        raise ValueError(f"order must lie in [4, {MAX_KRAMERS_ORDER}], got {order}")
    _check_prandtl(prandtl)
    return order // 2 - 1


def _freeze_arrays(record) -> None:
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _record(cls):
    """The one way to declare a solver record: a frozen dataclass that
    compares and hashes by identity (a field-wise == would ask numpy for the
    truth value of an array) and makes every array it holds read-only."""
    cls.__post_init__ = _freeze_arrays
    return dataclass(frozen=True, eq=False)(cls)


@_record
class ReducedSystem:
    """Reduced moment system in banded form: the order, m_even and three diagonals.

    The coupling block is square, m_even x m_even, and lower triangular
    with bandwidth three; only the main diagonal and the first two
    subdiagonals are stored, so construction stays O(M).  ``diag_sub1[j]``
    and ``diag_sub2[j]`` sit in column j; ``diag_sub2`` is empty for Kramers
    slip, whose block is bidiagonal.  The dense block is
    :func:`knlayer.verification.coupling_dense`.  The Kramers Pr enters the
    entries alone: :func:`knlayer.verification.oracle_entry` takes it from its caller.
    """

    order: int
    m_even: int
    diag_main: np.ndarray
    diag_sub1: np.ndarray
    diag_sub2: np.ndarray


def build_temperature_system(order: int) -> ReducedSystem:
    """Reduced system of the temperature-jump problem for odd order >= 3."""
    m_even = _check_temperature_order(order)

    # The even scales a_1 = sqrt(3), a_{2k} = sqrt((2k+2)!), a_{2k+1} = sqrt((2k)!)
    # and the odd ones b_1 = sqrt(15), b_{2k} = sqrt((2k+3)!) and
    # b_{2k+1} = sqrt((2k+1)!) enter only through the entries below.  In the
    # 1-based column j the main diagonal is (2k+3)!/(a_2k b_2k) = sqrt(j + 3)
    # for j = 2k and (2k+1)!/(a_{2k+1} b_{2k+1}) = sqrt(j) for j = 2k + 1; the
    # second subdiagonal, in row i = j + 2, is (2k+2)!/(a_2k b_{2k-2})
    # = sqrt(j + 4) for i = 2k and (2k)!/(a_{2k+1} b_{2k-1}) = sqrt(j + 1)
    # for i = 2k + 1.
    j = np.arange(1, m_even + 1)
    main = np.sqrt(np.where(j % 2, j, j + 3))
    sub1 = np.zeros(m_even - 1)
    j = j[:max(m_even - 2, 0)]
    sub2 = np.sqrt(np.where(j % 2, j + 1, j + 4))

    # First column couples to the special recombined test functions.
    main[0] = 9.0 / math.sqrt(45.0)            # 9 / (a1 b1)
    if m_even >= 2:
        sub1[0] = 24.0 / math.sqrt(24.0 * 15.0)  # 24 / (a2 b1)
    if m_even >= 3:
        sub2[0] = -6.0 / math.sqrt(2.0 * 15.0)   # -6 / (a3 b1)

    return ReducedSystem(order, m_even, main, sub1, sub2)


def _kramers_a1(prandtl: float) -> float:
    """a_1 = sqrt(2 (4 + Pr) / 5), the norm of the leading Kramers even unknown.

    Its one reader is :func:`knlayer.boundary_solver.kramers_boundary_system`,
    whose wall drive has c[1] = 2 / a_1; the slip carrier E^T c[1:] takes its
    scale from that drive."""
    return math.sqrt(2.0 * (4.0 + prandtl) / 5.0)


def build_kramers_system(order: int, prandtl: float) -> ReducedSystem:
    """Reduced system of the Kramers (shear-driven slip) problem, even order >= 4."""
    m_even = _check_kramers_order(order, prandtl)

    # Even scales a_1 = _kramers_a1(Pr), a_j = sqrt((2j)!), odd ones b_j = sqrt((2j+1)!).
    j = np.arange(1, m_even + 1)
    main = np.sqrt(2 * j + 1)                             # (2j+1)!/(a_j b_j)
    main[0] = math.sqrt(15.0 / (4.0 + prandtl))          # 3!/(a1 b1), Pr-corrected a1
    sub1 = np.sqrt(2 * j[:-1] + 2)                       # (2j+2)!/(a_{j+1} b_j)
    return ReducedSystem(order, m_even, main, sub1, np.zeros(0))


def reduced_system(order: int, pr: float = 1.0) -> ReducedSystem:
    """The reduced system of the order's problem: the temperature jump for an
    odd order, which ignores ``pr``, Kramers slip for an even one.  Pr is
    checked first, on either parity, then that the order is an integer."""
    _check_prandtl(pr)
    _check_integer(order, "order")
    if order % 2:
        return build_temperature_system(order)
    return build_kramers_system(order, pr)
