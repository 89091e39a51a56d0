"""Maxwell-wall boundary assembly and the wall-value solve.

The wall conditions reduce to a symmetric negative definite linear system

    K(chi) [dT ; E v] = flux * c,   K(chi) = b(chi) T - 2 diag(0, E L E^T),

where T is the scaled boundary matrix, E the even eigenvector block and L
the positive decay rates.  Assembly works entirely in normalized form so
that orders in the thousands never touch a raw factorial.  The raw
matrices have their own builders, valid inside the double-precision
window, as the reference for tests and the definiteness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .parity_spectral import ParityEigen
from .special_functions import RAW_ORDER_LIMIT, SQRT_2PI, HalfSpaceTable
from .system_builder import SystemKind

__all__ = [
    "WallBoundarySystem",
    "StructuralSolveError",
    "accommodation_factor",
    "assemble_temperature_Tb",
    "assemble_T",
    "assemble_temperature_T",
    "assemble_kramers_Sk",
    "assemble_kramers_T",
    "temperature_c_vector",
    "kramers_c_vector",
    "temperature_boundary_system",
    "kramers_boundary_system",
    "solve_wall",
]

# Mixing of the leading temperature/density pair into the wall unknowns.
P1 = np.array([[0.5, 1.0], [1.0, -1.0]])


class StructuralSolveError(RuntimeError):
    """The wall system lost definiteness; signals a builder bug, not bad input."""


def accommodation_factor(chi: float) -> float:
    """b(chi) = 2 chi / ((2 - chi) sqrt(2 pi)) for chi in (0, 1]."""
    if not 0.0 < chi <= 1.0:
        raise ValueError(f"accommodation coefficient must lie in (0, 1], got {chi}")
    return 2.0 * chi / ((2.0 - chi) * SQRT_2PI)


def _check_temperature_order(order: int) -> int:
    if order % 2 == 0 or order < 3:
        raise ValueError(f"temperature boundary assembly needs an odd order >= 3, got {order}")
    return order - 2  # m_even


def _check_kramers_order(order: int) -> int:
    if order % 2 == 1 or order < 4:
        raise ValueError(f"Kramers boundary assembly needs an even order >= 4, got {order}")
    return (order - 1) // 2  # m_even


def assemble_temperature_Tb(order: int, table: HalfSpaceTable) -> np.ndarray:
    """Raw boundary matrix of the temperature problem, (m_e+1) square.

    Odd rows/columns carry the pure-normal moment fluxes with the density
    offset eliminated; even ones the tangential-pair fluxes.  Only valid
    while the raw half-space values fit in a double.
    """
    m_even = _check_temperature_order(order)
    size = m_even + 1
    if order + 1 > RAW_ORDER_LIMIT:
        raise ValueError("raw boundary matrix exceeds the double-precision window")
    if table.max_order < order + 1:
        raise ValueError(f"table of order {table.max_order} too small for order {order}")
    out = np.zeros((size, size))
    half = size // 2
    s = table.s_values
    for k in range(1, half + 1):
        for ell in range(1, half + 1):
            out[2 * k - 1, 2 * ell - 1] = s[2 * k - 2, 2 * ell - 2]
            out[2 * k - 2, 2 * ell - 2] = (
                s[2 * k, 2 * ell] - s[2 * k, 0] * s[0, 2 * ell] / s[0, 0]
            )
    return out


def assemble_T(tb: np.ndarray, even_scales: np.ndarray) -> np.ndarray:
    """Scaled boundary matrix diag(1, L1^-1) P (T^b) P diag(1, L1^-1)."""
    size = tb.shape[0]
    if even_scales.shape != (size - 1,):
        raise ValueError("even_scales must have one entry per moment row")
    p_full = np.eye(size)
    p_full[:2, :2] = P1
    d = np.ones(size)
    d[1:] = 1.0 / even_scales
    mixed = p_full @ tb @ p_full
    return mixed * np.outer(d, d)


def assemble_temperature_T(order: int, table: HalfSpaceTable) -> np.ndarray:
    """Scaled temperature boundary matrix, assembled overflow-safe.

    Row and column normalizations cancel against the moment scalings except
    for a 2x2 mixing block on the leading pair, so the whole matrix is a
    congruence of normalized half-space values.
    """
    m_even = _check_temperature_order(order)
    size = m_even + 1
    if table.max_order < order + 1:
        raise ValueError(f"table of order {table.max_order} too small for order {order}")
    sn = table.s_normalized
    n = np.zeros((size, size))
    n[1::2, 1::2] = sn[0:size:2, 0:size:2]
    n[0::2, 0::2] = (
        sn[2:size + 1:2, 2:size + 1:2]
        - np.outer(sn[2:size + 1:2, 0], sn[0, 2:size + 1:2]) / sn[0, 0]
    )
    w = np.array(
        [
            [0.5 * math.sqrt(2.0), 1.0],
            [math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0)],
        ]
    )
    out = n.copy()
    out[:2, :] = w @ n[:2, :]
    out[:, :2] = out[:, :2] @ w.T
    return out


def assemble_kramers_Sk(order: int, table: HalfSpaceTable) -> np.ndarray:
    """Raw Kramers boundary matrix with entries S(2i-2, 2j-2)."""
    m_even = _check_kramers_order(order)
    size = m_even + 1
    if 2 * size - 2 > RAW_ORDER_LIMIT:
        raise ValueError("raw boundary matrix exceeds the double-precision window")
    if table.max_order < 2 * size - 2:
        raise ValueError(f"table of order {table.max_order} too small for order {order}")
    s = table.s_values
    idx = 2 * np.arange(size)
    return s[np.ix_(idx, idx)].copy()


def assemble_kramers_T(order: int, table: HalfSpaceTable, prandtl: float) -> np.ndarray:
    """Scaled Kramers boundary matrix diag(1, L1k)^-1 S_k diag(1, L1k)^-1.

    In normalized form the scaling collapses to a single Prandtl-dependent
    weight on the leading shear moment.
    """
    m_even = _check_kramers_order(order)
    if prandtl <= 0.0:
        raise ValueError(f"prandtl must be positive, got {prandtl}")
    size = m_even + 1
    if table.max_order < 2 * size - 2:
        raise ValueError(f"table of order {table.max_order} too small for order {order}")
    w = np.ones(size)
    if size >= 2:
        w[1] = math.sqrt(5.0 / (4.0 + prandtl))
    return table.s_normalized[0:2 * size:2, 0:2 * size:2] * np.outer(w, w)


def temperature_c_vector(order: int) -> np.ndarray:
    """Heat-flux inhomogeneity direction of the temperature wall system."""
    m_even = _check_temperature_order(order)
    out = np.zeros(m_even + 1)
    lead = [1.0, 4.0 / (5.0 * math.sqrt(3.0)), 2.0 * math.sqrt(6.0) / 5.0, 2.0 * math.sqrt(2.0) / 5.0]
    take = min(len(lead), m_even + 1)
    out[:take] = lead[:take]
    return out


def kramers_c_vector(order: int, prandtl: float) -> np.ndarray:
    """Shear-stress inhomogeneity direction of the Kramers wall system."""
    m_even = _check_kramers_order(order)
    a1 = math.sqrt(2.0 * (4.0 + prandtl) / 5.0)
    out = np.zeros(m_even + 1)
    out[0] = 1.0
    out[1] = 2.0 / a1
    return out


@dataclass(frozen=True)
class WallBoundarySystem:
    """Assembled wall system for one (kind, order, chi) combination.

    ``scaled_matrix`` is the overflow-safe boundary matrix T the solver uses.
    """

    kind: SystemKind
    order: int
    chi: float
    b_chi: float
    scaled_matrix: np.ndarray
    c_vec: np.ndarray

    def __post_init__(self):
        self.scaled_matrix.flags.writeable = False
        self.c_vec.flags.writeable = False


def temperature_boundary_system(order: int, chi: float, table: HalfSpaceTable) -> WallBoundarySystem:
    return WallBoundarySystem(
        kind=SystemKind.TEMPERATURE_JUMP,
        order=order,
        chi=chi,
        b_chi=accommodation_factor(chi),
        scaled_matrix=assemble_temperature_T(order, table),
        c_vec=temperature_c_vector(order),
    )


def kramers_boundary_system(
    order: int, chi: float, prandtl: float, table: HalfSpaceTable
) -> WallBoundarySystem:
    return WallBoundarySystem(
        kind=SystemKind.KRAMERS,
        order=order,
        chi=chi,
        b_chi=accommodation_factor(chi),
        scaled_matrix=assemble_kramers_T(order, table, prandtl),
        c_vec=kramers_c_vector(order, prandtl),
    )


def wall_operator(system: WallBoundarySystem, eigen: ParityEigen) -> np.ndarray:
    """K(chi) = b(chi) T - 2 diag(0, E Lambda E^T); symmetric negative definite."""
    size = system.scaled_matrix.shape[0]
    if eigen.m_even != size - 1 or eigen.m_even != eigen.m_odd:
        raise ValueError(
            "eigendecomposition does not match the boundary system "
            f"(matrix size {size}, even block {eigen.m_even}, odd block {eigen.m_odd})"
        )
    k = system.b_chi * system.scaled_matrix
    k[1:, 1:] -= eigen.rate_block
    return k


def solve_wall(
    system: WallBoundarySystem,
    eigen: ParityEigen,
    flux: float,
    wall_value: float,
) -> tuple[float, np.ndarray]:
    """Solve the wall system for the jump value and the decaying mode weights.

    ``flux`` is the prescribed normal heat flux (temperature problem) or
    shear stress (Kramers); ``wall_value`` the corresponding wall state.
    Returns (wall unknown at y = 0, positive-branch mode amplitudes).
    The solve factors the negated operator, which must be positive definite;
    anything else is a structural failure.
    """
    k = wall_operator(system, eigen)
    rhs = flux * system.c_vec
    try:
        factor = scipy.linalg.cho_factor(-k, lower=True)
    except np.linalg.LinAlgError as exc:
        raise StructuralSolveError(
            f"wall operator for order {system.order}, chi={system.chi} "
            "is not negative definite"
        ) from exc
    u = scipy.linalg.cho_solve(factor, -rhs)
    v_plus0 = 2.0 * eigen.even_vectors.T @ u[1:]
    return float(u[0]) + wall_value, v_plus0
