"""Maxwell-wall boundary assembly and the wall-value solve.

The wall conditions reduce to a symmetric negative definite linear system

    K(chi) [dT ; E v] = flux * c,   K(chi) = b(chi) T - 2 diag(0, E L E^T),

where T is the scaled boundary matrix, E the even eigenvector block and L
the positive decay rates.  Only b(chi) depends on chi, and -K(chi) = b N + D
with N = -T positive definite and D = diag(0, 2 E L E^T).  The block is
square, so P = sqrt(2) E is orthogonal and P^T (2 E L E^T) P = L.  Rotating
and scaling the unknowns by diag(1, P L^-1/2) turns -K(chi) into
b [[n00, q^T], [q, F^T N11 F]] + diag(0, I) with F = P L^-1/2 and
q = F^T N[1:, 0].  Eliminating the leading unknown with the pivot
n00 = -T[0, 0] leaves

    (b A + I) u1 = -flux h,   A = F^T N11 F - q q^T / n00,
                              h = F^T c[1:] - q c[0] / n00,

whose only chi dependence is the scalar b.  One symmetric eigendecomposition
A = Z diag(mu) Z^T per order (numpy's LAPACK eigh, of size m_even) then
gives every chi as u1 = -flux Z (Z^T h / (b mu + 1)): one O(M^2)
matrix-vector product, with no factorization (Golub & Van Loan, Matrix
Computations, section 8.7).  N is positive definite and the rates are
positive exactly when n00 > 0, min(L) > 0 and min(mu) > 0, so those three
signs are the structural checks.

The reduction has two steps, so a caller can drop the dense blocks between
them: :func:`schur_complement` forms A, h and q from T, c and E, and
:meth:`WallReduction.from_schur` diagonalizes A.  :func:`solve_wall` runs
both on every call; the per-order ``LayerOperator`` of
:mod:`knlayer.layer_profiles` runs them once and keeps only the reduction.

Assembly works entirely in normalized form, from the even-index block of
the half-space table, so that orders in the thousands never touch a raw
factorial.  The raw matrices, valid inside the double-precision window,
are built in :mod:`knlayer.verification` as the reference for tests and
the definiteness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parity_spectral import ParityEigen
from .special_functions import SQRT_2PI, HalfSpaceTable
from .system_builder import SystemKind

__all__ = [
    "WallBoundarySystem",
    "WallReduction",
    "StructuralSolveError",
    "accommodation_factor",
    "assemble_temperature_T",
    "assemble_kramers_T",
    "temperature_c_vector",
    "kramers_c_vector",
    "temperature_boundary_system",
    "kramers_boundary_system",
    "schur_complement",
    "solve_wall",
]


class StructuralSolveError(RuntimeError):
    """The wall system lost definiteness; signals a builder bug, not bad input."""


def accommodation_factor(chi):
    """b(chi) = 2 chi / ((2 - chi) sqrt(2 pi)) for chi in (0, 1], elementwise on arrays."""
    chis = np.asarray(chi)
    inside = (chis > 0.0) & (chis <= 1.0)
    if not inside.all():
        raise ValueError(f"accommodation coefficient must lie in (0, 1], got {chis[~inside].flat[0]}")
    return 2.0 * chi / ((2.0 - chi) * SQRT_2PI)


def _check_temperature_order(order: int) -> int:
    if order % 2 == 0 or order < 3:
        raise ValueError(f"temperature boundary assembly needs an odd order >= 3, got {order}")
    return order - 2  # m_even


def _check_kramers_order(order: int) -> int:
    if order % 2 == 1 or order < 4:
        raise ValueError(f"Kramers boundary assembly needs an even order >= 4, got {order}")
    return (order - 1) // 2  # m_even


def assemble_temperature_T(order: int, table: HalfSpaceTable) -> np.ndarray:
    """Scaled temperature boundary matrix, assembled overflow-safe.

    Row and column normalizations cancel against the moment scalings except
    for a 2x2 mixing block on the leading pair, so the whole matrix is a
    congruence of normalized half-space values.  Odd rows and columns take
    S(2k-2, 2l-2), even ones S(2k, 2l) with the density offset eliminated,
    all read from the table's even block at halved indices.
    """
    m_even = _check_temperature_order(order)
    size = m_even + 1
    if table.max_order < order + 1:
        raise ValueError(f"table of order {table.max_order} too small for order {order}")
    half = size // 2
    sn = table.s_normalized
    n = np.zeros((size, size))
    n[1::2, 1::2] = sn[:half, :half]
    n[0::2, 0::2] = (
        sn[1:half + 1, 1:half + 1] - np.outer(sn[1:half + 1, 0], sn[0, 1:half + 1]) / sn[0, 0]
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
    return table.s_normalized[:size, :size] * np.outer(w, w)


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

    ``scaled_matrix`` is the overflow-safe boundary matrix T the solver uses;
    it and ``c_vec`` are read-only.
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
        SystemKind.TEMPERATURE_JUMP, order, chi, accommodation_factor(chi),
        assemble_temperature_T(order, table), temperature_c_vector(order),
    )


def kramers_boundary_system(
    order: int, chi: float, prandtl: float, table: HalfSpaceTable
) -> WallBoundarySystem:
    return WallBoundarySystem(
        SystemKind.KRAMERS, order, chi, accommodation_factor(chi),
        assemble_kramers_T(order, table, prandtl), kramers_c_vector(order, prandtl),
    )


def _check_match(system: WallBoundarySystem, eigen: ParityEigen) -> None:
    size = system.scaled_matrix.shape[0]
    if eigen.m_even != size - 1 or eigen.m_even != eigen.m_odd:
        raise ValueError(
            "eigendecomposition does not match the boundary system "
            f"(matrix size {size}, even block {eigen.m_even}, odd block {eigen.m_odd})"
        )


def wall_operator(system: WallBoundarySystem, eigen: ParityEigen) -> np.ndarray:
    """K(chi) = b(chi) T - 2 diag(0, E Lambda E^T); symmetric negative definite.

    The solver never forms it; the definiteness checks and tests do.
    """
    _check_match(system, eigen)
    e = eigen.even_vectors
    k = system.b_chi * system.scaled_matrix
    k[1:, 1:] -= 2.0 * (e * eigen.rates) @ e.T
    return k


def schur_complement(
    system: WallBoundarySystem, rates: np.ndarray, even_vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, np.ndarray]:
    """First step of the reduction: (A, h, q, n00, lead, sqrt(2) L^-1/2).

    F = E sqrt(2) L^-1/2 lives only inside this call.  A non-positive pivot
    -T[0, 0] or decay rate raises ``StructuralSolveError``.
    """
    t = system.scaled_matrix
    n00 = -float(t[0, 0])
    if not (n00 > 0.0 and rates.min() > 0.0):
        raise StructuralSolveError(
            f"wall system of size {t.shape[0]} has pivot {n00:.3e} and smallest rate "
            f"{rates.min():.3e}; both must be positive"
        )
    scale = math.sqrt(2.0) * (1.0 / np.sqrt(rates))
    f = even_vectors * scale
    q = -(f.T @ t[1:, 0])
    a = f.T @ t[1:, 1:]
    a = a @ f
    np.negative(a, out=a)
    a -= np.outer(q / n00, q)
    lead = float(system.c_vec[0]) / n00
    h = f.T @ system.c_vec[1:] - lead * q
    return a, h, q, n00, lead, scale


@dataclass(frozen=True)
class WallReduction:
    """Chi-independent factor of the wall solve.

    With A = Z diag(mu) Z^T, the solution of K(chi) u = flux c has
    s = Z^T h / (b(chi) mu + 1) = g / (inv_mu + b(chi)) with g = Z^T h / mu
    and inv_mu = 1 / mu, and
    u[0] = -flux (lead / b(chi) - w0 . s),  2 E^T u[1:] = -flux modes @ s,
    where lead = c0 / n00, w0 = Z^T q / n00 and modes = sqrt(2) L^-1/2 Z.
    """

    inv_mu: np.ndarray
    g: np.ndarray
    lead: float
    w0: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        for arr in (self.inv_mu, self.g, self.w0, self.modes):
            arr.flags.writeable = False

    @classmethod
    def from_schur(cls, a, h, q, n00, lead, scale) -> WallReduction:
        """Second step: eigh(A); a non-positive eigenvalue is a structural error."""
        mu, z = np.linalg.eigh(a)
        if not mu[0] > 0.0:
            raise StructuralSolveError(
                f"scaled wall matrix of size {a.shape[0] + 1} is not negative definite "
                f"(smallest reduced eigenvalue {mu[0]:.3e})"
            )
        return cls(
            inv_mu=1.0 / mu, g=(z.T @ h) / mu, lead=lead, w0=(z.T @ q) / n00,
            modes=z * scale[:, None],
        )

    def solve(
        self, order: int, chi: float, b: float, flux: float, wall_value: float
    ) -> tuple[float, np.ndarray]:
        """(wall unknown at y = 0, positive-branch mode amplitudes) at b = b(chi).

        One O(M^2) matrix-vector product; a result that is not finite raises
        ``ValueError``.
        """
        # b(chi) underflows to zero below chi ~ 1e-323; numpy turns lead / 0 into inf.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = self.g / (self.inv_mu + b)
            v_plus0 = -flux * (self.modes @ s)
            u0 = float(-flux * (np.divide(self.lead, b) - float(self.w0 @ s)) + wall_value)
        if not (math.isfinite(u0) and np.isfinite(v_plus0).all()):
            raise ValueError(f"wall solve for order {order}, chi={chi} is not finite")
        return u0, v_plus0


def solve_wall(
    system: WallBoundarySystem, eigen: ParityEigen, flux: float, wall_value: float
) -> tuple[float, np.ndarray]:
    """Solve the wall system for the jump value and the decaying mode weights.

    ``flux`` is the prescribed normal heat flux (temperature problem) or
    shear stress (Kramers); ``wall_value`` the corresponding wall state.
    Returns (wall unknown at y = 0, positive-branch mode amplitudes).
    A non-positive pivot -T[0, 0], decay rate or reduced eigenvalue is a
    structural failure, and a result that is not finite (a subnormal chi
    overflows 1 / b(chi)) raises ``ValueError``.  Every call reduces the
    system afresh; repeated chi of one order go through ``LayerOperator``.
    """
    _check_match(system, eigen)
    reduction = WallReduction.from_schur(*schur_complement(system, eigen.rates, eigen.even_vectors))
    return reduction.solve(system.order, system.chi, system.b_chi, flux, wall_value)
