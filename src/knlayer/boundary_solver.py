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

whose only chi dependence is the scalar b.  A is sqrt(pi/2) I plus a part
of low numerical rank, so the Krylov space of h stops growing after a few
dozen steps (k = 46, 31, 69, 77 at M = 129, 512, 1025, 2049).  Lanczos on A
from h, with full reorthogonalization, gives the Ritz pairs A Z = Z diag(mu)
on that space, Z of size m_even x k, and (b A + I)^-1 h lies in it for every
b, so every chi is u1 = -flux Z (Z^T h / (b mu + 1)): one O(m_even k)
matrix-vector product, with no factorization per chi (Golub & Van Loan,
Matrix Computations, sections 8.7 and 10.1).  Lanczos reads A only through
products A x = F^T N11 F x - q (q^T x) / n00, so A is never formed.  A is
congruent to N / n00, the Schur complement of N at its pivot, under F, which
is nonsingular when every rate is positive; so N is positive definite and
the rates are positive exactly when n00 > 0, min(L) > 0 and N = -T has a
Cholesky factor, and those three are the structural checks.  The
factorization covers the whole spectrum, where an eigenvalue of A whose
eigenvector is orthogonal to the Krylov space is not among the Ritz values.

The reduction has two steps, so a caller can drop the dense blocks between
them: :func:`_wall_lanczos` checks the pivot and the rates and runs Lanczos
from T, c and E, and :meth:`WallReduction.from_lanczos` factors N and takes
the Ritz pairs.  :func:`solve_wall` runs both on every call; the per-order
``LayerOperator`` of :mod:`knlayer.layer_profiles` runs them once, releases
E and then T between them, and keeps only the reduction.

A :class:`WallBoundarySystem` holds T and c of one order and no chi: it is
assembled once per order, and b(chi) enters only where :func:`solve_wall`
or an oracle evaluates it.  The order fixes it (and Pr, for Kramers slip):
:func:`temperature_boundary_system` and :func:`kramers_boundary_system`
check that domain first, then build the smallest half-space table their
assembly reads; :func:`wall_system` calls the one the order's parity names.
Assembly works entirely in normalized form, from the table's even-index
block, so that orders in the thousands never touch a raw factorial.  The
raw and scaled reference matrices, valid inside the double-precision
window, and K(chi) itself are built in :mod:`knlayer.verification` for
the tests, the definiteness checks and the finite-difference oracle.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .parity_spectral import ParityEigen
from .special_functions import SQRT_2PI, HalfSpaceTable
from .system_builder import (
    _check_kramers_order,
    _check_prandtl,
    _check_temperature_order,
    _kramers_a1,
    _one_real,
    _record,
)

__all__ = [
    "WallBoundarySystem",
    "WallReduction",
    "StructuralSolveError",
    "accommodation_factor",
    "temperature_boundary_system",
    "kramers_boundary_system",
    "wall_system",
    "solve_wall",
]


class StructuralSolveError(RuntimeError):
    """The wall system lost definiteness; signals a builder bug, not bad input."""


def accommodation_factor(chi):
    """b(chi) = 2 chi / ((2 - chi) sqrt(2 pi)) for chi in (0, 1], elementwise on
    arrays and sequences; a float for a scalar chi."""
    chis = np.asarray(chi)
    inside = (chis > 0.0) & (chis <= 1.0)
    if not inside.all():
        raise ValueError(f"accommodation coefficient must lie in (0, 1], got {chis[~inside].flat[0]}")
    b = 2.0 * chis / ((2.0 - chis) * SQRT_2PI)
    return b if b.ndim else float(b)


def _one_chi(chi) -> tuple[float, float]:
    """(chi, b(chi)) of one real accommodation coefficient, chi as a float; a
    wall solve reads one chi, and every solve runs this before it builds anything."""
    chi = _one_real(chi, "chi")
    return chi, accommodation_factor(chi)


def _validate_drive(odd: bool, flux: float, wall_value: float) -> tuple[float, float]:
    """(flux, wall value) as floats, the flux named by the problem: the heat
    flux of the temperature jump (``odd``), the shear stress of Kramers slip.
    A zero flux drives no layer, and a subnormal one keeps too few digits
    for the flux-normalized coefficients."""
    name = "heat flux" if odd else "shear stress"
    flux = _one_real(flux, f"the prescribed {name}", lambda x: sys.float_info.min <= abs(x) < math.inf,
                     "finite, nonzero and normal")
    return flux, _one_real(wall_value, "wall value", math.isfinite, "finite")


@_record
class WallBoundarySystem:
    """Chi-independent wall system of one order: T and the drive c, read-only.

    ``scaled_matrix`` is the overflow-safe boundary matrix T the solver uses;
    b(chi) enters only where a solve or an oracle evaluates it.
    """

    order: int
    scaled_matrix: np.ndarray
    c_vec: np.ndarray


def temperature_boundary_system(order: int) -> WallBoundarySystem:
    """Wall system of the temperature jump, odd order in [3, MAX_TEMPERATURE_ORDER].

    T is assembled overflow-safe: row and column normalizations cancel
    against the moment scalings except for a 2x2 mixing block on the leading
    pair, so the whole matrix is a congruence of normalized half-space
    values.  Odd rows and columns take S(2k-2, 2l-2), even ones S(2k, 2l)
    with the density offset eliminated, all read from the even block of the
    smallest table that holds them, S up to index order - 1.  c is the
    heat-flux inhomogeneity direction.
    """
    size = _check_temperature_order(order) + 1
    half = size // 2
    sn = HalfSpaceTable(order - 1).s_normalized
    t = np.zeros((size, size))
    t[1::2, 1::2] = sn[:half, :half]
    t[0::2, 0::2] = (
        sn[1:half + 1, 1:half + 1] - np.outer(sn[1:half + 1, 0], sn[0, 1:half + 1]) / sn[0, 0]
    )
    w = np.array(
        [
            [0.5 * math.sqrt(2.0), 1.0],
            [math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0)],
        ]
    )
    # the mixing touches rows and columns 0-1 alone, so it is done in place
    t[:2, :] = w @ t[:2, :]
    t[:, :2] = t[:, :2] @ w.T
    lead = [1.0, 4.0 / (5.0 * math.sqrt(3.0)), 2.0 * math.sqrt(6.0) / 5.0, 2.0 * math.sqrt(2.0) / 5.0]
    c = np.zeros(size)
    c[:len(lead)] = lead[:size]
    return WallBoundarySystem(order, t, c)


def kramers_boundary_system(order: int, prandtl: float) -> WallBoundarySystem:
    """Wall system of Kramers slip, even order in [4, MAX_KRAMERS_ORDER] and
    normal Prandtl number of at most MAX_KRAMERS_PRANDTL.

    T = diag(1, L1k)^-1 S_k diag(1, L1k)^-1 with S_k = S(2i, 2j) up to index
    order - 2: in normalized form the scaling collapses to a single
    Prandtl-dependent weight on the leading shear moment.  c = (1, 2 / a1,
    0, ...) is the shear-stress inhomogeneity direction.
    """
    _check_kramers_order(order, prandtl)
    sn = HalfSpaceTable(order - 2).s_normalized
    w1 = math.sqrt(5.0 / (4.0 + prandtl))
    # T = sn w w^T with w = (1, w1, 1, ...), scaled in place on row and column 1
    t = sn.copy()
    t[1, :] *= w1
    t[:, 1] *= w1
    t[1, 1] = sn[1, 1] * (w1 * w1)
    c = np.zeros(t.shape[0])
    c[0] = 1.0
    c[1] = 2.0 / _kramers_a1(prandtl)
    return WallBoundarySystem(order, t, c)


def wall_system(order: int, pr: float = 1.0) -> WallBoundarySystem:
    """The wall system of the order's problem: the temperature jump for an
    odd order, which ignores ``pr``, Kramers slip for an even one.  Pr is
    checked first, on either parity."""
    _check_prandtl(pr)
    if order % 2:
        return temperature_boundary_system(order)
    return kramers_boundary_system(order, pr)


def _check_match(system: WallBoundarySystem, eigen: ParityEigen) -> None:
    size = system.scaled_matrix.shape[0]
    if eigen.rates.size != size - 1:
        raise ValueError(
            "eigendecomposition does not match the boundary system "
            f"(matrix size {size}, parity block {eigen.rates.size})"
        )


# Lanczos stops once the next off-diagonal falls to this many rounding units
# of ||T_k||: once the Krylov space of h is exhausted the off-diagonal
# plateaus at 1-2e-15 with ||A|| ~ 1.5, 3 to 6 units, and 32 leaves a margin.
_KRYLOV_STOP_UNITS = 32.0


def _wall_lanczos(
    system: WallBoundarySystem, rates: np.ndarray, even_vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float, np.ndarray]:
    """First step of the reduction: Lanczos on A from h, with A never formed.

    With C = sqrt(2) L^-1/2, q = -C (E^T T[1:, 0]), h = C (E^T c[1:]) - lead q
    and lead = c0 / n00; each step applies A x = -C E^T (T11 (E (C x))) -
    q (q^T x) / n00, three matrix-vector products, so beside the caller's E
    and T this holds vectors and the Lanczos basis alone.  Lanczos starts
    from h / ||h||, orthogonalizes each new vector against every earlier one
    by two classical Gram-Schmidt passes, and stops when the next
    off-diagonal is at most ``_KRYLOV_STOP_UNITS`` eps ||T_k|| (or the space
    is all of R^m_even).  Returns (T_k, Q, h, q, n00, lead, C): the k x k
    tridiagonal T_k and the k Lanczos vectors as the rows of Q.  A
    non-positive pivot n00 = -T[0, 0] or decay rate raises
    ``StructuralSolveError`` before any arithmetic.
    """
    t = system.scaled_matrix
    n00 = -float(t[0, 0])
    if not (n00 > 0.0 and rates.min() > 0.0):
        raise StructuralSolveError(
            f"wall system of size {t.shape[0]} has pivot {n00:.3e} and smallest rate "
            f"{rates.min():.3e}; both must be positive"
        )
    scale = math.sqrt(2.0) * (1.0 / np.sqrt(rates))
    e, t11 = even_vectors, t[1:, 1:]
    q = e.T @ t[1:, 0]
    q *= -scale
    lead = float(system.c_vec[0]) / n00
    h = e.T @ system.c_vec[1:]
    h *= scale
    h -= lead * q
    m = h.size
    basis = np.empty((min(m, 64), m))  # rows are the Lanczos vectors; doubled when full
    basis[0] = h / math.sqrt(h @ h)
    alphas, betas = [], []
    size = 0.0  # ||T_k||_inf, by rows as they complete
    k = 0
    while True:
        x = basis[k]
        w = e.T @ (t11 @ (e @ (scale * x)))
        w *= -scale
        w -= (q @ x / n00) * q
        done = basis[:k + 1]
        coefficients = done @ w
        alphas.append(float(coefficients[k]))  # q_k . A q_k
        w -= coefficients @ done
        w -= (done @ w) @ done
        beta = math.sqrt(w @ w)
        size = max(size, abs(alphas[-1]) + (betas[-1] if betas else 0.0) + beta)
        k += 1
        if k == m or beta <= _KRYLOV_STOP_UNITS * np.finfo(float).eps * size:
            break
        betas.append(beta)
        if k == basis.shape[0]:
            basis = np.concatenate((basis, np.empty((min(k, m - k), m))))
        np.divide(w, beta, out=basis[k])
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    return tridiagonal, basis[:k], h, q, n00, lead, scale


@_record
class WallReduction:
    """Chi-independent factor of the wall solve.

    With the Ritz pairs A Z = Z diag(mu) of A on the Krylov space of h (Z
    has k orthonormal columns and Z Z^T h = h), the solution of
    K(chi) u = flux c has s = Z^T h / (b(chi) mu + 1) = g / (inv_mu + b(chi))
    with g = Z^T h / mu and inv_mu = 1 / mu, and
    u[0] = -flux (lead / b(chi) - w0 . s),  2 E^T u[1:] = -flux modes @ s,
    where lead = c0 / n00, w0 = Z^T q / n00 and modes = sqrt(2) L^-1/2 Z.
    """

    inv_mu: np.ndarray
    g: np.ndarray
    lead: float
    w0: np.ndarray
    modes: np.ndarray

    @classmethod
    def from_lanczos(cls, n, tridiagonal, basis, h, q, n00, lead, scale) -> WallReduction:
        """Second step: a Cholesky factorization of N = -T, whose failure is a
        structural error, then the Ritz pairs from one eigh of the first
        step's T_k = Y diag(mu) Y^T, Z = Q^T Y.  A is congruent to N / n00,
        the Schur complement of N at its pivot, under F = sqrt(2) E L^-1/2,
        which is nonsingular when the first step's checks hold, so A is
        positive definite exactly when N is.  The factorization covers the
        whole spectrum, where a negative eigenvalue of A whose eigenvector
        is orthogonal to the Krylov space is not among the Ritz values."""
        try:
            np.linalg.cholesky(n)
        except np.linalg.LinAlgError:
            raise StructuralSolveError(
                f"scaled wall matrix of size {n.shape[0]} is not negative definite "
                "(-T has no Cholesky factor)"
            ) from None
        mu, y = np.linalg.eigh(tridiagonal)
        z = basis.T @ y
        return cls(
            inv_mu=1.0 / mu, g=(z.T @ h) / mu, lead=lead, w0=(z.T @ q) / n00,
            modes=z * scale[:, None],
        )

    def solve(
        self, order: int, chi: float, b: float, flux: float, wall_value: float
    ) -> tuple[float, np.ndarray]:
        """(wall unknown at y = 0, positive-branch mode amplitudes) at b = b(chi).

        One O(m_even k) matrix-vector product; a result that is not finite raises
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
    system: WallBoundarySystem, eigen: ParityEigen, chi: float, flux: float, wall_value: float
) -> tuple[float, np.ndarray]:
    """Solve the wall system for the jump value and the decaying mode weights.

    ``flux`` is the prescribed normal heat flux (temperature problem) or
    shear stress (Kramers); ``wall_value`` the corresponding wall state.
    Returns (wall unknown at y = 0, positive-branch mode amplitudes).
    A chi that is not one real number in (0, 1], a flux that is not one
    finite, nonzero, normal real number or a wall value that is not one
    finite real number raises ``ValueError`` before any reduction.
    A non-positive pivot -T[0, 0] or decay rate, or an N = -T that is not
    positive definite, is a structural failure, and a result that is
    not finite (a subnormal chi overflows 1 / b(chi)) raises ``ValueError``.  Every call reduces the
    system afresh; repeated chi of one order go through ``LayerOperator``.
    """
    chi, b = _one_chi(chi)
    flux, wall_value = _validate_drive(system.order % 2 == 1, flux, wall_value)
    _check_match(system, eigen)
    lanczos = _wall_lanczos(system, eigen.rates, eigen.even_vectors)
    reduction = WallReduction.from_lanczos(-system.scaled_matrix, *lanczos)
    return reduction.solve(system.order, chi, b, flux, wall_value)
