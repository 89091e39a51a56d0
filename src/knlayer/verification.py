"""Independent numerical oracles and the ``verify`` suites built on them.

Three one-directional checks live here: adaptive quadrature for the
half-space integrals, a dense cyclic Jacobi eigensolver for the parity
spectra, and a first-order upwind two-point BVP solver for the reduced ODE
systems on a truncated domain.  None of them reuse the closed forms they
are meant to confirm.  The BVP oracle has one entry, ``bvp_profile``, keyed
on the order's parity like the solver, on the grid ``bvp_nodes`` builds.
The references they compare against are built here too: the Hermite inner
products and basis combinations behind every coupling entry, the dense
coupling block and parity matrix, the full parity eigenvector matrix, the
raw boundary matrices behind :mod:`knlayer.boundary_solver`'s normalized
wall builders (like those, they take the order alone), and the wall
operator K(chi) that the solver never forms.  The suites
(``run_verification``) compare every solver layer against these oracles
and references.

It is the only knlayer module that imports scipy (quadrature and sparse
LU); the CLI imports it for ``verify`` alone, so no solve loads scipy.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from . import special_functions
from .boundary_solver import (
    WallBoundarySystem,
    _check_match,
    accommodation_factor,
    kramers_boundary_system,
    temperature_boundary_system,
)
from .layer_profiles import DEFAULT_KN, DEFECT_WEIGHTS, temperature_solution, velocity_solution
from .parity_spectral import ParityEigen, decompose
from .special_functions import RAW_ORDER_LIMIT, HalfSpaceTable
from .system_builder import (
    ReducedSystem,
    _check_kramers_order,
    _check_temperature_order,
    build_kramers_system,
    build_temperature_system,
)

__all__ = [
    "QUADRATURE_ORDER_LIMIT",
    "BvpConvergenceError",
    "CheckResult",
    "VERIFICATION_SUITES",
    "quadrature_S",
    "quadrature_S_normalized",
    "inner_product_oracle",
    "oracle_entry",
    "coupling_dense",
    "parity_dense",
    "dense_symmetric_eig",
    "assemble_full_R",
    "assemble_temperature_Tb",
    "assemble_T",
    "assemble_kramers_Sk",
    "wall_operator",
    "geometric_nodes",
    "split_nodes",
    "bvp_nodes",
    "bvp_profile",
    "run_verification",
]

QUADRATURE_ORDER_LIMIT = 30
# Base truncation window in Gaussian standard deviations.  The polynomial
# factor of order n oscillates out to 2 sqrt(n), so the window grows with
# the order; past the turning point the weight decays like exp(-x^2/2) and
# an 8-sigma margin pushes the discarded tail far below 1e-16 of the value.
QUADRATURE_WINDOW_SIGMA = 12.0

BVP_TEMPERATURE_ORDER_LIMIT = 15
BVP_KRAMERS_ORDER_LIMIT = 14
# The finite-difference grid spans BVP_DOMAIN_WIDTHS widths of the widest
# layer, and its last cell is BVP_STRETCH times its first.  A sparse solve
# whose residual exceeds BVP_TOLERANCE of the largest right-hand side fails.
BVP_DOMAIN_WIDTHS = 40.0
BVP_STRETCH = 50.0
BVP_TOLERANCE = 1e-9


class BvpConvergenceError(RuntimeError):
    """The sparse boundary-value solve did not reach the residual target."""


def quadrature_S_normalized(alpha: int, beta: int, theta: float = 1.0) -> float:
    """S(alpha, beta) / sqrt(alpha! beta!) by adaptive quadrature.

    Integrates the flux-weighted product of orthonormal scaled Hermite
    polynomials over the incoming half-line [-12 sqrt(theta), 0].  Working
    with the orthonormal polynomials keeps the integrand O(1), so zeros of
    the closed form come out at true absolute roundoff level.
    """
    if not 0 <= alpha <= QUADRATURE_ORDER_LIMIT or not 0 <= beta <= QUADRATURE_ORDER_LIMIT:
        raise ValueError(
            f"quadrature oracle is validated for orders <= {QUADRATURE_ORDER_LIMIT}"
        )
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    sqrt_theta = math.sqrt(theta)
    top = max(alpha, beta)
    window = max(QUADRATURE_WINDOW_SIGMA, 2.0 * math.sqrt(top + 1.0) + 8.0)

    def integrand(xi: float) -> float:
        s = xi / sqrt_theta
        vals = np.empty(top + 1)
        vals[0] = 1.0
        if top >= 1:
            vals[1] = s
        for n in range(1, top):
            vals[n + 1] = (s * vals[n] - math.sqrt(n) * vals[n - 1]) / math.sqrt(n + 1)
        weight = math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi * theta)
        return math.sqrt(2.0 * math.pi / theta) * xi * vals[alpha] * vals[beta] * weight

    with warnings.catch_warnings():
        # integrals that vanish identically sit at the roundoff floor, which
        # QUADPACK reports as an unreachable relative tolerance
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        value, _ = scipy.integrate.quad(
            integrand,
            -window * sqrt_theta,
            0.0,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=300,
        )
    return value


def quadrature_S(alpha: int, beta: int, theta: float = 1.0) -> float:
    """Raw S(alpha, beta) by quadrature; factorial scaling applied afterwards."""
    scale = math.sqrt(math.factorial(alpha) * math.factorial(beta))
    return quadrature_S_normalized(alpha, beta, theta) * scale


# ----------------------------------------------------------------------
# Hermite inner products, the reference for the coupling entries


def inner_product_oracle(phi_index: tuple[int, int, int], psi_index: tuple[int, int, int]) -> float:
    """<He_a, xi_2 He_b> under the unit Gaussian weight, by recursion + orthogonality.

    xi_2 He_b = b_2 He_{b - e2} + He_{b + e2}, and distinct Hermite indices are
    orthogonal with <He_a, He_a> = a!.
    """
    a = tuple(phi_index)
    b = tuple(psi_index)
    if len(a) != 3 or len(b) != 3:
        raise ValueError("multi-indices must have three components")
    total = 0.0
    down = (b[0], b[1] - 1, b[2])
    if b[1] >= 1 and a == down:
        total += b[1] * _norm_sq(a)
    up = (b[0], b[1] + 1, b[2])
    if a == up:
        total += _norm_sq(a)
    return total


def _norm_sq(idx) -> float:
    """<He_a, He_a> = a! for the multi-index a."""
    return float(math.prod(math.factorial(x) for x in idx))


# Symbolic basis combinations (coefficient, multi-index) defining the rows and
# columns of the coupling blocks.

def temperature_even_basis(i: int) -> list[tuple[float, tuple[int, int, int]]]:
    if i == 1:
        return [(1.0, (0, 2, 0)), (-0.5, (2, 0, 0)), (-0.5, (0, 0, 2))]
    k = i // 2
    if i % 2 == 0:
        return [(1.0, (0, 2 * k + 2, 0))]
    return [(0.5, (2, 2 * k, 0)), (0.5, (0, 2 * k, 2))]


def temperature_odd_basis(j: int) -> list[tuple[float, tuple[int, int, int]]]:
    if j == 1:
        return [(1.0, (0, 3, 0)), (-1.5, (2, 1, 0)), (-1.5, (0, 1, 2))]
    k = j // 2
    if j % 2 == 0:
        return [(1.0, (0, 2 * k + 3, 0))]
    return [(0.5, (2, 2 * k + 1, 0)), (0.5, (0, 2 * k + 1, 2))]


def kramers_even_basis(i: int) -> list[tuple[float, tuple[int, int, int]]]:
    return [(1.0, (1, 2 * i, 0))]


def kramers_odd_basis(j: int) -> list[tuple[float, tuple[int, int, int]]]:
    return [(1.0, (1, 2 * j + 1, 0))]


def _basis_norm(combo) -> float:
    """Norm of a Hermite combination from the orthogonality weights."""
    return math.sqrt(sum(c * c * _norm_sq(idx) for c, idx in combo))


def oracle_entry(system: ReducedSystem, i: int, j: int) -> float:
    """Coupling entry (i, j), 1-based, re-derived from the basis combinations."""
    temperature = system.order % 2 == 1
    if temperature:
        even, odd = temperature_even_basis, temperature_odd_basis
    else:
        even, odd = kramers_even_basis, kramers_odd_basis
    ip = sum(ce * co * inner_product_oracle(ie, io) for ce, ie in even(i) for co, io in odd(j))
    a_sq = _basis_norm(even(i)) ** 2
    if not temperature and i == 1:
        a_sq *= 1.0 - (1.0 - system.prandtl) / 5.0
    return ip / (math.sqrt(a_sq) * _basis_norm(odd(j)))


def coupling_dense(system: ReducedSystem) -> np.ndarray:
    """Dense m_even x m_even coupling block B from its three diagonals."""
    out = np.zeros((system.m_even, system.m_even))
    for offset, diag in enumerate((system.diag_main, system.diag_sub1, system.diag_sub2)):
        out[np.arange(diag.size) + offset, np.arange(diag.size)] = diag
    return out


def parity_dense(system: ReducedSystem) -> np.ndarray:
    """Full symmetric block matrix [[0, B], [B^T, 0]]."""
    b = coupling_dense(system)
    m = system.m_even
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = b
    out[m:, :m] = b.T
    return out


def _disjoint_pair_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fixed tournament schedule covering every index pair once per sweep."""
    players = list(range(n)) if n % 2 == 0 else list(range(n)) + [-1]
    m = len(players)
    rounds = []
    order = players[:]
    for _ in range(m - 1):
        left = order[: m // 2]
        right = order[m // 2:][::-1]
        pairs = sorted(
            (min(x, y), max(x, y)) for x, y in zip(left, right) if x >= 0 and y >= 0
        )
        rounds.append(
            (np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]))
        )
        order = [order[0]] + [order[-1]] + order[1:-1]
    return rounds


def dense_symmetric_eig(matrix: np.ndarray, max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Classical cyclic Jacobi eigendecomposition of a dense symmetric matrix.

    Returns eigenvalues ascending with matching orthonormal eigenvector
    columns.  Rotations are applied in fixed rounds of disjoint index pairs
    (rotations in disjoint planes commute, so the batched result equals the
    sequential one).  Deliberately independent of the structured path and
    of LAPACK.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    amax = float(np.max(np.abs(a)))
    if not np.isfinite(amax):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, amax):
        raise ValueError("matrix is not symmetric within 1e-12")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    if n == 1:
        return a[0, :].copy(), v
    if amax == 0.0:
        return np.zeros(n), v
    # scale to unit magnitude so huge-entry inputs cannot overflow the norms
    a = a / amax
    norm = math.sqrt(float(np.sum(a * a)))
    skip = 1e-15 * norm
    rounds = _disjoint_pair_rounds(n)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2) * 2.0))
        if off < 1e-13 * norm:
            break
        for ps, qs in rounds:
            apq = a[ps, qs]
            live = np.abs(apq) > skip
            if not live.any():
                continue
            p_sel = ps[live]
            q_sel = qs[live]
            apq = apq[live]
            tau = (a[q_sel, q_sel] - a[p_sel, p_sel]) / (2.0 * apq)
            t = np.where(
                tau == 0.0,
                1.0,
                np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)),
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            cp = a[:, p_sel]
            cq = a[:, q_sel]
            a[:, p_sel] = c * cp - s * cq
            a[:, q_sel] = s * cp + c * cq
            rp = a[p_sel, :]
            rq = a[q_sel, :]
            a[p_sel, :] = c[:, None] * rp - s[:, None] * rq
            a[q_sel, :] = s[:, None] * rp + c[:, None] * rq
            a[p_sel, q_sel] = 0.0
            a[q_sel, p_sel] = 0.0
            vp = v[:, p_sel]
            vq = v[:, q_sel]
            v[:, p_sel] = c * vp - s * vq
            v[:, q_sel] = s * vp + c * vq
    w = np.diag(a).copy() * amax
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def assemble_full_R(eigen: ParityEigen) -> np.ndarray:
    """Full orthogonal eigenvector matrix [[E, E], [O, -O]]."""
    return np.block(
        [[eigen.even_vectors, eigen.even_vectors], [eigen.odd_vectors, -eigen.odd_vectors]]
    )


def geometric_nodes(y_max: float, n_cells: int, stretch: float) -> np.ndarray:
    """Nodes 0 = y_0 < ... < y_n = y_max with geometrically growing cells."""
    ratio = stretch ** (1.0 / (n_cells - 1))
    steps = ratio ** np.arange(n_cells)
    nodes = np.concatenate(([0.0], np.cumsum(steps)))
    return nodes * (y_max / nodes[-1])


def bvp_nodes(widest_layer: float, n_cells: int) -> np.ndarray:
    """The oracle's grid: ``BVP_DOMAIN_WIDTHS`` widths of the widest layer,
    in ``n_cells`` geometric cells, the last ``BVP_STRETCH`` times the first."""
    return geometric_nodes(BVP_DOMAIN_WIDTHS * widest_layer, n_cells, BVP_STRETCH)


def split_nodes(nodes: np.ndarray) -> np.ndarray:
    """Halve every cell; the input nodes survive at even indices."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty(nodes.size + mids.size)
    out[0::2] = nodes
    out[1::2] = mids
    return out


def _solve_layer_bvp(
    system: ReducedSystem,
    eigen: ParityEigen,
    wbs: WallBoundarySystem,
    b: float,
    flux: float,
    wall_value: float,
    kn: float,
    carrier_row: np.ndarray,
    scalar_rhs_per_length: float,
    nodes: np.ndarray,
) -> np.ndarray:
    """Assemble and solve the upwinded characteristic discretization.

    Unknowns per node: the scalar profile value, then the decaying (+) and
    growing (-) characteristic amplitudes.  The + branch is upwinded from
    the wall, the - branch from the far end where it is pinned to zero, and
    the scalar equation telescopes the carrier moments exactly.  The wall
    rows read T and c from ``wbs`` and the accommodation factor ``b``.  A
    residual above ``BVP_TOLERANCE`` of the largest right-hand side raises
    :class:`BvpConvergenceError`.
    """
    m = eigen.m_even
    n_nodes = nodes.size
    n_cells = n_nodes - 1
    h = np.diff(nodes)
    stride = 2 * m + 1
    size = stride * n_nodes

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs = np.zeros(size)

    # wall rows: b T (ds ; R_e (v+ + v-)) - [0 ; B R_o (v+ - v-)] = flux c
    b_t = b * wbs.scaled_matrix
    b_dense = coupling_dense(system)
    odd_flow = b_dense @ eigen.odd_vectors
    even_cols = b_t[:, 1:] @ eigen.even_vectors
    plus_block = even_cols.copy()
    plus_block[1:, :] -= odd_flow
    minus_block = even_cols.copy()
    minus_block[1:, :] += odd_flow
    eq = 0
    for r in range(m + 1):
        rows.append(np.full(1 + 2 * m, eq))
        cols.append(np.concatenate((
            [0],
            1 + np.arange(m),
            1 + m + np.arange(m),
        )))
        vals.append(np.concatenate(([b_t[r, 0]], plus_block[r], minus_block[r])))
        rhs[eq] = flux * wbs.c_vec[r] + b * wbs.scaled_matrix[r, 0] * wall_value
        eq += 1

    rates = eigen.rates
    # + branch: (1 + h_j / (rate kn)) v_j = v_{j-1}, marching away from the wall
    j_grid, i_grid = np.meshgrid(np.arange(1, n_nodes), np.arange(m), indexing="ij")
    grow = 1.0 + h[j_grid - 1] / (rates[i_grid] * kn)
    eq_ids = eq + np.arange(j_grid.size)
    rows.append(np.repeat(eq_ids, 2))
    plus_col = j_grid * stride + 1 + i_grid
    prev_col = (j_grid - 1) * stride + 1 + i_grid
    cols.append(np.column_stack((plus_col.ravel(), prev_col.ravel())).ravel())
    vals.append(np.column_stack((grow.ravel(), -np.ones(j_grid.size))).ravel())
    eq += j_grid.size

    # - branch: (1 + h_{j+1} / (rate kn)) v_j = v_{j+1}, marching toward the wall
    j_grid, i_grid = np.meshgrid(np.arange(n_cells), np.arange(m), indexing="ij")
    grow = 1.0 + h[j_grid] / (rates[i_grid] * kn)
    eq_ids = eq + np.arange(j_grid.size)
    rows.append(np.repeat(eq_ids, 2))
    minus_col = j_grid * stride + 1 + m + i_grid
    next_col = (j_grid + 1) * stride + 1 + m + i_grid
    cols.append(np.column_stack((minus_col.ravel(), next_col.ravel())).ravel())
    vals.append(np.column_stack((grow.ravel(), -np.ones(j_grid.size))).ravel())
    eq += j_grid.size

    # - branch pinned at the far end
    eq_ids = eq + np.arange(m)
    rows.append(eq_ids)
    cols.append(n_cells * stride + 1 + m + np.arange(m))
    vals.append(np.ones(m))
    eq += m

    # scalar equation telescopes: s_j - s_{j-1} + carrier ((v+ + v-)_j - (.)_{j-1})
    car = np.asarray(carrier_row, dtype=float)
    j_arr = np.arange(1, n_nodes)
    eq_ids = eq + np.arange(n_cells)
    rows.append(np.repeat(eq_ids, 2))
    cols.append(np.column_stack((j_arr * stride, (j_arr - 1) * stride)).ravel())
    vals.append(np.tile([1.0, -1.0], n_cells))
    span = np.arange(m)
    col_block = np.concatenate((
        j_arr[:, None] * stride + 1 + span,
        j_arr[:, None] * stride + 1 + m + span,
        (j_arr[:, None] - 1) * stride + 1 + span,
        (j_arr[:, None] - 1) * stride + 1 + m + span,
    ), axis=1)
    val_block = np.tile(np.concatenate((car, car, -car, -car)), (n_cells, 1))
    rows.append(np.repeat(eq_ids, 4 * m))
    cols.append(col_block.ravel())
    vals.append(val_block.ravel())
    rhs[eq_ids] = scalar_rhs_per_length * h
    eq += n_cells

    if eq != size:
        raise AssertionError(f"assembled {eq} equations for {size} unknowns")

    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsc()
    lu = scipy.sparse.linalg.splu(mat)
    x = lu.solve(rhs)
    residual = np.max(np.abs(mat @ x - rhs))
    if not np.isfinite(residual) or residual > BVP_TOLERANCE * max(1.0, np.max(np.abs(rhs))):
        raise BvpConvergenceError(f"sparse solve residual {residual:.3e} above tolerance")
    return x[0::stride]


def _problem_parts(order: int, pr: float = 1.0):
    """(system, eigendecomposition) of one order, from the public builders.

    An odd order is the temperature problem, which ignores ``pr``.  Nothing
    is cached: the oracles build their own parts rather than read the
    solver's operator.
    """
    if order % 2:
        system = build_temperature_system(order)
    else:
        system = build_kramers_system(order, pr)
    return system, decompose(system)


def bvp_profile(
    order: int,
    chi: float,
    kn: float,
    pr: float,
    flux: float,
    wall_value: float,
    nodes: np.ndarray,
) -> np.ndarray:
    """Finite-difference profile at ``nodes``, on the half-line truncated at
    the last node.

    An odd order 3 ... ``BVP_TEMPERATURE_ORDER_LIMIT`` gives the temperature
    of the jump problem (``flux`` is the heat flux q, ``wall_value`` the
    wall temperature), an even order 4 ... ``BVP_KRAMERS_ORDER_LIMIT`` the
    tangential velocity of Kramers slip (``flux`` is the shear stress).  A
    small-order equivalence oracle for the closed-form solutions; it is
    first-order accurate, so agreement is judged after grid refinement.
    """
    limit = BVP_TEMPERATURE_ORDER_LIMIT if order % 2 else BVP_KRAMERS_ORDER_LIMIT
    if not 3 <= order <= limit:
        raise ValueError(
            f"the finite-difference oracle supports odd orders in [3, {BVP_TEMPERATURE_ORDER_LIMIT}]"
            f" and even orders in [4, {BVP_KRAMERS_ORDER_LIMIT}], got {order}"
        )
    b = accommodation_factor(chi)
    system, eigen = _problem_parts(order, pr)
    if order % 2:
        wbs = temperature_boundary_system(order)
        carrier = 0.8 * (DEFECT_WEIGHTS[:min(3, eigen.m_even)] @ eigen.even_vectors[:3, :])
        slope = -0.4 * pr * flux / kn
    else:
        wbs = kramers_boundary_system(order, pr)
        carrier = (2.0 / system.even_scale(1)) * eigen.even_vectors[0, :]
        slope = -flux / kn
    return _solve_layer_bvp(system, eigen, wbs, b, flux, wall_value, kn, carrier, slope, nodes)


# ----------------------------------------------------------------------
# raw boundary matrices, the reference for the normalized assemblers

# Mixing of the leading temperature/density pair into the wall unknowns.
P1 = np.array([[0.5, 1.0], [1.0, -1.0]])


def assemble_temperature_Tb(order: int) -> np.ndarray:
    """Raw boundary matrix of the temperature problem, (m_e+1) square.

    Odd rows/columns carry the pure-normal moment fluxes S(2k-2, 2l-2);
    even ones the tangential-pair fluxes S(2k, 2l) with the density offset
    eliminated.  Reads the raw even block of the table its wall system
    reads, at halved indices, so it is only valid while the raw half-space
    values fit in a double.
    """
    size = _check_temperature_order(order) + 1
    if order - 1 > RAW_ORDER_LIMIT:  # the largest index read is S(order - 1, order - 1)
        raise ValueError("raw boundary matrix exceeds the double-precision window")
    out = np.zeros((size, size))
    half = size // 2
    s = HalfSpaceTable(order - 1).s_values
    for k in range(1, half + 1):
        for ell in range(1, half + 1):
            out[2 * k - 1, 2 * ell - 1] = s[k - 1, ell - 1]
            out[2 * k - 2, 2 * ell - 2] = s[k, ell] - s[k, 0] * s[0, ell] / s[0, 0]
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


def assemble_kramers_Sk(order: int) -> np.ndarray:
    """Raw Kramers boundary matrix with entries S(2i-2, 2j-2); it does not
    depend on the Prandtl number."""
    _check_kramers_order(order, 1.0)
    if order - 2 > RAW_ORDER_LIMIT:
        raise ValueError("raw boundary matrix exceeds the double-precision window")
    return HalfSpaceTable(order - 2).s_values.copy()


def wall_operator(system: WallBoundarySystem, eigen: ParityEigen, chi: float) -> np.ndarray:
    """K(chi) = b(chi) T - 2 diag(0, E Lambda E^T); symmetric negative definite.

    The solver never forms it; the definiteness checks and tests do.
    """
    b = accommodation_factor(chi)
    _check_match(system, eigen)
    e = eigen.even_vectors
    k = b * system.scaled_matrix
    k[1:, 1:] -= 2.0 * (e * eigen.rates) @ e.T
    return k


# ----------------------------------------------------------------------
# verification suites, one per solver layer


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: max residual {self.residual:.3e} (tol {self.tolerance:.1e}){note}"


def _check_half_space(level: str) -> list[CheckResult]:
    """The closed forms, and the table's even block the wall assemblies read,
    against quadrature; every even-index pair is nonzero, so the table entries
    join the relative check."""
    top = 12 if level == "quick" else QUADRATURE_ORDER_LIMIT
    table = HalfSpaceTable(top).s_normalized
    worst_rel = 0.0
    worst_zero = 0.0
    for a in range(top + 1):
        for b in range(a, top + 1):
            closed_n = special_functions.half_space_S_normalized(a, b)
            quad_n = quadrature_S_normalized(a, b, 1.0)
            if closed_n == 0.0:
                worst_zero = max(worst_zero, abs(quad_n))
            else:
                worst_rel = max(worst_rel, abs(quad_n - closed_n) / abs(closed_n))
            if a % 2 == 0 and b % 2 == 0:
                entries = table[[a // 2, b // 2], [b // 2, a // 2]]
                worst_rel = max(worst_rel, float(np.max(np.abs(entries - quad_n))) / abs(closed_n))
    results = [
        CheckResult("half-space closed form vs quadrature (relative)", worst_rel <= 1e-9, worst_rel, 1e-9),
        CheckResult("half-space zero pattern vs quadrature (absolute)", worst_zero <= 1e-12, worst_zero, 1e-12),
    ]
    theta_top = 6 if level == "quick" else 10
    worst_theta = 0.0
    for theta in (0.5, 2.0):
        for a in range(theta_top + 1):
            for b in range(a, theta_top + 1):
                ref = quadrature_S_normalized(a, b, 1.0)
                other = quadrature_S_normalized(a, b, theta)
                worst_theta = max(worst_theta, abs(other - ref) / max(1.0, abs(ref)))
    results.append(
        CheckResult("half-space theta independence", worst_theta <= 1e-9, worst_theta, 1e-9)
    )
    sym = 0.0
    pattern_ok = True
    top_sym = 40 if level == "quick" else 80
    for a in range(top_sym + 1):
        for b in range(a, top_sym + 1):
            x = special_functions.half_space_S_normalized(a, b)
            y = special_functions.half_space_S_normalized(b, a)
            sym = max(sym, abs(x - y))
            if (a + b) % 2 == 1 and b - a != 1 and x != 0.0:
                pattern_ok = False
    results.append(CheckResult("half-space exact symmetry", sym == 0.0, sym, 0.0))
    results.append(
        CheckResult("half-space exact zero pattern", pattern_ok, 0.0 if pattern_ok else 1.0, 0.0)
    )
    return results


def _system_entry_residual(system) -> float:
    worst = 0.0
    for j in range(1, system.m_even + 1):
        for i in range(1, system.m_even + 1):
            expected = oracle_entry(system, i, j)
            got = system.coupling_entry(i, j)
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    return worst


def _check_systems(level: str) -> list[CheckResult]:
    t_orders = (3, 5, 7) if level == "quick" else tuple(range(3, 32, 2))
    k_orders = (4, 6) if level == "quick" else tuple(range(4, 31, 2))
    worst = 0.0
    for m in t_orders:
        worst = max(worst, _system_entry_residual(build_temperature_system(m)))
    for m in k_orders:
        for pr in (1.0, 2.0 / 3.0):
            worst = max(worst, _system_entry_residual(build_kramers_system(m, pr)))
    return [CheckResult("system entries vs inner-product oracle", worst <= 1e-12, worst, 1e-12)]


def _spectral_residual(system) -> tuple[float, float]:
    eigen = decompose(system)
    dense = parity_dense(system)
    w, _ = dense_symmetric_eig(dense)
    expected = np.sort(np.concatenate((-eigen.rates, eigen.rates)))
    scale = max(1.0, float(np.max(np.abs(w))))
    pairing = float(np.max(np.abs(np.sort(w) - expected))) / scale
    r = assemble_full_R(eigen)
    orth = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    half = float(
        np.max(np.abs(eigen.even_vectors.T @ eigen.even_vectors - 0.5 * np.eye(system.m_even)))
    )
    return pairing, max(orth, half)


def _check_spectral(level: str) -> list[CheckResult]:
    t_orders = (3, 5, 7) if level == "quick" else tuple(range(3, 100, 2))
    k_orders = (4, 6) if level == "quick" else tuple(range(4, 99, 2))
    worst_pair = 0.0
    worst_orth = 0.0
    for m in t_orders:
        pairing, orth = _spectral_residual(build_temperature_system(m))
        worst_pair = max(worst_pair, pairing)
        worst_orth = max(worst_orth, orth)
    for m in k_orders:
        pairing, orth = _spectral_residual(build_kramers_system(m, 2.0 / 3.0))
        worst_pair = max(worst_pair, pairing)
        worst_orth = max(worst_orth, orth)
    return [
        CheckResult("parity spectrum vs dense Jacobi oracle", worst_pair <= 1e-10, worst_pair, 1e-10),
        CheckResult("eigenvector orthogonality", worst_orth <= 1e-10, worst_orth, 1e-10),
    ]


def _negative_definite(matrix) -> bool:
    try:
        np.linalg.cholesky(-matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _wall_definite(
    raw: np.ndarray, wbs: WallBoundarySystem, eigen: ParityEigen
) -> tuple[bool, bool, float]:
    """(sampled, certified, gram) for the wall operators of one order.

    ``sampled``: the raw matrix, T (factored once) and K(chi) at each checked
    chi are all negative definite.  ``certified``: -K(chi) = b N + D with
    N = -T positive definite and D = diag(0, 2 E L E^T) positive
    semidefinite (every rate positive), so K(chi) is negative definite for
    every b(chi) > 0, that is for every chi in (0, 1].  ``gram`` is
    ||E^T E - I/2||_2, which confirms that E is the eigenvector block the
    form assumes.
    """
    t_definite = _negative_definite(wbs.scaled_matrix)
    sampled = _negative_definite(raw) and t_definite and all(
        _negative_definite(wall_operator(wbs, eigen, chi)) for chi in (0.1, 0.5, 1.0)
    )
    e = eigen.even_vectors
    gram = float(np.linalg.norm(e.T @ e - 0.5 * np.eye(e.shape[1]), 2))
    return sampled, t_definite and bool(eigen.rates.min() > 0.0), gram


def _check_definiteness(level: str) -> list[CheckResult]:
    t_orders = (3, 5, 7) if level == "quick" else tuple(range(3, 100, 2))
    k_orders = (4, 6) if level == "quick" else tuple(range(4, 99, 2))
    checks = []
    # eigenvalue sign sampling backs up the factorizations on a few instances
    worst = -math.inf
    for m in t_orders:
        _, eigen = _problem_parts(m)
        wbs = temperature_boundary_system(m)
        checks.append(_wall_definite(assemble_temperature_Tb(m), wbs, eigen))
        if m in (t_orders[0], t_orders[-1]):
            w, _ = dense_symmetric_eig(wall_operator(wbs, eigen, 0.5))
            worst = max(worst, float(w[-1]) / max(1.0, float(np.max(np.abs(w)))))
    for m in k_orders:
        _, eigen = _problem_parts(m)
        wbs = kramers_boundary_system(m, 1.0)
        checks.append(_wall_definite(assemble_kramers_Sk(m), wbs, eigen))
    sampled, certified, grams = zip(*checks)
    ok = all(sampled) and worst < 0.0
    gram = max(grams)
    return [
        CheckResult("boundary operators negative definite", ok, worst, 0.0,
                    detail="factorization plus sampled spectra"),
        CheckResult("wall operator negative definite for every chi", all(certified) and gram <= 1e-10,
                    gram, 1e-10, detail="-T positive definite, rates positive, ||E^T E - I/2||_2"),
    ]


def _bvp_deviation(order: int, n_cells: int) -> tuple[float, float]:
    """(extrapolated deviation, raw-grid convergence ratio) for one order:
    the temperature profile of an odd order, the Kramers one of an even."""
    kn, pr, chi = DEFAULT_KN, 1.0, 1.0
    solve = temperature_solution if order % 2 else velocity_solution
    sol = solve(order, chi, kn, pr, 1.0, 0.0)
    nodes = bvp_nodes(float(sol.decay_rates[0]) * kn, n_cells)
    coarse = bvp_profile(order, chi, kn, pr, 1.0, 0.0, nodes)
    fine = bvp_profile(order, chi, kn, pr, 1.0, 0.0, split_nodes(nodes))[::2]
    exact = sol.temperature(nodes) if order % 2 else sol.velocity(nodes)
    dev_extrap = float(np.max(np.abs(2.0 * fine - coarse - exact)))
    dev_coarse = float(np.max(np.abs(coarse - exact)))
    dev_fine = float(np.max(np.abs(fine - exact)))
    ratio = dev_coarse / dev_fine if dev_fine > 0 else math.inf
    return dev_extrap, ratio


def _check_bvp(level: str) -> list[CheckResult]:
    cases = [(3, 4000), (4, 4000)] if level == "quick" else [(m, 20000) for m in (3, 7, 4, 8)]
    worst_dev = 0.0
    ratios = []
    for order, cells in cases:
        dev, ratio = _bvp_deviation(order, cells)
        worst_dev = max(worst_dev, dev)
        ratios.append(ratio)
    ratio_ok = all(1.5 <= r <= 2.5 for r in ratios)
    return [
        CheckResult("analytic profiles vs finite-difference oracle", worst_dev <= 1e-6, worst_dev, 1e-6),
        CheckResult(
            "first-order grid convergence",
            ratio_ok,
            min(ratios),
            2.0,
            detail="halving ratio " + ", ".join(f"{r:.2f}" for r in ratios),
        ),
    ]


VERIFICATION_SUITES = (
    ("half_space", _check_half_space),
    ("systems", _check_systems),
    ("spectral", _check_spectral),
    ("definiteness", _check_definiteness),
    ("bvp", _check_bvp),
)


def run_verification(level: str) -> tuple[list[CheckResult], list[tuple[str, float]], float]:
    """All check results, the seconds each suite took, and the total seconds."""
    t0 = time.perf_counter()
    results: list[CheckResult] = []
    suites: list[tuple[str, float]] = []
    for name, suite in VERIFICATION_SUITES:
        start = time.perf_counter()
        results.extend(suite(level))
        suites.append((name, time.perf_counter() - start))
    return results, suites, time.perf_counter() - t0
