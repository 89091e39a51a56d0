"""Numerical oracles and the ``verify`` suites built on them.

Three one-directional checks live here, each with one entry: a
self-checked Gauss-Legendre rule for the half-space integrals
(``quadrature_block``, every scaled pair up to one order at once), a dense
cyclic Jacobi eigenvalue solver (``dense_symmetric_eigvals``, eigenvalues
only) for the parity spectra and the sampled wall spectra, and a first-order
upwind two-point BVP solver for the reduced ODE systems on a truncated
domain.  The first two reuse nothing of the path they check.  The BVP
oracle, ``bvp_profile`` on the one grid ``bvp_nodes`` builds, takes its
wall matrix and carrier from the references below, and its odd block
from the dense coupling block (``odd_block``), but still shares two parts
with the solver: the rates and even block (``decompose``) and the drive c
(``wall_system``).  The references are built here: the scalar half-space
closed form of every index pair (``half_space_S_normalized``), the Hermite
inner products and basis combinations behind every coupling entry and even
norm, the dense coupling block and parity matrix, the odd eigenvector block and
the full parity eigenvector matrix, one raw and one scaled wall matrix per
order (``raw_wall_matrix`` and ``reference_wall_matrix``, keyed on the
order's parity), and the wall operator K(chi) that the solver never forms;
a direct LU solve of K(chi) checks the layer operator's wall reduction.
The suites (``run_verification``) compare every solver layer against them.

Like every knlayer module it needs numpy alone; the CLI imports it for
``verify`` alone, so no solve loads the oracles.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import special_functions
from .boundary_solver import (StructuralSolveError, WallBoundarySystem, _check_match, _one_chi, _validate_drive,
                              wall_system)
from .layer_profiles import (
    DEFAULT_KN,
    _validate_common,
    layer_operator,
    temperature_solution,
    velocity_solution,
)
from .parity_spectral import ParityEigen, decompose
from .special_functions import RAW_ORDER_LIMIT, SQRT_2PI, HalfSpaceTable, _z_even
from .system_builder import (
    ReducedSystem,
    _check_kramers_order,
    _check_prandtl,
    _check_temperature_order,
    build_kramers_system,
    build_temperature_system,
    reduced_system,
)

__all__ = [
    "QUADRATURE_ORDER_LIMIT",
    "BvpConvergenceError",
    "QuadratureConvergenceError",
    "CheckResult",
    "VERIFICATION_SUITES",
    "half_space_S_normalized",
    "quadrature_block",
    "inner_product_oracle",
    "oracle_entry",
    "coupling_dense",
    "parity_dense",
    "dense_symmetric_eigvals",
    "odd_block",
    "assemble_full_R",
    "raw_wall_matrix",
    "reference_wall_matrix",
    "wall_operator",
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
# Nodes of the Gauss-Legendre rule on that window.  A rule with 1.5 times as
# many must agree with it to QUADRATURE_AGREEMENT at every pair: at orders
# <= 30 the two differ by about 2e-14 (roundoff), while 60 nodes leave 6e-7.
QUADRATURE_NODES = 200
QUADRATURE_AGREEMENT = 1e-12
# Relative gap allowed between the operator's wall value and coefficient and
# a direct LU solve of K(chi): the worst measured over the full suite is
# 1.5e-15, and one Ritz weight scaled by 1 + 1e-10 moves it above 1e-11.
WALL_SOLVE_AGREEMENT = 1e-13
# Cyclic sweeps the dense Jacobi oracle makes at most; the parity and wall
# matrices of orders 98 and 99 converge in 7 or 8.
JACOBI_SWEEPS = 100

BVP_TEMPERATURE_ORDER_LIMIT = 15
BVP_KRAMERS_ORDER_LIMIT = 14
# The finite-difference grid spans BVP_DOMAIN_WIDTHS widths of the widest
# layer, and its last cell is BVP_STRETCH times its first.  A solve whose
# residual exceeds BVP_TOLERANCE of the largest right-hand side fails.
BVP_DOMAIN_WIDTHS = 40.0
BVP_STRETCH = 50.0
BVP_TOLERANCE = 1e-9


class BvpConvergenceError(RuntimeError):
    """The finite-difference solve did not reach the residual target."""


class QuadratureConvergenceError(RuntimeError):
    """Two Gauss-Legendre rules of the half-space oracle disagree."""


def half_space_S_normalized(alpha: int, beta: int) -> float:
    """S(alpha, beta) / sqrt(alpha! beta!), finite for all supported orders.

    The paper's closed form for every index pair, odd ones included; no
    solve reads it.  :class:`HalfSpaceTable` is its even-index block, built
    vectorized for the wall assemblies, and the half-space suite checks both
    against :func:`quadrature_block`.

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


# Gauss-Legendre nodes and weights on [-1, 1], built once per node count.
_legendre_rule = functools.lru_cache(np.polynomial.legendre.leggauss)


def quadrature_block(top: int, theta: float) -> np.ndarray:
    """S(a, b) / sqrt(a! b!) over a, b <= top by the ``QUADRATURE_NODES`` rule.

    ``top`` is an integer in [0, ``QUADRATURE_ORDER_LIMIT``] and ``theta``
    finite and positive.  The orthonormal scaled Hermite polynomials are
    evaluated at the nodes of the window [-W sqrt(theta), 0] by their
    three-term recursion, which keeps the integrand O(1), so zeros of the
    closed form come out at absolute roundoff level; the flux-weighted
    products of every pair come out of one matrix product.  A rule with half
    as many nodes again must agree to ``QUADRATURE_AGREEMENT`` at every pair,
    or :class:`QuadratureConvergenceError` is raised.  Raw S(a, b) is the
    entry times sqrt(a! b!).
    """
    if not (isinstance(top, numbers.Integral) and 0 <= top <= QUADRATURE_ORDER_LIMIT):
        raise ValueError(f"quadrature oracle is validated for orders <= {QUADRATURE_ORDER_LIMIT}")
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be finite and positive, got {theta}")
    sqrt_theta = math.sqrt(theta)
    half = 0.5 * max(QUADRATURE_WINDOW_SIGMA, 2.0 * math.sqrt(top + 1.0) + 8.0) * sqrt_theta
    counts = (QUADRATURE_NODES, QUADRATURE_NODES * 3 // 2)
    blocks = []
    for nodes in counts:
        x, w = _legendre_rule(nodes)
        xi = half * (x - 1.0)
        s = xi / sqrt_theta
        vals = [np.ones(nodes), s]
        for n in range(1, top):
            vals.append((s * vals[n] - math.sqrt(n) * vals[n - 1]) / math.sqrt(n + 1))
        vals = np.array(vals[:top + 1])
        weight = (half * w) * (math.sqrt(2.0 * math.pi / theta) * xi) * (
            np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi * theta))
        blocks.append((vals * weight) @ vals.T)
    gap = float(np.max(np.abs(blocks[1] - blocks[0])))
    if not gap <= QUADRATURE_AGREEMENT:
        raise QuadratureConvergenceError(
            f"Gauss-Legendre rules of {counts[0]} and {counts[1]} nodes differ by {gap:.3e}"
            f" at orders <= {top}")
    return blocks[0]


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


# The (even, odd) basis combinations keyed on the order's parity.
_BASES = {1: (temperature_even_basis, temperature_odd_basis),
          0: (kramers_even_basis, kramers_odd_basis)}


def _basis_norm(combo) -> float:
    """Norm of a Hermite combination from the orthogonality weights."""
    return math.sqrt(sum(c * c * _norm_sq(idx) for c, idx in combo))


def _even_norm(order: int, pr: float, i: int) -> float:
    """a_i, the norm of the order's i-th even basis combination (1-based); the
    square of the Kramers a_1 alone carries the Prandtl factor 1 - (1 - Pr) / 5."""
    a_sq = _basis_norm(_BASES[order % 2][0](i)) ** 2
    if order % 2 == 0 and i == 1:
        a_sq *= 1.0 - (1.0 - pr) / 5.0
    return math.sqrt(a_sq)


def oracle_entry(order: int, pr: float, i: int, j: int) -> float:
    """Coupling entry (i, j), 1-based, of the order's problem at the caller's
    Pr (an odd order ignores it), re-derived from the basis combinations."""
    even, odd = _BASES[order % 2]
    ip = sum(ce * co * inner_product_oracle(ie, io) for ce, ie in even(i) for co, io in odd(j))
    return ip / (_even_norm(order, pr, i) * _basis_norm(odd(j)))


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


def dense_symmetric_eigvals(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a dense symmetric matrix by cyclic Jacobi.

    Rotations are applied in fixed rounds of disjoint index pairs (rotations
    in disjoint planes commute, so the batched result equals the sequential
    one), at most ``JACOBI_SWEEPS`` sweeps; no eigenvector block is formed.
    Deliberately independent of the structured path and of LAPACK.
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
    if amax == 0.0:
        return np.zeros(n)
    # scale to unit magnitude so huge-entry inputs cannot overflow the norms
    a = a / amax
    norm = math.sqrt(float(np.sum(a * a)))
    skip = 1e-15 * norm
    rounds = _disjoint_pair_rounds(n)
    for _ in range(JACOBI_SWEEPS):
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
    return np.sort(np.diag(a) * amax)


def odd_block(system: ReducedSystem, eigen: ParityEigen) -> np.ndarray:
    """The odd eigenvector block O = B^T E / rates, from the dense coupling block.

    ``decompose`` returns the rates and E alone, since no solve reads O; its
    sign rule makes the largest-magnitude entry of every column of O positive.
    """
    return coupling_dense(system).T @ eigen.even_vectors / eigen.rates


def assemble_full_R(system: ReducedSystem, eigen: ParityEigen) -> np.ndarray:
    """Full orthogonal eigenvector matrix [[E, E], [O, -O]], O = :func:`odd_block`."""
    e, o = eigen.even_vectors, odd_block(system, eigen)
    return np.block([[e, e], [o, -o]])


def bvp_nodes(widest_layer: float, n_cells: int) -> np.ndarray:
    """The oracle's grid: nodes 0 = y_0 < ... < y_n spanning ``BVP_DOMAIN_WIDTHS``
    widths of the widest layer, in ``n_cells`` geometric cells, the last
    ``BVP_STRETCH`` times the first; ``widest_layer`` finite and positive,
    ``n_cells`` an integer of at least 2."""
    if not (isinstance(n_cells, numbers.Integral) and n_cells >= 2):
        raise ValueError(f"a geometric grid needs a whole number of cells >= 2, got {n_cells}")
    y_max = BVP_DOMAIN_WIDTHS * widest_layer
    if not (math.isfinite(y_max) and y_max > 0.0):
        raise ValueError(f"widest_layer must be finite and positive, got {widest_layer}")
    ratio = BVP_STRETCH ** (1.0 / (n_cells - 1))
    steps = ratio ** np.arange(n_cells)
    nodes = np.concatenate(([0.0], np.cumsum(steps)))
    return nodes * (y_max / nodes[-1])


def split_nodes(nodes: np.ndarray) -> np.ndarray:
    """Halve every cell; the input nodes survive at even indices."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty(nodes.size + mids.size)
    out[0::2] = nodes
    out[1::2] = mids
    return out


def _problem_parts(order: int, pr: float = 1.0):
    """(system, eigendecomposition) of one order, from the public builders.

    An odd order is the temperature problem, which ignores ``pr``.  Nothing
    is cached: the oracles build their own parts rather than read the
    solver's operator.
    """
    system = reduced_system(order, pr)
    return system, decompose(system)


def _carrier(order: int, pr: float, eigen: ParityEigen) -> np.ndarray:
    """Weights taking the mode amplitudes v to the profile's exponential sum:
    the defect t0 + 6 t2 + g2 (odd order) or the shear moment, over the
    even norms re-derived from the Hermite bases."""
    factor, weights = (0.8, (1.0, 6.0, 1.0)) if order % 2 else (1.0, (2.0,))
    k = min(len(weights), eigen.rates.size)
    row = np.array([w / _even_norm(order, pr, i) for i, w in enumerate(weights[:k], 1)])
    return factor * (row @ eigen.even_vectors[:k, :])


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
    ``nodes`` is a finite, strictly increasing grid that starts at the wall.

    The decaying characteristic amplitudes v+ are upwinded from the wall,
    (1 + h_j / (rate kn)) v+_j = v+_{j-1}; the growing ones, upwinded from the
    far end where they are pinned to zero, vanish at every node.  What is left
    is triangular: the wall rows b T (s ; E v+) - (0 ; B O v+) = flux c +
    b T[:, 0] wall_value (T = ``reference_wall_matrix``), the implicit-Euler
    march of v+, and the scalar equation, which telescopes the carrier
    moments.  A residual of any of these equations above ``BVP_TOLERANCE``
    of the largest right-hand side raises :class:`BvpConvergenceError`.
    """
    odd = order % 2 == 1
    limit = BVP_TEMPERATURE_ORDER_LIMIT if odd else BVP_KRAMERS_ORDER_LIMIT
    if not 3 <= order <= limit:
        raise ValueError(
            f"the finite-difference oracle supports odd orders in [3, {BVP_TEMPERATURE_ORDER_LIMIT}]"
            f" and even orders in [4, {BVP_KRAMERS_ORDER_LIMIT}], got {order}"
        )
    kn, pr = _validate_common(kn, pr)
    flux, wall_value = _validate_drive(odd, flux, wall_value)
    y = np.asarray(nodes, dtype=float)
    if not (y.ndim == 1 and y.size >= 2 and y[0] == 0.0 and np.isfinite(y).all()
            and (np.diff(y) > 0.0).all()):
        raise ValueError("nodes must be a finite, strictly increasing 1-d grid of at least"
                         " 2 nodes that starts at 0")
    b = _one_chi(chi)[1]
    system, eigen = _problem_parts(order, pr)
    carrier = _carrier(order, pr, eigen)
    slope = (-0.4 * pr if odd else -1.0) * flux / kn

    b_t = b * reference_wall_matrix(order, pr)
    wall = np.column_stack((b_t[:, 0], b_t[:, 1:] @ eigen.even_vectors))
    wall[1:, 1:] -= coupling_dense(system) @ odd_block(system, eigen)
    wall_rhs = flux * wall_system(order, pr).c_vec + b_t[:, 0] * wall_value
    x = np.linalg.solve(wall, wall_rhs)
    v0 = x[1:]
    h = np.diff(y)
    grow = 1.0 + h[:, None] / (eigen.rates * kn)
    v_plus = np.vstack((v0, v0 / np.cumprod(grow, axis=0)))
    profile = x[0] + slope * y - (v_plus - v0) @ carrier

    drop = slope * h
    residual = max(
        np.max(np.abs(wall @ x - wall_rhs)),
        np.max(np.abs(grow * v_plus[1:] - v_plus[:-1])),
        np.max(np.abs(np.diff(profile) + np.diff(v_plus, axis=0) @ carrier - drop)),
    )
    scale = max(1.0, np.max(np.abs(wall_rhs)), np.max(np.abs(drop)))
    if not np.isfinite(residual) or residual > BVP_TOLERANCE * scale:
        raise BvpConvergenceError(f"finite-difference residual {residual:.3e} above tolerance")
    return profile


# ----------------------------------------------------------------------
# raw and scaled wall matrices, the reference for the wall builders

def raw_wall_matrix(order: int) -> np.ndarray:
    """Raw boundary matrix R of the order's problem, (m_even + 1) square.

    An odd order gives the temperature T^b: odd rows/columns carry the
    pure-normal fluxes S(2k-2, 2l-2), even ones the tangential-pair fluxes
    S(2k, 2l) with the density offset eliminated.  An even order gives the
    Kramers S_k = S(2i, 2j), free of Pr.  Either builds the raw even block
    alone, with no table, so it is valid inside the raw window only.
    """
    odd = order % 2 == 1
    size = (_check_temperature_order(order) if odd else _check_kramers_order(order, 1.0)) + 1
    top = order - 1 if odd else order - 2  # the largest index read is S(top, top)
    if top > RAW_ORDER_LIMIT:
        raise ValueError("raw boundary matrix exceeds the double-precision window")
    s = special_functions._raw_block(top)
    if not odd:
        return s
    out = np.zeros((size, size))
    half = size // 2
    for k in range(1, half + 1):
        for ell in range(1, half + 1):
            out[2 * k - 1, 2 * ell - 1] = s[k - 1, ell - 1]
            out[2 * k - 2, 2 * ell - 2] = s[k, ell] - s[k, 0] * s[0, ell] / s[0, 0]
    return out


def reference_wall_matrix(order: int, pr: float = 1.0) -> np.ndarray:
    """Scaled boundary matrix diag(1, 1/a) P R P diag(1, 1/a) of the order's problem.

    R is :func:`raw_wall_matrix`, P mixes the leading temperature/density
    pair of an odd order (the identity for an even one) and a_i =
    ``_even_norm(order, pr, i)``: no wall builder or reduced system enters.
    Pr is checked on either parity, as ``wall_system`` checks it.
    """
    _check_prandtl(pr)
    raw = raw_wall_matrix(order)
    size = raw.shape[0]
    p = np.eye(size)
    if order % 2:
        p[:2, :2] = ((0.5, 1.0), (1.0, -1.0))
    d = np.array([1.0, *(1.0 / _even_norm(order, pr, i) for i in range(1, size))])
    return (p @ raw @ p) * np.outer(d, d)


def wall_operator(system: WallBoundarySystem, eigen: ParityEigen, chi: float) -> np.ndarray:
    """K(chi) = b(chi) T - 2 diag(0, E Lambda E^T); symmetric negative definite.

    The solver never forms it; the definiteness checks and tests do.
    """
    b = _one_chi(chi)[1]
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
    against quadrature, block by block; every even-index pair is nonzero, so
    the table entries join the relative check.  The exact symmetry and zero
    pattern of the closed forms are checked over a wider block."""
    top = 12 if level == "quick" else QUADRATURE_ORDER_LIMIT
    top_sym = 40 if level == "quick" else 80
    exact = np.array([[half_space_S_normalized(a, b) for b in range(top_sym + 1)]
                      for a in range(top_sym + 1)])
    closed = exact[:top + 1, :top + 1]
    quad = quadrature_block(top, 1.0)
    zero = closed == 0.0
    table = HalfSpaceTable(top).s_normalized
    worst_rel = max(
        float(np.max(np.abs(quad - closed)[~zero] / np.abs(closed[~zero]))),
        float(np.max(np.abs(table - quad[::2, ::2]) / np.abs(closed[::2, ::2]))),
    )
    worst_zero = float(np.max(np.abs(quad[zero])))
    theta_top = 6 if level == "quick" else 10
    ref = quadrature_block(theta_top, 1.0)
    worst_theta = max(
        float(np.max(np.abs(quadrature_block(theta_top, theta) - ref) / np.maximum(1.0, np.abs(ref))))
        for theta in (0.5, 2.0)
    )
    sym = float(np.max(np.abs(exact - exact.T)))
    a, b = np.indices(exact.shape)
    pattern_ok = not exact[((a + b) % 2 == 1) & (np.abs(a - b) != 1)].any()
    return [
        CheckResult("half-space closed form vs quadrature (relative)", worst_rel <= 1e-9, worst_rel, 1e-9),
        CheckResult("half-space zero pattern vs quadrature (absolute)", worst_zero <= 1e-12, worst_zero, 1e-12),
        CheckResult("half-space theta independence", worst_theta <= 1e-9, worst_theta, 1e-9),
        CheckResult("half-space exact symmetry", sym == 0.0, sym, 0.0),
        CheckResult("half-space exact zero pattern", pattern_ok, 0.0 if pattern_ok else 1.0, 0.0),
    ]


def _system_entry_residual(system: ReducedSystem, pr: float) -> float:
    """Worst gap between the dense block and the inner-product oracle at Pr."""
    index = range(1, system.m_even + 1)
    expected = np.array([[oracle_entry(system.order, pr, i, j) for j in index] for i in index])
    gap = np.abs(coupling_dense(system) - expected) / np.maximum(1.0, np.abs(expected))
    return float(np.max(gap))


def _check_systems(level: str) -> list[CheckResult]:
    t_orders = (3, 5, 7) if level == "quick" else tuple(range(3, 32, 2))
    k_orders = (4, 6) if level == "quick" else tuple(range(4, 31, 2))
    cases = [(build_temperature_system(m), 1.0) for m in t_orders]
    cases += [(build_kramers_system(m, pr), pr) for m in k_orders for pr in (1.0, 2.0 / 3.0)]
    worst = max(_system_entry_residual(system, pr) for system, pr in cases)
    return [CheckResult("system entries vs inner-product oracle", worst <= 1e-12, worst, 1e-12)]


def _orders(level: str) -> tuple[int, ...]:
    """The odd, then the even orders of the spectral and definiteness suites."""
    if level == "quick":
        return (3, 5, 7, 4, 6)
    return (*range(3, 100, 2), *range(4, 99, 2))


def _spectral_residual(order: int) -> tuple[float, float]:
    system, eigen = _problem_parts(order, 2.0 / 3.0)
    w = dense_symmetric_eigvals(parity_dense(system))
    expected = np.sort(np.concatenate((-eigen.rates, eigen.rates)))
    scale = max(1.0, float(np.max(np.abs(w))))
    pairing = float(np.max(np.abs(w - expected))) / scale
    r = assemble_full_R(system, eigen)
    orth = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    e = eigen.even_vectors
    half = float(np.max(np.abs(e.T @ e - 0.5 * np.eye(system.m_even))))
    return pairing, max(orth, half)


def _check_spectral(level: str) -> list[CheckResult]:
    worst_pair, worst_orth = map(max, zip(*(_spectral_residual(m) for m in _orders(level))))
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


def _wall_definite(wbs: WallBoundarySystem, eigen: ParityEigen) -> tuple[bool, bool, float]:
    """(sampled, certified, gram) for the wall operators of one order and Pr.

    ``sampled``: T (factored once) and K(chi) at each checked chi are all
    negative definite.  ``certified``: -K(chi) = b N + D with N = -T
    positive definite and D = diag(0, 2 E L E^T) positive semidefinite
    (every rate positive), so K(chi) is negative definite for every
    b(chi) > 0, that is for every chi in (0, 1].  ``gram`` is
    ||E^T E - I/2||_2, which confirms that E is the eigenvector block the
    form assumes.  The factorization of -T is the wall step's own
    structural check (:meth:`~knlayer.boundary_solver.WallReduction.from_lanczos`),
    so it is no independent evidence here; that comes from the raw matrix's
    factorization beside it, the sampled spectra of K(chi) and the direct
    LU solve of :func:`_wall_solve_gap`.
    """
    t_definite = _negative_definite(wbs.scaled_matrix)
    sampled = t_definite and all(
        _negative_definite(wall_operator(wbs, eigen, chi)) for chi in (0.1, 0.5, 1.0)
    )
    e = eigen.even_vectors
    gram = float(np.linalg.norm(e.T @ e - 0.5 * np.eye(e.shape[1]), 2))
    return sampled, t_definite and bool(eigen.rates.min() > 0.0), gram


def _wall_solve_gap(wbs: WallBoundarySystem, eigen: ParityEigen, pr: float) -> float:
    """Worst relative gap, at chi = 0.1, 0.5 and 1, between the cached
    operator's wall value and unscaled coefficient and those of a direct LU
    solve of K(chi) u = c (flux 1, wall value 0), which reads neither the
    wall reduction nor the operator's carrier row.  An operator that fails
    to build gives inf."""
    order = wbs.order
    try:
        op = layer_operator(order, pr)
    except StructuralSolveError:
        return math.inf
    carrier = _carrier(order, pr, eigen)
    worst = 0.0
    for chi in (0.1, 0.5, 1.0):
        u = np.linalg.solve(wall_operator(wbs, eigen, chi), wbs.c_vec)
        # the mode amplitudes are 2 E^T u[1:], and the coefficient -(u[0] + carrier @ amplitudes)
        coefficient = -(u[0] + carrier @ (2.0 * eigen.even_vectors.T @ u[1:]))
        wall_value, _ = op.wall.solve(order, chi, _one_chi(chi)[1], 1.0, 0.0)
        worst = max(worst, abs(wall_value - u[0]) / abs(u[0]),
                    abs(op.curve(chi) - coefficient) / abs(coefficient))
    return worst


def _check_definiteness(level: str) -> list[CheckResult]:
    orders = _orders(level)
    # every even order at each Pr: the physical values, and at ``full`` both ends of the domain
    prandtls = (2.0 / 3.0, 1.0) if level == "quick" else (1e-3, 2.0 / 3.0, 1.0, 1e6, 1e12)
    # the spectra of K(0.5) are sampled at the first and top odd orders and,
    # at every Pr, the top even order (the last one)
    sampled_orders = (orders[0], max(m for m in orders if m % 2), orders[-1])
    checks = []
    worst = -math.inf
    for m in orders:
        raw_definite = _negative_definite(raw_wall_matrix(m))  # R is free of Pr
        for pr in (1.0,) if m % 2 else prandtls:  # an odd order ignores Pr
            _, eigen = _problem_parts(m, pr)
            wbs = wall_system(m, pr)
            sampled, certified, gram = _wall_definite(wbs, eigen)
            checks.append((raw_definite and sampled, certified, gram, _wall_solve_gap(wbs, eigen, pr)))
            # eigenvalue sign sampling backs up the factorizations on a few instances
            if m in sampled_orders:
                w = dense_symmetric_eigvals(wall_operator(wbs, eigen, 0.5))
                worst = max(worst, float(w[-1]) / max(1.0, float(np.max(np.abs(w)))))
    sampled, certified, grams, gaps = zip(*checks)
    ok = all(sampled) and worst < 0.0
    gram, gap = max(grams), max(gaps)
    at_pr = "even orders at Pr " + ", ".join(f"{pr:g}" for pr in prandtls)
    at_orders = ", ".join(map(str, sampled_orders))
    return [
        CheckResult("boundary operators negative definite", ok, worst, 0.0,
                    detail=f"factorization plus sampled spectra at orders {at_orders}; {at_pr}"),
        CheckResult("wall operator negative definite for every chi", all(certified) and gram <= 1e-10,
                    gram, 1e-10,
                    detail=f"-T positive definite, rates positive, ||E^T E - I/2||_2; {at_pr}"),
        CheckResult("wall reduction vs direct solve of K(chi)", gap <= WALL_SOLVE_AGREEMENT, gap,
                    WALL_SOLVE_AGREEMENT, detail=f"wall value and coefficient at chi 0.1, 0.5, 1; {at_pr}"),
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
    devs, ratios = zip(*(_bvp_deviation(order, cells) for order, cells in cases))
    worst_dev = max(devs)
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
