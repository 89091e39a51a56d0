"""Closed-form Knudsen-layer solutions and the quantities derived from them.

A solution is a far-field linear part plus a superposition of decaying
exponentials with rates fixed by the parity spectrum; the wall solve pins
the amplitudes.  Everything downstream (jump coefficient, temperature
defect, effective conductivity, slip velocity) is evaluated analytically
from that representation.

Everything chi-independent about one order lives in one immutable
:class:`LayerOperator`, cached per order (and Pr, for an even order), built
in one pass and keeping only what a solve reads: one m_even x m_even array
(the mode matrix) and a few vectors.  Only b(chi) depends on the
accommodation coefficient, and the operator makes the coefficient a partial
fraction in it:

    zeta(b) = alpha / b + sum_i beta_i / (b + 1 / mu_i),

with alpha, the reduced eigenvalues mu and the residues beta fixed per
order (:func:`coefficient_curve`).  A chi sweep, Table 1, the convergence
orders and the coefficient of a single solution all evaluate that curve, at
O(m) per chi and with no solution object per sample, so every command
prints the same value for the same inputs; profiles, defects and amplitudes
keep the per-chi solution, one O(M^2) product per chi.  The order's parity
names the problem: an odd order is the temperature jump, an even one
Kramers slip.  As chi -> 0,
(chi / (2 - chi)) zeta -> sqrt(2 pi) alpha / 2.  Profile evaluators work in
blocks of samples and raise ``ValueError`` on a y < 0 (outside the
half-space) and on a non-finite value.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary_solver import (
    WallReduction,
    accommodation_factor,
    kramers_boundary_system,
    schur_complement,
    temperature_boundary_system,
)
from .parity_spectral import decompose
from .system_builder import _check_prandtl, build_kramers_system, build_temperature_system

__all__ = [
    "CoefficientCurve",
    "LayerOperator",
    "TemperatureLayerSolution",
    "VelocityLayerSolution",
    "temperature_solution",
    "velocity_solution",
    "jump_coefficient",
    "temperature_defect",
    "defect_slope",
    "normalized_temperature",
    "effective_conductivity",
    "viscous_slip_coefficient",
    "coefficient_curve",
    "layer_operator",
    "chi_zero_limit",
    "convergence_order",
    "default_profile_grid",
]

# Reference Knudsen number of the published tables.
DEFAULT_KN = math.sqrt(2.0) / 2.0

# Weights turning the three leading scaled even modes into the defect
# combination t0 + 6 t2 + g2 (only the first survives at order 3).
DEFECT_WEIGHTS = np.array([math.sqrt(3.0) / 3.0, math.sqrt(6.0) / 2.0, math.sqrt(2.0) / 2.0])

# Float64 entries of one block of a coefficient-curve or profile evaluation
# (chi or y samples times modes; a block takes at least 16 rows), so that its
# memory does not grow with the number of samples.  64 KiB stays
# below malloc's 128 KiB mmap threshold: the block reuses heap memory and a
# sweep's peak RSS does not grow.
_BLOCK_ELEMENTS = 1 << 13


def _finite_profile(evaluate):
    """Evaluate on float y, a float for scalar y.  A y < 0 lies outside the
    half-space, and a value that is not finite (an overflowing slope, a layer
    width that underflows) raises ``ValueError``."""

    @functools.wraps(evaluate)
    def checked(sol, y):
        y = np.asarray(y, dtype=float)
        if (y < 0.0).any():
            raise ValueError(
                f"{evaluate.__name__} needs y >= 0 (the half-space), got y = {y[y < 0.0][0]:g}"
            )
        with np.errstate(all="ignore"):
            out = evaluate(sol, y)
        if not np.isfinite(out).all():
            raise ValueError(
                f"{evaluate.__name__} for order {sol.order}, chi={sol.chi} is not finite"
            )
        return out if out.ndim else float(out)

    return checked


@dataclass(frozen=True)
class TemperatureLayerSolution:
    """Temperature profile of one half-space solve.

    theta(y) = -(2 Pr q / 5 Kn) y + intercept + sum_i amplitudes_i
    exp(-y / (Kn rates_i)); ``defect_amplitudes`` are the flux-normalized
    exponential weights of the temperature defect, independent of Kn and of
    the driving flux.
    """

    order: int
    chi: float
    kn: float
    pr: float
    heat_flux: float
    wall_temperature: float
    wall_value: float
    intercept: float
    decay_rates: np.ndarray
    amplitudes: np.ndarray
    defect_amplitudes: np.ndarray

    def __post_init__(self):
        for arr in (self.decay_rates, self.amplitudes, self.defect_amplitudes):
            arr.flags.writeable = False

    @_finite_profile
    def temperature(self, y):
        """theta at distance y from the wall (vectorized)."""
        slope = -0.4 * self.pr * self.heat_flux / self.kn
        return slope * y + self.intercept + _decay_sum(self, y, self.amplitudes)


@dataclass(frozen=True)
class VelocityLayerSolution:
    """Tangential velocity profile of the shear-driven half-space solve."""

    order: int
    chi: float
    kn: float
    pr: float
    shear: float
    wall_velocity: float
    wall_value: float
    intercept: float
    decay_rates: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        for arr in (self.decay_rates, self.amplitudes):
            arr.flags.writeable = False

    @_finite_profile
    def velocity(self, y):
        return -self.shear / self.kn * y + self.intercept + _decay_sum(self, y, self.amplitudes)


def _blocked_matvec(x: np.ndarray, weights: np.ndarray, block_matrix) -> np.ndarray:
    """block_matrix(x[rows]) @ weights over a 1-d x, one block of rows at a time.

    A block holds about ``_BLOCK_ELEMENTS`` entries in a multiple of 16 rows
    (a multiple of the BLAS kernel's row grouping), and a short last block is
    padded to a multiple of 16 with copies of its last x, so every row goes
    through the same kernel and its value does not depend on how many rows
    share the call, a single x included.
    """
    rows = max(16, _BLOCK_ELEMENTS // weights.size // 16 * 16)
    out = np.empty(x.size)
    for start in range(0, x.size, rows):
        block = x[start:start + rows]
        n = block.size
        if n % 16:
            block = np.concatenate((block, np.full(-n % 16, block[-1])))
        out[start:start + n] = (block_matrix(block) @ weights)[:n]
    return out


def _decay_sum(sol, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i exp(-y / (Kn rates_i)) at every y, in row blocks."""
    scale = sol.kn * sol.decay_rates
    out = _blocked_matvec(y.reshape(-1), weights, lambda block: np.exp(-block[:, None] / scale))
    return out.reshape(y.shape)


@dataclass(frozen=True)
class LayerOperator:
    """Everything a solve of one order (and Pr) reads, independent of chi.

    ``row`` is the defect combination DEFECT_WEIGHTS @ E[:3] (temperature)
    or E[0] (Kramers); ``row_scale`` * ``row`` maps the mode weights to the
    profile's exponential amplitudes (0.8 for temperature, 2 / a1 for the
    slip).  ``wall`` is the reduced wall eigenproblem, and ``amplitude_row``
    = ``row_scale`` * ``row`` @ ``wall.modes`` maps its unknowns s to the
    summed amplitudes, formed once per build for the coefficient curve.
    """

    rates: np.ndarray
    row: np.ndarray
    row_scale: float
    wall: WallReduction
    amplitude_row: np.ndarray

    def __post_init__(self):
        for arr in (self.rates, self.row, self.amplitude_row):
            arr.flags.writeable = False


def layer_operator(order: int, pr: float = 1.0) -> LayerOperator:
    """The cached operator of one order: the temperature jump for an odd
    order, Kramers slip for an even one, which alone reads ``pr``.  An odd
    order is keyed on the order alone, so ``(33)``, ``(33, 1.0)`` and
    ``(33, 0.5)`` share one entry; ``cache_info`` and ``cache_clear`` are
    the cache's.
    """
    return _cached_operator(order, 1.0 if order % 2 else pr)


@functools.lru_cache(maxsize=8)
def _cached_operator(order: int, pr: float) -> LayerOperator:
    """One pass: system, decompose (one eigh of the banded Gram matrix B B^T),
    wall system (its builder makes the half-space table T reads), Schur
    complement, wall eigh.  O goes before the table is built, the table once
    T is assembled, and E and T before the wall eigh, which runs beside A
    alone, as the Gram eigh runs beside G.
    """
    temperature = order % 2 == 1
    system = build_temperature_system(order) if temperature else build_kramers_system(order, pr)
    eigen = decompose(system)
    rates, e = eigen.rates, eigen.even_vectors
    del eigen
    if temperature:
        row, row_scale = DEFECT_WEIGHTS[:min(3, rates.size)] @ e[:3, :], 0.8
        wbs = temperature_boundary_system(order)
    else:
        row, row_scale = e[0, :].copy(), 2.0 / system.even_scale(1)
        wbs = kramers_boundary_system(order, pr)
    schur = schur_complement(wbs, rates, e)
    del e, wbs
    wall = WallReduction.from_schur(*schur)
    return LayerOperator(rates, row, row_scale, wall, row_scale * (row @ wall.modes))


layer_operator.cache_info = _cached_operator.cache_info
layer_operator.cache_clear = _cached_operator.cache_clear


def _validate_common(kn: float, pr: float) -> None:
    """Kn must be finite, positive and normal: NaN would otherwise pass every
    sign test, and a subnormal Kn keeps too few digits for the coefficients it
    scales.  Pr has the system builders' one domain, for both parities."""
    if not (math.isfinite(kn) and kn >= sys.float_info.min):
        raise ValueError(f"Knudsen number must be finite and positive, and not subnormal, got {kn}")
    _check_prandtl(pr)


def _validate_drive(name: str, flux: float, wall_value: float) -> None:
    """A zero flux drives no layer, and a subnormal one keeps too few digits
    for the flux-normalized coefficients; both raise ``ValueError``."""
    if not (math.isfinite(flux) and abs(flux) >= sys.float_info.min):
        raise ValueError(f"the prescribed {name} must be finite, nonzero and normal, got {flux}")
    if not math.isfinite(wall_value):
        raise ValueError(f"wall value must be finite, got {wall_value}")


def _wall_solution(
    odd: bool, order: int, chi: float, kn: float, pr: float, flux: float, wall_value: float,
):
    """Both solution functions' body: the checks, the cached operator's wall
    solve, then the solution of the temperature jump (``odd``) or of Kramers
    slip, whose order must have that parity.  Each amplitude product keeps
    its own operand order, and so its digits."""
    _validate_common(kn, pr)
    _validate_drive("heat flux" if odd else "shear stress", flux, wall_value)
    b = accommodation_factor(chi)  # a bad chi fails before a cold operator build
    if order % 2 != odd:
        problem, parity = ("temperature-jump", "odd") if odd else ("Kramers", "even")
        raise ValueError(f"{problem} solutions need an {parity} order, got {order}")
    op = layer_operator(order, pr)
    value, v_plus = op.wall.solve(order, chi, b, flux, wall_value)
    if odd:
        strength = op.row * v_plus
        amplitudes = -op.row_scale * strength
        cls, fields = TemperatureLayerSolution, dict(
            heat_flux=flux, wall_temperature=wall_value, defect_amplitudes=strength / flux)
    else:
        amplitudes = -op.row_scale * op.row * v_plus
        cls, fields = VelocityLayerSolution, dict(shear=flux, wall_velocity=wall_value)
    return cls(order=order, chi=chi, kn=kn, pr=pr, wall_value=value, decay_rates=op.rates,
               intercept=value - float(np.sum(amplitudes)), amplitudes=amplitudes, **fields)


def temperature_solution(
    order: int, chi: float, kn: float = DEFAULT_KN, pr: float = 1.0, q2: float = 1.0,
    theta_wall: float = 0.0,
) -> TemperatureLayerSolution:
    """Solve the temperature-jump problem at the given odd moment order."""
    return _wall_solution(True, order, chi, kn, pr, q2, theta_wall)


def velocity_solution(
    order: int, chi: float, kn: float = DEFAULT_KN, pr: float = 1.0, sigma12: float = 1.0,
    u1_wall: float = 0.0,
) -> VelocityLayerSolution:
    """Solve the shear-driven (Kramers) problem at the given even moment order."""
    return _wall_solution(False, order, chi, kn, pr, sigma12, u1_wall)


def jump_coefficient(sol: TemperatureLayerSolution) -> float:
    """Temperature jump coefficient zeta = -(5 Kn / (2 Pr)) * (intercept / q).

    Defined for the zero-wall-temperature normalization only; solutions with
    a wall offset are rejected rather than silently re-normalized.  The value
    is the order's :func:`coefficient_curve` at the solution's chi, the one
    formula every command prints, so it does not depend on the flux q; a
    non-finite coefficient (chi near the subnormal range) raises
    ``ValueError``.
    """
    if sol.wall_temperature != 0.0:
        raise ValueError("jump coefficient requires the theta_wall = 0 normalization")
    return coefficient_curve(sol.order, sol.kn, sol.pr)(sol.chi)


@_finite_profile
def temperature_defect(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Deviation from the far-field linear asymptote, flux-normalized."""
    return -2.0 * sol.kn / sol.pr * _decay_sum(sol, y, sol.defect_amplitudes)


@_finite_profile
def defect_slope(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Analytic d(defect)/dy."""
    return 2.0 / sol.pr * _decay_sum(sol, y, sol.defect_amplitudes / sol.decay_rates)


@_finite_profile
def normalized_temperature(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Profile in gradient units: y + zeta - defect(y)."""
    return y + jump_coefficient(sol) - temperature_defect(sol, y)


def effective_conductivity(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Ratio of apparent to bulk conductivity, 1 / (1 - defect slope).

    A non-positive denominator marks a pole of the apparent conductivity;
    it is reported as a warning and the raw reciprocal (inf or negative) is
    returned so sweeps stay inspectable.
    """
    y = np.asarray(y, dtype=float)
    denom = 1.0 - np.asarray(defect_slope(sol, y))
    bad = denom <= 0.0
    if np.any(bad):
        where = np.atleast_1d(y)[np.atleast_1d(bad)]
        warnings.warn(
            f"effective conductivity pole: 1 - defect slope <= 0 at y = {where[0]:.6g}"
            + (f" and {where.size - 1} more points" if where.size > 1 else ""),
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore"):
        out = 1.0 / denom
    return out if out.ndim else float(out)


def viscous_slip_coefficient(sol: VelocityLayerSolution) -> float:
    """Slip-velocity intercept per unit shear, -Kn * (intercept / sigma).

    Read off the order's :func:`coefficient_curve` at the solution's chi, as
    in ``jump_coefficient``; a non-finite coefficient raises ``ValueError``.
    """
    if sol.wall_velocity != 0.0:
        raise ValueError("slip coefficient requires the u1_wall = 0 normalization")
    return coefficient_curve(sol.order, sol.kn, sol.pr)(sol.chi)


@dataclass(frozen=True)
class CoefficientCurve:
    """Jump (odd order) or slip (even order) coefficient as a function of chi.

    zeta(b) = alpha / b + sum_i residues_i / (b - poles_i) with b = b(chi),
    stored as alpha = scale * lead and residues = scale * weights so that the
    Kn / Pr scaling is applied last.  Calling the curve costs O(m) per chi.
    """

    order: int
    scale: float
    lead: float
    poles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.poles, self.weights):
            arr.flags.writeable = False

    @property
    def alpha(self) -> float:
        """Residue at b = 0: the chi -> 0 limit of b(chi) * zeta."""
        return self.scale * self.lead

    @property
    def residues(self) -> np.ndarray:
        """beta_i, the residue at each pole -1/mu_i."""
        return self.scale * self.weights

    def __call__(self, chi):
        """The coefficient at each chi in (0, 1]; a float for a scalar chi.

        A non-finite value (a subnormal chi overflows 1 / b(chi)) raises
        ``ValueError``.
        """
        chis = np.asarray(chi, dtype=float)
        b = np.ravel(accommodation_factor(chis))

        def fractions(block):
            f = block[:, None] - self.poles
            return np.reciprocal(f, out=f)

        with np.errstate(all="ignore"):
            out = self.scale * (self.lead / b + _blocked_matvec(b, self.weights, fractions))
        finite = np.isfinite(out)
        if not finite.all():
            name = "jump" if self.order % 2 else "slip"
            raise ValueError(
                f"{name} coefficient for order {self.order}, "
                f"chi={np.ravel(chis)[~finite][0]} is not finite"
            )
        return float(out[0]) if chis.ndim == 0 else out.reshape(chis.shape)


def coefficient_curve(order: int, kn: float = DEFAULT_KN, pr: float = 1.0) -> CoefficientCurve:
    """The partial fraction of the jump (odd order) or slip (even order) coefficient.

    With the cached operator's wall reduction (s = g / (1/mu + b), wall
    value linear in s) the coefficient of every chi is
    alpha / b + sum_i beta_i / (b + 1/mu_i), beta = scale * (row - w0) * g,
    where row, the operator's ``amplitude_row``, maps s to the summed mode
    amplitudes: 0.8 DEFECT_WEIGHTS @ E[:3] @ modes with scale 2.5 Kn / Pr for
    the temperature jump, (2 / a1) E[0] @ modes with scale Kn for the slip.  It
    reads the same operator as the per-chi solutions, and their
    ``jump_coefficient`` and ``viscous_slip_coefficient`` evaluate it.
    """
    _validate_common(kn, pr)
    op = layer_operator(order, pr)
    wall = op.wall
    return CoefficientCurve(
        order=order,
        scale=2.5 * kn / pr if order % 2 else kn,
        lead=wall.lead,
        poles=-wall.inv_mu,
        weights=(op.amplitude_row - wall.w0) * wall.g,
    )


def chi_zero_limit() -> float:
    """Analytic limit of (chi / (2 - chi)) * zeta as chi -> 0.

    Holds for the reference normalization Kn = sqrt(2)/2, Pr = 1: the wall
    system degenerates to -2 b theta(0) = q, giving 5 sqrt(pi) / 8.
    """
    return 0.625 * math.sqrt(math.pi)


def convergence_order(
    chi,
    k: int,
    kn: float = DEFAULT_KN,
    pr: float = 1.0,
) -> np.ndarray | float:
    """Observed order of the jump coefficient on the doubling ladder M = 2^j + 1.

    beta_k = -log2((z_{j+2} - z_{j+1}) / (z_{j+1} - z_j)) evaluated at
    j = k + 1, so the index k matches the published convergence table; the
    three orders actually solved are 2^(k+1) + 1, 2^(k+2) + 1 and
    2^(k+3) + 1.  Each order's coefficient curve is built once and
    evaluated at every chi; an array of chi gives an array of orders, a
    scalar chi a float.  A vanishing denominator is reported as a
    degenerate difference.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    z0, z1, z2 = (coefficient_curve(2**j + 1, kn, pr)(chi) for j in (k + 1, k + 2, k + 3))
    denom = np.subtract(z1, z0)
    degenerate = np.abs(denom) < 1e-14
    if np.any(degenerate):
        raise ArithmeticError(
            f"degenerate difference in convergence order at chi={np.asarray(chi)[degenerate]}, k={k}"
        )
    orders = -np.log2((z2 - z1) / denom)
    return float(orders) if np.ndim(orders) == 0 else orders


def default_profile_grid(sol, count: int = 400) -> np.ndarray:
    """Geometric sample grid from 1e-3 out to sixty widths of the widest layer."""
    if count < 2:
        raise ValueError("count must be at least 2")
    top = 60.0 * float(sol.decay_rates[0]) * sol.kn
    return np.geomspace(1e-3, top, count)
