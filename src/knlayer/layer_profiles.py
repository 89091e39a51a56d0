"""Closed-form Knudsen-layer solutions and the quantities derived from them.

A solution is a far-field linear part plus a superposition of decaying
exponentials with rates fixed by the parity spectrum; the wall solve pins
the amplitudes.  Everything downstream (jump coefficient, temperature
defect, effective conductivity, slip velocity) is evaluated analytically
from that representation.

Only b(chi) depends on the accommodation coefficient, and the cached wall
pencil makes the coefficient an explicit partial fraction in it:

    zeta(b) = alpha / b + sum_i beta_i / (b + 1 / mu_i),

with alpha, the reduced eigenvalues mu and the residues beta fixed per
order (:func:`coefficient_curve`).  A chi sweep, Table 1 and the
convergence orders evaluate that curve at O(m) per chi, with no solution
object per sample; profiles, defects and amplitudes keep the per-chi
solution.  As chi -> 0, (chi / (2 - chi)) zeta -> sqrt(2 pi) alpha / 2.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary_solver import (
    WallBoundarySystem,
    accommodation_factor,
    kramers_boundary_system,
    solve_wall,
    temperature_boundary_system,
    wall_pencil,
)
from .parity_spectral import ParityEigen, decompose
from .special_functions import HalfSpaceTable
from .system_builder import ReducedSystem, build_kramers_system, build_temperature_system

__all__ = [
    "CoefficientCurve",
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
    "chi_zero_limit",
    "convergence_order",
    "default_profile_grid",
]

# Reference Knudsen number of the published tables.
DEFAULT_KN = math.sqrt(2.0) / 2.0

# Weights turning the three leading scaled even modes into the defect
# combination t0 + 6 t2 + g2 (only the first survives at order 3).
DEFECT_WEIGHTS = np.array([math.sqrt(3.0) / 3.0, math.sqrt(6.0) / 2.0, math.sqrt(2.0) / 2.0])

# Float64 entries of one chi block of a coefficient-curve evaluation, so
# that its memory does not grow with the number of chi samples.  64 KiB
# stays below malloc's 128 KiB mmap threshold: the block reuses heap memory
# and a sweep's peak RSS does not grow.
_BLOCK_ELEMENTS = 1 << 13


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

    def temperature(self, y):
        """theta at distance y from the wall (vectorized)."""
        y = np.asarray(y, dtype=float)
        slope = -0.4 * self.pr * self.heat_flux / self.kn
        decay = np.exp(-y[..., None] / (self.kn * self.decay_rates))
        out = slope * y + self.intercept + decay @ self.amplitudes
        return out if out.ndim else float(out)


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

    def velocity(self, y):
        y = np.asarray(y, dtype=float)
        decay = np.exp(-y[..., None] / (self.kn * self.decay_rates))
        out = -self.shear / self.kn * y + self.intercept + decay @ self.amplitudes
        return out if out.ndim else float(out)


@functools.lru_cache(maxsize=8)
def _temperature_parts(order: int) -> tuple[ReducedSystem, HalfSpaceTable, ParityEigen]:
    system = build_temperature_system(order)
    table = HalfSpaceTable(order + 2)
    return system, table, decompose(system)


@functools.lru_cache(maxsize=8)
def _kramers_parts(order: int, pr: float) -> tuple[ReducedSystem, HalfSpaceTable, ParityEigen]:
    system = build_kramers_system(order, pr)
    table = HalfSpaceTable(order + 2)
    return system, table, decompose(system)


def _validate_common(kn: float, pr: float, flux: float = 1.0, wall_value: float = 0.0) -> None:
    """Reject non-finite inputs; NaN would otherwise pass every sign test."""
    for name, value in (("Knudsen number", kn), ("Prandtl number", pr)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    for name, value in (("driving flux", flux), ("wall value", wall_value)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _defect_weights(eigen: ParityEigen) -> np.ndarray:
    """Per-mode weights of the defect combination t0 + 6 t2 + g2."""
    lead = min(3, eigen.m_even)
    return DEFECT_WEIGHTS[:lead] @ eigen.even_vectors[:lead, :]


def _temperature_from_parts(
    eigen: ParityEigen,
    wbs: WallBoundarySystem,
    order: int,
    chi: float,
    kn: float,
    pr: float,
    q2: float,
    theta_wall: float,
) -> TemperatureLayerSolution:
    theta0, v_plus = solve_wall(wbs, eigen, q2, theta_wall)
    mode_strength = _defect_weights(eigen) * v_plus
    amplitudes = -0.8 * mode_strength
    return TemperatureLayerSolution(
        order=order,
        chi=chi,
        kn=kn,
        pr=pr,
        heat_flux=q2,
        wall_temperature=theta_wall,
        wall_value=theta0,
        intercept=theta0 - float(np.sum(amplitudes)),
        decay_rates=eigen.rates.copy(),
        amplitudes=amplitudes,
        defect_amplitudes=mode_strength / q2,
    )


def temperature_solution(
    order: int,
    chi: float,
    kn: float = DEFAULT_KN,
    pr: float = 1.0,
    q2: float = 1.0,
    theta_wall: float = 0.0,
) -> TemperatureLayerSolution:
    """Solve the temperature-jump problem at the given odd moment order."""
    _validate_common(kn, pr, q2, theta_wall)
    if q2 == 0.0:
        raise ValueError("the prescribed heat flux must be nonzero")
    system, table, eigen = _temperature_parts(order)
    wbs = temperature_boundary_system(order, chi, table)
    return _temperature_from_parts(eigen, wbs, order, chi, kn, pr, q2, theta_wall)


def velocity_solution(
    order: int,
    chi: float,
    kn: float = DEFAULT_KN,
    pr: float = 1.0,
    sigma12: float = 1.0,
    u1_wall: float = 0.0,
) -> VelocityLayerSolution:
    """Solve the shear-driven (Kramers) problem at the given even moment order."""
    _validate_common(kn, pr, sigma12, u1_wall)
    if sigma12 == 0.0:
        raise ValueError("the prescribed shear stress must be nonzero")
    system, table, eigen = _kramers_parts(order, pr)
    wbs = kramers_boundary_system(order, chi, pr, table)
    u1_0, v_plus = solve_wall(wbs, eigen, sigma12, u1_wall)
    a1 = system.even_scale(1)
    amplitudes = -(2.0 / a1) * eigen.even_vectors[0, :] * v_plus
    return VelocityLayerSolution(
        order=order,
        chi=chi,
        kn=kn,
        pr=pr,
        shear=sigma12,
        wall_velocity=u1_wall,
        wall_value=u1_0,
        intercept=u1_0 - float(np.sum(amplitudes)),
        decay_rates=eigen.rates.copy(),
        amplitudes=amplitudes,
    )


def _finite_coefficient(name: str, sol, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} coefficient for order {sol.order}, chi={sol.chi} is not finite")
    return value


def jump_coefficient(sol: TemperatureLayerSolution) -> float:
    """Temperature jump coefficient zeta = -(5 Kn / (2 Pr q)) * intercept.

    Defined for the zero-wall-temperature normalization only; solutions with
    a wall offset are rejected rather than silently re-normalized.  A finite
    intercept can still overflow the scaling (chi near the subnormal range),
    so a non-finite coefficient raises ``ValueError``.
    """
    if sol.wall_temperature != 0.0:
        raise ValueError("jump coefficient requires the theta_wall = 0 normalization")
    return _finite_coefficient(
        "jump", sol, -2.5 * sol.kn / (sol.pr * sol.heat_flux) * sol.intercept
    )


def temperature_defect(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Deviation from the far-field linear asymptote, flux-normalized."""
    y = np.asarray(y, dtype=float)
    decay = np.exp(-y[..., None] / (sol.kn * sol.decay_rates))
    out = -2.0 * sol.kn / sol.pr * (decay @ sol.defect_amplitudes)
    return out if out.ndim else float(out)


def defect_slope(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Analytic d(defect)/dy."""
    y = np.asarray(y, dtype=float)
    decay = np.exp(-y[..., None] / (sol.kn * sol.decay_rates))
    out = 2.0 / sol.pr * (decay @ (sol.defect_amplitudes / sol.decay_rates))
    return out if out.ndim else float(out)


def normalized_temperature(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Profile in gradient units: y + zeta - defect(y)."""
    y = np.asarray(y, dtype=float)
    out = y + jump_coefficient(sol) - temperature_defect(sol, y)
    return out if out.ndim else float(out)


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
    """Slip-velocity intercept per unit shear, -(Kn / sigma) * intercept.

    A non-finite coefficient raises ``ValueError``, as in ``jump_coefficient``.
    """
    if sol.wall_velocity != 0.0:
        raise ValueError("slip coefficient requires the u1_wall = 0 normalization")
    return _finite_coefficient("slip", sol, -sol.kn / sol.shear * sol.intercept)


@dataclass(frozen=True)
class CoefficientCurve:
    """Jump (odd order) or slip (even order) coefficient as a function of chi.

    zeta(b) = alpha / b + sum_i residues_i / (b - poles_i) with b = b(chi),
    stored as alpha = scale * lead and residues = scale * weights so that the
    Kn / Pr scaling is applied last, exactly as the per-chi coefficient
    applies it.  Calling the curve costs O(m) per chi.
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
        out = np.empty_like(b)
        rows = max(1, _BLOCK_ELEMENTS // self.poles.size)
        with np.errstate(all="ignore"):
            for start in range(0, b.size, rows):
                block = b[start:start + rows]
                fractions = block[:, None] - self.poles
                np.reciprocal(fractions, out=fractions)
                out[start:start + rows] = self.scale * (self.lead / block + fractions @ self.weights)
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

    With the cached wall pencil (s = g / (1/mu + b), wall value linear in s)
    the coefficient of every chi is alpha / b + sum_i beta_i / (b + 1/mu_i),
    beta = scale * (row - w0) * g, where row maps s to the summed mode
    amplitudes: 0.8 DEFECT_WEIGHTS @ E[:3] @ modes with scale 2.5 Kn / Pr
    for the temperature jump, (2 / a1) E[0] @ modes with scale Kn for the
    slip.  It reads the same parts and pencil cache entries as the per-chi
    solutions, and assembles one boundary system for the shared T and c.
    """
    _validate_common(kn, pr)
    if order % 2:
        system, table, eigen = _temperature_parts(order)
        # b(chi) plays no part in the pencil; any chi gives the shared (T, c).
        pencil = wall_pencil(temperature_boundary_system(order, 1.0, table), eigen)
        row = 0.8 * (_defect_weights(eigen) @ pencil.modes)
        scale = 2.5 * kn / pr
    else:
        system, table, eigen = _kramers_parts(order, pr)
        pencil = wall_pencil(kramers_boundary_system(order, 1.0, pr, table), eigen)
        row = (2.0 / system.even_scale(1)) * (eigen.even_vectors[0, :] @ pencil.modes)
        scale = kn
    return CoefficientCurve(
        order=order,
        scale=scale,
        lead=pencil.lead,
        poles=-pencil.inv_mu,
        weights=(row - pencil.w0) * pencil.g,
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
