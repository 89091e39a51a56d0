"""Closed-form Knudsen-layer solutions and the quantities derived from them.

A solution is a far-field linear part plus a superposition of decaying
exponentials with rates fixed by the parity spectrum; the wall solve pins
the amplitudes.  Everything downstream (jump coefficient, temperature
defect, effective conductivity, slip velocity) is evaluated analytically
from that representation.

Everything chi-independent about one order lives in one immutable
:class:`LayerOperator`, cached per order (and Pr, for an even order), built
in one pass and keeping only what a solve reads: one m_even x k array (the
mode matrix, k the dimension of the wall drive's Krylov space, a few dozen)
and a few vectors.  Only b(chi) depends on the accommodation coefficient,
and the operator makes the coefficient a partial fraction in it:

    zeta(b) = alpha / b + sum_i beta_i / (b + 1 / mu_i),

with alpha, the k Ritz values mu of the reduced wall matrix and the pole
weights beta fixed per order; the operator builds the curve once,
unscaled, and :func:`coefficient_curve` sets its Kn / Pr scale.  A chi
sweep, Table 1, the convergence orders and the coefficient of a single
solution all evaluate that curve, at O(k) per chi and with no solution
object per sample, so every command prints the same value for the same
inputs; profiles, defects and amplitudes keep the per-chi solution, one
O(m_even k) product per chi.  The order's parity names the problem: an odd
order is the temperature jump, an even one Kramers slip, and both
solutions share one record base and one far-field profile.  As chi -> 0,
(chi / (2 - chi)) zeta -> sqrt(2 pi) alpha / 2.
Profile evaluators work in blocks of samples and raise ``ValueError`` on a
y < 0 (outside the half-space) and on a non-finite value.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
import warnings

import numpy as np

from .boundary_solver import (WallReduction, _one_chi, _validate_drive, _wall_lanczos, accommodation_factor,
                              wall_system)
from .parity_spectral import decompose
from .system_builder import (MAX_TEMPERATURE_ORDER, _check_integral_order, _check_prandtl, _kramers_a1,
                             _one_real, _record, reduced_system)

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


@_record
class _LayerSolution:
    """What both half-space solutions hold, and their far-field profile
    slope * y + intercept + sum_i amplitudes_i exp(-y / (Kn decay_rates_i)),
    with ``wall_value`` the solved wall unknown at y = 0.  Each solution adds
    its named drive fields, and its own named profile method gives the slope.
    """

    order: int
    chi: float
    kn: float
    pr: float
    wall_value: float
    intercept: float
    decay_rates: np.ndarray
    amplitudes: np.ndarray

    def _far_field(self, slope: float, y: np.ndarray) -> np.ndarray:
        return slope * y + self.intercept + _decay_sum(self, y, self.amplitudes)


@_record
class TemperatureLayerSolution(_LayerSolution):
    """Temperature profile of one half-space solve (odd order).

    theta(y) has the slope -(2 Pr q / 5 Kn); ``defect_amplitudes`` are the
    flux-normalized exponential weights of the temperature defect,
    independent of Kn and of the driving flux.
    """

    heat_flux: float
    wall_temperature: float
    defect_amplitudes: np.ndarray

    @_finite_profile
    def temperature(self, y):
        """theta at distance y from the wall (vectorized)."""
        return self._far_field(-0.4 * self.pr * self.heat_flux / self.kn, y)


@_record
class VelocityLayerSolution(_LayerSolution):
    """Tangential velocity profile of the shear-driven half-space solve
    (even order), with the slope -sigma / Kn."""

    shear: float
    wall_velocity: float

    @_finite_profile
    def velocity(self, y):
        return self._far_field(-self.shear / self.kn, y)


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


@_record
class CoefficientCurve:
    """Jump (odd order) or slip (even order) coefficient as a function of chi.

    zeta(b) = alpha / b + scale * sum_i weights_i / (b - poles_i) with
    b = b(chi) and alpha = scale * lead, so that the Kn / Pr scaling is
    applied last.  Each order's ``LayerOperator`` holds the unscaled curve
    (``scale`` 1), the partial fraction f that :func:`convergence_order`
    differences; :func:`coefficient_curve` sets the scale.  Calling the
    curve costs O(k) per chi, k the number of poles.
    """

    order: int
    scale: float
    lead: float
    poles: np.ndarray
    weights: np.ndarray

    @property
    def alpha(self) -> float:
        """Residue at b = 0: the chi -> 0 limit of b(chi) * zeta."""
        return self.scale * self.lead

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


@_record
class LayerOperator:
    """Everything a solve of one order (and Pr) reads, independent of chi;
    its build reads the normalized half-space block alone, never the raw one.

    ``row`` is the defect combination DEFECT_WEIGHTS @ E[:3] (temperature)
    or E[0] (Kramers); ``row_scale`` * ``row`` maps the mode weights to the
    profile's exponential amplitudes (0.8 for temperature, 2 / a1 for the
    slip).  ``wall`` is the wall reduction on the drive's Krylov space, and
    ``curve`` the order's coefficient as an unscaled partial fraction
    (``scale`` 1), built once with the operator.
    """

    rates: np.ndarray
    row: np.ndarray
    row_scale: float
    wall: WallReduction
    curve: CoefficientCurve


def layer_operator(order: int, pr: float = 1.0) -> LayerOperator:
    """The cached operator of one order: the temperature jump for an odd
    order, Kramers slip for an even one, which alone reads ``pr``.  An odd
    order is keyed on the order alone, so ``(33)``, ``(33, 1.0)`` and
    ``(33, 0.5)`` share one entry, but Pr is checked on either parity, and
    the order is checked to be an integer before the cache is looked up;
    ``cache_info`` and ``cache_clear`` are the cache's.
    """
    pr = _check_prandtl(pr)
    _check_integral_order(order)
    return _cached_operator(order, 1.0 if order % 2 else pr)


@functools.lru_cache(maxsize=8)
def _cached_operator(order: int, pr: float) -> LayerOperator:
    """One pass: system, decompose (one eigh of the banded Gram matrix B B^T),
    wall system (its builder makes the normalized table block T reads),
    Lanczos on the reduced wall matrix A from h, applied matrix-free from E
    and T, then the wall reduction (a Cholesky check of N = -T and one
    tridiagonal eigh of size k), coefficient curve.  The table goes once T
    is assembled, E after Lanczos, and T once N is formed, so the check
    factors N with no other square array alive, as the Gram eigh runs beside
    G alone.  In m_even^2 doubles of traced arrays, decompose peaks at 4.0;
    the wall system holds E beside the table and T (3.0, the table formed in
    blocks of rows); Lanczos E, T and its k x m_even basis; the check N and
    its factor (2.0, and LAPACK's untraced copy of N); the tridiagonal eigh
    N and the basis.  So each stage after decompose fits under decompose's
    arrays: from M = 513 on, a cold build's VmHWM does not grow past
    decompose's (at M = 512 it grows 0.3 MiB), and the peak RSS of a cold
    top-order build is set by the Gram eigh: G, LAPACK's copy of it, its
    2 m_even^2 workspace and the vectors.  The wall value is linear in
    s = g / (1/mu + b), so the unscaled coefficient is lead / b +
    sum_i beta_i / (b + 1/mu_i), beta = (row_scale row @ modes - w0) * g.
    """
    eigen = decompose(reduced_system(order, pr))
    rates, e = eigen.rates, eigen.even_vectors
    del eigen
    if order % 2:
        row, row_scale = DEFECT_WEIGHTS[:min(3, rates.size)] @ e[:3, :], 0.8
    else:
        row, row_scale = e[0, :].copy(), 2.0 / _kramers_a1(pr)
    system = wall_system(order, pr)
    lanczos = _wall_lanczos(system, rates, e)
    del e
    n = -system.scaled_matrix
    del system
    wall = WallReduction.from_lanczos(n, *lanczos)
    weights = (row_scale * (row @ wall.modes) - wall.w0) * wall.g
    curve = CoefficientCurve(order, 1.0, wall.lead, -wall.inv_mu, weights)
    return LayerOperator(rates, row, row_scale, wall, curve)


layer_operator.cache_info = _cached_operator.cache_info
layer_operator.cache_clear = _cached_operator.cache_clear


def _validate_common(kn: float, pr: float) -> tuple[float, float]:
    """(Kn, Pr) as floats.  Kn must be finite, positive and normal: NaN would
    otherwise pass every sign test, and a subnormal Kn keeps too few digits
    for the coefficients it scales.  Pr has the system builders' one domain."""
    kn = _one_real(kn, "Knudsen number", lambda x: sys.float_info.min <= x < math.inf,
                   "finite and positive, and not subnormal")
    return kn, _check_prandtl(pr)


def _check_parity(odd: bool, order: int) -> None:
    """The temperature jump (``odd``) needs an odd order, Kramers slip an even
    one; a solution or order of the other parity raises ``ValueError``."""
    if order % 2 != odd:
        problem, parity = ("temperature-jump", "odd") if odd else ("Kramers", "even")
        raise ValueError(f"{problem} solutions need an {parity} order, got {order}")


def _wall_solution(
    odd: bool, order: int, chi: float, kn: float, pr: float, flux: float, wall_value: float,
):
    """Both solution functions' body: the checks, the cached operator's wall
    solve, then the solution of the temperature jump (``odd``) or of Kramers
    slip, whose order must have that parity.  One amplitude formula serves
    both; only the temperature solution keeps the defect amplitudes."""
    kn, pr = _validate_common(kn, pr)
    flux, wall_value = _validate_drive(odd, flux, wall_value)
    chi, b = _one_chi(chi)  # a bad chi fails before a cold operator build
    _check_parity(odd, order)
    op = layer_operator(order, pr)
    value, v_plus = op.wall.solve(order, chi, b, flux, wall_value)
    strength = op.row * v_plus
    amplitudes = -op.row_scale * strength
    shared = (order, chi, kn, pr, value, value - float(np.sum(amplitudes)), op.rates, amplitudes)
    if odd:
        return TemperatureLayerSolution(*shared, flux, wall_value, strength / flux)
    return VelocityLayerSolution(*shared, flux, wall_value)


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


def _coefficient(odd: bool, sol: _LayerSolution) -> float:
    """Both coefficient functions' body: the order's :func:`coefficient_curve`
    at the solution's chi, the one formula every command prints, so the flux
    does not enter.  The order's parity and a zero wall state are checked
    first; a non-finite coefficient (chi near the subnormal range) raises."""
    _check_parity(odd, sol.order)
    name, wall, option = ("jump", sol.wall_temperature, "theta_wall") if odd else (
        "slip", sol.wall_velocity, "u1_wall")
    if wall != 0.0:
        raise ValueError(f"{name} coefficient requires the {option} = 0 normalization")
    return coefficient_curve(sol.order, sol.kn, sol.pr)(sol.chi)


def jump_coefficient(sol: TemperatureLayerSolution) -> float:
    """Temperature jump coefficient zeta = -(5 Kn / (2 Pr)) * (intercept / q),
    for the theta_wall = 0 normalization only: a solution with a wall offset
    is rejected rather than silently re-normalized."""
    return _coefficient(True, sol)


@_finite_profile
def temperature_defect(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Deviation from the far-field linear asymptote, flux-normalized."""
    _check_parity(True, sol.order)
    return -2.0 * sol.kn / sol.pr * _decay_sum(sol, y, sol.defect_amplitudes)


@_finite_profile
def defect_slope(sol: TemperatureLayerSolution, y) -> np.ndarray | float:
    """Analytic d(defect)/dy."""
    _check_parity(True, sol.order)
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
    """Slip-velocity intercept per unit shear, -Kn * (intercept / sigma), for
    the u1_wall = 0 normalization only, as in ``jump_coefficient``."""
    return _coefficient(False, sol)


def coefficient_curve(order: int, kn: float = DEFAULT_KN, pr: float = 1.0) -> CoefficientCurve:
    """The partial fraction of the jump (odd order) or slip (even order) coefficient:
    the cached operator's ``curve`` with its scale set, 2.5 Kn / Pr for the
    temperature jump and Kn for the slip, sharing the operator's poles and
    weights, so no call rebuilds them.  ``jump_coefficient`` and
    ``viscous_slip_coefficient`` evaluate it.
    """
    kn, pr = _validate_common(kn, pr)
    curve = layer_operator(order, pr).curve
    return dataclasses.replace(curve, scale=2.5 * kn / pr if order % 2 else kn)


def convergence_order(chi, k: int) -> np.ndarray | float:
    """Observed order of the jump coefficient on the doubling ladder M = 2^j + 1.

    beta_k = -log2((z_{j+2} - z_{j+1}) / (z_{j+1} - z_j)) evaluated at
    j = k + 1, so the index k matches the published convergence table; the
    three orders actually solved are 2^(k+1) + 1, 2^(k+2) + 1 and
    2^(k+3) + 1, at most the largest order: a k outside [1, 9] raises
    ``ValueError`` before any build.
    zeta = (5 Kn / 2 Pr) f(b) and the scale cancels from the ratio, so z is
    the unscaled partial fraction f, each order operator's ``curve``,
    evaluated at every chi; no Kn or Pr enters.  An array of chi gives an
    array of orders, a scalar chi a float.  A denominator below 1e-14 of
    the values it differences is reported as a degenerate difference.
    """
    top = (MAX_TEMPERATURE_ORDER - 1).bit_length() - 4  # 2^(top + 3) + 1 is the largest order
    if not (isinstance(k, numbers.Integral) and 1 <= k <= top):
        raise ValueError(f"k must be an integer in [1, {top}], got {k!r}")
    z0, z1, z2 = (layer_operator(2**j + 1).curve(chi) for j in (k + 1, k + 2, k + 3))
    denom = np.subtract(z1, z0)
    degenerate = np.abs(denom) <= 1e-14 * np.maximum(np.abs(z0), np.abs(z1))
    if np.any(degenerate):
        at = chi if np.ndim(chi) == 0 else np.asarray(chi)[degenerate]
        raise ArithmeticError(f"degenerate difference in convergence order at chi={at}, k={k}")
    orders = -np.log2((z2 - z1) / denom)
    return float(orders) if np.ndim(orders) == 0 else orders


def _profile_extent(sol) -> float:
    """Sixty widths of the solution's widest layer: the default end of a profile."""
    return 60.0 * float(sol.decay_rates[0]) * sol.kn


def default_profile_grid(sol, count: int = 400) -> np.ndarray:
    """Strictly increasing geometric sample grid from 1e-3 out to sixty widths
    of the widest layer.  That extent scales with Kn, so a Kn for which it is
    not finite or not above 1e-3 raises ``ValueError``; pass an explicit grid
    to the profile evaluators instead."""
    if not (isinstance(count, numbers.Integral) and count >= 2):
        raise ValueError(f"count must be an integer of at least 2, got {count!r}")
    extent = _profile_extent(sol)
    if not (math.isfinite(extent) and extent > 1e-3):
        raise ValueError(
            f"sixty widths of the widest layer ({extent:g} at kn={sol.kn:g}) must be finite"
            " and above 1e-3 for the default profile grid"
        )
    return np.geomspace(1e-3, extent, count)
