"""Closed-form Knudsen-layer solutions from even-odd parity moment systems.

The library builds reduced half-space moment systems of arbitrary order,
solves their Maxwell-wall boundary conditions, and evaluates the resulting
temperature-jump and velocity-slip layer profiles analytically.  The
:mod:`knlayer.verification` module carries independent numerical oracles
(quadrature, dense eigensolver, finite-difference BVP) for every step.

The package exports the solve API alone.  Each pipeline stage is reached
through its own module: :func:`knlayer.system_builder.reduced_system`,
:func:`knlayer.parity_spectral.decompose`,
:class:`knlayer.special_functions.HalfSpaceTable`,
:func:`knlayer.boundary_solver.wall_system` and
:func:`knlayer.layer_profiles.layer_operator`.
"""

from .boundary_solver import StructuralSolveError, accommodation_factor
from .layer_profiles import (
    CoefficientCurve,
    TemperatureLayerSolution,
    VelocityLayerSolution,
    coefficient_curve,
    convergence_order,
    default_profile_grid,
    effective_conductivity,
    jump_coefficient,
    normalized_temperature,
    temperature_defect,
    temperature_solution,
    velocity_solution,
    viscous_slip_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientCurve",
    "StructuralSolveError",
    "TemperatureLayerSolution",
    "VelocityLayerSolution",
    "accommodation_factor",
    "coefficient_curve",
    "convergence_order",
    "default_profile_grid",
    "effective_conductivity",
    "jump_coefficient",
    "normalized_temperature",
    "temperature_defect",
    "temperature_solution",
    "velocity_solution",
    "viscous_slip_coefficient",
]
