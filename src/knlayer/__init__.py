"""Closed-form Knudsen-layer solutions from even-odd parity moment systems.

The library builds reduced half-space moment systems of arbitrary order,
solves their Maxwell-wall boundary conditions, and evaluates the resulting
temperature-jump and velocity-slip layer profiles analytically.  The
:mod:`knlayer.verification` module carries independent numerical oracles
(quadrature, dense eigensolver, finite-difference BVP) for every step.
"""

from .boundary_solver import (
    StructuralSolveError,
    accommodation_factor,
    kramers_boundary_system,
    temperature_boundary_system,
)
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
from .parity_spectral import ParityEigen, decompose
from .special_functions import HalfSpaceTable
from .system_builder import ReducedSystem, build_kramers_system, build_temperature_system

__version__ = "0.1.0"

__all__ = [
    "CoefficientCurve",
    "HalfSpaceTable",
    "ParityEigen",
    "ReducedSystem",
    "StructuralSolveError",
    "TemperatureLayerSolution",
    "VelocityLayerSolution",
    "accommodation_factor",
    "build_kramers_system",
    "build_temperature_system",
    "coefficient_curve",
    "convergence_order",
    "decompose",
    "default_profile_grid",
    "effective_conductivity",
    "jump_coefficient",
    "kramers_boundary_system",
    "normalized_temperature",
    "temperature_boundary_system",
    "temperature_defect",
    "temperature_solution",
    "velocity_solution",
    "viscous_slip_coefficient",
]
