"""The package's public names, and the solver-module names that must stay gone."""

import importlib

import knlayer
from knlayer import verification

PUBLIC = [
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
    "chi_zero_limit",
    "coefficient_curve",
    "convergence_order",
    "decompose",
    "default_profile_grid",
    "effective_conductivity",
    "half_space_S_normalized",
    "jump_coefficient",
    "kramers_boundary_system",
    "normalized_temperature",
    "solve_wall",
    "temperature_boundary_system",
    "temperature_defect",
    "temperature_solution",
    "velocity_solution",
    "viscous_slip_coefficient",
]

# Names no solve reads, deleted from the solver modules.
DELETED = {
    "special_functions": [
        "hermite_eval", "wall_J", "WallMoments", "linearized_wall_moment", "z_value",
        "z_sign_log", "half_space_I", "ZSequence", "half_space_S", "_check_raw_window", "_z",
        "_Z_CACHE",
    ],
    # the order's parity names the problem
    "system_builder": ["SystemKind"],
    # one finite-difference entry, bvp_profile, keyed on the order's parity
    "verification": ["BvpConfig", "BvpProfile", "bvp_temperature", "bvp_kramers"],
    # folded into the two wall builders, which take the order alone
    "boundary_solver": [
        "assemble_temperature_T", "assemble_kramers_T", "temperature_c_vector",
        "kramers_c_vector",
    ],
    # one handler and one option adder behind both solve commands
    "cli": ["cmd_temperature_jump", "cmd_kramers", "_temperature_jump_options", "_kramers_options"],
}

# Parity-block members that went with the odd block size, which always equals
# m_even; the problem kind, which the order's parity names; and the dense
# forms of the coupling block, which only the oracles read.
DELETED_MEMBERS = ["m_odd", "odd_scale", "log_odd_scale", "kind", "coupling_dense", "parity_dense"]

# Oracle helpers that live in knlayer.verification now.
MOVED = {
    "system_builder": [
        "inner_product_oracle", "temperature_even_basis", "temperature_odd_basis",
        "kramers_even_basis", "kramers_odd_basis",
    ],
    "parity_spectral": ["assemble_full_R"],
    "boundary_solver": ["wall_operator"],
}

# Members of the reduced system that are functions of knlayer.verification now.
MOVED_MEMBERS = ["coupling_dense", "parity_dense"]

SOLVER_MODULES = (
    "special_functions", "system_builder", "parity_spectral", "boundary_solver",
    "layer_profiles",
)


def test_public_api_is_pinned():
    assert sorted(knlayer.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(knlayer, name), name


def test_module_all_resolves():
    for module in (*SOLVER_MODULES, "verification", "cli"):
        mod = importlib.import_module(f"knlayer.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (module, missing)


def test_removed_names_are_gone():
    for module, names in (*DELETED.items(), *MOVED.items()):
        mod = importlib.import_module(f"knlayer.{module}")
        for name in names:
            assert not hasattr(mod, name), (module, name)
            assert not hasattr(knlayer, name), name
    for names in (*MOVED.values(), MOVED_MEMBERS):
        for name in names:
            assert hasattr(verification, name), name
    system = knlayer.build_temperature_system(5)
    for obj in (system, knlayer.decompose(system)):
        for name in DELETED_MEMBERS:
            assert not hasattr(obj, name), (type(obj).__name__, name)
