"""The package's public names, and the solver-module names that must stay gone."""

import dataclasses
import importlib

import numpy as np

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

# The oracle module's public names: one entry per reference.
VERIFICATION_PUBLIC = [
    "BvpConvergenceError",
    "CheckResult",
    "QUADRATURE_ORDER_LIMIT",
    "QuadratureConvergenceError",
    "VERIFICATION_SUITES",
    "assemble_full_R",
    "bvp_nodes",
    "bvp_profile",
    "coupling_dense",
    "dense_symmetric_eigvals",
    "inner_product_oracle",
    "oracle_entry",
    "parity_dense",
    "quadrature_block",
    "raw_wall_matrix",
    "reference_wall_matrix",
    "run_verification",
    "split_nodes",
    "wall_operator",
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
    # one finite-difference entry, bvp_profile, on one grid builder, bvp_nodes;
    # one quadrature entry, quadrature_block; and one raw and one scaled wall
    # reference per order, each keyed on the order's parity
    "verification": [
        "BvpConfig", "BvpProfile", "bvp_temperature", "bvp_kramers",
        "assemble_temperature_Tb", "assemble_kramers_Sk", "assemble_T", "P1",
        "dense_symmetric_eig", "quadrature_S", "quadrature_S_normalized",
        "_quadrature_block", "geometric_nodes",
    ],
    # only tests read the chi -> 0 limit, and compute it themselves
    "layer_profiles": ["chi_zero_limit"],
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


def test_verification_api_is_pinned():
    assert sorted(verification.__all__) == VERIFICATION_PUBLIC


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


def test_records_hold_what_a_solve_reads():
    # the reduced system is its three diagonals; the members only tests and
    # dump-system read went with the members nothing read
    fields = [f.name for f in dataclasses.fields(knlayer.ReducedSystem)]
    assert fields == ["order", "m_even", "diag_main", "diag_sub1", "diag_sub2", "prandtl"]
    for record, names in (
        (knlayer.build_kramers_system(8, 0.7), ["log_even_scale", "even_scale", "coupling_entry"]),
        (knlayer.HalfSpaceTable(8), ["max_order"]),
        (knlayer.coefficient_curve(9), ["residues"]),
    ):
        for name in names:
            assert not hasattr(record, name), (type(record).__name__, name)


def test_records_compare_and_hash_by_identity():
    # every record holds arrays, so a field-wise == would ask numpy for the
    # truth value of an array; records compare and hash as objects instead
    system = knlayer.build_temperature_system(9)
    operator = knlayer.layer_profiles.layer_operator(9)
    records = [
        system,
        knlayer.decompose(system),
        knlayer.temperature_boundary_system(9),
        operator.wall,
        operator,
        knlayer.coefficient_curve(9),
        knlayer.temperature_solution(9, 0.5),
        knlayer.velocity_solution(8, 0.5),
    ]
    assert len({type(r) for r in records}) == 8
    again = knlayer.temperature_solution(9, 0.5)
    assert all(r == r and hash(r) == hash(r) for r in records)
    assert records[6] != again
    assert len({*records, again}) == 9
    # and every array a record holds is read-only, whichever field holds it
    for record in records:
        arrays = [getattr(record, f.name) for f in dataclasses.fields(record)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert arrays, type(record).__name__
        assert not any(a.flags.writeable for a in arrays), type(record).__name__
