"""The package's public names, and the solver-module names that must stay gone."""

import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import io
import pathlib
import re

import numpy as np

import knlayer
from knlayer import verification
from knlayer.boundary_solver import temperature_boundary_system
from knlayer.parity_spectral import ParityEigen, decompose
from knlayer.special_functions import HalfSpaceTable
from knlayer.system_builder import ReducedSystem, build_kramers_system, build_temperature_system

PUBLIC = [
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
    "half_space_S_normalized",
    "inner_product_oracle",
    "odd_block",
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
# m_even, and the problem kind, which the order's parity names.
DELETED_MEMBERS = ["m_odd", "odd_scale", "log_odd_scale", "kind"]

# Oracle helpers that live in knlayer.verification now.
MOVED = {
    # the scalar closed form of every index pair; the table is the solver's
    "special_functions": ["half_space_S_normalized"],
    "system_builder": [
        "inner_product_oracle", "temperature_even_basis", "temperature_odd_basis",
        "kramers_even_basis", "kramers_odd_basis",
    ],
    "parity_spectral": ["assemble_full_R"],
    "boundary_solver": ["wall_operator"],
}

# Members only the oracles read, now functions of knlayer.verification: the
# dense forms of the coupling block, and the odd eigenvector block of decompose.
MOVED_MEMBERS = {"coupling_dense": "coupling_dense", "parity_dense": "parity_dense",
                 "odd_vectors": "odd_block"}

SOLVER_MODULES = (
    "special_functions", "system_builder", "parity_spectral", "boundary_solver",
    "layer_profiles",
)


# Names that stay in their solver module but leave the package namespace:
# only tests and the benchmark tracer call the one-shot wall solve, and each
# pipeline building block is reached through its own module, beside that
# module's parity-keyed entry point.
UNEXPORTED = {
    "system_builder": ["ReducedSystem", "build_temperature_system", "build_kramers_system"],
    "parity_spectral": ["ParityEigen", "decompose"],
    "special_functions": ["HalfSpaceTable"],
    "boundary_solver": ["solve_wall", "temperature_boundary_system", "kramers_boundary_system"],
}


def test_public_api_is_pinned():
    assert sorted(knlayer.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(knlayer, name), name
    for module, names in UNEXPORTED.items():
        mod = importlib.import_module(f"knlayer.{module}")
        for name in names:
            assert hasattr(mod, name), (module, name)
            assert not hasattr(knlayer, name), name
    # the wall table alone
    assert sorted(knlayer.special_functions.__all__) == ["HalfSpaceTable", "SQRT_2PI"]


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
    for names in (*MOVED.values(), MOVED_MEMBERS.values()):
        for name in names:
            assert hasattr(verification, name), name
    system = build_temperature_system(5)
    for obj in (system, decompose(system)):
        for name in (*DELETED_MEMBERS, *MOVED_MEMBERS):
            assert not hasattr(obj, name), (type(obj).__name__, name)


def test_records_hold_what_a_solve_reads():
    # the reduced system is its three diagonals; the members only tests and
    # dump-system read went with the members nothing read, and Pr, which only
    # the entry oracle read, is the oracle caller's
    fields = [f.name for f in dataclasses.fields(ReducedSystem)]
    assert fields == ["order", "m_even", "diag_main", "diag_sub1", "diag_sub2"]
    # a solve reads the rates and the even block; the odd block is the oracles'
    assert [f.name for f in dataclasses.fields(ParityEigen)] == ["rates", "even_vectors"]
    assert not hasattr(ParityEigen, "m_even")
    # the operator holds the unscaled coefficient curve, built once per order
    operator = knlayer.layer_profiles.layer_operator(9)
    fields = [f.name for f in dataclasses.fields(operator)]
    # the carrier, the wall drive on the modes E^T c[1:], is the wall reduction's
    assert fields == ["rates", "wall", "curve"]
    assert [f.name for f in dataclasses.fields(operator.wall)][-1] == "carrier"
    for name in ("amplitude_row", "row", "row_scale", "carrier"):
        assert not hasattr(operator, name), name
    # the entry oracle reads Pr from its caller, not from the system it checks
    assert list(inspect.signature(verification.oracle_entry).parameters) == ["order", "pr", "i", "j"]
    # both solutions declare their eight shared fields once, then their drive
    shared = ["order", "chi", "kn", "pr", "wall_value", "intercept", "decay_rates", "amplitudes"]
    for record, drive in (
        (knlayer.TemperatureLayerSolution, ["heat_flux", "wall_temperature", "defect_amplitudes"]),
        (knlayer.VelocityLayerSolution, ["shear", "wall_velocity"]),
    ):
        assert [f.name for f in dataclasses.fields(record)] == shared + drive, record.__name__
    # each keeps its own named profile method, which a tracer wraps per class
    assert "temperature" in vars(knlayer.TemperatureLayerSolution)
    assert "velocity" in vars(knlayer.VelocityLayerSolution)
    for record, names in (
        (build_kramers_system(8, 0.7), ["log_even_scale", "even_scale", "coupling_entry"]),
        (HalfSpaceTable(8), ["max_order"]),
        (knlayer.coefficient_curve(9), ["residues"]),
    ):
        for name in names:
            assert not hasattr(record, name), (type(record).__name__, name)


def test_records_compare_and_hash_by_identity():
    # every record holds arrays, so a field-wise == would ask numpy for the
    # truth value of an array; records compare and hash as objects instead
    system = build_temperature_system(9)
    operator = knlayer.layer_profiles.layer_operator(9)
    records = [
        system,
        decompose(system),
        temperature_boundary_system(9),
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


def test_raw_block_is_built_on_each_read():
    # only the raw references and the benchmark tracer read the raw block, so
    # a table keeps none: each read builds it, read-only, with the same bits
    table = HalfSpaceTable(knlayer.special_functions.RAW_ORDER_LIMIT)
    first, second = table.s_values, table.s_values
    assert first is not second and np.array_equal(first, second)
    assert not first.flags.writeable
    # the bits of the block as the table built it eagerly
    assert hashlib.sha256(first.tobytes()).hexdigest() == (
        "20c8ee9fe2304334672fd7237df7fdbad7a80e54d93057f74fd6a2ebcae0bda4"
    )


def test_readme_quick_start_runs():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    jump = out.getvalue().splitlines()[0]
    assert jump == repr(knlayer.coefficient_curve(13)(1.0))
    assert jump.startswith("1.2965")
