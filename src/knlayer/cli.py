"""Command-line front end: solves, table reproduction, sweeps, verification.

All commands are deterministic: there is no randomness anywhere and every
sweep ordering is fixed, so identical invocations emit byte-identical
output.  For bitwise reproducibility across different BLAS builds or
thread-pool sizes, pin the BLAS thread count (for example
OPENBLAS_NUM_THREADS=1) before launching Python.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import special_functions, verification
from .boundary_solver import (
    StructuralSolveError,
    accommodation_factor,
    assemble_kramers_Sk,
    assemble_temperature_Tb,
    kramers_boundary_system,
    temperature_boundary_system,
    wall_operator,
)
from .layer_profiles import (
    _kramers_parts,
    _temperature_parts,
    convergence_order,
    effective_conductivity,
    jump_coefficient,
    normalized_temperature,
    temperature_defect,
    temperature_solution,
    velocity_solution,
    viscous_slip_coefficient,
)
from .parity_spectral import RankDeficiencyError, assemble_full_R
from .system_builder import (
    build_kramers_system,
    build_temperature_system,
    inner_product_oracle,
    kramers_even_basis,
    kramers_odd_basis,
    temperature_even_basis,
    temperature_odd_basis,
)
from .verification import BvpConfig, bvp_kramers, bvp_temperature, geometric_nodes, split_nodes

__all__ = ["RunConfig", "main"]

TABLE1_CHIS = (0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 1.0)
TABLE1_ORDERS = (3, 5, 7, 9, 11, 13)
DEFAULT_KN = math.sqrt(2.0) / 2.0


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    command: str
    order: int = 13
    chi: float = 1.0
    kn: float = DEFAULT_KN
    pr: float = 1.0
    flux: float = 1.0
    wall_value: float = 0.0
    y_min: float = 1e-3
    y_max: float | None = None
    samples: int = 400
    spacing: str = "geometric"
    fmt: str = "columnar-text"
    output: str | None = None
    level: str = "quick"
    kmax: int = 6
    chi_min: float = 1e-3
    chi_max: float = 1.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _columnar(params: dict, columns: list[str], rows) -> str:
    lines = [f"# {key} = {value}" for key, value in params.items()]
    lines.append("# columns: " + " ".join(columns))
    for row in rows:
        lines.append(" ".join(_fmt_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _structured(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _solution_record(sol, extra: dict) -> dict:
    return {
        "parameters": {
            "order": sol.order,
            "chi": sol.chi,
            "kn": sol.kn,
            "pr": sol.pr,
        },
        "decay_rates": list(sol.decay_rates),
        "amplitudes": list(sol.amplitudes),
        **extra,
    }


def cmd_temperature_jump(cfg: RunConfig) -> str:
    sol = temperature_solution(cfg.order, cfg.chi, cfg.kn, cfg.pr, cfg.flux, cfg.wall_value)
    zeta = jump_coefficient(sol) if cfg.wall_value == 0.0 else None
    if cfg.fmt == "structured-json":
        record = _solution_record(
            sol,
            {
                "command": "temperature-jump",
                "heat_flux": sol.heat_flux,
                "wall_temperature": sol.wall_temperature,
                "wall_value": sol.wall_value,
                "intercept": sol.intercept,
                "defect_amplitudes": list(sol.defect_amplitudes),
                "jump_coefficient": zeta,
            },
        )
        return _structured(record)
    params = {
        "command": "temperature-jump",
        "order": sol.order,
        "chi": sol.chi,
        "kn": _fmt_float(sol.kn),
        "pr": _fmt_float(sol.pr),
        "heat_flux": _fmt_float(sol.heat_flux),
        "wall_temperature": _fmt_float(sol.wall_temperature),
        "wall_value": _fmt_float(sol.wall_value),
        "intercept": _fmt_float(sol.intercept),
    }
    if zeta is not None:
        params["jump_coefficient"] = _fmt_float(zeta)
    rows = [
        (i + 1, sol.decay_rates[i], sol.amplitudes[i], sol.defect_amplitudes[i])
        for i in range(sol.decay_rates.size)
    ]
    return _columnar(params, ["mode", "decay_rate", "amplitude", "defect_amplitude"], rows)


def cmd_kramers(cfg: RunConfig) -> str:
    sol = velocity_solution(cfg.order, cfg.chi, cfg.kn, cfg.pr, cfg.flux, cfg.wall_value)
    slip = viscous_slip_coefficient(sol) if cfg.wall_value == 0.0 else None
    if cfg.fmt == "structured-json":
        record = _solution_record(
            sol,
            {
                "command": "kramers",
                "shear": sol.shear,
                "wall_velocity": sol.wall_velocity,
                "wall_value": sol.wall_value,
                "intercept": sol.intercept,
                "slip_coefficient": slip,
            },
        )
        return _structured(record)
    params = {
        "command": "kramers",
        "order": sol.order,
        "chi": sol.chi,
        "kn": _fmt_float(sol.kn),
        "pr": _fmt_float(sol.pr),
        "shear": _fmt_float(sol.shear),
        "wall_velocity": _fmt_float(sol.wall_velocity),
        "wall_value": _fmt_float(sol.wall_value),
        "intercept": _fmt_float(sol.intercept),
    }
    if slip is not None:
        params["slip_coefficient"] = _fmt_float(slip)
    rows = [(i + 1, sol.decay_rates[i], sol.amplitudes[i]) for i in range(sol.decay_rates.size)]
    return _columnar(params, ["mode", "decay_rate", "amplitude"], rows)


def table1_values() -> dict[float, list[float]]:
    return {
        chi: [jump_coefficient(temperature_solution(m, chi)) for m in TABLE1_ORDERS]
        for chi in TABLE1_CHIS
    }


def cmd_table1(cfg: RunConfig) -> str:
    values = table1_values()
    if cfg.fmt == "structured-json":
        record = {
            "command": "table1",
            "kn": DEFAULT_KN,
            "pr": 1.0,
            "orders": list(TABLE1_ORDERS),
            "rows": [{"chi": chi, "zeta": values[chi]} for chi in TABLE1_CHIS],
        }
        return _structured(record)
    lines = ["# temperature jump coefficient, kn = sqrt(2)/2, pr = 1"]
    lines.append("# columns: chi " + " ".join(f"M={m}" for m in TABLE1_ORDERS))
    for chi in TABLE1_CHIS:
        lines.append(f"{chi:<5g} " + " ".join(f"{v:.5g}" for v in values[chi]))
    return "\n".join(lines) + "\n"


def cmd_table2(cfg: RunConfig) -> str:
    if not 6 <= cfg.kmax <= 8:
        raise UsageError("kmax must lie in [6, 8]")
    ks = list(range(6, cfg.kmax + 1))
    rows = {k: [convergence_order(chi, k) for chi in TABLE1_CHIS] for k in ks}
    if cfg.fmt == "structured-json":
        record = {
            "command": "table2",
            "chis": list(TABLE1_CHIS),
            "rows": [{"k": k, "orders": rows[k]} for k in ks],
        }
        return _structured(record)
    lines = ["# observed convergence order of the jump coefficient"]
    lines.append("# columns: k " + " ".join(f"chi={c}" for c in TABLE1_CHIS))
    for k in ks:
        lines.append(f"{k:<3d} " + " ".join(f"{v:.3f}" for v in rows[k]))
    return "\n".join(lines) + "\n"


def cmd_sweep_chi(cfg: RunConfig) -> str:
    if cfg.samples < 2:
        raise UsageError("samples must be at least 2")
    if not 0.0 < cfg.chi_min < cfg.chi_max <= 1.0:
        raise UsageError("need 0 < chi-min < chi-max <= 1")
    if cfg.spacing == "geometric":
        chis = np.geomspace(cfg.chi_min, cfg.chi_max, cfg.samples)
    else:
        chis = np.linspace(cfg.chi_min, cfg.chi_max, cfg.samples)
    temperature = cfg.order % 2 == 1
    coef = []
    for chi in chis:
        chi = float(chi)
        if temperature:
            coef.append(jump_coefficient(temperature_solution(cfg.order, chi, cfg.kn, cfg.pr)))
        else:
            coef.append(viscous_slip_coefficient(velocity_solution(cfg.order, chi, cfg.kn, cfg.pr)))
    b_vals = [accommodation_factor(float(c)) for c in chis]
    name = "jump_coefficient" if temperature else "slip_coefficient"
    if cfg.fmt == "structured-json":
        record = {
            "command": "sweep-chi",
            "problem": "temperature" if temperature else "kramers",
            "order": cfg.order,
            "kn": cfg.kn,
            "pr": cfg.pr,
            "chi": list(map(float, chis)),
            name: coef,
            "accommodation_factor": b_vals,
            "scaled_coefficient": [b * z for b, z in zip(b_vals, coef)],
        }
        return _structured(record)
    params = {
        "command": "sweep-chi",
        "problem": "temperature" if temperature else "kramers",
        "order": cfg.order,
        "kn": _fmt_float(cfg.kn),
        "pr": _fmt_float(cfg.pr),
    }
    rows = [
        (chi, z, b, b * z) for chi, z, b in zip(chis, coef, b_vals)
    ]
    return _columnar(params, ["chi", name, "b_chi", f"b_chi*{name}"], rows)


def _profile_grid(cfg: RunConfig, sol) -> np.ndarray:
    y_max = cfg.y_max if cfg.y_max is not None else 60.0 * float(sol.decay_rates[0]) * sol.kn
    if cfg.samples < 2:
        raise UsageError("samples must be at least 2")
    if not (math.isfinite(cfg.y_min) and math.isfinite(y_max)):
        raise UsageError(f"ymin ({cfg.y_min:g}) and ymax ({y_max:g}) must be finite")
    if y_max <= cfg.y_min:
        raise UsageError(f"ymax ({y_max:g}) must exceed ymin ({cfg.y_min:g})")
    if cfg.spacing == "geometric":
        if cfg.y_min <= 0.0:
            raise UsageError("geometric spacing needs y-min > 0")
        return np.geomspace(cfg.y_min, y_max, cfg.samples)
    return np.linspace(cfg.y_min, y_max, cfg.samples)


def cmd_profile(cfg: RunConfig) -> str:
    if cfg.order % 2 == 1:
        sol = temperature_solution(cfg.order, cfg.chi, cfg.kn, cfg.pr, cfg.flux, 0.0)
        grid = _profile_grid(cfg, sol)
        defect = np.asarray(temperature_defect(sol, grid))
        normalized = np.asarray(normalized_temperature(sol, grid))
        conductivity = np.asarray(effective_conductivity(sol, grid))
        columns = ["y", "defect", "normalized_temperature", "conductivity_ratio"]
        data = np.column_stack((grid, defect, normalized, conductivity))
        problem = "temperature"
        extra = {"jump_coefficient": jump_coefficient(sol)}
    else:
        sol = velocity_solution(cfg.order, cfg.chi, cfg.kn, cfg.pr, cfg.flux, 0.0)
        grid = _profile_grid(cfg, sol)
        velocity = np.asarray(sol.velocity(grid))
        columns = ["y", "velocity"]
        data = np.column_stack((grid, velocity))
        problem = "kramers"
        extra = {"slip_coefficient": viscous_slip_coefficient(sol)}
    if cfg.fmt == "structured-json":
        record = {
            "command": "profile",
            "problem": problem,
            "parameters": {
                "order": cfg.order,
                "chi": cfg.chi,
                "kn": cfg.kn,
                "pr": cfg.pr,
                "flux": cfg.flux,
            },
            "decay_rates": list(sol.decay_rates),
            "columns": columns,
            "samples": {name: list(map(float, data[:, i])) for i, name in enumerate(columns)},
            **extra,
        }
        return _structured(record)
    params = {
        "command": "profile",
        "problem": problem,
        "order": cfg.order,
        "chi": cfg.chi,
        "kn": _fmt_float(cfg.kn),
        "pr": _fmt_float(cfg.pr),
        "flux": _fmt_float(cfg.flux),
        **{key: _fmt_float(val) for key, val in extra.items()},
    }
    return _columnar(params, columns, data)


def cmd_dump_system(cfg: RunConfig) -> str:
    if cfg.order % 2 == 1:
        system = build_temperature_system(cfg.order)
    else:
        system = build_kramers_system(cfg.order, cfg.pr)
    params = {
        "command": "dump-system",
        "kind": system.kind.value,
        "order": system.order,
        "m_even": system.m_even,
        "m_odd": system.m_odd,
    }
    rows = []
    for j in range(1, system.m_odd + 1):
        for i in (j, j + 1, j + 2):
            if i <= system.m_even:
                value = system.coupling_entry(i, j)
                if value != 0.0:
                    rows.append((i, j, value))
    return _columnar(params, ["row", "col", "value"], rows)


# ----------------------------------------------------------------------
# verification suites


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
    top = 12 if level == "quick" else verification.QUADRATURE_ORDER_LIMIT
    worst_rel = 0.0
    worst_zero = 0.0
    for a in range(top + 1):
        for b in range(a, top + 1):
            closed = special_functions.half_space_S(a, b)
            closed_n = special_functions.half_space_S_normalized(a, b)
            quad_n = verification.quadrature_S_normalized(a, b, 1.0)
            if closed == 0.0:
                worst_zero = max(worst_zero, abs(quad_n))
            else:
                worst_rel = max(worst_rel, abs(quad_n - closed_n) / abs(closed_n))
    results = [
        CheckResult("half-space closed form vs quadrature (relative)", worst_rel <= 1e-9, worst_rel, 1e-9),
        CheckResult("half-space zero pattern vs quadrature (absolute)", worst_zero <= 1e-12, worst_zero, 1e-12),
    ]
    theta_top = 6 if level == "quick" else 10
    worst_theta = 0.0
    for theta in (0.5, 2.0):
        for a in range(theta_top + 1):
            for b in range(a, theta_top + 1):
                ref = verification.quadrature_S_normalized(a, b, 1.0)
                other = verification.quadrature_S_normalized(a, b, theta)
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
            if a % 2 == 0 and b % 2 == 1 and abs(a - b) != 1 and x != 0.0:
                pattern_ok = False
    results.append(CheckResult("half-space exact symmetry", sym == 0.0, sym, 0.0))
    results.append(
        CheckResult("half-space exact zero pattern", pattern_ok, 0.0 if pattern_ok else 1.0, 0.0)
    )
    return results


def _basis_norm(combo) -> float:
    """Norm of a Hermite combination from the orthogonality weights."""
    return math.sqrt(
        sum(c * c * math.prod(math.factorial(x) for x in idx) for c, idx in combo)
    )


def _system_entry_residual(system, even_basis, odd_basis) -> float:
    worst = 0.0
    for j in range(1, system.m_odd + 1):
        bj = _basis_norm(odd_basis(j))
        for i in range(1, system.m_even + 1):
            aa = _basis_norm(even_basis(i)) ** 2
            if system.kind.value == "kramers" and i == 1:
                aa *= 1.0 - (1.0 - system.prandtl) / 5.0
            ai = math.sqrt(aa)
            ip = sum(
                ce * co * inner_product_oracle(ie, io)
                for ce, ie in even_basis(i)
                for co, io in odd_basis(j)
            )
            expected = ip / (ai * bj)
            got = system.coupling_entry(i, j)
            scale = max(1.0, abs(expected))
            worst = max(worst, abs(got - expected) / scale)
    return worst


def _check_systems(level: str) -> list[CheckResult]:
    t_orders = (3, 5, 7) if level == "quick" else tuple(range(3, 32, 2))
    k_orders = (4, 6) if level == "quick" else tuple(range(4, 31, 2))
    worst = 0.0
    for m in t_orders:
        worst = max(
            worst,
            _system_entry_residual(
                build_temperature_system(m), temperature_even_basis, temperature_odd_basis
            ),
        )
    for m in k_orders:
        for pr in (1.0, 2.0 / 3.0):
            worst = max(
                worst,
                _system_entry_residual(
                    build_kramers_system(m, pr), kramers_even_basis, kramers_odd_basis
                ),
            )
    return [CheckResult("system entries vs inner-product oracle", worst <= 1e-12, worst, 1e-12)]


def _spectral_residual(system) -> tuple[float, float]:
    from .parity_spectral import decompose

    eigen = decompose(system)
    dense = system.parity_dense()
    w, _ = verification.dense_symmetric_eig(dense)
    expected = np.sort(np.concatenate((-eigen.rates, eigen.rates)))
    scale = max(1.0, float(np.max(np.abs(w))))
    pairing = float(np.max(np.abs(np.sort(w) - expected))) / scale
    r = assemble_full_R(eigen)
    orth = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    half = float(
        np.max(np.abs(eigen.even_vectors.T @ eigen.even_vectors - 0.5 * np.eye(system.m_odd)))
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


def _check_definiteness(level: str) -> list[CheckResult]:
    t_orders = (3, 5, 7) if level == "quick" else tuple(range(3, 100, 2))
    k_orders = (4, 6) if level == "quick" else tuple(range(4, 99, 2))
    ok = True
    for m in t_orders:
        system, table, eigen = _temperature_parts(m)
        ok &= _negative_definite(assemble_temperature_Tb(m, table))
        for chi in (0.1, 0.5, 1.0):
            wbs = temperature_boundary_system(m, chi, table)
            ok &= _negative_definite(wbs.scaled_matrix)
            ok &= _negative_definite(wall_operator(wbs, eigen))
    for m in k_orders:
        system, table, eigen = _kramers_parts(m, 1.0)
        ok &= _negative_definite(assemble_kramers_Sk(m, table))
        for chi in (0.1, 0.5, 1.0):
            wbs = kramers_boundary_system(m, chi, 1.0, table)
            ok &= _negative_definite(wbs.scaled_matrix)
            ok &= _negative_definite(wall_operator(wbs, eigen))
    # eigenvalue sign sampling backs up the factorizations on a few instances
    worst = -math.inf
    for m in (t_orders[0], t_orders[-1]):
        system, table, eigen = _temperature_parts(m)
        wbs = temperature_boundary_system(m, 0.5, table)
        w, _ = verification.dense_symmetric_eig(wall_operator(wbs, eigen))
        worst = max(worst, float(w[-1]) / max(1.0, float(np.max(np.abs(w)))))
    ok &= worst < 0.0
    return [
        CheckResult("boundary operators negative definite", ok, worst, 0.0,
                    detail="factorization plus sampled spectra")
    ]


def _bvp_deviation(problem: str, order: int, n_cells: int) -> tuple[float, float]:
    """(extrapolated deviation, raw-grid convergence ratio) for one case."""
    kn, pr, chi = DEFAULT_KN, 1.0, 1.0
    cfg = BvpConfig(n_cells=n_cells)
    if problem == "temperature":
        sol = temperature_solution(order, chi, kn, pr, 1.0, 0.0)
        _, table, eigen = _temperature_parts(order)
        y_max = cfg.resolve_y_max(float(eigen.rates[0]) * kn)
        nodes = geometric_nodes(y_max, cfg.n_cells, cfg.stretch)
        coarse = bvp_temperature(order, chi, kn, pr, 1.0, 0.0, cfg, nodes=nodes)
        fine = bvp_temperature(order, chi, kn, pr, 1.0, 0.0, cfg, nodes=split_nodes(nodes))
        exact = sol.temperature(nodes)
    else:
        sol = velocity_solution(order, chi, kn, pr, 1.0, 0.0)
        _, table, eigen = _kramers_parts(order, pr)
        y_max = cfg.resolve_y_max(float(eigen.rates[0]) * kn)
        nodes = geometric_nodes(y_max, cfg.n_cells, cfg.stretch)
        coarse = bvp_kramers(order, chi, kn, pr, 1.0, 0.0, cfg, nodes=nodes)
        fine = bvp_kramers(order, chi, kn, pr, 1.0, 0.0, cfg, nodes=split_nodes(nodes))
        exact = sol.velocity(nodes)
    richardson = 2.0 * fine.values[::2] - coarse.values
    dev_extrap = float(np.max(np.abs(richardson - exact)))
    dev_coarse = float(np.max(np.abs(coarse.values - exact)))
    dev_fine = float(np.max(np.abs(fine.values[::2] - exact)))
    ratio = dev_coarse / dev_fine if dev_fine > 0 else math.inf
    return dev_extrap, ratio


def _check_bvp(level: str) -> list[CheckResult]:
    cases = (
        [("temperature", 3, 4000), ("kramers", 4, 4000)]
        if level == "quick"
        else [("temperature", 3, 20000), ("temperature", 7, 20000),
              ("kramers", 4, 20000), ("kramers", 8, 20000)]
    )
    worst_dev = 0.0
    ratios = []
    for problem, order, cells in cases:
        dev, ratio = _bvp_deviation(problem, order, cells)
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


def cmd_verify(cfg: RunConfig) -> tuple[str, bool]:
    results, suites, elapsed = run_verification(cfg.level)
    ok = all(r.passed for r in results)
    if cfg.fmt == "structured-json":
        record = {
            "command": "verify",
            "level": cfg.level,
            "passed": ok,
            "seconds": elapsed,
            "checks": [
                {
                    "name": r.name,
                    "passed": bool(r.passed),
                    "residual": float(r.residual),
                    "tolerance": float(r.tolerance),
                    "detail": r.detail,
                }
                for r in results
            ],
            "suites": [{"name": name, "seconds": seconds} for name, seconds in suites],
        }
        return _structured(record), ok
    lines = [r.line() for r in results]
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} "
                 f"checks passed in {elapsed:.1f} s")
    return "\n".join(lines) + "\n", ok


# ----------------------------------------------------------------------
# argument parsing


def _build_parser() -> _Parser:
    parser = _Parser(prog="knlayer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order_default):
        p.add_argument("--order", "-M", type=int, default=order_default,
                       help="moment order (odd: temperature problems, even: shear)")
        p.add_argument("--chi", type=float, default=1.0, help="accommodation coefficient in (0, 1]")
        p.add_argument("--kn", type=float, default=DEFAULT_KN, help="Knudsen number")
        p.add_argument("--pr", type=float, default=1.0, help="Prandtl number")
        p.add_argument("--flux", type=float, default=1.0,
                       help="prescribed heat flux (odd order) or shear stress (even order)")
        add_output(p)

    def add_output(p):
        p.add_argument("--format", dest="fmt", choices=["columnar-text", "structured-json"],
                       default="columnar-text")
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("temperature-jump", help="wall values and jump coefficient")
    add_common(p, 13)
    p.add_argument("--wall-temp", dest="wall_value", type=float, default=0.0)

    p = sub.add_parser("kramers", help="wall slip velocity and mode amplitudes")
    add_common(p, 12)
    p.add_argument("--wall-velocity", dest="wall_value", type=float, default=0.0)

    p = sub.add_parser("table1", help="jump coefficient over chi and order")
    add_output(p)

    p = sub.add_parser("table2", help="observed convergence orders")
    p.add_argument("--kmax", type=int, default=6,
                   help="last ladder index (6..8); k=6 tops out at order 513, "
                        "k=7 at 1025, k=8 at 2049")
    add_output(p)

    p = sub.add_parser("sweep-chi", help="coefficient sweep over the accommodation range")
    add_common(p, 13)
    p.add_argument("--chi-min", dest="chi_min", type=float, default=1e-3)
    p.add_argument("--chi-max", dest="chi_max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--spacing", choices=["linear", "geometric"], default="geometric")

    p = sub.add_parser("profile", help="layer profile on a sample grid")
    add_common(p, 7)
    p.add_argument("--ymin", dest="y_min", type=float, default=1e-3)
    p.add_argument("--ymax", dest="y_max", type=float, default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--spacing", choices=["linear", "geometric"], default="geometric")

    p = sub.add_parser("dump-system", help="columnar dump of the coupling block")
    p.add_argument("--order", "-M", type=int, required=True)
    p.add_argument("--pr", type=float, default=1.0)
    add_output(p)

    p = sub.add_parser("verify", help="run the numerical oracle suites")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    add_output(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for field in dataclasses.fields(RunConfig):
        if hasattr(args, field.name):
            setattr(cfg, field.name, getattr(args, field.name))
    return cfg


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {output!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.command == "verify":
            text, ok = cmd_verify(cfg)
            _emit(text, cfg.output)
            return 0 if ok else 2
        dispatch = {
            "temperature-jump": cmd_temperature_jump,
            "kramers": cmd_kramers,
            "table1": cmd_table1,
            "table2": cmd_table2,
            "sweep-chi": cmd_sweep_chi,
            "profile": cmd_profile,
            "dump-system": cmd_dump_system,
        }
        text = dispatch[cfg.command](cfg)
        _emit(text, cfg.output)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StructuralSolveError, RankDeficiencyError,
            verification.BvpConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
