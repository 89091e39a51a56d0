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
from dataclasses import dataclass

import numpy as np

from .boundary_solver import StructuralSolveError, accommodation_factor
from .layer_profiles import (
    DEFAULT_KN,
    coefficient_curve,
    convergence_order,
    effective_conductivity,
    jump_coefficient,
    normalized_temperature,
    temperature_defect,
    temperature_solution,
    velocity_solution,
    viscous_slip_coefficient,
)
from .parity_spectral import RankDeficiencyError
from .system_builder import build_kramers_system, build_temperature_system

__all__ = ["RunConfig", "main"]

TABLE1_CHIS = (0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 1.0)
TABLE1_ORDERS = (3, 5, 7, 9, 11, 13)


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
    curves = [coefficient_curve(m) for m in TABLE1_ORDERS]
    return {chi: [curve(chi) for curve in curves] for chi in TABLE1_CHIS}


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
    coef = coefficient_curve(cfg.order, cfg.kn, cfg.pr)(chis)
    b_vals = accommodation_factor(chis)
    scaled = b_vals * coef
    name = "jump_coefficient" if temperature else "slip_coefficient"
    if cfg.fmt == "structured-json":
        record = {
            "command": "sweep-chi",
            "problem": "temperature" if temperature else "kramers",
            "order": cfg.order,
            "kn": cfg.kn,
            "pr": cfg.pr,
            "chi": chis.tolist(),
            name: coef.tolist(),
            "accommodation_factor": b_vals.tolist(),
            "scaled_coefficient": scaled.tolist(),
        }
        return _structured(record)
    params = {
        "command": "sweep-chi",
        "problem": "temperature" if temperature else "kramers",
        "order": cfg.order,
        "kn": _fmt_float(cfg.kn),
        "pr": _fmt_float(cfg.pr),
    }
    rows = np.column_stack((chis, coef, b_vals, scaled))
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


def cmd_verify(cfg: RunConfig, results, suites, elapsed: float) -> tuple[str, bool]:
    """Report of one run of the oracle suites, and whether every check passed."""
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

    def add_problem(p, order_default):
        p.add_argument("--order", "-M", type=int, default=order_default,
                       help="moment order (odd: temperature problems, even: shear)")
        p.add_argument("--kn", type=float, default=DEFAULT_KN, help="Knudsen number")
        p.add_argument("--pr", type=float, default=1.0, help="Prandtl number")

    def add_common(p, order_default):
        add_problem(p, order_default)
        p.add_argument("--chi", type=float, default=1.0, help="accommodation coefficient in (0, 1]")
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
    add_problem(p, 13)
    add_output(p)
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


def _numerical_failure(exc: Exception) -> int:
    print(f"numerical failure: {exc}", file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.command == "verify":
            # The oracles, and scipy with them, load only for this command.
            from . import verification

            try:
                report = verification.run_verification(cfg.level)
            except verification.BvpConvergenceError as exc:
                return _numerical_failure(exc)
            text, ok = cmd_verify(cfg, *report)
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
    except (StructuralSolveError, RankDeficiencyError, np.linalg.LinAlgError) as exc:
        return _numerical_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
