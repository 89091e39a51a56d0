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
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary_solver import StructuralSolveError, accommodation_factor
from .layer_profiles import (
    DEFAULT_KN,
    _profile_extent,
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
from .system_builder import reduced_system

__all__ = ["main"]

TABLE1_CHIS = (0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 1.0)
TABLE1_ORDERS = (3, 5, 7, 9, 11, 13)

# Largest --samples of sweep-chi and profile.  Checked before any array is
# allocated: a million rows is about 100 MB of text, while 1e9 would ask for
# gigabytes and 1e12 ends in numpy's memory error.
MAX_SAMPLES = 10**6


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    """An oracle run failed numerically; reported like a solver failure (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


# Rows formatted per %-template call: bounds the temporary Python floats of a
# long profile, so formatting adds little beyond the output text itself.
_FORMAT_BLOCK_ROWS = 4096


def _columnar(params: dict, columns: list[str], rows) -> str:
    """``#`` header lines, then one line of ``%.17g`` values per row.

    ``rows`` is anything ``np.asarray`` turns into one float per column and
    row; integer columns print as the equal float does, so ``1`` for 1.
    """
    lines = [f"# {key} = {value}" for key, value in params.items()]
    lines.append("# columns: " + " ".join(columns))
    parts = ["\n".join(lines) + "\n"]
    data = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    line = " ".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, data.shape[0], _FORMAT_BLOCK_ROWS):
        block = data[start:start + _FORMAT_BLOCK_ROWS]
        parts.append((line * block.shape[0]) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _structured(record: dict) -> str:
    import json  # text requests never pay for it

    return json.dumps(record, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class _Problem:
    """What the two layers differ in above the operator: names, keys and the
    library calls.  Each callable looks its library function up in this
    module's globals when it runs, so a tracer that rebinds them sees every
    call."""

    command: str  # the solve command; dump-system prints it as the kind
    help: str
    label: str  # the problem sweep-chi and profile print
    default_order: int
    wall_option: str
    flux: str  # solution field of the prescribed flux
    wall: str  # solution field of the prescribed wall value
    coefficient: str  # output key of the jump or slip coefficient
    solve: Callable  # (order, chi, kn, pr, flux, wall value) -> solution
    coefficient_of: Callable  # solution -> coefficient
    modes: tuple[str, ...]  # per-mode fields; each text column is its field in the singular
    profile: tuple[tuple[str, Callable], ...]  # columns after y: (name, (sol, y) -> values)


# Keyed on the order's parity: odd is the temperature jump, even Kramers slip.
_PROBLEMS = {
    1: _Problem(
        command="temperature-jump", help="wall values and jump coefficient", label="temperature",
        default_order=13, wall_option="--wall-temp", flux="heat_flux", wall="wall_temperature",
        coefficient="jump_coefficient",
        solve=lambda *args: temperature_solution(*args),
        coefficient_of=lambda sol: jump_coefficient(sol),
        modes=("decay_rates", "amplitudes", "defect_amplitudes"),
        profile=(("defect", lambda sol, y: temperature_defect(sol, y)),
                 ("normalized_temperature", lambda sol, y: normalized_temperature(sol, y)),
                 ("conductivity_ratio", lambda sol, y: effective_conductivity(sol, y))),
    ),
    0: _Problem(
        command="kramers", help="wall slip velocity and mode amplitudes", label="kramers",
        default_order=12, wall_option="--wall-velocity", flux="shear", wall="wall_velocity",
        coefficient="slip_coefficient",
        solve=lambda *args: velocity_solution(*args),
        coefficient_of=lambda sol: viscous_slip_coefficient(sol),
        modes=("decay_rates", "amplitudes"),
        profile=(("velocity", lambda sol, y: sol.velocity(y)),),
    ),
}


def cmd_solve(cfg: argparse.Namespace) -> tuple[str, int]:
    """``temperature-jump`` and ``kramers``: the command, not the order, picks the problem."""
    problem = cfg.problem
    sol = problem.solve(cfg.order, cfg.chi, cfg.kn, cfg.pr, cfg.flux, cfg.wall_value)
    coefficient = problem.coefficient_of(sol) if cfg.wall_value == 0.0 else None
    fields = {name: getattr(sol, name)
              for name in (problem.flux, problem.wall, "wall_value", "intercept")}
    if cfg.fmt == "structured-json":
        record = {
            "command": problem.command,
            "parameters": {"order": sol.order, "chi": sol.chi, "kn": sol.kn, "pr": sol.pr},
            **{name: list(getattr(sol, name)) for name in problem.modes},
            **fields,
            problem.coefficient: coefficient,
        }
        return _structured(record), 0
    params = {
        "command": problem.command,
        "order": sol.order,
        "chi": sol.chi,
        "kn": _fmt_float(sol.kn),
        "pr": _fmt_float(sol.pr),
        **{name: _fmt_float(value) for name, value in fields.items()},
    }
    if coefficient is not None:
        params[problem.coefficient] = _fmt_float(coefficient)
    columns = ["mode", *(name[:-1] for name in problem.modes)]
    rows = np.column_stack([np.arange(1, sol.decay_rates.size + 1),
                            *(getattr(sol, name) for name in problem.modes)])
    return _columnar(params, columns, rows), 0


def table1_values() -> dict[float, list[float]]:
    curves = [coefficient_curve(m) for m in TABLE1_ORDERS]
    return {chi: [curve(chi) for curve in curves] for chi in TABLE1_CHIS}


def cmd_table1(cfg: argparse.Namespace) -> tuple[str, int]:
    values = table1_values()
    if cfg.fmt == "structured-json":
        record = {
            "command": "table1",
            "kn": DEFAULT_KN,
            "pr": 1.0,
            "orders": list(TABLE1_ORDERS),
            "rows": [{"chi": chi, "zeta": values[chi]} for chi in TABLE1_CHIS],
        }
        return _structured(record), 0
    lines = ["# temperature jump coefficient, kn = sqrt(2)/2, pr = 1"]
    lines.append("# columns: chi " + " ".join(f"M={m}" for m in TABLE1_ORDERS))
    for chi in TABLE1_CHIS:
        lines.append(f"{chi:<5g} " + " ".join(f"{v:.5g}" for v in values[chi]))
    return "\n".join(lines) + "\n", 0


def cmd_table2(cfg: argparse.Namespace) -> tuple[str, int]:
    if not 6 <= cfg.kmax <= 8:
        raise UsageError("kmax must lie in [6, 8]")
    ks = list(range(6, cfg.kmax + 1))
    rows = {k: convergence_order(np.array(TABLE1_CHIS), k).tolist() for k in ks}
    if cfg.fmt == "structured-json":
        record = {
            "command": "table2",
            "chis": list(TABLE1_CHIS),
            "rows": [{"k": k, "orders": rows[k]} for k in ks],
        }
        return _structured(record), 0
    lines = ["# observed convergence order of the jump coefficient"]
    lines.append("# columns: k " + " ".join(f"chi={c}" for c in TABLE1_CHIS))
    for k in ks:
        lines.append(f"{k:<3d} " + " ".join(f"{v:.3f}" for v in rows[k]))
    return "\n".join(lines) + "\n", 0


def _check_samples(samples: int) -> None:
    if not 2 <= samples <= MAX_SAMPLES:
        raise UsageError(f"samples must lie in [2, {MAX_SAMPLES}]")


def _spaced(cfg: argparse.Namespace, name: str, start: float, stop: float) -> np.ndarray:
    """``cfg.samples`` points from start to stop in the requested spacing.

    A range too narrow for that many distinct doubles would repeat points,
    so a grid that is not strictly increasing is a usage error.
    """
    space = np.geomspace if cfg.spacing == "geometric" else np.linspace
    grid = space(start, stop, cfg.samples)
    if not (np.diff(grid) > 0.0).all():
        raise UsageError(
            f"{name} range [{start!r}, {stop!r}] is too narrow for --samples {cfg.samples}: "
            f"{cfg.spacing} spacing repeats points"
        )
    return grid


def cmd_sweep_chi(cfg: argparse.Namespace) -> tuple[str, int]:
    _check_samples(cfg.samples)
    if not 0.0 < cfg.chi_min < cfg.chi_max <= 1.0:
        raise UsageError("need 0 < chi-min < chi-max <= 1")
    chis = _spaced(cfg, "chi", cfg.chi_min, cfg.chi_max)
    problem = _PROBLEMS[cfg.order % 2]
    coef = coefficient_curve(cfg.order, cfg.kn, cfg.pr)(chis)
    b_vals = accommodation_factor(chis)
    scaled = b_vals * coef
    name = problem.coefficient
    if cfg.fmt == "structured-json":
        record = {
            "command": "sweep-chi",
            "problem": problem.label,
            "order": cfg.order,
            "kn": cfg.kn,
            "pr": cfg.pr,
            "chi": chis.tolist(),
            name: coef.tolist(),
            "accommodation_factor": b_vals.tolist(),
            "scaled_coefficient": scaled.tolist(),
        }
        return _structured(record), 0
    params = {
        "command": "sweep-chi",
        "problem": problem.label,
        "order": cfg.order,
        "kn": _fmt_float(cfg.kn),
        "pr": _fmt_float(cfg.pr),
    }
    rows = np.column_stack((chis, coef, b_vals, scaled))
    return _columnar(params, ["chi", name, "b_chi", f"b_chi*{name}"], rows), 0


def _profile_grid(cfg: argparse.Namespace, sol) -> np.ndarray:
    y_max = cfg.y_max if cfg.y_max is not None else _profile_extent(sol)
    if not (math.isfinite(cfg.y_min) and math.isfinite(y_max)):
        raise UsageError(f"ymin ({cfg.y_min:g}) and ymax ({y_max:g}) must be finite")
    if cfg.y_min < 0.0:
        raise UsageError(f"ymin ({cfg.y_min:g}) must be >= 0: y is the distance from the wall")
    if y_max <= cfg.y_min:
        raise UsageError(f"ymax ({y_max:g}) must exceed ymin ({cfg.y_min:g})")
    if cfg.spacing == "geometric" and cfg.y_min <= 0.0:
        raise UsageError("geometric spacing needs y-min > 0")
    return _spaced(cfg, "y", cfg.y_min, y_max)


def cmd_profile(cfg: argparse.Namespace) -> tuple[str, int]:
    _check_samples(cfg.samples)
    problem = _PROBLEMS[cfg.order % 2]
    sol = problem.solve(cfg.order, cfg.chi, cfg.kn, cfg.pr, cfg.flux, 0.0)
    grid = _profile_grid(cfg, sol)
    columns = ["y", *(name for name, _ in problem.profile)]
    data = np.column_stack([grid, *(np.asarray(column(sol, grid)) for _, column in problem.profile)])
    extra = {problem.coefficient: problem.coefficient_of(sol)}
    if cfg.fmt == "structured-json":
        record = {
            "command": "profile",
            "problem": problem.label,
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
        return _structured(record), 0
    params = {
        "command": "profile",
        "problem": problem.label,
        "order": cfg.order,
        "chi": cfg.chi,
        "kn": _fmt_float(cfg.kn),
        "pr": _fmt_float(cfg.pr),
        "flux": _fmt_float(cfg.flux),
        **{key: _fmt_float(val) for key, val in extra.items()},
    }
    return _columnar(params, columns, data), 0


def cmd_dump_system(cfg: argparse.Namespace) -> tuple[str, int]:
    system = reduced_system(cfg.order, cfg.pr)
    params = {
        "command": "dump-system",
        "kind": _PROBLEMS[cfg.order % 2].command,
        "order": system.order,
        "m_even": system.m_even,
        "m_odd": system.m_even,  # the block is square
    }
    # the nonzero entries (row, col, value), 1-based, column by column down the band
    diagonals = (system.diag_main, system.diag_sub1, system.diag_sub2)
    rows = [[j + offset, j, float(diag[j - 1])]
            for j in range(1, system.m_even + 1)
            for offset, diag in enumerate(diagonals)
            if j <= diag.size and diag[j - 1] != 0.0]
    columns = ["row", "col", "value"]
    if cfg.fmt == "structured-json":
        return _structured({**params, "columns": columns, "rows": rows}), 0
    return _columnar(params, columns, rows), 0


def cmd_verify(cfg: argparse.Namespace) -> tuple[str, int]:
    """Run the oracle suites: the report, and exit 2 unless every check passed."""
    # The oracles load only for this command.
    from . import verification

    try:
        results, suites, elapsed = verification.run_verification(cfg.level)
    except (verification.BvpConvergenceError, verification.QuadratureConvergenceError) as exc:
        raise NumericalFailure(exc) from exc
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
        return _structured(record), 0 if ok else 2
    lines = [r.line() for r in results]
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} "
                 f"checks passed in {elapsed:.1f} s")
    return "\n".join(lines) + "\n", 0 if ok else 2


# ----------------------------------------------------------------------
# argument parsing


def _add_problem(p: argparse.ArgumentParser, order_default: int) -> None:
    p.add_argument("--order", "-M", type=int, default=order_default,
                   help="moment order (odd: temperature problems, even: shear)")
    p.add_argument("--kn", type=float, default=DEFAULT_KN, help="Knudsen number")
    p.add_argument("--pr", type=float, default=1.0, help="Prandtl number")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=["columnar-text", "structured-json"],
                   default="columnar-text")
    p.add_argument("--output", help="write to this path instead of stdout")


def _add_common(p: argparse.ArgumentParser, order_default: int) -> None:
    _add_problem(p, order_default)
    p.add_argument("--chi", type=float, default=1.0, help="accommodation coefficient in (0, 1]")
    p.add_argument("--flux", type=float, default=1.0,
                   help="prescribed heat flux (odd order) or shear stress (even order)")
    _add_output(p)


def _solve_options(problem: _Problem, p: argparse.ArgumentParser) -> None:
    _add_common(p, problem.default_order)
    p.add_argument(problem.wall_option, dest="wall_value", type=float, default=0.0)
    p.set_defaults(problem=problem)


def _table2_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kmax", type=int, default=6,
                   help="last ladder index (6..8); k=6 tops out at order 513, "
                        "k=7 at 1025, k=8 at 2049")
    _add_output(p)


def _sweep_chi_options(p: argparse.ArgumentParser) -> None:
    _add_problem(p, 13)
    _add_output(p)
    p.add_argument("--chi-min", dest="chi_min", type=float, default=1e-3)
    p.add_argument("--chi-max", dest="chi_max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--spacing", choices=["linear", "geometric"], default="geometric")


def _profile_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, 7)
    p.add_argument("--ymin", dest="y_min", type=float, default=1e-3)
    p.add_argument("--ymax", dest="y_max", type=float, default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--spacing", choices=["linear", "geometric"], default="geometric")


def _dump_system_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", "-M", type=int, required=True)
    p.add_argument("--pr", type=float, default=1.0)
    _add_output(p)


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    _add_output(p)


# name -> (help line, option adder, handler); the order is that of the help screen.
COMMANDS = {
    **{p.command: (p.help, functools.partial(_solve_options, p), cmd_solve)
       for p in _PROBLEMS.values()},
    "table1": ("jump coefficient over chi and order", _add_output, cmd_table1),
    "table2": ("observed convergence orders", _table2_options, cmd_table2),
    "sweep-chi": ("coefficient sweep over the accommodation range", _sweep_chi_options,
                  cmd_sweep_chi),
    "profile": ("layer profile on a sample grid", _profile_options, cmd_profile),
    "dump-system": ("columnar dump of the coupling block", _dump_system_options, cmd_dump_system),
    "verify": ("run the numerical oracle suites", _verify_options, cmd_verify),
}


def _full_parser() -> _Parser:
    """Every command's parser, for top-level help and usage errors."""
    parser = _Parser(prog="knlayer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_options, _) in COMMANDS.items():
        add_options(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Options of one request, with ``command`` set; when argv[0] names a
    command, only its parser is built.

    That parser is the one ``_full_parser`` would give the command: same
    prog, options and messages.  A handler reads only the options its own
    parser defines.
    """
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"knlayer {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return _full_parser().parse_args(argv)


def _check_output(output: str | None) -> None:
    """Reject an ``--output`` that is a directory, or whose directory is
    missing or not writable, before any build; ``_emit`` reports the rest."""
    if output is None:
        return
    folder = os.path.dirname(os.path.abspath(output))
    if os.path.isdir(output):
        reason = "it is a directory"
    elif not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        reason = f"{folder!r} is not a writable directory"
    else:
        return
    raise UsageError(f"cannot write output file {output!r}: {reason}")


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
    try:
        cfg = _parse(sys.argv[1:] if argv is None else argv)
        _check_output(cfg.output)
        text, code = COMMANDS[cfg.command][2](cfg)
        _emit(text, cfg.output)
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, StructuralSolveError, RankDeficiencyError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
