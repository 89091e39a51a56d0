"""Command-line behavior: formats, determinism, exit codes, fault injection."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import knlayer
import knlayer.verification
from knlayer import cli, layer_profiles
from knlayer.cli import MAX_SAMPLES, UsageError, main
from knlayer.layer_profiles import (
    convergence_order,
    jump_coefficient,
    layer_operator,
    temperature_defect,
    temperature_solution,
    velocity_solution,
    viscous_slip_coefficient,
)
from knlayer.parity_spectral import ParityEigen
from knlayer.special_functions import HalfSpaceTable
from knlayer.system_builder import reduced_system
from knlayer.verification import coupling_dense


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable1:
    def test_reference_cells(self, capsys):
        code, out, _ = run(capsys, ["table1"])
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        grid = {float(l.split()[0]): [float(v) for v in l.split()[1:]] for l in lines}
        assert grid[0.3][1] == pytest.approx(6.5542, abs=1e-4)  # order 5
        assert grid[0.9][0] == pytest.approx(1.3768, abs=1e-4)  # order 3
        # each row increases toward its largest-order value
        for row in grid.values():
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_structured_round_trip(self, capsys):
        code, out, _ = run(capsys, ["table1", "--format", "structured-json"])
        assert code == 0
        record = json.loads(out)
        assert record["orders"] == [3, 5, 7, 9, 11, 13]
        chi, zeta = record["rows"][6]["chi"], record["rows"][6]["zeta"][5]
        assert chi == 1.0
        sol = temperature_solution(13, 1.0)
        assert zeta == jump_coefficient(sol)  # the JSON digits round-trip
        # the per-chi formula through the wall solve's intercept, not the
        # partial fraction that table1 and jump_coefficient both evaluate: two
        # roundings of one value, 2 ulp apart at most over table1's cells
        per_chi = -2.5 * sol.kn / sol.pr * (sol.intercept / sol.heat_flux)
        assert abs(zeta - per_chi) <= 2 * math.ulp(per_chi)


class TestProfileCommand:
    def test_pass_through_values(self, capsys):
        code, out, _ = run(
            capsys,
            ["profile", "--order", "5", "--chi", "0.8", "--samples", "7", "--ymin", "0.001"],
        )
        assert code == 0
        rows = [l.split() for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 7
        sol = temperature_solution(5, 0.8)
        y = np.array([float(r[0]) for r in rows])
        emitted = np.array([float(r[1]) for r in rows])
        np.testing.assert_array_equal(emitted, np.asarray(temperature_defect(sol, y)))

    def test_kramers_profile_by_parity(self, capsys):
        code, out, _ = run(capsys, ["profile", "--order", "8", "--samples", "5"])
        assert code == 0
        assert "problem = kramers" in out
        assert "velocity" in out

    def test_structured_round_trip(self, capsys):
        args = ["profile", "--order", "7", "--samples", "11", "--format", "structured-json"]
        code, out, _ = run(capsys, args)
        assert code == 0
        record = json.loads(out)
        y = np.array(record["samples"]["y"])
        sol = temperature_solution(7, 1.0)
        np.testing.assert_array_equal(
            np.array(record["samples"]["defect"]), np.asarray(temperature_defect(sol, y))
        )
        # serialization round-trips bit for bit
        again = json.loads(json.dumps(record))
        assert again == record

    def test_grid_monotone_and_finite(self, capsys):
        code, out, _ = run(capsys, ["profile", "--order", "9", "--samples", "50"])
        data = np.array(
            [[float(v) for v in l.split()] for l in out.splitlines() if not l.startswith("#")]
        )
        assert np.all(np.isfinite(data))
        assert np.all(np.diff(data[:, 0]) > 0.0)


class TestSolveCommands:
    def test_temperature_jump_fields(self, capsys):
        code, out, _ = run(
            capsys, ["temperature-jump", "--order", "3", "--chi", "1.0", "--format",
                     "structured-json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["jump_coefficient"] == pytest.approx(1.1287, abs=1e-4)
        assert len(record["decay_rates"]) == 1

    def test_wall_offset_drops_jump_coefficient(self, capsys):
        code, out, _ = run(
            capsys, ["temperature-jump", "--order", "5", "--wall-temp", "0.3",
                     "--format", "structured-json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["jump_coefficient"] is None
        assert record["wall_temperature"] == 0.3

    def test_kramers_fields(self, capsys):
        code, out, _ = run(
            capsys, ["kramers", "--order", "8", "--format", "structured-json"]
        )
        record = json.loads(out)
        assert code == 0
        assert record["slip_coefficient"] > 0.0
        assert len(record["decay_rates"]) == 3

    def test_sweep_chi(self, capsys):
        code, out, _ = run(
            capsys, ["sweep-chi", "--order", "5", "--samples", "9", "--chi-min", "0.05"]
        )
        assert code == 0
        rows = [l.split() for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 9
        scaled = [float(r[3]) for r in rows]
        assert all(math.isfinite(v) for v in scaled)

    def test_dump_system(self, capsys):
        code, out, _ = run(capsys, ["dump-system", "--order", "5"])
        assert code == 0
        rows = [l.split() for l in out.splitlines() if not l.startswith("#")]
        entries = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert entries[(1, 1)] == pytest.approx(3.0 / math.sqrt(5.0))
        assert entries[(3, 3)] == pytest.approx(math.sqrt(3.0))

    @pytest.mark.parametrize("order, kind", [(9, "temperature-jump"), (8, "kramers")])
    def test_dump_system_kind_follows_parity(self, capsys, order, kind):
        code, out, _ = run(capsys, ["dump-system", "-M", str(order)])
        assert code == 0
        assert f"# kind = {kind}\n" in out

    @pytest.mark.parametrize("order, kind", [(9, "temperature-jump"), (8, "kramers")])
    def test_dump_system_structured_json(self, capsys, order, kind):
        code, text, _ = run(capsys, ["dump-system", "-M", str(order)])
        assert code == 0
        code, out, _ = run(capsys, ["dump-system", "-M", str(order), "--format", "structured-json"])
        assert code == 0
        record = json.loads(out)
        m_even = order - 2 if order % 2 else order // 2 - 1
        assert {key: record[key] for key in ("command", "kind", "order", "m_even", "m_odd")} == {
            "command": "dump-system", "kind": kind, "order": order, "m_even": m_even,
            "m_odd": m_even,
        }
        assert record["columns"] == ["row", "col", "value"]
        # the same entries, to the last bit, as the text dump
        rows = [l.split() for l in text.splitlines() if not l.startswith("#")]
        assert record["rows"] == [[int(r[0]), int(r[1]), float(r[2])] for r in rows]

    @pytest.mark.parametrize("order", [3, 9, 4, 8])
    def test_dump_system_rows_are_the_nonzero_band(self, capsys, order):
        # column by column, each column's entries from the diagonal down,
        # bit for bit the nonzero entries of the dense block
        code, out, _ = run(capsys, ["dump-system", "-M", str(order), "--pr", "0.7",
                                    "--format", "structured-json"])
        assert code == 0
        dense = coupling_dense(reduced_system(order, 0.7))
        cols, rows = np.nonzero(dense.T)
        expected = [[int(i) + 1, int(j) + 1, float(dense[i, j])] for i, j in zip(rows, cols)]
        assert json.loads(out)["rows"] == expected
        assert all(0 <= i - j <= 2 for i, j, _ in expected)

    @pytest.mark.parametrize(
        "command, order, name",
        [("temperature-jump", 513, "jump_coefficient"), ("kramers", 10, "slip_coefficient")],
    )
    def test_coefficient_matches_sweep(self, capsys, command, order, name):
        # A solve prints the partial fraction that sweep-chi evaluates, so
        # both print the same coefficient at chi = 1, to the last bit.
        code, out, _ = run(capsys, [command, "-M", str(order)])
        assert code == 0
        header = dict(l[2:].split(" = ", 1) for l in out.splitlines() if " = " in l)
        code, out, _ = run(
            capsys,
            ["sweep-chi", "-M", str(order), "--chi-min", "0.5", "--chi-max", "1", "--samples", "2"],
        )
        assert code == 0
        chi, coefficient = [l.split() for l in out.splitlines() if not l.startswith("#")][-1][:2]
        assert float(chi) == 1.0 and float(header["chi"]) == 1.0
        assert float(header[name]) == float(coefficient)


# Header keys and mode columns of each solve command, in the order printed.
SOLVE_LAYOUT = {
    "temperature-jump": (
        ["command", "order", "chi", "kn", "pr", "heat_flux", "wall_temperature", "wall_value",
         "intercept", "jump_coefficient"],
        ["mode", "decay_rate", "amplitude", "defect_amplitude"],
    ),
    "kramers": (
        ["command", "order", "chi", "kn", "pr", "shear", "wall_velocity", "wall_value",
         "intercept", "slip_coefficient"],
        ["mode", "decay_rate", "amplitude"],
    ),
}


class TestSolveLayout:
    """Both solve commands print their solution's fields under fixed keys,
    each value the ``%.17g`` of the library's own field."""

    CASES = [
        ("temperature-jump", 13, temperature_solution, jump_coefficient),
        ("kramers", 12, velocity_solution, viscous_slip_coefficient),
    ]

    @staticmethod
    def solve(capsys, command, order, solve, wall, fmt):
        argv = [command, "-M", str(order), "--chi", "0.6", "--kn", "0.9", "--pr", "0.7",
                "--flux", "1.5", "--" + ("wall-temp" if order % 2 else "wall-velocity"), str(wall),
                "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        return out, solve(order, 0.6, 0.9, 0.7, 1.5, wall)

    @pytest.mark.parametrize("wall", [0.0, 0.4])
    @pytest.mark.parametrize("command, order, solve, coefficient", CASES)
    def test_text(self, capsys, command, order, solve, coefficient, wall):
        out, sol = self.solve(capsys, command, order, solve, wall, "columnar-text")
        keys, columns = SOLVE_LAYOUT[command]
        if wall:  # the coefficient needs the zero-wall normalization
            keys = keys[:-1]
        lines = out.splitlines()
        header = [line[2:].split(" = ", 1) for line in lines[:len(keys)]]
        assert [key for key, _ in header] == keys
        values = dict(header)
        assert (values["command"], values["order"], values["chi"]) == (command, str(order), "0.6")
        for key in keys[3:9]:
            assert values[key] == cli._fmt_float(getattr(sol, key)), key
        if not wall:
            assert values[keys[-1]] == cli._fmt_float(coefficient(sol))
        assert lines[len(keys)] == "# columns: " + " ".join(columns)
        fields = [getattr(sol, name + "s") for name in columns[1:]]
        rows = lines[len(keys) + 1:]
        assert len(rows) == sol.decay_rates.size
        for i, row in enumerate(rows):
            expected = [cli._fmt_float(i + 1)] + [cli._fmt_float(field[i]) for field in fields]
            assert row.split() == expected

    @pytest.mark.parametrize("wall", [0.0, 0.4])
    @pytest.mark.parametrize("command, order, solve, coefficient", CASES)
    def test_structured(self, capsys, command, order, solve, coefficient, wall):
        out, sol = self.solve(capsys, command, order, solve, wall, "structured-json")
        keys, columns = SOLVE_LAYOUT[command]
        record = json.loads(out)
        modes = [name + "s" for name in columns[1:]]
        assert list(record) == sorted(["command", "parameters", *keys[5:], *modes])
        assert record["command"] == command
        assert record["parameters"] == {"order": order, "chi": 0.6, "kn": 0.9, "pr": 0.7}
        for key in keys[5:9]:
            assert record[key] == getattr(sol, key), key
        assert record[keys[-1]] == (None if wall else coefficient(sol))
        for name in modes:
            assert record[name] == getattr(sol, name).tolist(), name


def test_library_calls_go_through_module_globals(capsys, monkeypatch):
    # perfbench's tracer rebinds the names a module holds, so the problem
    # table must look its library functions up when it runs
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    for name in ("temperature_solution", "velocity_solution", "jump_coefficient",
                 "viscous_slip_coefficient", "temperature_defect", "normalized_temperature",
                 "effective_conductivity"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    for argv in (["temperature-jump", "-M", "5"], ["kramers", "-M", "6"],
                 ["profile", "-M", "5", "--samples", "3"], ["profile", "-M", "6", "--samples", "3"]):
        assert run(capsys, argv)[0] == 0
    assert calls == [
        "temperature_solution", "jump_coefficient", "velocity_solution", "viscous_slip_coefficient",
        "temperature_solution", "temperature_defect", "normalized_temperature",
        "effective_conductivity", "jump_coefficient", "velocity_solution", "viscous_slip_coefficient",
    ]


class TestDeterminism:
    def test_identical_output_across_runs(self, capsys):
        a = run(capsys, ["temperature-jump", "--order", "9", "--chi", "0.37"])
        b = run(capsys, ["temperature-jump", "--order", "9", "--chi", "0.37"])
        assert a == b

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, ["table1", "--output", str(target)])
        assert code == 0
        assert out == ""
        code2, stdout, _ = run(capsys, ["table1"])
        assert target.read_text() == stdout


def reference_columnar(params, columns, rows):
    """The per-value formatter that the row templates replace."""
    lines = [f"# {key} = {value}" for key, value in params.items()]
    lines.append("# columns: " + " ".join(columns))
    for row in rows:
        lines.append(" ".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


class TestColumnar:
    SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]

    def test_special_values(self):
        rows = np.array(self.SPECIAL).reshape(-1, 3)
        params = {"command": "x", "kn": "0.5"}
        assert cli._columnar(params, ["a", "b", "c"], rows) == reference_columnar(
            params, ["a", "b", "c"], rows
        )

    def test_integer_mode_columns(self):
        rows = [(1, 0.5, -0.0), (2, 1e308, math.nan), (12, 5e-324, 3)]
        assert cli._columnar({}, ["mode", "x", "y"], rows) == reference_columnar(
            {}, ["mode", "x", "y"], rows
        )
        stacked = np.column_stack((np.arange(1, 4), np.ones(3)))
        assert cli._columnar({}, ["mode", "x"], stacked).splitlines()[1:] == [
            "1 1", "2 1", "3 1"
        ]

    def test_block_boundaries_and_empty(self):
        rng = np.random.default_rng(7)
        n = 2 * cli._FORMAT_BLOCK_ROWS + 3
        rows = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-320, 308, (n, 4))
        rows[::97, 1] = np.inf
        text = cli._columnar({"p": 1}, list("abcd"), rows)
        assert text == reference_columnar({"p": 1}, list("abcd"), rows)
        assert cli._columnar({}, ["x"], np.empty((0, 1))) == "# columns: x\n"


def full_parser_outcome(argv):
    """What the parser holding every command does with argv: (stdout, exit code or message)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli._full_parser().parse_args(argv)
        except SystemExit as exc:
            return out.getvalue(), exc.code
        except UsageError as exc:
            return out.getvalue(), str(exc)
    raise AssertionError(f"{argv} parsed")


class TestParser:
    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_exits_zero_with_full_parser_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["-h"] if command is None else [command, "-h"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert (out, 0) == full_parser_outcome(argv)
        assert out.startswith(f"usage: knlayer {command or ''}".rstrip())

    @pytest.mark.parametrize(
        "argv, phrase",
        [
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            ([], "the following arguments are required: command"),
            (["sweep-chi", "--ymin", "1"], "unrecognized arguments: --ymin 1"),
            (["sweep-chi", "-M", "abc"], "argument --order/-M: invalid int value: 'abc'"),
        ],
    )
    def test_usage_errors_keep_full_parser_message(self, capsys, argv, phrase):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        _, message = full_parser_outcome(argv)
        assert phrase in message
        assert err == f"error: {message}\n"

    def test_request_builds_only_its_command(self, capsys, monkeypatch):
        added = []
        true_add = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args)
            return true_add(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main(["sweep-chi", "-M", "5", "--samples", "3"]) == 0
        assert added == [
            ("-h", "--help"), ("--order", "-M"), ("--kn",), ("--pr",), ("--format",),
            ("--output",), ("--chi-min",), ("--chi-max",), ("--samples",), ("--spacing",),
        ]
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if not line.startswith("#")]) == 3


    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-.5e3"])
    @pytest.mark.parametrize(
        "command, option",
        [(["temperature-jump", "-M", "7"], "--flux"), (["temperature-jump", "-M", "7"], "--wall-temp"),
         (["kramers", "-M", "8"], "--flux"), (["kramers", "-M", "8"], "--wall-velocity"),
         (["profile", "-M", "7", "--samples", "5"], "--flux"),
         (["profile", "-M", "8", "--samples", "5"], "--flux")],
    )
    def test_negative_exponent_value_is_a_number(self, capsys, command, option, value):
        # argparse's own negative-number pattern has no exponent, so it read
        # -1e-3 as an option and left the flux without an argument
        code, out, err = run(capsys, [*command, option, value])
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, [*command, f"{option}={value}"])

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
    @pytest.mark.parametrize(
        "command, option",
        [(["temperature-jump", "-M", "7"], option) for option in ("--flux", "--wall-temp", "--chi", "--kn", "--pr")]
        + [(["kramers", "-M", "8"], "--wall-velocity"),
           (["sweep-chi", "-M", "5", "--samples", "3"], "--chi-min"),
           (["sweep-chi", "-M", "5", "--samples", "3"], "--chi-max"),
           (["profile", "-M", "7", "--samples", "5"], "--ymin"),
           (["profile", "-M", "7", "--samples", "5"], "--ymax")],
    )
    def test_negative_non_finite_value_meets_the_domain_check(self, capsys, command, option, value):
        # float() reads these spellings in any case; argparse's own pattern
        # read them as an option and left the option without an argument
        code, out, err = run(capsys, [*command, option, value])
        assert (code, out) == (1, "") and err.startswith("error: ") and "expected one argument" not in err
        assert (code, out, err) == run(capsys, [*command, f"{option}={value}"])

    @pytest.mark.parametrize(
        "option, message",
        [("--kn", "Knudsen number must be finite and positive, and not subnormal, got -0.001"),
         ("--chi", "accommodation coefficient must lie in (0, 1], got -0.001")],
    )
    def test_negative_exponent_value_meets_the_domain_check(self, capsys, option, message):
        assert run(capsys, ["temperature-jump", "-M", "7", option, "-1e-3"]) == (1, "", f"error: {message}\n")


class TestTable2:
    def test_one_curve_per_order(self, capsys, monkeypatch):
        import knlayer.boundary_solver as bs
        import knlayer.layer_profiles as lp

        lp.layer_operator.cache_clear()
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        # wall_system looks the named wall builder up in boundary_solver
        for module, name in ((lp, "decompose"), (bs, "temperature_boundary_system")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        code, out, _ = run(capsys, ["table2", "--format", "structured-json"])
        assert code == 0
        assert calls.count("decompose") == 3
        assert calls.count("temperature_boundary_system") == 3
        assert len(json.loads(out)["rows"][0]["orders"]) == 7

    def test_structured_rows_are_the_library_orders(self, capsys):
        # JSON keeps every bit of a float, so the rows are the library's values
        code, out, _ = run(capsys, ["table2", "--kmax", "7", "--format", "structured-json"])
        assert code == 0
        record = json.loads(out)
        assert record["chis"] == list(cli.TABLE1_CHIS)
        assert [row["k"] for row in record["rows"]] == [6, 7]
        for row in record["rows"]:
            expected = convergence_order(np.array(cli.TABLE1_CHIS), row["k"]).tolist()
            assert row["orders"] == expected, row["k"]


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        code, _, err = run(capsys, ["table1", "--bogus"])
        assert code == 1
        assert "error" in err.lower()

    def test_usage_error_no_command(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_parity_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["temperature-jump", "--order", "8"])
        assert code == 1
        assert "odd" in err

    def test_bad_chi_is_usage_error(self, capsys):
        assert run(capsys, ["temperature-jump", "--order", "5", "--chi", "1.5"])[0] == 1

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        assert run(capsys, ["table1", "--output", str(target)])[0] == 1

    @pytest.mark.parametrize("target", ["missing/out.txt", ".", "file/out.txt"])
    def test_unwritable_output_rejected_before_any_build(self, capsys, tmp_path, monkeypatch, target):
        # a missing directory, a directory as the target and a file as the
        # directory: each would fail only at the write, after a cold solve
        # of about 25 s at this order
        def build(*args):
            raise AssertionError("an operator was built for an output that cannot be written")

        monkeypatch.setattr(layer_profiles, "_cached_operator", build)
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, ["temperature-jump", "-M", "4097", "--output", str(tmp_path / target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write output file")

    @pytest.mark.parametrize("target", ["", "nosuchfile/", "file/"])
    def test_empty_or_separator_ended_output_rejected_before_any_build(self, capsys, tmp_path, monkeypatch,
                                                                       target):
        # '' once named the parent of the working directory as its folder, and
        # a path that ends in a separator names no file: each failed only at
        # the write, after the operator was built
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        before = layer_operator.cache_info()
        code, out, err = run(capsys, ["sweep-chi", "-M", "13", "--output", target])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write output file {target!r}: ")
        assert layer_operator.cache_info() == before
        assert os.listdir(tmp_path) == ["file"]

    @pytest.mark.parametrize("device", [True, False])
    def test_writable_file_in_read_only_folder_accepted(self, capsys, tmp_path, monkeypatch, device):
        # an existing file is judged by its own access, not by its folder's: a
        # user who may not write /dev still writes /dev/null.  The access
        # check is patched to deny the folder, since root passes every check
        target = "/dev/null" if device else str(tmp_path / "out.txt")
        if not device:
            open(target, "w").close()
        folder, access = os.path.dirname(target), os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != folder and access(path, mode))
        expected = run(capsys, ["sweep-chi", "-M", "13", "--samples", "3"])[1]
        assert run(capsys, ["sweep-chi", "-M", "13", "--samples", "3", "--output", target]) == (0, "", "")
        if not device:
            with open(target, encoding="utf-8") as handle:
                assert handle.read() == expected

    def test_read_only_file_rejected_before_any_build(self, capsys, tmp_path, monkeypatch):
        # a read-only file in a writable folder once passed the check, so the
        # write failed only after the build, about 20 s cold at M = 4097
        target = str(tmp_path / "ro.out")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write("kept")
        os.chmod(target, 0o444)
        access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != target and access(path, mode))
        before = layer_operator.cache_info()
        code, out, err = run(capsys, ["sweep-chi", "-M", "13", "--output", target])
        assert (code, out) == (1, "")
        assert err == f"error: cannot write output file {target!r}: it is not writable\n"
        assert layer_operator.cache_info() == before
        with open(target, encoding="utf-8") as handle:
            assert handle.read() == "kept"

    def test_bad_kmax(self, capsys):
        assert run(capsys, ["table2", "--kmax", "9"])[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["temperature-jump", "-M", "7", "--kn", "nan"],
            ["temperature-jump", "-M", "7", "--kn", "inf"],
            ["temperature-jump", "-M", "7", "--pr", "nan"],
            ["temperature-jump", "-M", "7", "--flux", "inf"],
            ["temperature-jump", "-M", "7", "--wall-temp", "nan"],
            ["sweep-chi", "-M", "7", "--kn", "nan"],
            ["kramers", "-M", "8", "--kn", "inf"],
            ["kramers", "-M", "8", "--pr", "nan"],
            ["kramers", "-M", "8", "--wall-velocity=-inf"],
            ["profile", "-M", "7", "--ymax", "nan"],
            ["profile", "-M", "8", "--ymin=-inf", "--spacing", "linear"],
            # a subnormal Kn keeps too few digits for the coefficient it scales
            ["temperature-jump", "-M", "5", "--kn", "1e-320"],
            ["sweep-chi", "-M", "9", "--kn", "1e-320"],
            ["kramers", "-M", "6", "--kn", "1e-315"],
            # odd orders never read --pr, but it is checked all the same
            ["dump-system", "-M", "5", "--pr", "nan"],
            ["dump-system", "-M", "5", "--pr", "inf"],
            ["dump-system", "-M", "5", "--pr=-1"],
            ["dump-system", "-M", "8", "--pr", "nan"],
        ],
    )
    def test_non_finite_input_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("pr", ["1e300", "1e13", "inf"])
    @pytest.mark.parametrize(
        "command",
        [["temperature-jump", "-M", "9"], ["kramers", "-M", "8"], ["sweep-chi", "-M", "9"],
         ["sweep-chi", "-M", "8"], ["profile", "-M", "9"], ["profile", "-M", "8"],
         ["dump-system", "-M", "9"], ["dump-system", "-M", "8"]],
    )
    def test_one_prandtl_domain(self, capsys, command, pr):
        # odd orders never read Pr, but both parities share one domain and one message
        code, out, err = run(capsys, [*command, "--pr", pr])
        assert code == 1
        assert out == ""
        assert err == ("error: Prandtl number must be finite and positive, not subnormal and at "
                       f"most 1e+12, got {float(pr)}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["temperature-jump", "-M", "9", "--chi", "1e-310"],
            ["kramers", "-M", "8", "--chi", "1e-320"],
            ["profile", "-M", "9", "--chi", "1e-320", "--samples", "3"],
            ["sweep-chi", "-M", "9", "--spacing", "geometric", "--chi-min", "1e-320"],
            # the wall solve stays finite, but the jump coefficient overflows
            ["temperature-jump", "-M", "9", "--chi", "1e-308"],
            ["sweep-chi", "-M", "9", "--chi-min", "1e-308", "--samples", "3"],
            ["profile", "-M", "9", "--chi", "1e-308", "--samples", "3"],
            # b(chi) underflows to zero
            ["temperature-jump", "-M", "9", "--chi", "5e-324"],
            ["sweep-chi", "-M", "8", "--chi-min", "5e-324", "--samples", "3"],
        ],
    )
    def test_subnormal_chi_is_rejected(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "not finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-chi", "-M", "9", "--samples", "2", "--chi", "5"],
            ["sweep-chi", "-M", "9", "--samples", "2", "--flux", "nan"],
        ],
    )
    def test_sweep_rejects_single_solve_options(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("order", ["9", "8"])
    def test_negative_ymin_is_usage_error(self, capsys, order):
        argv = ["profile", "-M", order, "--ymin", "-5", "--spacing", "linear"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: ymin (-5) must be >= 0: y is the distance from the wall\n"
        code, out, _ = run(capsys, [*argv[:4], "0", *argv[5:], "--samples", "3"])
        assert code == 0
        assert [line.split()[0] for line in out.splitlines() if not line.startswith("#")][0] == "0"

    @pytest.mark.parametrize("samples", [10**12, MAX_SAMPLES + 1])
    @pytest.mark.parametrize("command", [["sweep-chi", "-M", "9"], ["profile", "-M", "9"]])
    def test_samples_above_limit_is_usage_error(self, capsys, command, samples):
        code, out, err = run(capsys, [*command, "--samples", str(samples)])
        assert code == 1
        assert out == ""
        assert err == f"error: samples must lie in [2, {MAX_SAMPLES}]\n"

    @pytest.mark.parametrize("fmt", ["columnar-text", "structured-json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-chi", "-M", "13", "--chi-min", "0.9999999999999996", "--chi-max", "1",
              "--samples", "6", "--spacing", "linear"],
             "chi range [0.9999999999999996, 1.0] is too narrow for --samples 6"),
            (["profile", "-M", "13", "--ymin", "5", "--ymax", "5.000000000000001",
              "--samples", "4", "--spacing", "linear"],
             "y range [5.0, 5.000000000000001] is too narrow for --samples 4"),
        ],
    )
    def test_repeated_sample_points_are_usage_error(self, capsys, argv, message, fmt):
        # the range holds fewer distinct doubles than --samples at this spacing
        code, out, err = run(capsys, [*argv, "--format", fmt])
        assert code == 1
        assert out == ""
        assert err == f"error: {message}: linear spacing repeats points\n"
        # the two ends alone are distinct, and the command runs
        code, out, _ = run(capsys, [*argv[:-3], "2", *argv[-2:], "--format", fmt])
        assert code == 0 and out


class TestImportBoundary:
    @staticmethod
    def last_line(script):
        """Last stdout line of ``script`` run in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(knlayer.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_solve_and_verify_commands_never_load_scipy(self):
        script = """
import contextlib, io, json, sys
import knlayer, knlayer.cli
for argv in (
    ["sweep-chi", "-M", "33", "--samples", "5"],
    ["sweep-chi", "-M", "32", "--samples", "5"],
    ["temperature-jump", "-M", "13", "--chi", "0.5"],
    ["kramers", "-M", "12", "--chi", "0.8"],
    ["profile", "-M", "7", "--samples", "20"],
    ["profile", "-M", "8", "--samples", "20"],
    ["table1"],
    ["verify", "--level", "quick"],
):
    # no solve loads the oracles; verify, which does, runs last
    assert "knlayer.verification" not in sys.modules, argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert knlayer.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
        assert json.loads(self.last_line(script)) == []

    def test_text_sweep_never_loads_json(self):
        script = """
import contextlib, io, sys
import knlayer.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert knlayer.cli.main(["sweep-chi", "-M", "33", "--samples", "5"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "json"))
"""
        assert self.last_line(script) == "[]"


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--level", "quick"])
        assert code == 0
        assert "OK" in out
        assert "FAIL" not in out

    def test_structured_json(self, capsys):
        code, out, _ = run(capsys, ["verify", "--format", "structured-json"])
        assert code == 0
        record = json.loads(out)
        assert record["level"] == "quick"
        assert record["passed"] is True
        assert record["seconds"] > 0.0
        assert record["checks"]
        for check in record["checks"]:
            assert set(check) == {"name", "passed", "residual", "tolerance", "detail"}
            assert check["passed"] is True
            if "negative definite" in check["name"]:  # the Pr set of the even orders
                assert check["detail"].endswith("; even orders at Pr 0.666667, 1"), check
        names = [suite["name"] for suite in record["suites"]]
        assert names == ["half_space", "systems", "spectral", "definiteness", "bvp"]
        seconds = [suite["seconds"] for suite in record["suites"]]
        assert all(s >= 0.0 for s in seconds)
        assert sum(seconds) <= record["seconds"]

    def test_full_passes_within_budget(self, full_verification):
        assert full_verification.code == 0
        assert full_verification.record["passed"] is True
        failed = [c["name"] for c in full_verification.record["checks"] if not c["passed"]]
        assert not failed
        # bounded by the summed runtime budgets of the acceptance criteria
        elapsed = full_verification.seconds
        assert elapsed < 65.0, f"full verification took {elapsed:.1f} s"

    def test_fault_injection_detected(self, capsys, monkeypatch):
        true_fn = knlayer.verification.half_space_S_normalized

        def corrupted(alpha, beta):
            if (alpha, beta) == (2, 4) or (alpha, beta) == (4, 2):
                return true_fn(alpha, beta) + 1e-5
            return true_fn(alpha, beta)

        monkeypatch.setattr(knlayer.verification, "half_space_S_normalized", corrupted)
        code, out, _ = run(capsys, ["verify", "--level", "quick"])
        assert code == 2
        assert "FAIL" in out

        # The table the wall assemblies and the BVP oracle both read, with
        # S(2, 4) scaled by 1.001: only the half-space suite can see it.
        monkeypatch.undo()
        true_block = HalfSpaceTable._even_block

        def corrupted(z_even):
            block = true_block(z_even)
            if block.shape[0] > 2:
                block[1, 2] *= 1.001
                block[2, 1] *= 1.001
            return block

        monkeypatch.setattr(HalfSpaceTable, "_even_block", staticmethod(corrupted))
        layer_operator.cache_clear()
        try:
            code, out, _ = run(capsys, ["verify", "--level", "quick"])
        finally:
            layer_operator.cache_clear()  # no operator built on the corrupted table survives
        assert code == 2
        assert "FAIL half-space closed form vs quadrature (relative)" in out

    def test_zero_pattern_covers_odd_first_pairs(self, capsys, monkeypatch):
        # S(31, 40) lies past the quadrature range, so only the exact zero
        # pattern sees it; it is corrupted symmetrically, so the symmetry
        # check cannot.
        true_fn = knlayer.verification.half_space_S_normalized

        def corrupted(alpha, beta):
            if {alpha, beta} == {31, 40}:
                return 1e-3
            return true_fn(alpha, beta)

        monkeypatch.setattr(knlayer.verification, "half_space_S_normalized", corrupted)
        code, out, _ = run(capsys, ["verify", "--level", "quick"])
        assert code == 2
        assert "FAIL half-space exact zero pattern" in out
        assert "FAIL half-space exact symmetry" not in out

    @pytest.mark.parametrize(
        "rate_sign, vector_scale",
        [(-1.0, 1.0), (1.0, 1.0 + 1e-6)],  # a negated rate; E^T E off I/2 by 1e-6
    )
    def test_all_chi_certificate_fault_injection(
        self, capsys, monkeypatch, rate_sign, vector_scale
    ):
        import knlayer.verification as verification

        true_parts = verification._problem_parts

        def corrupted(order, pr=1.0):
            system, eigen = true_parts(order, pr)
            rates = eigen.rates.copy()
            rates[-1] *= rate_sign
            even = eigen.even_vectors * vector_scale
            return system, ParityEigen(rates, even)

        # the BVP oracle reads the same parts and cannot converge on a negated rate
        # (test_verification.py::TestBvpDomain::test_negated_rate_does_not_converge)
        monkeypatch.setattr(verification, "_problem_parts", corrupted)
        monkeypatch.setattr(
            verification, "VERIFICATION_SUITES", (("definiteness", verification._check_definiteness),)
        )
        code, out, _ = run(capsys, ["verify", "--level", "quick"])
        assert code == 2
        assert "FAIL wall operator negative definite for every chi" in out

    def test_wall_indefinite_only_off_unit_prandtl_detected(self, capsys, monkeypatch):
        # the last diagonal entry of the Kramers T flipped positive at every
        # Pr but 1: only a definiteness check run off Pr = 1 can see it
        from knlayer import boundary_solver
        from knlayer.boundary_solver import WallBoundarySystem

        true_builder = boundary_solver.kramers_boundary_system

        def indefinite(order, prandtl):
            system = true_builder(order, prandtl)
            if prandtl == 1.0:
                return system
            t = system.scaled_matrix.copy()
            t[-1, -1] = abs(t[-1, -1])
            return WallBoundarySystem(order, t, system.c_vec)

        monkeypatch.setattr(boundary_solver, "kramers_boundary_system", indefinite)
        layer_operator.cache_clear()
        try:
            code, out, _ = run(capsys, ["verify", "--level", "quick"])
        finally:
            layer_operator.cache_clear()  # no operator built on the mutated wall survives
        assert code == 2
        assert "FAIL boundary operators negative definite" in out
        assert "FAIL wall operator negative definite for every chi" in out

    def test_full_definiteness_covers_the_prandtl_domain(self, full_verification):
        details = {c["name"]: c["detail"] for c in full_verification.record["checks"]}
        assert details["wall operator negative definite for every chi"].endswith(
            "; even orders at Pr 0.001, 0.666667, 1, 1e+06, 1e+12")

    @pytest.mark.parametrize("level, nodes", [("quick", 40), ("full", 60)])
    def test_quadrature_self_check_is_numerical_failure(self, capsys, monkeypatch, level, nodes):
        # too few nodes for the window: the rule and the one with 1.5 times as
        # many disagree (40 nodes by 7e-10 at orders <= 12, 60 by 6e-7 at <= 30)
        import knlayer.verification as verification

        monkeypatch.setattr(verification, "QUADRATURE_NODES", nodes)
        monkeypatch.setattr(
            verification, "VERIFICATION_SUITES", (("half_space", verification._check_half_space),)
        )
        code, out, err = run(capsys, ["verify", "--level", level])
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: Gauss-Legendre rules of ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_bvp_failure_is_numerical_failure(self, capsys, monkeypatch):
        import knlayer.verification as verification

        def diverged(*args, **kwargs):
            raise verification.BvpConvergenceError("finite-difference residual above tolerance")

        monkeypatch.setattr(verification, "bvp_profile", diverged)
        code, out, err = run(capsys, ["verify", "--level", "quick"])
        assert code == 3
        assert out == ""
        assert "numerical failure" in err
