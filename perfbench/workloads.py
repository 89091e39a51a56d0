"""Workload definitions: seeded request generation, predicted counts, output checks.

A workload turns a seed into a list of CLI argv lists.  The program under
test sees only those argv lists; the seed never reaches it.  Every output is
checked by the invariants below, and on the default seed also against the
reference values stored in ``reference.json``.

This module imports nothing from numpy at module level, so the parent
process that generates requests stays light; the checks run inside the
child interpreter, which has numpy loaded already.
"""

from __future__ import annotations

import io
import json
import math
import random

WORKLOADS = ("ladder", "chi-sweep", "slip-sweep", "profile")
DEFAULT_SEED = 0

# Table 2 of the paper, row k = 6: observed convergence order per chi.
PUBLISHED_BETA6 = {0.1: 0.984, 0.3: 0.995, 0.5: 1.006, 0.6: 1.012, 0.7: 1.018, 0.9: 1.029, 1.0: 1.036}
BETA6_TOL = 0.02
CHI_ZERO_LIMIT = 0.625 * math.sqrt(math.pi)  # 5 sqrt(pi) / 8
CHI_ZERO_TOL = 0.01
REFERENCE_RTOL = 1e-9
# Profile rows kept in the reference file: every PROFILE_STRIDE-th row plus the last.
PROFILE_STRIDE = 500

# Full-size parameters, and the reduced sizes of the self-check.  The
# reduced sizes keep each workload's layer shares: the ladder cannot shrink,
# slip-sweep is already short, and profile keeps its per-request shape.
SIZES = {
    "full": {"chi_samples": 400, "slip_samples": 400, "profile_requests": 12, "profile_samples": 50000},
    "reduced": {"chi_samples": 200, "slip_samples": 400, "profile_requests": 4, "profile_samples": 50000},
}


class CheckFailure(Exception):
    """An output broke one of the workload's invariants or its reference."""


def make_requests(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The argv lists one pass of ``workload`` issues, in order."""
    rng = random.Random(f"{workload}:{seed}")
    p = SIZES[size]
    if workload == "ladder":
        # Seed-independent: the paper's table.  JSON keeps every digit of beta.
        return [["table2", "--kmax", "6", "--format", "structured-json"]]
    if workload == "chi-sweep":
        chi_max = round(rng.uniform(0.5, 1.0), 6)
        spacing = rng.choice(("geometric", "linear"))
        return [["sweep-chi", "-M", "129", "--samples", str(p["chi_samples"]),
                 "--chi-min", "1e-3", "--chi-max", repr(chi_max), "--spacing", spacing]]
    if workload == "slip-sweep":
        pr = round(rng.uniform(0.5, 1.0), 6)
        chi_max = round(rng.uniform(0.5, 1.0), 6)
        return [["sweep-chi", "-M", "512", "--samples", str(p["slip_samples"]),
                 "--pr", repr(pr), "--chi-max", repr(chi_max)]]
    if workload == "profile":
        # The seed draws the orders and chi, but not the shape of a pass, on
        # which peak RSS depends: slots repeat (odd, text), (even, JSON),
        # (even, text), (odd, JSON), and the top orders 65 and 64 (the largest
        # evaluation arrays) always come last in their parity.
        half = p["profile_requests"] // 2
        odd = [65] + rng.sample(range(9, 65, 2), half - 1)
        even = [64] + rng.sample(range(8, 64, 2), half - 1)
        requests = []
        for i in range(2 * half):
            order = (odd if i % 4 in (0, 3) else even).pop()
            argv = ["profile", "-M", str(order), "--chi", repr(rng.randint(1, 1000) / 1000.0),
                    "--samples", str(p["profile_samples"])]
            if i % 2:
                argv += ["--format", "structured-json"]
            requests.append(argv)
        return requests
    raise ValueError(f"unknown workload {workload!r}")


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _problem_key(argv: list[str]):
    """Key of the parts cache a request lands in: (order, pr) for shear, order for heat."""
    order = int(_option(argv, "-M"))
    return (order, float(_option(argv, "--pr", "1.0"))) if order % 2 == 0 else order


def expected_counts(workload: str, requests: list[list[str]]) -> dict[str, int]:
    """Calls each layer must see in one cold pass over ``requests``."""
    if workload == "ladder":
        # table2 --kmax 6 solves 7 chi at each of the orders 129, 257, 513.
        return {"decompose": 3, "solutions": 21, "assembly": 21, "requests": 1}
    keys = {_problem_key(argv) for argv in requests}
    if workload == "profile":
        solutions = len(requests)
    else:
        solutions = sum(int(_option(argv, "--samples")) for argv in requests)
    return {"decompose": len(keys), "solutions": solutions, "assembly": solutions,
            "requests": len(requests)}


# ----------------------------------------------------------------------
# output parsing and invariants (run inside the child interpreter)


def _columnar(text: str):
    import numpy as np

    header = {}
    columns = None
    for line in io.StringIO(text):
        if not line.startswith("#"):
            break
        key, _, value = line[1:].rstrip("\n").partition("=")
        if line.startswith("# columns:"):
            columns = line.split(":", 1)[1].split()
        else:
            header[key.strip()] = value.strip()
    data = np.loadtxt(io.StringIO(text), comments="#", ndmin=2)
    if columns is None or data.shape[1] != len(columns):
        raise CheckFailure("columnar output lacks a matching column header")
    return header, {name: data[:, i] for i, name in enumerate(columns)}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _check_ladder(argv, text, warned):
    record = json.loads(text)
    (row,) = [r for r in record["rows"] if r["k"] == 6]
    for chi, beta in zip(record["chis"], row["orders"]):
        published = PUBLISHED_BETA6[chi]
        _require(math.isfinite(beta) and abs(beta - published) <= BETA6_TOL,
                 f"beta_6 at chi={chi} is {beta}, published {published}")
    return {"beta6": row["orders"]}


def _check_sweep(argv, text, warned):
    import numpy as np

    header, cols = _columnar(text)
    temperature = int(_option(argv, "-M")) % 2 == 1
    name = "jump_coefficient" if temperature else "slip_coefficient"
    _require(header.get("problem") == ("temperature" if temperature else "kramers"),
             "sweep reports the wrong problem")
    _require(len(cols["chi"]) == int(_option(argv, "--samples")), "wrong number of samples")
    _require(all(np.all(np.isfinite(c)) for c in cols.values()), "non-finite sweep value")
    chi, coef = cols["chi"], cols[name]
    _require(bool(np.all(np.diff(chi) > 0)), "chi is not increasing")
    _require(bool(np.all(coef > 0)), f"{name} is not positive")
    _require(bool(np.all(np.diff(coef) < 0)), f"{name} is not strictly decreasing in chi")
    if temperature:
        scaled = chi[0] / (2.0 - chi[0]) * coef[0]
        _require(abs(chi[0] - 1e-3) < 1e-15, "sweep does not start at chi = 1e-3")
        _require(abs(scaled / CHI_ZERO_LIMIT - 1.0) <= CHI_ZERO_TOL,
                 f"(chi/(2-chi)) zeta at chi=1e-3 is {scaled}, limit {CHI_ZERO_LIMIT}")
    return {key: values.tolist() for key, values in cols.items()}


def _check_profile(argv, text, warned):
    import numpy as np

    if "structured-json" in argv:
        record = json.loads(text)
        cols = {key: np.asarray(record["samples"][key], dtype=float) for key in record["columns"]}
        scalars = {key: record[key] for key in ("jump_coefficient", "slip_coefficient") if key in record}
        scalars["decay_rates"] = record["decay_rates"]
    else:
        header, cols = _columnar(text)
        scalars = {key: float(header[key]) for key in ("jump_coefficient", "slip_coefficient")
                   if key in header}
    samples = int(_option(argv, "--samples"))
    _require(all(len(c) == samples for c in cols.values()), "wrong number of profile rows")
    _require(bool(np.all(np.diff(cols["y"]) > 0)), "profile grid is not increasing")
    for key, values in cols.items():
        if key == "conductivity_ratio":
            _require(not np.any(np.isnan(values)), "NaN conductivity")
            # A pole (1 - defect slope <= 0) is documented: the library warns
            # and returns the raw reciprocal, which is infinite or negative.
            pole = ~np.isfinite(values) | (values <= 0)
            _require(not np.any(pole) or warned, "conductivity pole without its warning")
        else:
            _require(bool(np.all(np.isfinite(values))), f"non-finite {key}")
    for key, value in scalars.items():
        _require(bool(np.all(np.isfinite(value))), f"non-finite {key}")
    rows = list(range(0, samples, PROFILE_STRIDE)) + [samples - 1]
    return {**{key: values[rows].tolist() for key, values in cols.items()}, **scalars}


_CHECKS = {"ladder": _check_ladder, "chi-sweep": _check_sweep,
           "slip-sweep": _check_sweep, "profile": _check_profile}


def check_output(workload: str, argv: list[str], text: str, warned: bool) -> dict:
    """Check one request's output; return the values the reference file keeps."""
    try:
        return _CHECKS[workload](argv, text, warned)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise CheckFailure(f"malformed output: {exc!r}") from exc


def compare_reference(values: dict, reference: dict) -> None:
    """Every value within REFERENCE_RTOL of the reference.

    Entries below 1e-3 of their column's largest magnitude are compared
    against that floor, so far-field values near zero are not held to a
    relative tolerance below rounding.
    """
    import numpy as np

    _require(sorted(values) == sorted(reference), "output fields differ from the reference")
    for key, ref in reference.items():
        got = np.asarray(values[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        _require(got.shape == ref.shape, f"{key}: shape differs from the reference")
        finite = np.isfinite(ref)
        _require(bool(np.array_equal(got[~finite], ref[~finite])), f"{key}: non-finite entries moved")
        if not finite.any():
            continue
        floor = 1e-3 * float(np.max(np.abs(ref[finite])))
        err = np.abs(got[finite] - ref[finite])
        tol = REFERENCE_RTOL * np.maximum(np.abs(ref[finite]), floor)
        worst = int(np.argmax(err - tol))
        _require(bool(np.all(err <= tol)),
                 f"{key}: {float(got[finite][worst])!r} differs from the reference "
                 f"{float(ref[finite][worst])!r}")
