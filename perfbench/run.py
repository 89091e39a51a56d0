"""knlayer benchmark: time the public CLI on seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a knlayer checkout.  Load shape: a closed loop with one
client; requests go back to back from one single-threaded process.  Each pass
over a workload's requests runs in a fresh interpreter (``child.py``), so the
library's caches start cold as they do for a real ``knlayer`` invocation,
with OPENBLAS/OMP/MKL threads pinned to 1.  Passes repeat until the next one
would overrun ``--seconds`` (at least one, or one untraced and one traced
pair with ``--trace 1``), and each metric is the median over the passes.
Set-up time is the median over at least five interpreters: the passes, and
more that only import ``knlayer.cli`` when there are fewer passes.

With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of BENCHMARK.json, taken from traced passes, plus the
tracing overhead against the untraced passes of the same run.  The last line
of stdout is the JSON result; the full record (environment, output digests,
spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, expected_counts, make_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Layers reported as <layer>_s (busy time) and <layer>_calls.
TIMED_LAYERS = ("parity_spectral.decompose", "boundary_solver.assembly", "boundary_solver.solve",
                "special_functions.table", "system_builder.build")
UNITS = {
    "time_to_solution_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    **{f"{layer}_s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}_calls": "count" for layer in TIMED_LAYERS},
    "special_functions.table_mb": "MB",
    "layer_profiles.solutions": "count", "layer_profiles.solution_self_s": "s",
    "layer_profiles.parts_reuse": "ratio", "layer_profiles.eval_s": "s",
    "layer_profiles.eval_points": "count",
    "cli.self_s": "s", "cli.requests": "count", "cli.output_mb": "MB",
    "bench.check_s": "s", "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(job: dict) -> dict:
    """Run one child interpreter on ``job`` and return its report."""
    env = {**os.environ, **THREAD_PIN}
    env.pop("PYTHONPATH", None)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawned)],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - spawned
    return report


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "reference.json").read_text())[workload]


def run_passes(workload: str, requests, seconds: float, trace: bool, reference) -> list[dict]:
    """Untraced passes (alternating with traced ones when ``trace``) within ``seconds``."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn({"workload": workload, "requests": requests,
                             "trace": traced, "reference": reference}))
        estimate = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if trace else 1) and time.perf_counter() + estimate > deadline:
            return passes


def verify_passes(workload: str, requests, passes) -> list[str]:
    """Run-level problems: a warm cache, or outputs that differ between passes."""
    problems = []
    expected = expected_counts(workload, requests)["decompose"]
    for i, p in enumerate(passes):
        got = p["layers"].get("parity_spectral.decompose", {}).get("calls", 0)
        if got != expected:
            problems.append(f"pass {i}: {got} decompositions, a cold pass makes {expected}")
        if p["digests"] != passes[0]["digests"]:
            problems.append(f"pass {i}: output differs from pass 0")
    return problems


def pass_layer_metrics(layers: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its ``layer_summary``."""
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = get(layer, "busy_s")
        out[f"{layer}_calls"] = get(layer, "calls")
    solutions = get("layer_profiles.solution", "calls")
    out["special_functions.table_mb"] = get("special_functions.table", "amount") / 1e6
    out["layer_profiles.solutions"] = solutions
    out["layer_profiles.solution_self_s"] = get("layer_profiles.solution", "self_s")
    out["layer_profiles.parts_reuse"] = (
        1.0 - get("parity_spectral.decompose", "calls") / solutions if solutions else 0.0)
    out["layer_profiles.eval_s"] = get("layer_profiles.eval", "busy_s")
    out["layer_profiles.eval_points"] = get("layer_profiles.eval", "amount")
    out["cli.self_s"] = get("cli.main", "self_s")
    out["cli.requests"] = get("cli.main", "calls")
    out["cli.output_mb"] = get("cli.main", "amount") / 1e6
    out["bench.check_s"] = get("bench.check", "busy_s")
    return out


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the median over the traced passes."""
    per_pass = [pass_layer_metrics(p["layers"]) for p in passes if "spans" in p]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def shares(passes: list[dict]) -> dict[str, float]:
    """Self time of each layer as a share of time to solution, in the first traced pass."""
    traced = next(p for p in passes if "spans" in p)
    total = traced["time_to_solution_s"]
    return {layer: entry["self_s"] / total for layer, entry in traced["layers"].items()}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run the benchmark and return its full record; ``record["result"]`` is the result line."""
    if not (ROOT / "src" / "knlayer" / "cli.py").is_file():
        raise BenchError(f"no knlayer sources under {ROOT / 'src'}; run from a knlayer checkout")
    requests = make_requests(workload, seed, size)
    reference = load_reference(workload, seed) if size == "full" else None
    passes = run_passes(workload, requests, seconds, trace, reference)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:  # interpreters that only import knlayer.cli
        setups.append(spawn({"requests": []})["setup_s"])
    problems = verify_passes(workload, requests, passes)
    failed = sum(len({f["request"] for f in p["failures"]}) for p in passes)

    untraced = [p for p in passes if "spans" not in p]
    tts = statistics.median(p["time_to_solution_s"] for p in untraced)
    end_to_end = {
        "time_to_solution_s": tts,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "requests": requests,
        "environment": passes[0]["environment"],
        "digests": passes[0]["digests"],
        "problems": problems,
        "failures": [f for p in passes for f in p["failures"]],
        "setup_s": setups,
        "passes": [{key: p[key] for key in ("time_to_solution_s", "peak_rss_mb", "setup_s", "wall_s")}
                   | {"traced": "spans" in p} for p in passes],
        "end_to_end": end_to_end,
    }
    metrics = end_to_end
    if trace:
        traced_tts = statistics.median(p["time_to_solution_s"] for p in passes if "spans" in p)
        metrics = record["per_layer"] = {**layer_metrics(passes), "trace.overhead": traced_tts / tts - 1.0}
        record["shares"] = shares(passes)
        record["spans"] = next(p for p in passes if "spans" in p)["spans"]
    record["result"] = {
        "correct": failed == 0 and not problems,
        "attempted": len(requests) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, exit through the exception path, which kills a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed}: {len(record['passes'])} passes, "
          f"setup samples {len(record['setup_s'])}; cpu {env['cpu']!r}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']}")
    print("# output sha256: " + " ".join(d[:16] for d in record["digests"]))
    for line in record["problems"] + [f"failed request {f['request']}: {f['reason']}" for f in record["failures"]]:
        print("# " + line)
    if args.trace:
        print("# self-time shares of traced time to solution: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(record["shares"].items(), key=lambda kv: -kv[1])))
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
