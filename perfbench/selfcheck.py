"""Quick self-check of the benchmark: one reduced-size traced run per workload.

    python3 perfbench/selfcheck.py

Fails (exit 1) when
- a metric BENCHMARK.json names is not printed, or is printed with another unit;
- a request fails, or a run finds a warm cache or outputs that differ between passes;
- a layer sees another number of calls than the workload definition predicts
  (ladder: 21 solutions, 21 assemblies, 3 decompositions);
- a traced output differs from the untraced output of the same requests.

Reports without failing: each layer's share of the traced time to solution
against the share measured when the benchmark was defined (full size, single
thread BLAS, 2 cores), and whether the layer predicted to dominate does.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, UNITS, benchmark
from workloads import DEFAULT_SEED, WORKLOADS, expected_counts

# Self-time shares of traced time to solution measured when the benchmark was
# defined; the first layer of each workload is the one predicted to dominate.
PREDICTED_SHARES = {
    "ladder": {"parity_spectral.decompose": 0.93},
    "chi-sweep": {"boundary_solver.assembly": 0.88, "parity_spectral.decompose": 0.05},
    "slip-sweep": {"parity_spectral.decompose": 0.54, "boundary_solver.solve": 0.33,
                   "boundary_solver.assembly": 0.11},
    "profile": {"cli.main": 0.82, "layer_profiles.eval": 0.09, "parity_spectral.decompose": 0.08},
}


def share_report(workload: str, shares: dict[str, float]) -> list[str]:
    lines = []
    predicted = PREDICTED_SHARES[workload]
    for layer, expect in predicted.items():
        got = shares.get(layer, 0.0)
        rough = abs(got - expect) <= 0.1 + 0.25 * expect
        lines.append(f"  {layer}: {got:.1%} (predicted {expect:.0%})" + ("" if rough else "  MISMATCH"))
    lines.append(f"  bench.check (output parsing and checks): {shares.get('bench.check', 0.0):.1%}")
    dominant = max((k for k in shares if k != "bench.check"), key=shares.get)
    if dominant != next(iter(predicted)):
        lines.append(f"  MISMATCH: {dominant} dominates, predicted {next(iter(predicted))}")
    return lines


def check(workload: str, spec: dict) -> list[str]:
    """Problems found in one reduced traced run of ``workload``."""
    record = benchmark(workload, DEFAULT_SEED, 0.0, trace=True, size="reduced")
    problems = list(record["problems"]) + [f"request {f['request']}: {f['reason']}"
                                          for f in record["failures"]]
    printed = {
        **{name: {"value": v, "unit": UNITS[name]} for name, v in record["end_to_end"].items()},
        **record["result"]["metrics"],
    }
    for metric in spec["end_to_end"] + spec["per_layer"]:
        got = printed.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} [{metric['unit']}] printed as {got}")
    expected = expected_counts(workload, record["requests"])
    layers = record["per_layer"]
    for key, metric in (("decompose", "parity_spectral.decompose_calls"),
                        ("solutions", "layer_profiles.solutions"),
                        ("assembly", "boundary_solver.assembly_calls"),
                        ("requests", "cli.requests")):
        if layers[metric] != expected[key]:
            problems.append(f"{metric} = {layers[metric]}, predicted {expected[key]}")
    print(f"{workload}: {len(record['passes'])} passes, "
          + ", ".join(f"{k} = {v:.4g}" for k, v in record["end_to_end"].items()))
    for line in share_report(workload, record["shares"]):
        print(line)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS):
        print(f"BENCHMARK.json names workloads {names}; run.py defines {list(WORKLOADS)}")
        return 1
    problems = []
    for workload in WORKLOADS:
        problems += [f"{workload}: {p}" for p in check(workload, spec)]
    for problem in problems:
        print("FAIL " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
