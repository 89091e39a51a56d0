"""Record the reference values of every workload at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json from one cold pass per workload.  Later runs
on the default seed compare every kept output value against it (see
``workloads.compare_reference``).  Re-record only when an output is meant
to change, and say so in the change that does it.
"""

import json

from run import HERE, spawn
from workloads import DEFAULT_SEED, WORKLOADS, make_requests


def main() -> None:
    reference = {}
    for workload in WORKLOADS:
        report = spawn({"workload": workload, "requests": make_requests(workload, DEFAULT_SEED),
                        "trace": False, "keep_values": True})
        if report["failures"]:
            raise SystemExit(f"{workload}: {report['failures']}")
        reference[workload] = report["values"]
    (HERE / "reference.json").write_text(json.dumps(reference) + "\n")


if __name__ == "__main__":
    main()
