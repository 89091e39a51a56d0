"""One pass of a workload in a fresh interpreter: ``python3 child.py <spawn-time>``.

Reads the job (JSON) from stdin, drives ``knlayer.cli.main(argv)`` in-process
with stdout captured in memory, checks every output, and writes one JSON
report to stdout.  A job without requests only measures set-up.

Set-up time runs from the parent's ``time.perf_counter()`` just before it
started this interpreter to the moment ``knlayer.cli`` is imported; both
read the system-wide monotonic clock.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import knlayer.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import LAYERS, Tracer, layer_summary  # noqa: E402
from workloads import CheckFailure, check_output, compare_reference  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    """High-water RSS of this process image, from VmHWM (reset at exec)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            config = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[name] = f"{config.get('name')} {config.get('version')}"
        except (TypeError, KeyError):
            blas[name] = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_request(tracer: Tracer, index: int, argv: list[str]) -> tuple[int, str, bool, str]:
    """Issue one request; return (exit code, stdout, pole warned, stderr)."""
    tracer.request = index
    out, err = io.StringIO(), io.StringIO()
    span = tracer.begin("cli.main")
    rc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = knlayer.cli.main(argv)
    except Exception as exc:  # a crash is a failed request, not a failed run
        err.write(f"{type(exc).__name__}: {exc}")
    text = out.getvalue()
    out.close()
    tracer.end(span, len(text))
    warned = any("effective conductivity pole" in str(w.message) for w in caught)
    return rc, text, warned, err.getvalue()


def main() -> int:
    spawned = float(sys.argv[1])
    job = json.load(sys.stdin)
    report = {"setup_s": READY - spawned}
    if not os.path.abspath(knlayer.cli.__file__).startswith(SRC + os.sep):
        print(f"knlayer imported from {knlayer.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    if any(os.environ.get(var) != "1" for var in THREAD_VARS):
        print("BLAS thread count is not pinned to 1", file=sys.stderr)
        return 1
    requests = job["requests"]
    if not requests:
        print(json.dumps(report))
        return 0

    workload = job["workload"]
    # Untraced passes still count decompositions: the cold-start guard.
    layers = LAYERS if job["trace"] else {k: LAYERS[k] for k in ("parity_spectral.decompose",)}
    tracer = Tracer(layers)
    tracer.install()
    digests, failures, kept = [], [], []
    try:
        start = time.perf_counter()
        for index, argv in enumerate(requests):
            rc, text, warned, err = run_request(tracer, index, argv)
            span = tracer.begin("bench.check")
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            try:
                if rc != 0:
                    raise CheckFailure(f"exit code {rc}: {err.strip()[:300]}")
                kept.append(check_output(workload, argv, text, warned))
            except CheckFailure as exc:
                failures.append({"request": index, "reason": str(exc)})
                kept.append(None)
            del text  # so one output is not still held while the next request runs
            tracer.end(span)
        elapsed = time.perf_counter() - start
    finally:
        tracer.restore()

    reference = job.get("reference")
    if reference is not None and len(reference) != len(kept):
        failures.append({"request": 0, "reason": f"reference.json holds {len(reference)} "
                         f"requests, the workload issues {len(kept)}"})
    elif reference is not None:
        for index, (values, ref) in enumerate(zip(kept, reference)):
            if values is None:
                continue
            try:
                compare_reference(values, ref)
            except CheckFailure as exc:
                failures.append({"request": index, "reason": f"reference: {exc}"})
    summary = layer_summary(tracer.spans)
    report.update({
        "time_to_solution_s": elapsed,
        "peak_rss_mb": peak_rss_mb(),
        "digests": digests,
        "failures": failures,
        "layers": summary,
        "environment": environment(),
    })
    if job["trace"]:
        report["spans"] = tracer.spans
    if job.get("keep_values"):
        report["values"] = kept
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
