"""Session fixtures shared across test modules."""

import json
import time
from dataclasses import dataclass

import pytest

from knlayer import cli


@dataclass(frozen=True)
class VerifyRun:
    """One ``verify --level full`` run: exit code, wall seconds, JSON record."""

    code: int
    seconds: float
    record: dict

    def residual(self, name: str) -> float:
        """The residual of the check named ``name``; a missing check is a KeyError."""
        return {check["name"]: check["residual"] for check in self.record["checks"]}[name]


@pytest.fixture(scope="session")
def full_verification(tmp_path_factory):
    """The full oracle suites, run once per session and timed.

    The dense Jacobi spectra are the slowest oracle (about 9 of the run's
    10 s on 2 vCPU, eigenvalues only); the budget test and the acceptance
    criteria that cover the same cases (the spectra, and the half-space
    quadrature) read their residuals from this one run, each against its
    own bound.
    """
    path = tmp_path_factory.mktemp("verify") / "full.json"
    start = time.perf_counter()
    code = cli.main(
        ["verify", "--level", "full", "--format", "structured-json", "--output", str(path)]
    )
    seconds = time.perf_counter() - start
    return VerifyRun(code, seconds, json.loads(path.read_text(encoding="utf-8")))
