"""Spans around the calls into each knlayer layer, recorded from outside the library.

``Tracer.install`` replaces a public function under every name any loaded
``knlayer`` module holds it by (``knlayer.layer_profiles.decompose`` as well
as ``knlayer.parity_spectral.decompose``), or a method on its class, with a
wrapper that records one span per call.  ``Tracer.restore`` puts every
original back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> (module, public name) of the calls that make up that layer.  A
# dotted name is a method, or ``__init__`` for a constructor.
LAYERS = {
    "system_builder.build": [("system_builder", "build_temperature_system"),
                             ("system_builder", "build_kramers_system")],
    "special_functions.table": [("special_functions", "HalfSpaceTable.__init__")],
    "parity_spectral.decompose": [("parity_spectral", "decompose")],
    "boundary_solver.assembly": [("boundary_solver", "temperature_boundary_system"),
                                 ("boundary_solver", "kramers_boundary_system")],
    "boundary_solver.solve": [("boundary_solver", "solve_wall")],
    "layer_profiles.solution": [("layer_profiles", "temperature_solution"),
                                ("layer_profiles", "velocity_solution")],
    "layer_profiles.eval": [("layer_profiles", name) for name in (
        "jump_coefficient", "viscous_slip_coefficient", "temperature_defect", "defect_slope",
        "normalized_temperature", "effective_conductivity",
        "TemperatureLayerSolution.temperature", "VelocityLayerSolution.velocity")],
}


def _eval_points(args, result) -> int:
    """Grid points times modes of a profile evaluation; a coefficient counts 1."""
    if len(args) < 2:
        return 1
    import numpy as np

    return int(np.size(args[1])) * int(np.size(args[0].decay_rates))


def _table_bytes(args, result) -> int:
    table = args[0]
    return int(table.s_normalized.nbytes + table.s_values.nbytes)


# Layer -> what a span of it counts besides its call.
AMOUNTS = {"layer_profiles.eval": _eval_points, "special_functions.table": _table_bytes}


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "request": self.request, "amount": None})
        self._stack.append(index)
        return index

    def end(self, index: int, amount=None) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self.spans[index]["amount"] = amount
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        measure = AMOUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(layer)
            amount = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    amount = measure(args, result)
                return result
            finally:
                self.end(index, amount)

        return traced

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "knlayer" or name.startswith("knlayer.")]
        for layer, targets in self.layers.items():
            for module_name, qualname in targets:
                owner = sys.modules[f"knlayer.{module_name}"]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                if path:  # a method: one class attribute serves every caller
                    self._set(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    covered = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, intervals in zip(spans, covered):
        busy, reach = 0.0, span["start"]
        for start, end in sorted(intervals):
            start = max(start, reach)
            if end > start:
                busy += end - start
                reach = end
        out.append(span["end"] - span["start"] - busy)
    return out


def layer_summary(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy time of its outermost spans, self time, amount."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "amount": 0})
        entry["calls"] += 1
        entry["self_s"] += own[i]
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != span["name"]:
            parent = spans[parent]["parent"]
        if parent is None:  # not nested in a span of the same layer
            entry["busy_s"] += span["end"] - span["start"]
            entry["amount"] += span["amount"] or 0
    return out
