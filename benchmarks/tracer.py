"""Span tracing of the package's layers, recorded from the benchmark's side.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper that records one span per call: the function's name, its start and
end on ``time.perf_counter``, the span that was open when it was called, and
the benchmark operation it belongs to.  Modules that import a function by
name (``metrics`` imports ``apply`` and ``require_valid``, ``optimizer``
imports ``require_valid`` and scipy's ``minimize``) hold their own binding,
so every binding in the package that refers to a wrapped function is
replaced, not just the defining one.  Spans stay in memory until the run
ends; ``layer_totals`` derives call counts and self time from them.

A function listed here that the loaded package no longer has is skipped and
reported in ``Tracer.missing``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (layer, module, public functions).  A span's self time is its duration
#: minus the time of the spans it directly encloses.
LAYERS = (
    ("qlinalg", "qdelete.qlinalg", (
        "joint_index", "basis_state", "tensor3", "norm_sq", "partial_trace_mode1",
        "partial_trace_mode2", "hs_distance_sq", "expectation",
    )),
    ("machine.validate", "qdelete.machine", ("validate", "require_valid")),
    ("machine.apply", "qdelete.machine", ("apply", "apply_basis")),
    ("machine.io", "qdelete.machine", ("load", "from_dict", "to_dict", "save")),
    ("metrics.oracle", "qdelete.metrics", (
        "fidelity_direct", "distortion_direct", "avg_fidelity_quadrature",
        "fidelity_curve", "distortion_curve",
    )),
    ("metrics.closed", "qdelete.metrics", (
        "input_state", "mode1_state_closed", "mode2_state_closed", "distortion_coefficients",
        "distortion_closed", "avg_distortion", "distortion_quadrature_levels",
        "avg_distortion_quadrature", "fidelity_deficit", "fidelity_deficits", "avg_fidelity",
        "fidelity_closed", "avg_fidelity_closed_quadrature", "case4_metrics",
    )),
    ("optimizer.decode", "qdelete.optimizer", ("decode",)),
    ("optimizer.evaluate", "qdelete.optimizer", ("evaluate",)),
    ("optimizer.optimize", "qdelete.optimizer", ("optimize", "encode")),
    ("optimizer.nm", "qdelete.optimizer", ("minimize",)),
    ("cli", "qdelete.cli", ("main",)),
)

#: Layer of the objective callback that scipy's minimize calls back into;
#: its spans are children of the minimize span, so the Nelder-Mead layer's
#: self time excludes them.
OBJECTIVE_LAYER = "optimizer.objective"


def _oracle_points(module, name):
    """Grid points an oracle call simulates, counted from its arguments."""
    if name in ("fidelity_curve", "distortion_curve"):
        return lambda args, kwargs: int(np.size(args[1] if len(args) > 1 else kwargs["alpha_sq_grid"]))
    if name == "avg_fidelity_quadrature":
        nodes = getattr(module, "QUAD_ORDER", 64) + getattr(module, "QUAD_ORDER_REFINED", 128)
        return lambda args, kwargs: nodes
    return lambda args, kwargs: 1


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Benchmark operation that new spans belong to.
        self.op_id = -1
        #: (layer, exception class name) -> calls that raised it.
        self.errors: Counter = Counter()
        #: layer -> grid points simulated (oracle layer only).
        self.points: Counter = Counter()
        #: Operations in which a validation found an invalid machine.
        self.invalid_ops: set[int] = set()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def _id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, layer: str, fn, points=None, flags_invalid=False):
        """Return ``fn`` wrapped so that every call records a span of ``layer``."""
        lid = self._id(layer)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer_id.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            if points is not None:
                self.points[layer] += points(args, kwargs)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(layer, type(exc).__name__)] += 1
                if flags_invalid and type(exc).__name__ == "MachineValidationError":
                    self.invalid_ops.add(self.op_id)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if flags_invalid and getattr(result, "is_valid", True) is False:
                self.invalid_ops.add(self.op_id)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_minimize(self, fn):
        """Wrap scipy's minimize so that the objective it calls back is traced too."""

        def minimize(fun, *args, **kwargs):
            return fn(self.wrap(OBJECTIVE_LAYER, fun), *args, **kwargs)

        return self.wrap("optimizer.nm", minimize)

    def install(self) -> None:
        """Wrap every listed function of the loaded package modules."""
        wrappers = {}
        for layer, module_name, names in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{name}")
                elif name == "minimize":
                    wrappers[id(fn)] = (fn, self._wrap_minimize(fn))
                elif layer == "metrics.oracle":
                    wrappers[id(fn)] = (fn, self.wrap(layer, fn, _oracle_points(module, name)))
                else:
                    wrappers[id(fn)] = (fn, self.wrap(layer, fn, flags_invalid=layer == "machine.validate"))
        bound = [
            module for module_name, module in list(sys.modules.items())
            if module is not None
            and (module_name == "qdelete" or module_name.startswith("qdelete.")
                 or module_name == "scipy.optimize")
        ]
        for module in bound:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self time in seconds) over all recorded spans."""
        if not self.start:
            return {}
        layer_id = np.frombuffer(self.layer_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        enclosed = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(enclosed, parent[has_parent], duration[has_parent])
        self_time = duration - enclosed
        calls = np.bincount(layer_id, minlength=len(self.layers))
        busy = np.bincount(layer_id, weights=self_time, minlength=len(self.layers))
        return {layer: (int(calls[i]), float(busy[i])) for i, layer in enumerate(self.layers)}
