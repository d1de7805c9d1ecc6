"""Per-layer tracing from outside the package.

``Tracer.install`` wraps each layer's public functions and replaces every
attribute of every loaded ``lcutrunc`` module that refers to the original,
so calls that go through a name imported elsewhere (``report.single_step_error``,
``circuitmodel.operator_norm``, ``cli.parse_hamiltonian``) are seen too.

A spanned call records ``[name, start, end, parent]`` in memory.  Functions
called hundreds of thousands of times per pass are only counted; their time
stays in their caller's self time.  Work the tracer does for itself (reference
norms, recomputed bounds) sits in ``_probe`` spans, which are subtracted
from their parent's self time like any child.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SPANNED = {
    "hamiltonian": ("parse_hamiltonian",),
    "planner": ("greedy_plan", "epsilon_bound", "solve_t_root"),
    "report": ("generate_comparison_report", "serialize_report"),
    "densesim": (
        "hamiltonian_matrix",
        "exact_evolution",
        "truncated_series_operator",
        "amplification_polynomial",
        "operator_norm",
        "single_step_error",
        "multi_step_error",
    ),
    "circuitmodel": ("build_prepare", "build_select", "build_walk_operators", "verify_identities"),
    "cli": ("main",),
}
COUNTED = {"planner": ("insertion_gain", "s_value"), "densesim": ("pauli_string_matrix",)}
PROBE = "_probe"

# Every per-layer metric with its unit; all are reported on every workload, as
# zero where the layer does not run.  Values are per traced pass.
PER_LAYER = {
    "hamiltonian.parse_hamiltonian.self_s": "s",
    "hamiltonian.parse_hamiltonian.calls": "count",
    "hamiltonian.terms_parsed": "count",
    "planner.greedy_plan.self_s": "s",
    "planner.greedy_plan.calls": "count",
    "planner.greedy_steps": "count",
    "planner.insertion_gain.calls": "count",
    "planner.epsilon_bound.self_s": "s",
    "planner.epsilon_bound.calls": "count",
    "planner.s_value.calls": "count",
    "planner.solve_t_root.self_s": "s",
    "planner.bound_drift": "1",
    "report.generate_comparison_report.self_s": "s",
    "report.serialize_report.self_s": "s",
    "report.rows": "count",
    "densesim.hamiltonian_matrix.self_s": "s",
    "densesim.hamiltonian_matrix.calls": "count",
    "densesim.exact_evolution.self_s": "s",
    "densesim.exact_evolution.calls": "count",
    "densesim.truncated_series_operator.self_s": "s",
    "densesim.amplification_polynomial.self_s": "s",
    "densesim.operator_norm.self_s": "s",
    "densesim.operator_norm.calls": "count",
    "densesim.operator_norm.max_rel_err": "1",
    "densesim.pauli_string_matrix.calls": "count",
    "densesim.single_step_error.self_s": "s",
    "densesim.multi_step_error.self_s": "s",
    "densesim.matrix_bytes_computed": "bytes",
    "circuitmodel.build_prepare.self_s": "s",
    "circuitmodel.build_select.self_s": "s",
    "circuitmodel.build_walk_operators.self_s": "s",
    "circuitmodel.verify_identities.self_s": "s",
    "circuitmodel.total_dim": "count",
    "circuitmodel.dense_bytes_computed": "bytes",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.probe_s": "s",
}
# Maxima over calls rather than sums; not divided by the number of passes.
_MAXIMA = ("planner.bound_drift", "densesim.operator_norm.max_rel_err", "circuitmodel.total_dim")
_DENSESIM_MATRICES = ("hamiltonian_matrix", "exact_evolution", "truncated_series_operator", "amplification_polynomial")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # installation
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lcutrunc" or name.startswith("lcutrunc.")]
        for layer, names in (*SPANNED.items(), *COUNTED.items()):
            module = sys.modules[f"lcutrunc.{layer}"]
            for name in names:
                qualname = f"{layer}.{name}"
                original = getattr(module, name)
                self._originals[qualname] = original
                wrapper = self._counted(qualname, original) if name in COUNTED.get(layer, ()) else self._spanned(qualname, original)
                for target in modules:
                    for attribute, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, attribute, wrapper)
                            self._restore.append((target, attribute, original))

    def remove(self) -> None:
        for target, attribute, original in reversed(self._restore):
            setattr(target, attribute, original)
        self._restore.clear()

    def _counted(self, qualname, function):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            return function(*args, **kwargs)

        return wrapper

    def _spanned(self, qualname, function):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([qualname, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            self._observe(qualname, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def _probe(self):
        """Time the tracer's own work as a child span; calls it makes are not counted."""
        counts = dict(self.counts)
        index = len(self.spans)
        self.spans.append([PROBE, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.counts.clear()
            self.counts.update(counts)

    def _maximum(self, key: str, value: float) -> None:
        if abs(value) >= abs(self.values.get(key, 0.0)):
            self.values[key] = value

    # counters taken where the work happens
    def _observe(self, qualname, args, kwargs, result) -> None:
        layer, name = qualname.split(".")
        values = self.values
        if qualname == "hamiltonian.parse_hamiltonian":
            values["hamiltonian.terms_parsed"] += result.num_terms
        elif qualname == "planner.greedy_plan":
            values["planner.greedy_steps"] += len(result.steps)
            if result.steps:
                hamiltonian = args[0] if args else kwargs["hamiltonian"]
                with self._probe():
                    recomputed = self._originals["planner.epsilon_bound"](hamiltonian, result.final)
                self._maximum("planner.bound_drift", abs(result.steps[-1].epsilon_after - recomputed))
        elif qualname == "report.generate_comparison_report":
            values["report.rows"] += len(result)
        elif layer == "densesim" and name in _DENSESIM_MATRICES:
            values["densesim.matrix_bytes_computed"] += result.nbytes
        elif qualname == "densesim.operator_norm":
            with self._probe():
                reference = float(np.linalg.norm(args[0] if args else kwargs["matrix"], 2))
            if reference > 0:
                self._maximum("densesim.operator_norm.max_rel_err", abs(result - reference) / reference)
        elif qualname in ("circuitmodel.build_prepare", "circuitmodel.build_select"):
            values["circuitmodel.dense_bytes_computed"] += result.nbytes
            if name == "build_select":
                self._maximum("circuitmodel.total_dim", result.shape[0])
        elif qualname == "circuitmodel.build_walk_operators":
            values["circuitmodel.dense_bytes_computed"] += sum(matrix.nbytes for matrix in result)

    # results
    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Summed self time and call count per spanned function name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
            calls[name] += 1
        return totals, calls

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass per-layer metrics (the ``trace.*`` ones are filled in by the caller)."""
        totals, calls = self.self_times()
        calls.update(self.counts)
        found = {}
        for key in PER_LAYER:
            if key.endswith(".self_s"):
                found[key] = totals.get(key[: -len(".self_s")], 0.0) / passes
            elif key.endswith(".calls"):
                found[key] = calls.get(key[: -len(".calls")], 0) / passes
            elif key in _MAXIMA:
                found[key] = self.values.get(key, 0.0)
            elif not key.startswith("trace."):
                found[key] = self.values.get(key, 0.0) / passes
        found["trace.probe_s"] = totals.get(PROBE, 0.0) / passes
        return found

    def write(self, path: Path) -> None:
        """Spans as CSV: index, parent, name, start, end (perf_counter seconds)."""
        with path.open("w") as handle:
            handle.write("index,parent,name,start,end\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{parent},{name},{start!r},{end!r}\n")
