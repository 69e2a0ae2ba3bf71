"""Span tracing of quditbench's hot layers, installed from outside the library.

The library imports its collaborators by name (``experiments.liouvillian``,
``pulses.dissipator``, ``fidelity.process_fidelity`` ...), so wrapping a
function in its defining module alone would miss most calls.  ``Tracer``
replaces every binding of each traced function in every loaded ``quditbench``
module, which keeps nested calls such as ``agi_exact -> process_fidelity``
and ``liouvillian -> dissipator`` visible.  The benchmark's own code calls
the library through module attributes, so it sees the wrappers too.

Spans (name, start, end, parent) are kept in memory; ``layer_metrics`` turns
them into per-layer call counts and self times, a span's self time being its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, function); several functions may share one span name
TRACED = (
    ("lindblad.liouvillian", "quditbench.lindblad", "liouvillian"),
    ("lindblad.dissipator", "quditbench.lindblad", "dissipator"),
    ("lindblad.propagate", "quditbench.lindblad", "propagate"),
    ("fidelity.process_fidelity", "quditbench.fidelity", "process_fidelity"),
    ("fidelity.agi_exact", "quditbench.fidelity", "agi_exact"),
    ("fidelity.agi_monte_carlo", "quditbench.fidelity", "agi_monte_carlo"),
    ("fidelity.agi_kraus", "quditbench.fidelity", "agi_kraus"),
    ("channels.kraus", "quditbench.channels", "kraus_first_order"),
    ("channels.kraus", "quditbench.channels", "kraus_multi"),
    ("pulses.grape_optimize", "quditbench.pulses", "grape_optimize"),
    ("pulses.infidelity_and_gradient", "quditbench.pulses", "infidelity_and_gradient"),
    ("pulses.schedule_to_propagator", "quditbench.pulses", "schedule_to_propagator"),
    ("fitting.fit_slope", "quditbench.fitting", "fit_slope"),
    ("experiments.run_experiment", "quditbench.experiments", "run_experiment"),
)

# Per-layer metrics of a traced pass: (name, unit, better, prediction).  The
# prediction names the end-to-end metric and workload the layer metric should
# move, so that later changes can cite it.
LAYER_METRICS = (
    ("lindblad.liouvillian.calls", "count", "lower", "wall_s on dephasing-dense (generator assembly, ~11% with dissipator)"),
    ("lindblad.liouvillian.self_s", "s", "lower", "wall_s on dephasing-dense (~11% with dissipator)"),
    ("lindblad.dissipator.calls", "count", "lower", "wall_s on dephasing-dense"),
    ("lindblad.dissipator.self_s", "s", "lower", "wall_s on dephasing-dense (~11% with liouvillian)"),
    ("lindblad.propagate.calls", "count", "lower", "wall_s on general-oracles and dephasing-dense"),
    ("lindblad.propagate.self_s", "s", "lower", "wall_s on general-oracles (~54%, expm) and dephasing-dense (~11%)"),
    ("lindblad.propagate.entrywise_frac", "ratio", "higher", "share of propagate calls on the diagonal path; ~1 on dephasing-dense, 0 on channels-compare"),
    ("lindblad.superop_bytes", "bytes-computed", "lower", "peak_rss_mb on dephasing-dense; computed as 16 d^4 per superoperator returned"),
    ("fidelity.process_fidelity.calls", "count", "lower", "wall_s on dephasing-dense"),
    ("fidelity.process_fidelity.self_s", "s", "lower", "wall_s on dephasing-dense (~78%), general-oracles (~15%), gate-synthesis (~2%)"),
    ("fidelity.agi_exact.calls", "count", "lower", "recorded; its time is mostly process_fidelity"),
    ("fidelity.agi_exact.self_s", "s", "lower", "recorded"),
    ("fidelity.agi_monte_carlo.calls", "count", "lower", "wall_s on general-oracles"),
    ("fidelity.agi_monte_carlo.self_s", "s", "lower", "wall_s on general-oracles (~28%)"),
    ("fidelity.agi_monte_carlo.samples", "count", "lower", "wall_s on general-oracles"),
    ("fidelity.agi_kraus.calls", "count", "lower", "recorded"),
    ("fidelity.agi_kraus.self_s", "s", "lower", "recorded"),
    ("channels.kraus.calls", "count", "lower", "kraus_first_order plus kraus_multi; small everywhere"),
    ("channels.kraus.self_s", "s", "lower", "small everywhere"),
    ("pulses.grape_optimize.calls", "count", "lower", "wall_s on gate-synthesis"),
    ("pulses.grape_optimize.self_s", "s", "lower", "wall_s on gate-synthesis (~47% with infidelity_and_gradient)"),
    ("pulses.infidelity_and_gradient.calls", "count", "lower", "wall_s on gate-synthesis"),
    ("pulses.infidelity_and_gradient.self_s", "s", "lower", "wall_s on gate-synthesis (~47% with grape_optimize)"),
    ("pulses.grape.iterations", "count", "lower", "wall_s on gate-synthesis; sum of GrapeResult.iterations"),
    ("pulses.grape.converged_frac", "ratio", "higher", "failed_frac on gate-synthesis; converged over attempted, 0 when GRAPE never ran"),
    ("pulses.schedule_to_propagator.calls", "count", "lower", "wall_s on gate-synthesis"),
    ("pulses.schedule_to_propagator.self_s", "s", "lower", "wall_s on gate-synthesis (~50%, mostly np.kron)"),
    ("fitting.fit_slope.calls", "count", "lower", "control: under 0.5% of wall everywhere, should never move"),
    ("fitting.fit_slope.self_s", "s", "lower", "control: should never move"),
    ("experiments.run_experiment.self_s", "s", "lower", "orchestration plus CSV/JSON writing (span minus children)"),
    ("experiments.rows", "count", "higher", "rows written by run_experiment"),
    ("trace.wall_s", "s", "lower", "wall time of a traced pass"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s of the same run"),
)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for span, module_name, attr in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrappers[id(original)] = (original, self._wrap(span, original))
        lindblad = importlib.import_module("quditbench.lindblad")
        self._bind(lindblad, "expm", self._count_expm(lindblad.expm))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "quditbench"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _bind(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _count_expm(self, expm):
        @functools.wraps(expm)
        def counted(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == "lindblad.propagate":
                self._add("lindblad.propagate.expm_calls", 1)
            return expm(*args, **kwargs)

        return counted

    def _wrap(self, span: str, fn):
        count = _COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [span, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child)
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass (``trace.overhead_s`` excluded)."""
        selfs = self.self_times()
        c = self.counters
        out: dict[str, float] = {}
        for name, _, _, _ in LAYER_METRICS:
            span, _, field = name.rpartition(".")
            if field in ("calls", "self_s") and span in {t[0] for t in TRACED}:
                calls, total = selfs.get(span, (0, 0.0))
                out[name] = calls if field == "calls" else total
        propagates = selfs.get("lindblad.propagate", (0, 0.0))[0]
        out["lindblad.propagate.entrywise_frac"] = (
            1.0 - c.get("lindblad.propagate.expm_calls", 0) / propagates if propagates else 0.0
        )
        out["lindblad.superop_bytes"] = c.get("lindblad.superop_bytes", 0)
        out["fidelity.agi_monte_carlo.samples"] = c.get("fidelity.agi_monte_carlo.samples", 0)
        out["pulses.grape.iterations"] = c.get("pulses.grape.iterations", 0)
        grapes = out["pulses.grape_optimize.calls"]
        out["pulses.grape.converged_frac"] = (
            c.get("pulses.grape.converged", 0) / grapes if grapes else 0.0
        )
        out["experiments.rows"] = c.get("experiments.rows", 0)
        out["trace.wall_s"] = wall_s
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _superop_bytes(tracer, args, kwargs, result):
    rows = getattr(result, "matrix", result).shape[0]
    tracer._add("lindblad.superop_bytes", 16 * rows * rows)


def _mc_samples(tracer, args, kwargs, result):
    n = kwargs["n_samples"] if "n_samples" in kwargs else args[2]
    tracer._add("fidelity.agi_monte_carlo.samples", n)


def _grape(tracer, args, kwargs, result):
    tracer._add("pulses.grape.iterations", result.iterations)
    tracer._add("pulses.grape.converged", int(result.converged))


def _rows(tracer, args, kwargs, result):
    tracer._add("experiments.rows", len(result.rows))


# function name -> counter hook run on each return
_COUNTERS = {
    "liouvillian": _superop_bytes,
    "dissipator": _superop_bytes,
    "propagate": _superop_bytes,
    "agi_monte_carlo": _mc_samples,
    "grape_optimize": _grape,
    "run_experiment": _rows,
}
