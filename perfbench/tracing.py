"""Span tracing of the package's layers, installed from outside the package.

Each traced name is a module attribute that another module looks up when it
calls it (``engine._sim_step`` from ``engine.run``, ``possibility._frank_values``
from ``_fuse_rows``, ``harness.emit_csv`` from ``run_part`` and so on), so
replacing the attribute routes every such call through a wrapper. A wrapper
records a span in memory, as name, start, end, parent span and trace id, and
counts the work it was handed. The spans of one simulation run carry that
run's seed as trace id; spans outside any run carry the workload seed.

Only calls made in this process are seen, so a traced workload runs with one
worker. A layer's self time is its spans' duration minus the part of it that
their child spans cover.
"""

from __future__ import annotations

import csv
import os
import pickle
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

from possibly import cli, engine, harness, possibility

# Per-layer metrics, with their units. Counts repeat exactly from run to run
# of the same workload and seed; the rest are times.
COUNTS = {
    "possibility.fuse_rows.calls": "count",
    "possibility.fuse_rows.rows": "count",
    "possibility.frank_values.elems": "count",
    "possibility.pignistic_rows.calls": "count",
    "possibility.pignistic_rows.elems": "count",
    "engine.sim_step.calls": "count",
    "engine.sim_step.agent_steps": "count",
    "engine.run.possibilistic.calls": "count",
    "engine.run.probabilistic.calls": "count",
    "engine.metrics.calls": "count",
    "engine.metrics.useful_ratio": "ratio",
    "probability.degenerate_fusions": "count",
    "environment.reversal_probability.samples": "count",
    "harness.jobs": "count",
    "harness.result_bytes_per_job": "B",
    "harness.emit_csv.rows": "count",
    "harness.emit_csv.bytes": "B",
}
TIMES = {
    "possibility.fuse_rows.self_s": "s",
    "possibility.frank_values.self_s": "s",
    "possibility.frank_values.ns_per_elem": "ns",
    "possibility.pignistic_rows.self_s": "s",
    "possibility.pignistic_rows.ns_per_elem": "ns",
    "engine.sim_step.self_s": "s",
    "engine.sim_step.us_per_call": "us",
    "engine.draw_states.self_s": "s",
    "engine.run.possibilistic.p50_ms": "ms",
    "engine.run.probabilistic.p50_ms": "ms",
    "engine.metrics.self_s": "s",
    "environment.reversal_probability.self_s": "s",
    "harness.sweep.self_s": "s",
    "harness.trajectory_rows.self_s": "s",
    "harness.emit_csv.self_s": "s",
    "cli.main.self_s": "s",
}
OVERHEAD = {"trace.overhead_frac": "ratio"}
UNITS = {**COUNTS, **TIMES, **OVERHEAD}

# (module, attribute, span name); the name "engine.run" gains the model.
_TRACED = (
    (engine, "_sim_step", "engine.sim_step"),
    (engine, "_fuse_rows", "possibility.fuse_rows"),
    (engine, "_pignistic_rows", "possibility.pignistic_rows"),
    (engine, "_draw_states_rows", "engine.draw_states"),
    (engine, "_metrics_from_array", "engine.metrics"),
    (possibility, "_frank_values", "possibility.frank_values"),
    (harness, "run", "engine.run"),
    (harness, "collect_finals", "harness.collect_finals"),
    (harness, "collect_trajectories", "harness.collect_trajectories"),
    (harness, "sweep", "harness.sweep"),
    (harness, "trajectory_rows", "harness.trajectory_rows"),
    (harness, "emit_csv", "harness.emit_csv"),
    (harness, "reversal_probability", "environment.reversal_probability"),
    (cli, "collect_trajectories", "harness.collect_trajectories"),
    (cli, "sweep", "harness.sweep"),
    (cli, "trajectory_rows", "harness.trajectory_rows"),
    (cli, "emit_csv", "harness.emit_csv"),
    (cli, "main", "cli.main"),
)
_CAPTURES = {"harness.collect_finals": "final",
             "harness.collect_trajectories": "trajectory"}


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.spans = []    # [name, start_ns, end_ns, parent index, trace id]
        self.counts = Counter()
        self.runs = []     # [capture, RunResult] per engine run
        self._stack = []
        self._saved = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in _TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            outer_id = self.trace_id
            span_name = name
            if name == "engine.run":
                span_name = f"engine.run.{args[0].model}"
                self.trace_id = args[0].seed
            span = [span_name, 0, 0, stack[-1] if stack else -1, self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                self.trace_id = outer_id
            self._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name, args, kwargs, result) -> None:
        c = self.counts
        if name == "engine.sim_step":
            c["engine.sim_step.agent_steps"] += args[0].shape[0]
        elif name == "possibility.fuse_rows":
            c["possibility.fuse_rows.rows"] += args[1].shape[0]
        elif name == "possibility.frank_values":
            c["possibility.frank_values.elems"] += args[1].size
        elif name == "possibility.pignistic_rows":
            c["possibility.pignistic_rows.elems"] += args[0].size
        elif name == "engine.run":
            c["probability.degenerate_fusions"] += result.degenerate_fusions
            self.runs.append([None, result])
        elif name == "environment.reversal_probability":
            c["environment.reversal_probability.samples"] += kwargs.get(
                "samples", args[4] if len(args) > 4 else 0)
        elif name == "harness.emit_csv":
            c["harness.emit_csv.rows"] += len(args[0])
            c["harness.emit_csv.bytes"] += os.path.getsize(args[1])
        elif name in _CAPTURES or name == "harness.sweep":
            capture = _CAPTURES.get(name) or args[0].capture
            for entry in self.runs:
                if entry[0] is None:
                    entry[0] = capture

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac, by name."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        run_ms = defaultdict(list)
        for (name, start, end, _, _), covered in zip(spans, child_ns):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered
            if name.startswith("engine.run."):
                run_ms[name].append((end - start) / 1e6)

        def ratio(a, b):
            return a / b if b else 0.0

        # a final-capture job hands one record to the output, a
        # trajectory job all of them
        read = sum(1 if capture == "final" else len(result)
                   for capture, result in self.runs)
        result_bytes = sum(len(pickle.dumps(result[-1] if capture == "final"
                                            else tuple(result)))
                           for capture, result in self.runs)
        jobs = len(self.runs)
        m = dict.fromkeys({**COUNTS, **TIMES}, 0)
        m.update(self.counts)
        m.update({
            "possibility.fuse_rows.calls": calls["possibility.fuse_rows"],
            "possibility.pignistic_rows.calls": calls["possibility.pignistic_rows"],
            "engine.sim_step.calls": calls["engine.sim_step"],
            "engine.run.possibilistic.calls": calls["engine.run.possibilistic"],
            "engine.run.probabilistic.calls": calls["engine.run.probabilistic"],
            "engine.metrics.calls": calls["engine.metrics"],
            "engine.metrics.useful_ratio": ratio(read, calls["engine.metrics"]),
            "harness.jobs": jobs,
            "harness.result_bytes_per_job": ratio(result_bytes, jobs),
            "possibility.frank_values.ns_per_elem": ratio(
                own["possibility.frank_values"],
                self.counts["possibility.frank_values.elems"]),
            "possibility.pignistic_rows.ns_per_elem": ratio(
                own["possibility.pignistic_rows"],
                self.counts["possibility.pignistic_rows.elems"]),
            "engine.sim_step.us_per_call": ratio(
                total["engine.sim_step"], calls["engine.sim_step"]) / 1e3,
        })
        for model in ("possibilistic", "probabilistic"):
            durations = run_ms[f"engine.run.{model}"]
            m[f"engine.run.{model}.p50_ms"] = (statistics.median(durations)
                                               if durations else 0.0)
        for metric in TIMES:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                m[metric] = own[layer] / 1e9
        return m


def write_spans(path: str, tracer: Tracer) -> None:
    """The tracer's spans as CSV, one row each; parent is a span index."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("trace_id", "span", "name", "start_ns", "end_ns", "parent"))
        for index, (name, start, end, parent, trace_id) in enumerate(tracer.spans):
            out.writerow((trace_id, index, name, start, end, parent))
