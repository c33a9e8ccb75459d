"""Per-layer timing for traced benchmark runs, installed from outside ``src/``.

Each layer is a module of the program; its span is a call into one of
that module's public functions or methods.  :meth:`Layers.install`
replaces those functions with timing wrappers (and rebinds every
``from module import name`` copy under ``repro``), so the program itself
carries no tracing code.  Spans nest: a span's self time is its duration
minus the time its wrapped callees took.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

#: Span name -> (module, attribute path).  The span's layer is its name
#: without the last component.
SPANS = {
    "runtime.harness.run_subject": ("repro.runtime.harness", "run_subject"),
    "runtime.arcs.signature": ("repro.runtime.arcs", "ArcTable.signature"),
    "core.queue.push": ("repro.core.queue", "CandidateQueue.push"),
    "core.queue.pop": ("repro.core.queue", "CandidateQueue.pop"),
    "core.queue.rescore": ("repro.core.queue", "CandidateQueue.rescore"),
    "core.substitute.substitutions_for": (
        "repro.core.substitute",
        "substitutions_for",
    ),
    "obs.lineage.new_node": ("repro.obs.lineage", "LineageLog.new_node"),
    "core.fuzzer.run": ("repro.core.fuzzer", "PFuzzer.run"),
    "core.fuzzer.snapshot": ("repro.core.fuzzer", "PFuzzer.snapshot"),
    "core.fuzzer.restore": ("repro.core.fuzzer", "PFuzzer.restore"),
    "eval.checkpoint.save_snapshot": ("repro.eval.checkpoint", "save_snapshot"),
    "eval.checkpoint.load_latest": ("repro.eval.checkpoint", "load_latest"),
    "eval.parallel.spawn": ("repro.eval.parallel", "WorkerPool.spawn"),
    "service.scheduler.step": ("repro.service.scheduler", "CampaignScheduler.step"),
}

LAYERS = sorted({name.rsplit(".", 1)[0] for name in SPANS})


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Layers:
    """Span counters: per span name ``[calls, busy_s, self_s]``.

    Also keeps every ``run_subject`` duration (for percentiles), the
    ``(subject name, text)`` of every execution (for the execute-split
    replay), the bytes of every snapshot written and how many
    substitutions each ``substitutions_for`` call produced.
    """

    def __init__(self) -> None:
        self.reset()
        self._stack = [0.0]

    def reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.run_subject_us = []
        self.executed = []
        self.snapshot_bytes = 0
        self.substitutions = 0

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                inner = stack.pop()
                stack[-1] += elapsed
                stats = self.stats[name]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if name == "runtime.harness.run_subject":
                self.run_subject_us.append(elapsed * 1e6)
                self.executed.append((args[0].name, args[1]))
            elif name == "eval.checkpoint.save_snapshot":
                self.snapshot_bytes += os.path.getsize(result)
            elif name == "core.substitute.substitutions_for":
                self.substitutions += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, on_run_end=None) -> None:
        """Wrap every span's function; import the modules first.

        ``on_run_end(layers)`` is called after each ``PFuzzer.run`` —
        how forked service workers ship their per-slice counters before
        the pool kills them.
        """
        for module_name, _ in SPANS.values():
            importlib.import_module(module_name)
        for name, (module_name, path) in SPANS.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if name == "core.fuzzer.run" and on_run_end is not None:
                wrapped = self._shipping(wrapped, on_run_end)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type(sys)):
                # ``from module import name`` copies made before install.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)

    def _shipping(self, wrapped, on_run_end):
        def run(*args, **kwargs):
            self.reset()
            try:
                return wrapped(*args, **kwargs)
            finally:
                on_run_end(self)

        return run

    # -- counters crossing process boundaries ---------------------------- #

    def to_dict(self) -> dict:
        return {
            "stats": self.stats,
            "run_subject_us": self.run_subject_us,
            "executed": self.executed,
            "snapshot_bytes": self.snapshot_bytes,
            "substitutions": self.substitutions,
        }

    def merge(self, other: dict) -> None:
        for name, (calls, busy, own) in other["stats"].items():
            stats = self.stats[name]
            stats[0] += calls
            stats[1] += busy
            stats[2] += own
        self.run_subject_us.extend(other["run_subject_us"])
        self.executed.extend(tuple(item) for item in other["executed"])
        self.snapshot_bytes += other["snapshot_bytes"]
        self.substitutions += other["substitutions"]

    def append_to(self, path) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict()) + "\n")

    # -- report ---------------------------------------------------------- #

    def metrics(self, executions: int, slices=(), capacity_s: float = 0.0) -> dict:
        """Per-layer figures.

        ``executions`` is the campaign (or fleet) total; ``slices`` are the
        service's slice wall times and ``capacity_s`` is workers x
        makespan, both empty for an inline campaign.
        """
        stats = self.stats
        calls = {name: value[0] for name, value in stats.items()}
        busy = {name: value[1] for name, value in stats.items()}
        samples = sorted(self.run_subject_us)
        pushes = calls["core.queue.push"]
        nodes = calls["obs.lineage.new_node"]
        substitute_calls = calls["core.substitute.substitutions_for"]
        saves = calls["eval.checkpoint.save_snapshot"]
        out = {
            "runtime.harness.run_subject.calls": calls["runtime.harness.run_subject"],
            "runtime.harness.run_subject.busy_s": busy["runtime.harness.run_subject"],
            "runtime.harness.run_subject.p50_us": quantile(samples, 0.50),
            "runtime.harness.run_subject.p99_us": quantile(samples, 0.99),
            "runtime.arcs.signature.calls_per_exec": _ratio(
                calls["runtime.arcs.signature"], executions
            ),
            "runtime.arcs.signature.busy_s": busy["runtime.arcs.signature"],
            "core.queue.push.calls": pushes,
            "core.queue.push.busy_s": busy["core.queue.push"],
            "core.queue.pop.calls": calls["core.queue.pop"],
            "core.queue.rescore.busy_s": busy["core.queue.rescore"],
            "core.queue.useful_ratio": _ratio(calls["core.queue.pop"], pushes),
            "core.substitute.calls": substitute_calls,
            "core.substitute.busy_s": busy["core.substitute.substitutions_for"],
            "core.substitute.candidates_per_call": _ratio(
                self.substitutions, substitute_calls
            ),
            "obs.lineage.nodes": nodes,
            "obs.lineage.busy_s": busy["obs.lineage.new_node"],
            "obs.lineage.useful_ratio": _ratio(executions, nodes),
            "core.fuzzer.snapshot.busy_s": busy["core.fuzzer.snapshot"],
            "core.fuzzer.restore.busy_s": busy["core.fuzzer.restore"],
            "eval.checkpoint.save_snapshot.calls": saves,
            "eval.checkpoint.save_snapshot.busy_s": busy["eval.checkpoint.save_snapshot"],
            "eval.checkpoint.load_latest.busy_s": busy["eval.checkpoint.load_latest"],
            "eval.checkpoint.bytes_per_snapshot": _ratio(self.snapshot_bytes, saves),
            "service.scheduler.slices": len(slices),
            "service.scheduler.slice_busy_s": sum(slices),
            "service.scheduler.worker_util": _ratio(sum(slices), capacity_s),
            "service.scheduler.step.busy_s": busy["service.scheduler.step"],
            "eval.parallel.spawn.calls": calls["eval.parallel.spawn"],
            "eval.parallel.spawn.busy_s": busy["eval.parallel.spawn"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                value[2]
                for name, value in stats.items()
                if name.rsplit(".", 1)[0] == layer
            )
        return out


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(sorted_values, q) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def execute_split(executed, backend: str) -> dict:
    """Split execution time by replaying the executed inputs three ways.

    Parse alone (``Subject.parse`` on a bare stream), parse plus taint
    recording (``run_subject`` without coverage) and the full
    instrumented run; each term is the difference to the previous one.
    Uses the unwrapped program functions, so call it with layers
    installed or not.
    """
    from repro.runtime.harness import run_subject
    from repro.runtime.stream import InputStream
    from repro.subjects.registry import load_subject

    run_subject = getattr(run_subject, "__wrapped__", run_subject)
    by_subject = {}
    for name, text in executed:
        by_subject.setdefault(name, []).append(text)
    parse_s = taint_s = full_s = 0.0
    comparisons = arcs = 0
    clock = time.perf_counter
    for name, texts in by_subject.items():
        subject = load_subject(name)
        run_subject(subject, "", coverage_backend=backend)
        started = clock()
        for text in texts:
            try:
                subject.parse(InputStream(text))
            except Exception:  # noqa: BLE001 - rejections are expected
                pass
        parse_s += clock() - started
        started = clock()
        for text in texts:
            run_subject(subject, text, trace_coverage=False)
        taint_s += clock() - started
        started = clock()
        for text in texts:
            result = run_subject(subject, text, coverage_backend=backend)
            comparisons += len(result.recorder.comparisons)
            arcs += len(result.arcs)
        full_s += clock() - started
    count = len(executed)
    return {
        "subjects.parse_s": parse_s,
        "taint.record_s": taint_s - parse_s,
        "runtime.coverage_s": full_s - taint_s,
        "taint.comparisons_per_exec": _ratio(comparisons, count),
        "runtime.arcs_per_exec": _ratio(arcs, count),
    }
