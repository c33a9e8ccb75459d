"""One benchmark repetition in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/rep.py '<task json>'`` with ``PYTHONPATH=src``
(``run.py`` builds the task).  A fresh interpreter per repetition means
module-level caches (arc tables, AST instrumentation) are paid in
``setup_s`` every time and never carried from one campaign to the next.

Task kinds:

* ``inline`` — one ``PFuzzer(...).run()`` campaign;
* ``service`` — a batch of jobs submitted to a ``JobStore`` and drained by
  ``CampaignScheduler.run_until_idle()``;
* ``reference`` — the inline fingerprint of each service job, which the
  service's DONE fingerprints must equal.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

from hostspeed import REF_PROBE_S, HostSpeed, probe_after_runs, read_runs
from layers import Layers, execute_split

#: Executions per slice: the service's default ``slice_executions``.  An
#: inline campaign is never preempted; its "slices" are the same spans of
#: executions, timed through the ``should_preempt`` poll.
SLICE_EXECUTIONS = 250

#: Executions between host-speed probes in an inline campaign: about 20
#: to 40 ms of campaign per segment, against 0.1 ms per probe.
PROBE_EVERY = 50


def _fingerprint(result, subject) -> str:
    from repro.eval.checkpoint import result_fingerprint
    from repro.runtime.arcs import arc_table_for

    canonical = result_fingerprint(result, arc_table_for(subject))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _failure(subject, executions, budget, valid_inputs, backend):
    """Why a finished campaign fails its output checks, or None."""
    from repro.runtime.harness import run_subject

    if executions != budget:
        return f"stopped at {executions} of {budget} executions"
    run = getattr(run_subject, "__wrapped__", run_subject)
    invalid = sum(
        not run(subject, text, coverage_backend=backend).valid
        for text in valid_inputs
    )
    if invalid:
        return f"{invalid} emitted input(s) not VALID on re-execution"
    return None


def inline(task: dict) -> dict:
    from repro.core.config import FuzzerConfig
    from repro.core.fuzzer import PFuzzer
    from repro.runtime.harness import run_subject
    from repro.runtime.limits import peak_rss_bytes
    from repro.subjects.registry import load_subject

    backend = task["backend"]
    key = str(task["seed"])
    subject = load_subject(task["subject"])
    run_subject(subject, "", coverage_backend=backend)
    setup_s = time.monotonic() - task["spawned_at"]
    layers = None
    if task["traced"]:
        layers = Layers()
        layers.install()
    config = FuzzerConfig(
        seed=task["seed"],
        max_executions=task["budget"],
        coverage_backend=backend,
    )
    marks = []
    probed = [0]

    def mark_slices(run_executions: int, _total: int) -> bool:
        if run_executions >= SLICE_EXECUTIONS * len(marks):
            marks.append(time.monotonic())
        if run_executions >= probed[0] + PROBE_EVERY:
            probed[0] = run_executions
            speed.mark()
        return False

    started = time.monotonic()
    marks.append(started)
    speed = HostSpeed()
    result = PFuzzer(subject, config, should_preempt=mark_slices).run()
    speed.mark()
    finished = time.monotonic()
    wall = finished - started
    marks.append(finished)
    out = {
        "executions": result.executions,
        "exec_per_s": result.executions / wall,
        "exec_per_ref_s": result.executions / speed.scaled_s,
        "probe_us": [seconds * 1e6 for seconds in speed.probes],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_bytes() / 2**20,
        "valid_arcs": len(result.valid_branches),
        "slices_s": [end - begin for begin, end in zip(marks, marks[1:])],
        "turnaround_s": [finished - task["spawned_at"]],
        "fingerprints": {key: _fingerprint(result, subject)},
        "failures": {},
    }
    reason = _failure(
        subject, result.executions, task["budget"], result.valid_inputs, backend
    )
    if reason is not None:
        out["failures"][key] = reason
    if layers is not None:
        metrics = layers.metrics(result.executions)
        for phase, seconds in result.phase_times.items():
            metrics[f"core.fuzzer.phase.{phase}_s"] = seconds
        if task["split"]:
            metrics.update(execute_split(layers.executed, backend))
        out["layers"] = metrics
    return out


def service(task: dict) -> dict:
    from repro.eval.checkpoint import load_latest
    from repro.runtime.harness import run_subject
    from repro.runtime.limits import peak_rss_bytes
    from repro.service.jobs import JobSpec, JobState, JobStore
    from repro.service.scheduler import CampaignScheduler, SchedulerConfig
    from repro.subjects.registry import load_subject

    workdir = Path(task["workdir"])
    store = JobStore(workdir / "journal.jsonl")
    slices = []
    done_at = {}
    peak = [0]

    def on_slice(record, metrics, _delta, slice_wall, _events):
        slices.append(slice_wall)
        peak[0] = max(peak[0], metrics.peak_rss_bytes)
        if record.state is JobState.DONE:
            done_at[record.job_id] = time.monotonic()

    scheduler = CampaignScheduler(
        store, workdir, SchedulerConfig(), on_slice=on_slice
    )
    subjects = {name: load_subject(name) for name, _ in task["jobs"]}
    for subject in subjects.values():
        run_subject(subject, "", coverage_backend="ast")
    layers = None
    if task["traced"]:
        layers = Layers()
        # Workers are forked with the wrappers in place; each ships its
        # counters after every slice, because shutdown kills the workers.
        layers.install(
            on_run_end=lambda worker: worker.append_to(
                workdir / f"layers-{os.getpid()}.jsonl"
            )
        )
    probe_after_runs(workdir)
    workers = scheduler.config.workers
    for _ in range(workers):
        scheduler.pool.spawn()
    setup_s = time.monotonic() - task["spawned_at"]
    submitted = time.monotonic()
    records = [
        store.submit(
            JobSpec(
                subject=name,
                budget=task["budget"],
                seed=seed,
                coverage_backend="ast",
            )
        )
        for name, seed in task["jobs"]
    ]
    scheduler.run_until_idle()
    makespan = max(done_at.values(), default=time.monotonic()) - submitted
    # Each slice's busy time on the reference host, over its wall time:
    # the share of the makespan the fleet would take on that host.
    runs = read_runs(workdir)
    scale = sum(run * REF_PROBE_S / probed for run, probed in runs) / sum(
        run for run, _ in runs
    )
    executions = 0
    valid_arcs = 0
    fingerprints = {}
    failures = {}
    phases = {}
    for record, (name, seed) in zip(records, task["jobs"]):
        key = f"{name}:{seed}"
        record = store.get(record.job_id)
        fingerprints[key] = record.result_fingerprint
        loaded = load_latest(workdir / "jobs" / record.job_id)
        if record.state is not JobState.DONE or loaded is None:
            failures[key] = f"ended {record.state.value}: {record.error}"
            continue
        payload = loaded[1]
        executions += payload["executions"]
        valid_arcs += len(payload["valid_branches"])
        reason = _failure(
            subjects[name],
            payload["executions"],
            task["budget"],
            payload["valid_inputs"],
            "ast",
        )
        if reason is not None:
            failures[key] = reason
        for phase, seconds in payload["phase_times"].items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    out = {
        "executions": executions,
        "exec_per_s": executions / makespan,
        "exec_per_ref_s": executions / (makespan * scale),
        "probe_us": [probed * 1e6 for _, probed in runs],
        "setup_s": setup_s,
        "peak_rss_mb": max(peak[0], peak_rss_bytes()) / 2**20,
        "valid_arcs": valid_arcs,
        "slices_s": slices,
        "turnaround_s": [at - submitted for at in done_at.values()],
        "fingerprints": fingerprints,
        "failures": failures,
    }
    if layers is not None:
        for path in workdir.glob("layers-*.jsonl"):
            for line in path.read_text(encoding="utf-8").splitlines():
                layers.merge(json.loads(line))
        metrics = layers.metrics(executions, slices, workers * makespan)
        for phase, seconds in phases.items():
            metrics[f"core.fuzzer.phase.{phase}_s"] = seconds
        if task["split"]:
            metrics.update(execute_split(layers.executed, "ast"))
        out["layers"] = metrics
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def reference(task: dict) -> dict:
    """Inline fingerprints for the service jobs (same seed, budget, backend)."""
    from repro.core.config import FuzzerConfig
    from repro.core.fuzzer import PFuzzer
    from repro.subjects.registry import load_subject

    fingerprints = {}
    for name, seed in task["jobs"]:
        subject = load_subject(name)
        config = FuzzerConfig(
            seed=seed, max_executions=task["budget"], coverage_backend="ast"
        )
        fingerprints[f"{name}:{seed}"] = _fingerprint(
            PFuzzer(subject, config).run(), subject
        )
    return {"fingerprints": fingerprints}


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    kind = {"inline": inline, "service": service, "reference": reference}
    print(json.dumps(kind[request["kind"]](request)))
