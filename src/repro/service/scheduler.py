"""Fair-share preemptive scheduler: time-slice campaigns over workers.

The scheduler turns long campaigns into a sequence of bounded *slices*.
One slice resumes a job from its newest checkpoint, runs until the
preemption hook trips (``slice_executions`` more executions, checked at
the iteration boundary — see ``PFuzzer.should_preempt``), snapshots, and
reports back.  Because snapshot/resume is byte-identical, slicing is
invisible to the campaign result: a job scheduled across many slices —
or killed and rescheduled on a restarted service — finishes with exactly
the result an uninterrupted run would have produced.

Scheduling is stride-style fair share: each job accumulates virtual time
``executions / priority``, and the runnable job with the least virtual
time (ties: submission order) gets the next free worker.  A job that has
never run has virtual time zero, so with N queued jobs no job waits more
than one round of slices before its first — the no-starvation guarantee
the service tests assert.

Sharded job groups (``JobSpec.shard_group``) are *gang-aware*: all
members of a group share one virtual-time account, so the fair-share
winner is the whole group and its members — tied on the group's virtual
time, ordered by fewest executions first, then submission — flow onto
idle workers consecutively and rotate round-robin across slices.
Shards of a group therefore advance in near-lockstep (no member racing
a full budget ahead of its peers), which keeps their corpus-sync
windows overlapping, while the group as a whole competes with ordinary
jobs under the same stride accounting.  With a single worker the
rotation is *exact* lockstep: the schedule reproduces the reference
orchestrator (:func:`repro.eval.shards.run_sharded`) byte-for-byte,
which the service shard tests assert by fingerprint.

With ``SchedulerConfig.adaptive`` on, the stride charge is additionally
weighted by a per-account coverage-gain posterior (see
:mod:`repro.service.gain`): jobs still discovering new-coverage inputs
pay less virtual time per execution and therefore receive more slices,
plateaued jobs pay more, and an account whose posterior falls below the
pause threshold is *parked* — skipped at dispatch until the rest of the
fleet advances a probe window, then granted one probe slice whose
outcome decides between resurrection and another wait.  The lifecycle is
clocked on fleet executions, never wall time, so the adaptive schedule
is a deterministic function of the slice-completion history; and because
slicing is invisible to campaign results, a job's final fingerprint is
identical under blind and adaptive scheduling.

Process management reuses the evaluation grid's machinery
(:class:`repro.eval.parallel.WorkerPool`): per-worker pipes for fault
isolation, a parent-side watchdog for hung slices, and bounded
retry-with-backoff — a crashed worker fails only its own slice, and the
job re-queues for another attempt that *resumes* rather than restarts.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.eval.campaign import ToolOutput, run_campaign
from repro.eval.metrics import CampaignMetrics
from repro.eval.parallel import WorkerPool, receive_tasks
from repro.runtime.limits import RunTimeout, peak_rss_bytes, time_limit
from repro.service.gain import GainConfig, GainEstimator
from repro.service.jobs import (
    TERMINAL_STATES,
    JobRecord,
    JobState,
    JobStore,
)


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the slicing scheduler.

    Attributes:
        workers: bounded worker-pool size.
        slice_executions: preempt a pFuzzer slice after this many
            executions (checked at iteration boundaries, so a slice can
            overshoot by one iteration's executions).
        slice_timeout: wall-clock limit per slice; None disables the
            in-worker alarm (the watchdog then never fires either).
        retries: extra attempts for a crashed/timed-out slice before the
            job is FAILED; every attempt resumes from the newest snapshot.
        backoff: base delay before re-queueing a failed slice; doubles
            per consecutive failure.
        watchdog_grace: extra seconds past ``slice_timeout`` before the
            parent kills a hung worker.
        adaptive: weight each job's stride charge by its coverage-gain
            posterior (see :mod:`repro.service.gain`) and park jobs
            whose posterior drops below the pause threshold, granting
            parked jobs periodic probe slices.  Off by default: the
            blind fair-share schedule is the reference behavior, and a
            single job's result is fingerprint-identical either way
            (scheduling order never changes campaign results).
        gain: estimator and park/probe knobs used when ``adaptive``.
    """

    workers: int = 2
    slice_executions: int = 250
    slice_timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    watchdog_grace: float = 5.0
    adaptive: bool = False
    gain: GainConfig = field(default_factory=GainConfig)


@dataclass
class SliceResult:
    """What one completed slice reports back to the scheduler."""

    job_id: str
    done: bool
    output: ToolOutput
    fingerprint: Optional[str]
    peak_rss_bytes: int
    slice_wall: float
    #: Per-type count of trace events this slice emitted (empty when the
    #: job is untraced) — what the service's Prometheus counters sum.
    trace_events: Optional[Dict[str, int]] = None


def _job_checkpoint_dir(state_dir: Path, job_id: str) -> str:
    return str(state_dir / "jobs" / job_id)


def _run_slice(task: dict) -> SliceResult:
    """Execute one slice in the worker process.

    pFuzzer jobs resume from the job's checkpoint directory and run with
    the preemption hook armed; the end-of-run snapshot captures the
    paused state.  Baseline tools have no resumable state: they run their
    whole budget in this single slice.
    """
    started = time.monotonic()
    trace_events: Optional[Dict[str, int]] = None
    if task["tool"] == "pfuzzer":
        from repro.core.config import FuzzerConfig
        from repro.core.fuzzer import PFuzzer
        from repro.eval.checkpoint import result_fingerprint
        from repro.runtime.arcs import arc_table_for
        from repro.subjects.registry import load_subject, load_subject_module

        if task.get("subject_module"):
            # Plugin registrations are per-process; the worker must import
            # the module itself before the name resolves.
            load_subject_module(task["subject_module"])
        subject = load_subject(task["subject"])
        durability = {}
        if task["checkpoint_every"] is not None:
            durability["checkpoint_every"] = task["checkpoint_every"]
        if task.get("shard_id") is not None:
            # Member of a sharded group: partition the candidate space and
            # sync through the group's shared corpus store.
            durability["shard_id"] = task["shard_id"]
            durability["shard_count"] = task["shard_count"]
            durability["sync_store"] = task["sync_store"]
            durability["sync_every"] = task["sync_every"]
        if task.get("cull_every") is not None:
            durability["cull_every"] = task["cull_every"]
        if task.get("hybrid"):
            # Hybrid mode is fingerprinted campaign state, not an
            # environmental knob: every slice of the job must run with
            # the same hybrid config or the checkpoint restore rejects
            # the snapshot — which is exactly the protection wanted.
            durability["hybrid"] = True
            if task.get("mine_after") is not None:
                durability["mine_after"] = task["mine_after"]
            if task.get("gen_batch") is not None:
                durability["gen_batch"] = task["gen_batch"]
            if task.get("gen_depth") is not None:
                durability["gen_depth"] = task["gen_depth"]
        if task.get("hunt_crashes"):
            # Like hybrid: fingerprinted campaign state, so every slice
            # of the job runs with hunting on (the spec is immutable).
            durability["hunt_crashes"] = True
        config = FuzzerConfig(
            seed=task["seed"],
            max_executions=task["budget"],
            coverage_backend=task["coverage_backend"],
            checkpoint_dir=task["checkpoint_dir"],
            resume=True,
            **durability,
        )
        tracer = None
        if task.get("trace"):
            from repro.obs.trace import JsonlTraceRecorder

            # Append mode: every slice of the job continues one trace file
            # next to its checkpoints, spanning the whole campaign.
            tracer = JsonlTraceRecorder(
                os.path.join(task["checkpoint_dir"], "trace.ndjson")
            )
        slice_cap = task["slice_executions"]
        try:
            result = PFuzzer(
                subject,
                config,
                should_preempt=lambda run_execs, _total: run_execs >= slice_cap,
                tracer=tracer,
            ).run()
        finally:
            if tracer is not None:
                tracer.close()
        if tracer is not None:
            trace_events = dict(tracer.counts)
        done = not result.preempted
        # The canonical fingerprint is a full JSON document; journal the
        # digest — equality is all the determinism contract needs.
        fingerprint = (
            hashlib.sha256(
                result_fingerprint(result, arc_table_for(subject)).encode("ascii")
            ).hexdigest()
            if done
            else None
        )
        output = ToolOutput(
            tool="pfuzzer",
            subject=task["subject"],
            seed=task["seed"],
            valid_inputs=list(result.valid_inputs),
            executions=result.executions,
            wall_time=result.wall_time,
            queue_depth=result.queue_depth,
            phase_times=result.phase_times,
            resumes=result.resumes,
            valid_signatures=list(result.valid_signatures) or None,
            crashes=result.crashes,
            crash_inputs=list(result.crash_inputs),
            crash_signatures=list(result.crash_signatures),
            crash_path_signatures=list(result.crash_path_signatures),
        )
    else:
        output = run_campaign(
            task["tool"], task["subject"], task["budget"], seed=task["seed"]
        )
        done = True
        fingerprint = None
    return SliceResult(
        job_id=task["job_id"],
        done=done,
        output=output,
        fingerprint=fingerprint,
        peak_rss_bytes=peak_rss_bytes(),
        slice_wall=time.monotonic() - started,
        trace_events=trace_events,
    )


def _slice_worker(worker_id: int, inbox, results) -> None:
    """Worker loop: run slice tasks until told to stop."""
    for item in receive_tasks(inbox):
        started = time.monotonic()
        try:
            with time_limit(item.get("slice_timeout")):
                outcome = _run_slice(item)
            results.send(("ok", worker_id, item["job_id"], outcome))
        except RunTimeout:
            results.send(
                (
                    "timeout",
                    worker_id,
                    item["job_id"],
                    time.monotonic() - started,
                )
            )
        except BaseException as exc:  # noqa: BLE001 - isolate, report, survive
            results.send(
                (
                    "error",
                    worker_id,
                    item["job_id"],
                    f"{type(exc).__name__}: {exc}",
                )
            )


#: Callback fired after every completed slice:
#: ``on_slice(record, metrics, delta_executions, slice_wall_seconds,
#: trace_events)`` — the last argument is the slice's per-type trace
#: event counts, or None for untraced jobs.
SliceCallback = Callable[
    [JobRecord, CampaignMetrics, int, float, Optional[Dict[str, int]]], None
]


class CampaignScheduler:
    """Schedule every non-terminal job in ``store`` across a worker pool.

    Drive it with :meth:`step` from a loop (the service does), or use
    :meth:`run_until_idle` to drain the current queue — the
    uninterrupted-reference path in the determinism tests.
    """

    def __init__(
        self,
        store: JobStore,
        state_dir,
        config: Optional[SchedulerConfig] = None,
        on_slice: Optional[SliceCallback] = None,
    ) -> None:
        self.store = store
        self.state_dir = Path(state_dir)
        self.config = config or SchedulerConfig()
        self.config.gain.validate()
        self.on_slice = on_slice
        self.pool = WorkerPool(_slice_worker)
        #: worker_id -> (job_id, watchdog deadline or None)
        self.assignments: Dict[int, Tuple[str, Optional[float]]] = {}
        #: stride-account key -> virtual time (executions / priority).
        #: The key is the job id, or the shard group id for gang members —
        #: a group shares one account, so fair share treats it as one job
        #: and its members dispatch consecutively.
        self._virtual: Dict[str, float] = {}
        #: job_id -> monotonic time before which it must not re-dispatch.
        self._backoff_until: Dict[str, float] = {}
        #: Dispatch history (job ids, in dispatch order) — what the
        #: fairness tests assert over.
        self.dispatch_log: List[str] = []
        #: stride-account key -> coverage-gain estimator (adaptive mode).
        self._gain: Dict[str, GainEstimator] = {}
        #: stride-account key -> fleet executions when it was parked; the
        #: account earns a probe slice ``gain.probe_every`` fleet
        #: executions later.
        self._parked: Dict[str, int] = {}
        #: Total executions charged across all jobs — the adaptive
        #: lifecycle's clock (never wall time, so park/probe decisions
        #: are a pure function of the slice-completion history).
        self._fleet_executions = 0

    # -- bookkeeping ----------------------------------------------------- #

    def _assigned_jobs(self) -> set:
        return {job_id for job_id, _ in self.assignments.values()}

    def _runnable(self) -> List[JobRecord]:
        now = time.monotonic()
        assigned = self._assigned_jobs()
        return [
            record
            for record in self.store.list()
            if record.state in (JobState.QUEUED, JobState.PAUSED)
            and record.job_id not in assigned
            and self._backoff_until.get(record.job_id, 0.0) <= now
        ]

    @staticmethod
    def _stride_key(record: JobRecord) -> str:
        """The stride account this job charges: its group, else itself."""
        return record.spec.shard_group or record.job_id

    def _effective_priority(self, record: JobRecord) -> float:
        """Static fair-share weight times the dynamic gain weight.

        The blind scheduler's priority is the spec's; in adaptive mode it
        is scaled by the account's coverage-gain weight (1.0 until the
        first observation), so productive jobs pay less virtual time per
        execution and plateaued ones pay more.
        """
        priority = float(record.spec.priority)
        if self.config.adaptive:
            estimator = self._gain.get(self._stride_key(record))
            if estimator is not None:
                priority *= estimator.weight()
        return priority

    def _stride(self, record: JobRecord, executions: float) -> float:
        """The one executions→virtual-time formula.

        Both users — seeding a job's account from its resumed execution
        count and charging a completed slice's delta — must divide by the
        same effective priority, or a dynamic-weight change would bend
        them apart; factoring it here keeps that impossible.
        """
        return executions / self._effective_priority(record)

    def _virtual_time(self, record: JobRecord) -> float:
        return self._virtual.setdefault(
            self._stride_key(record), self._stride(record, record.executions)
        )

    def has_work(self) -> bool:
        """True while any job is non-terminal (running ones included)."""
        return bool(self.store.active())

    # -- slice completion ------------------------------------------------ #

    def _charge(self, record: JobRecord, executions: int) -> int:
        """Advance the job's virtual time; returns the execution delta."""
        previous = record.executions
        delta = max(0, executions - previous)
        self._virtual[self._stride_key(record)] = self._virtual_time(
            record
        ) + self._stride(record, delta)
        self._fleet_executions += delta
        return delta

    # -- adaptive gain lifecycle ----------------------------------------- #

    def _observe_gain(self, record: JobRecord, delta: int, discoveries: int) -> None:
        """Absorb a slice's outcome; park, re-park or unpark the account.

        Driven entirely by (delta executions, discoveries) pairs in
        completion order — no wall clock — so given the same event
        history the adaptive schedule is deterministic.
        """
        key = self._stride_key(record)
        estimator = self._gain.get(key)
        if estimator is None:
            estimator = self._gain[key] = GainEstimator(self.config.gain)
        estimator.observe(delta, discoveries)
        if key in self._parked:
            if estimator.should_resume():
                del self._parked[key]
            else:
                # Probe found nothing convincing: wait a full probe
                # window again, measured from the fleet's current clock.
                self._parked[key] = self._fleet_executions
        elif estimator.should_pause():
            self._parked[key] = self._fleet_executions

    def _probe_eligible(self, record: JobRecord) -> bool:
        """Not parked, or parked long enough to have earned a probe."""
        parked_at = self._parked.get(self._stride_key(record))
        if parked_at is None:
            return True
        return (
            self._fleet_executions - parked_at >= self.config.gain.probe_every
        )

    def gain_snapshot(self) -> Dict[str, dict]:
        """stride-account key -> estimator state (adaptive mode only).

        What ``/metrics`` renders as gauges; each entry carries the
        decayed evidence counts, posterior, weight and parked flag.
        """
        return {
            key: {**estimator.snapshot(), "parked": key in self._parked}
            for key, estimator in self._gain.items()
        }

    def gain_state(self, record: JobRecord) -> Optional[dict]:
        """One job's gain state, or None when untracked/non-adaptive."""
        if not self.config.adaptive:
            return None
        key = self._stride_key(record)
        estimator = self._gain.get(key)
        if estimator is None:
            return None
        return {**estimator.snapshot(), "parked": key in self._parked}

    def _handle_ok(self, outcome: SliceResult) -> None:
        record = self.store.get(outcome.job_id)
        if record.state in TERMINAL_STATES:
            # Cancelled (or otherwise resolved) while the slice was in
            # flight: drop the result, keep the snapshot on disk.
            return
        delta = self._charge(record, outcome.output.executions)
        if self.config.adaptive and record.spec.tool == "pfuzzer":
            # Discoveries this slice: the growth of the cumulative
            # emitted-inputs list over the record's last known count.
            # Equals the slice's ``input_emitted`` trace count by
            # construction, but needs no tracing to be observable.
            discoveries = max(
                0, len(outcome.output.valid_inputs) - record.valid_inputs
            )
            self._observe_gain(record, delta, discoveries)
        record.failures = 0
        self._backoff_until.pop(record.job_id, None)
        if outcome.done:
            self.store.transition(
                record.job_id,
                JobState.DONE,
                fingerprint=outcome.fingerprint,
            )
        else:
            self.store.transition(record.job_id, JobState.PAUSED)
        record = self.store.update_progress(
            record.job_id,
            executions=outcome.output.executions,
            valid_inputs=len(outcome.output.valid_inputs),
            resumes=outcome.output.resumes,
            slices=record.slices + 1,
            wall_time=outcome.output.wall_time,
            crashes=getattr(outcome.output, "crashes", 0),
        )
        if self.on_slice is not None:
            metrics = CampaignMetrics.from_output(
                outcome.output,
                record.spec.budget,
                status="ok" if outcome.done else "paused",
                attempts=record.slices,
                peak_rss_bytes=outcome.peak_rss_bytes,
            )
            self.on_slice(
                record, metrics, delta, outcome.slice_wall, outcome.trace_events
            )

    def _handle_failure(self, job_id: str, error: str) -> None:
        """Crash/timeout path: bounded retry with backoff, else FAILED.

        Every retry resumes from the job's newest snapshot, so repeated
        attempts make forward progress instead of re-burning the budget.
        """
        try:
            record = self.store.get(job_id)
        except Exception:  # pragma: no cover - job table raced
            return
        if record.state in TERMINAL_STATES:
            return
        record.failures += 1
        if record.failures > self.config.retries:
            self.store.transition(job_id, JobState.FAILED, error=error)
            return
        delay = self.config.backoff * (2 ** (record.failures - 1))
        self._backoff_until[job_id] = time.monotonic() + delay
        if record.state is JobState.RUNNING:
            self.store.transition(job_id, JobState.QUEUED, error=error)

    def _handle_message(self, message: Tuple) -> None:
        kind, worker_id = message[0], message[1]
        self.assignments.pop(worker_id, None)
        if kind == "ok":
            self._handle_ok(message[3])
        elif kind == "timeout":
            self._handle_failure(
                message[2],
                f"slice exceeded {self.config.slice_timeout:g}s wall-clock limit"
                if self.config.slice_timeout
                else "slice timed out",
            )
        else:  # "error"
            self._handle_failure(message[2], message[3])

    # -- event loop ------------------------------------------------------ #

    def _reap_dead_workers(self) -> None:
        for worker_id, exit_code in self.pool.reap():
            assignment = self.assignments.pop(worker_id, None)
            if assignment is not None:
                job_id, _ = assignment
                self._handle_failure(
                    job_id, f"worker died (exit code {exit_code})"
                )

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker_id in self.pool.worker_ids():
            assignment = self.assignments.get(worker_id)
            if assignment is None:
                continue
            job_id, deadline = assignment
            if deadline is None or now < deadline:
                continue
            self.pool.remove(worker_id, terminate=True)
            self.assignments.pop(worker_id, None)
            self._handle_failure(job_id, "slice hung past the watchdog deadline")

    def _abort_cancelled(self) -> None:
        """Kill workers whose job was cancelled mid-slice (snapshot kept)."""
        for worker_id in self.pool.worker_ids():
            assignment = self.assignments.get(worker_id)
            if assignment is None:
                continue
            job_id, _ = assignment
            try:
                state = self.store.get(job_id).state
            except Exception:  # pragma: no cover - job table raced
                continue
            if state is JobState.CANCELLED:
                self.pool.remove(worker_id, terminate=True)
                self.assignments.pop(worker_id, None)

    def _dispatch_ready(self) -> None:
        idle = [
            worker_id
            for worker_id in self.pool.worker_ids()
            if worker_id not in self.assignments
        ]
        for worker_id in idle:
            runnable = self._runnable()
            if not runnable:
                break
            if self.config.adaptive and self._parked:
                unparked = [r for r in runnable if self._probe_eligible(r)]
                # If every runnable account is parked inside its probe
                # window, probe the fair-share winner immediately instead:
                # idle workers over parked-only fleets would deadlock
                # run_until_idle (and waste capacity in the service loop).
                if unparked:
                    runnable = unparked
            record = min(
                runnable,
                # Gang members tie on their shared account; the extra
                # executions term rotates the group round-robin (least
                # progressed member first) instead of letting the lowest
                # seq drain its whole budget before its peers start.
                key=lambda r: (
                    self._virtual_time(r),
                    r.executions if r.spec.shard_group is not None else 0,
                    r.seq,
                ),
            )
            self.store.transition(record.job_id, JobState.RUNNING)
            self.dispatch_log.append(record.job_id)
            deadline = (
                time.monotonic()
                + self.config.slice_timeout
                + self.config.watchdog_grace
                if self.config.slice_timeout is not None
                else None
            )
            self.assignments[worker_id] = (record.job_id, deadline)
            spec = record.spec
            self.pool.send(
                worker_id,
                {
                    "job_id": record.job_id,
                    "tool": spec.tool,
                    "subject": spec.subject,
                    "budget": spec.budget,
                    "seed": spec.seed,
                    "coverage_backend": spec.coverage_backend,
                    "checkpoint_every": spec.checkpoint_every,
                    "checkpoint_dir": _job_checkpoint_dir(
                        self.state_dir, record.job_id
                    ),
                    "slice_executions": self.config.slice_executions,
                    "slice_timeout": self.config.slice_timeout,
                    "trace": spec.trace,
                    "shard_id": spec.shard_id,
                    "shard_count": spec.shards,
                    "sync_every": spec.sync_every,
                    "cull_every": spec.cull_every,
                    "hybrid": spec.hybrid,
                    "mine_after": spec.mine_after,
                    "gen_batch": spec.gen_batch,
                    "gen_depth": spec.gen_depth,
                    "hunt_crashes": spec.hunt_crashes,
                    "subject_module": spec.subject_module,
                    "sync_store": (
                        str(
                            self.state_dir
                            / "groups"
                            / spec.shard_group
                            / "corpus.jsonl"
                        )
                        if spec.shard_group is not None
                        else None
                    ),
                },
            )

    def _ensure_capacity(self) -> None:
        wanted = min(
            self.config.workers,
            len(self.assignments) + len(self._runnable()),
        )
        while len(self.pool) < wanted:
            self.pool.spawn()

    def step(self, drain_timeout: float = 0.05) -> None:
        """One scheduling round: collect, recover, watchdog, dispatch."""
        for message in self.pool.drain(timeout=drain_timeout):
            self._handle_message(message)
        self._reap_dead_workers()
        self._enforce_deadlines()
        self._abort_cancelled()
        self._ensure_capacity()
        self._dispatch_ready()

    def run_until_idle(self) -> None:
        """Drive :meth:`step` until every job reaches a terminal state."""
        try:
            while self.has_work():
                self.step()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Kill the pool.  In-flight slices die; their snapshots survive,
        and a journal replay re-queues their jobs as resumable."""
        self.pool.shutdown()
        self.assignments.clear()
