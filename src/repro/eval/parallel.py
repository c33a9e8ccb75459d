"""Parallel campaign executor: the evaluation grid as a fault-isolated pool.

The paper's evaluation grid (3 tools x 5 subjects x N repetitions) is
embarrassingly parallel — every run is independent, "48 CPU-hours per
subject/tool, 3 repetitions, best run".  :func:`run_grid` fans a list of
:class:`RunSpec` cells out across worker processes and guarantees:

* **fault isolation** — a worker that crashes or stalls marks only its own
  cell ``FAILED``/``TIMEOUT``; the rest of the grid completes;
* **per-run wall-clock timeouts** — enforced in-worker by
  :func:`repro.runtime.limits.time_limit`, with a parent-side watchdog as
  the backstop for hard hangs (workers past their deadline are killed and
  replaced);
* **bounded retry with backoff** — crashed runs are retried up to
  ``retries`` times with exponential backoff (timeouts are not retried
  unless checkpointing is on: a run that exhausted its budget once will
  again — but a *resumed* run continues from its snapshot instead of
  restarting, so with ``checkpoint_dir`` set, timeouts retry up to
  ``resume_retries`` times);
* **durability** — with ``checkpoint_dir`` set, every pFuzzer cell
  snapshots into its own ``<tool>-<subject>-s<seed>`` subdirectory and
  every attempt resumes from the newest valid snapshot, so a crashed or
  killed cell loses at most one checkpoint interval of work and the
  resumed result is byte-identical to an uninterrupted run;
* **deterministic ordering** — results come back in spec order regardless
  of completion order, so :func:`parallel_best_of` and the table/figure
  pipelines are byte-identical to the sequential path for the same seeds.

Observability rides along: every resolved cell yields a
:class:`repro.eval.metrics.CampaignMetrics` record (written as JSONL when
``metrics_path`` is given) and an optional ``progress`` callback streams
records in completion order.  With ``corpus_path`` set, the parent appends
every successful cell's valid inputs to that
:class:`~repro.eval.corpus_store.CorpusStore` in spec order (parent-side,
after the grid resolves, so concurrent workers never interleave writes).

Fault injection for the test suite goes through the ``_test_fail_on``
hook: a mapping from ``(tool, subject, seed)`` to one of ``"crash"``
(always die), ``"flaky"`` (die on the first attempt only), ``"hang"``
(stall until the in-worker alarm fires), ``"hang-hard"`` (stall with the
alarm blocked, so only the parent watchdog can recover) or
``"kill-at-N"`` (SIGKILL the worker mid-campaign once the fuzzer reaches
``N * (attempt + 1)`` executions; from the third attempt on the run is
clean — exercising multiple resumes of one cell).
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.eval.campaign import ToolOutput, run_campaign, validate_campaign
from repro.eval.metrics import CampaignMetrics, write_jsonl
from repro.runtime.limits import RunTimeout, peak_rss_bytes, time_limit

#: Exit code used by injected crashes, distinguishable from real signals.
_CRASH_EXIT_CODE = 23

#: Key identifying a run for fault injection: (tool, subject, seed).
FaultKey = Tuple[str, str, int]


class RunStatus(Enum):
    """Terminal state of one grid cell."""

    OK = "ok"
    FAILED = "failed"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class RunSpec:
    """One cell of the evaluation grid."""

    tool: str
    subject: str
    budget: int
    seed: int = 0

    def fault_key(self) -> FaultKey:
        return (self.tool, self.subject, self.seed)


@dataclass
class RunRecord:
    """Resolved outcome of one grid cell.

    ``output`` is ``None`` exactly when ``status`` is not ``OK``; the
    ``metrics`` record is always present so failed cells stay auditable.
    """

    spec: RunSpec
    status: RunStatus
    output: Optional[ToolOutput]
    metrics: CampaignMetrics
    attempts: int = 1
    error: Optional[str] = None


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _inject_fault(mode: str, attempt: int, timeout: Optional[float]) -> None:
    """Simulate a worker failure (test hook; see module docstring)."""
    if mode == "crash" or (mode == "flaky" and attempt == 0):
        os._exit(_CRASH_EXIT_CODE)
    if mode.startswith("kill-at-"):
        import repro.core.fuzzer as fuzzer_module

        if attempt < 2:
            # The fuzzer SIGKILLs its own process at the threshold — no
            # cleanup, no atexit, exactly like the OOM killer.  Scaling the
            # threshold by attempt lets a resumed run progress past the
            # previous kill point before dying again.
            fuzzer_module._TEST_KILL_AT = int(mode[len("kill-at-"):]) * (
                attempt + 1
            )
        return
    if mode in ("hang", "hang-hard"):
        if mode == "hang-hard" and hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        stall = min(300.0, (timeout or 1.0) * 50)
        deadline = time.monotonic() + stall
        while time.monotonic() < deadline:
            time.sleep(0.05)


def _cell_checkpoint_dir(root: str, tool: str, subject: str, seed: int) -> str:
    """Per-cell snapshot directory: cells never share generations."""
    return os.path.join(root, f"{tool}-{subject}-s{seed}")


def _worker_main(
    worker_id: int,
    inbox,
    results,
    timeout: Optional[float],
    fail_on: Optional[Dict[FaultKey, str]],
    durability: Optional[Dict[str, object]],
    trace_dir: Optional[str] = None,
    options: Optional[Dict[str, object]] = None,
) -> None:
    """Worker loop: run (task_id, spec, attempt) grid cells until told to stop.

    ``options`` are extra :func:`run_campaign` keyword arguments shared by
    every cell (cull cadence, hybrid and crash-hunting modes, the plugin
    module); per-cell checkpoint and trace paths are added here.
    """
    for task_id, (tool, subject, budget, seed), attempt in receive_tasks(inbox):
        started = time.monotonic()
        campaign_options: Dict[str, object] = dict(options or {})
        if durability is not None:
            campaign_options["checkpoint_dir"] = _cell_checkpoint_dir(
                str(durability["root"]), tool, subject, seed
            )
            # Every attempt resumes: the first finds no snapshot and starts
            # fresh; retries continue from where the previous attempt died.
            campaign_options["resume"] = True
            if durability.get("every") is not None:
                campaign_options["checkpoint_every"] = durability["every"]
        if trace_dir is not None:
            # Append-mode NDJSON: a retried attempt continues the same file,
            # with its "resumed" event marking the seam.
            campaign_options["trace_path"] = os.path.join(
                trace_dir, f"{tool}-{subject}-s{seed}.ndjson"
            )
        try:
            with time_limit(timeout):
                import repro.core.fuzzer as fuzzer_module

                fuzzer_module._TEST_KILL_AT = None
                mode = (fail_on or {}).get((tool, subject, seed))
                if mode:
                    _inject_fault(mode, attempt, timeout)
                output = run_campaign(
                    tool, subject, budget, seed=seed, **campaign_options
                )
            results.send(
                (
                    "ok",
                    worker_id,
                    task_id,
                    attempt,
                    output,
                    peak_rss_bytes(),
                    time.monotonic() - started,
                )
            )
        except RunTimeout:
            results.send(
                ("timeout", worker_id, task_id, attempt, time.monotonic() - started)
            )
        except BaseException as exc:  # noqa: BLE001 - isolate, report, survive
            results.send(
                (
                    "error",
                    worker_id,
                    task_id,
                    attempt,
                    f"{type(exc).__name__}: {exc}",
                    time.monotonic() - started,
                )
            )


# --------------------------------------------------------------------- #
# Worker pool
# --------------------------------------------------------------------- #


def receive_tasks(inbox) -> Iterator:
    """Child side of :class:`WorkerPool`: yield tasks until told to stop.

    Every pool worker's ``target`` loops over this.  It ends on the
    ``None`` sentinel that :meth:`WorkerPool.shutdown` sends, on EOF, and
    when the parent dies.  ``inbox`` is the worker's end of its own pipe,
    not a shared queue: a worker dying between tasks (a crash, the parent
    watchdog's SIGTERM) can never orphan a lock or leave a half-written
    frame that would wedge its siblings.

    EOF only fires once every copy of the inbox write-end is closed, and
    siblings forked later inherit this worker's copy, so a SIGKILLed
    parent would leave idle workers asleep in ``recv`` forever, holding
    inherited sockets open.  The loop therefore polls with a timeout and
    stops once re-parented.
    """
    # The spawning pid as the parent recorded it before the fork: reading
    # os.getppid() here would already return the adopter's pid if the
    # parent died while this worker was starting, and the loop would
    # then never notice.
    spawner = multiprocessing.parent_process()
    parent = spawner.pid if spawner is not None else os.getppid()
    while True:
        try:
            while not inbox.poll(1.0):
                if os.getppid() != parent:
                    return
            item = inbox.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        yield item


@dataclass
class _Worker:
    worker_id: int
    process: multiprocessing.process.BaseProcess
    task_conn: multiprocessing.connection.Connection  # parent -> worker
    result_conn: multiprocessing.connection.Connection  # worker -> parent


class WorkerPool:
    """Bounded pool of pipe-connected worker processes.

    The process/pipe mechanics shared by the evaluation grid
    (:class:`_GridExecutor`) and the campaign service's time-slicing
    scheduler (:mod:`repro.service.scheduler`): spawn workers running
    ``target(worker_id, inbox, results, *extra_args)`` (a loop over
    :func:`receive_tasks`), send them tasks,
    drain their result messages, and detect/remove dead ones.  Task
    semantics — what a task is, retry policy, deadlines — stay with the
    caller; the pool only guarantees that a worker dying at any point
    surfaces as EOF/exit-code, never as a wedged sibling (per-worker pipes,
    no shared queues or locks).
    """

    def __init__(self, target, extra_args: Tuple = ()) -> None:
        self._target = target
        self._extra_args = tuple(extra_args)
        # fork keeps the child's hash seed identical to the parent's, which
        # the sequential-equivalence guarantee relies on (path signatures
        # hash branch sets); fall back to the platform default elsewhere.
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0

    def __len__(self) -> int:
        return len(self._workers)

    def worker_ids(self) -> List[int]:
        return list(self._workers)

    def spawn(self) -> int:
        """Start one worker; returns its pool-unique id."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_recv, task_send = self.ctx.Pipe(duplex=False)
        result_recv, result_send = self.ctx.Pipe(duplex=False)
        # daemon=False: plugin subjects are arbitrary code that may start
        # processes of their own, and daemonic processes may not have
        # children.  Orphan cleanup does not rely on the flag anyway —
        # receive_tasks polls getppid and stops once re-parented, and
        # shutdown() sends sentinels then terminates.
        process = self.ctx.Process(
            target=self._target,
            args=(worker_id, task_recv, result_send) + self._extra_args,
            daemon=False,
        )
        process.start()
        # Close the child's ends immediately: the parent must not hold a
        # duplicate of result_send, or a dead worker's pipe would never
        # reach EOF (and later forks must not inherit this worker's ends).
        task_recv.close()
        result_send.close()
        self._workers[worker_id] = _Worker(
            worker_id, process, task_send, result_recv
        )
        return worker_id

    def send(self, worker_id: int, task) -> bool:
        """Send one task; False when the worker died before delivery."""
        try:
            self._workers[worker_id].task_conn.send(task)
            return True
        except (OSError, ValueError):
            return False

    def drain(self, timeout: float = 0.05) -> List[Tuple]:
        """Collect every result message currently readable.

        A worker that died mid-send leaves EOF (or a truncated frame) on
        its pipe; that is silently skipped here — :meth:`reap` is where the
        death itself is observed.
        """
        conns = [worker.result_conn for worker in self._workers.values()]
        if not conns:  # pragma: no cover - only between respawns
            time.sleep(min(timeout, 0.01))
            return []
        messages = []
        for conn in multiprocessing.connection.wait(conns, timeout=timeout):
            try:
                messages.append(conn.recv())
            except (EOFError, OSError):
                continue
        return messages

    def reap(self) -> List[Tuple[int, Optional[int]]]:
        """Remove dead workers; returns their ``(worker_id, exitcode)``."""
        dead = []
        for worker_id in list(self._workers):
            worker = self._workers[worker_id]
            if worker.process.is_alive():
                continue
            dead.append((worker_id, worker.process.exitcode))
            self.remove(worker_id, terminate=False)
        return dead

    def remove(self, worker_id: int, terminate: bool) -> None:
        worker = self._workers.pop(worker_id)
        if terminate and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(timeout=2.0)
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def shutdown(self) -> None:
        """Send every worker the exit sentinel, then terminate stragglers."""
        for worker_id in self.worker_ids():
            self.send(worker_id, None)
        for worker_id in self.worker_ids():
            self.remove(worker_id, terminate=True)


class _GridExecutor:
    """One run_grid invocation: pool, dispatch, watchdog, retry, collect."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        jobs: int,
        timeout: Optional[float],
        retries: int,
        backoff: float,
        watchdog_grace: float,
        progress: Optional[Callable[[RunRecord], None]],
        fail_on: Optional[Dict[FaultKey, str]],
        durability: Optional[Dict[str, object]] = None,
        resume_retries: int = 0,
        trace_dir: Optional[str] = None,
        options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.specs = list(specs)
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.watchdog_grace = watchdog_grace
        self.progress = progress
        self.fail_on = dict(fail_on) if fail_on else None
        self.durability = durability
        self.resume_retries = resume_retries
        self.pool = WorkerPool(
            _worker_main, (timeout, self.fail_on, durability, trace_dir, options)
        )
        self.records: List[Optional[RunRecord]] = [None] * len(self.specs)
        self.pending = deque(
            (task_id, 0) for task_id in range(len(self.specs))
        )
        self.retry_heap: List[Tuple[float, int, int]] = []
        self.assignments: Dict[int, Tuple[int, int, Optional[float]]] = {}
        self.unresolved = len(self.specs)

    # -- task resolution ------------------------------------------------ #

    def _finish(self, task_id: int, record: RunRecord) -> None:
        if self.records[task_id] is not None:  # pragma: no cover - raced twice
            return
        self.records[task_id] = record
        self.unresolved -= 1
        if self.progress is not None:
            self.progress(record)

    def _failure_resumes(self, attempt: int) -> int:
        """Checkpoint restores a failed cell performed before giving up.

        With durability on, every attempt after the first resumed from the
        previous attempt's snapshot, so the 0-based ``attempt`` index *is*
        the resume count.  Without durability nothing ever resumed.
        """
        return attempt if self.durability is not None else 0

    def _retry_or_fail(
        self, task_id: int, attempt: int, error: str, wall: float
    ) -> None:
        """Crash/exception path: bounded retry with exponential backoff."""
        if self.records[task_id] is not None:  # pragma: no cover - raced twice
            return
        spec = self.specs[task_id]
        if attempt < self.retries:
            delay = self.backoff * (2**attempt)
            heapq.heappush(
                self.retry_heap, (time.monotonic() + delay, task_id, attempt + 1)
            )
            return
        metrics = CampaignMetrics.for_failure(
            spec.tool,
            spec.subject,
            spec.seed,
            spec.budget,
            status=RunStatus.FAILED.value,
            attempts=attempt + 1,
            wall_time=wall,
            resumes=self._failure_resumes(attempt),
        )
        self._finish(
            task_id,
            RunRecord(spec, RunStatus.FAILED, None, metrics, attempt + 1, error),
        )

    def _timeout_task(self, task_id: int, attempt: int, wall: float) -> None:
        """Resolve (or, with checkpointing, retry) a timed-out cell.

        Without checkpointing a timeout is deterministic — re-running would
        exhaust the same budget again — so it is never retried.  With
        ``checkpoint_dir`` set, the retry *resumes* from the last snapshot
        instead of restarting, so each attempt makes fresh progress; such
        timeouts retry up to ``resume_retries`` times.
        """
        if self.records[task_id] is not None:  # pragma: no cover - raced twice
            return
        if self.durability is not None and attempt < self.resume_retries:
            delay = self.backoff * (2**attempt)
            heapq.heappush(
                self.retry_heap, (time.monotonic() + delay, task_id, attempt + 1)
            )
            return
        spec = self.specs[task_id]
        metrics = CampaignMetrics.for_failure(
            spec.tool,
            spec.subject,
            spec.seed,
            spec.budget,
            status=RunStatus.TIMEOUT.value,
            attempts=attempt + 1,
            wall_time=wall,
            resumes=self._failure_resumes(attempt),
        )
        self._finish(
            task_id,
            RunRecord(
                spec,
                RunStatus.TIMEOUT,
                None,
                metrics,
                attempt + 1,
                f"exceeded {self.timeout:g}s wall-clock limit"
                if self.timeout
                else "timed out",
            ),
        )

    # -- event loop ----------------------------------------------------- #

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, task_id, attempt = heapq.heappop(self.retry_heap)
            self.pending.append((task_id, attempt))
        idle = [
            worker_id
            for worker_id in self.pool.worker_ids()
            if worker_id not in self.assignments
        ]
        for worker_id in idle:
            if not self.pending:
                break
            task_id, attempt = self.pending.popleft()
            spec = self.specs[task_id]
            deadline = (
                now + self.timeout + self.watchdog_grace
                if self.timeout is not None
                else None
            )
            self.assignments[worker_id] = (task_id, attempt, deadline)
            # A worker that died between spawn and dispatch keeps its
            # assignment in place — _reap_dead_workers re-queues it.
            self.pool.send(
                worker_id,
                (
                    task_id,
                    (spec.tool, spec.subject, spec.budget, spec.seed),
                    attempt,
                ),
            )

    def _handle_message(self, message: Tuple) -> None:
        kind, worker_id = message[0], message[1]
        self.assignments.pop(worker_id, None)
        if kind == "ok":
            _, _, task_id, attempt, output, rss, wall = message
            spec = self.specs[task_id]
            metrics = CampaignMetrics.from_output(
                output,
                spec.budget,
                status=RunStatus.OK.value,
                attempts=attempt + 1,
                peak_rss_bytes=rss,
            )
            self._finish(
                task_id, RunRecord(spec, RunStatus.OK, output, metrics, attempt + 1)
            )
        elif kind == "timeout":
            _, _, task_id, attempt, wall = message
            self._timeout_task(task_id, attempt, wall)
        else:  # "error"
            _, _, task_id, attempt, error, wall = message
            self._retry_or_fail(task_id, attempt, error, wall)

    def _drain_results(self) -> None:
        for message in self.pool.drain(timeout=0.05):
            self._handle_message(message)

    def _reap_dead_workers(self) -> None:
        for worker_id, exit_code in self.pool.reap():
            assignment = self.assignments.pop(worker_id, None)
            if assignment is not None:
                task_id, attempt, _ = assignment
                self._retry_or_fail(
                    task_id,
                    attempt,
                    f"worker died (exit code {exit_code})",
                    0.0,
                )

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker_id in self.pool.worker_ids():
            assignment = self.assignments.get(worker_id)
            if assignment is None:
                continue
            task_id, attempt, deadline = assignment
            if deadline is None or now < deadline:
                continue
            self.pool.remove(worker_id, terminate=True)
            self.assignments.pop(worker_id, None)
            self._timeout_task(task_id, attempt, self.timeout or 0.0)

    def _ensure_capacity(self) -> None:
        wanted = min(self.jobs, self.unresolved)
        while len(self.pool) < wanted:
            self.pool.spawn()

    def run(self) -> List[RunRecord]:
        try:
            self._ensure_capacity()
            while self.unresolved:
                self._dispatch_ready()
                self._drain_results()
                self._reap_dead_workers()
                self._enforce_deadlines()
                self._ensure_capacity()
        finally:
            self.pool.shutdown()
        return [record for record in self.records if record is not None]


def run_grid(
    specs: Sequence[RunSpec],
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.05,
    watchdog_grace: float = 5.0,
    metrics_path: Optional[Union[str, "os.PathLike[str]"]] = None,
    progress: Optional[Callable[[RunRecord], None]] = None,
    checkpoint_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
    checkpoint_every: Optional[int] = None,
    resume_retries: int = 2,
    corpus_path: Optional[Union[str, "os.PathLike[str]"]] = None,
    trace_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
    cull_every: Optional[int] = None,
    hybrid: bool = False,
    mine_after: Optional[int] = None,
    gen_batch: Optional[int] = None,
    gen_depth: Optional[int] = None,
    hunt_crashes: bool = False,
    subject_module: Optional[str] = None,
    _test_fail_on: Optional[Mapping[FaultKey, str]] = None,
) -> List[RunRecord]:
    """Execute every spec across a worker pool; records come back in order.

    Args:
        specs: grid cells to run; results are returned in this order.
        jobs: worker processes (default ``os.cpu_count()``).
        timeout: per-run wall-clock limit in seconds (``None`` = unlimited).
        retries: extra attempts for crashed runs (timeouts never retry
            unless ``checkpoint_dir`` makes them resumable).
        backoff: base delay before a retry; doubles per attempt.
        watchdog_grace: extra seconds past ``timeout`` before the parent
            kills a hung worker (the in-worker alarm normally fires first).
        metrics_path: write one metrics JSONL line per cell, in spec order.
        progress: callback invoked with each :class:`RunRecord` as it
            resolves, in completion order (the live results stream).
        checkpoint_dir: root directory for durable snapshots; each cell
            snapshots into ``<tool>-<subject>-s<seed>/`` below it and every
            attempt resumes from the newest valid snapshot there (pFuzzer
            cells only; baseline tools ignore durability).
        checkpoint_every: snapshot cadence in executions (pFuzzer default
            when ``None``).
        resume_retries: with ``checkpoint_dir`` set, extra attempts for
            timed-out cells (each attempt resumes, so repeated attempts
            make forward progress instead of re-burning the same budget).
        corpus_path: append every successful cell's valid inputs to this
            :class:`~repro.eval.corpus_store.CorpusStore` file, parent-side
            in spec order after the grid resolves.
        trace_dir: write each cell's NDJSON campaign trace to
            ``<tool>-<subject>-s<seed>.ndjson`` below this directory
            (pFuzzer cells only; created if missing).
        cull_every: queue-hygiene cadence in executions for pFuzzer cells
            (:attr:`repro.core.config.FuzzerConfig.cull_every`).
            Environmental like ``trace_dir`` — cell results are
            cull-independent, which the cull equivalence suite asserts.
        hybrid: run pFuzzer cells in hybrid mine/generate mode (see
            :mod:`repro.hybrid`).  Not environmental: it changes cell
            results and participates in each cell's snapshot
            fingerprint, so retries/resumes must (and do) keep it.
        mine_after: hybrid gain-evidence/inter-phase floor.
        gen_batch: hybrid generated candidates per flood.
        gen_depth: hybrid compiled-generator flood depth budget.
        hunt_crashes: run pFuzzer cells in crash-hunting mode (see
            :attr:`repro.core.config.FuzzerConfig.hunt_crashes`).  Like
            ``hybrid``, not environmental: it changes cell results and
            participates in snapshot fingerprints, so retries keep it.
        subject_module: import this module (registering its plugin
            subjects) before validation, and again inside every worker
            before the cell runs — workers may be spawned rather than
            forked, so the parent's import does not always carry over.
        _test_fail_on: fault-injection hook for the test suite; see the
            module docstring.

    Raises:
        ValueError: any spec names an unknown tool or subject (checked up
            front, before any worker starts).
    """
    if subject_module is not None:
        from repro.subjects.registry import load_subject_module

        load_subject_module(subject_module)
    specs = [
        spec if isinstance(spec, RunSpec) else RunSpec(*spec) for spec in specs
    ]
    for spec in specs:
        validate_campaign(spec.tool, spec.subject)
    if metrics_path is not None:
        from pathlib import Path

        parent = Path(metrics_path).parent
        if not parent.is_dir():
            raise ValueError(
                f"metrics path {str(metrics_path)!r}: directory {str(parent)!r} "
                "does not exist"
            )
    if not specs:
        if metrics_path is not None:
            write_jsonl(metrics_path, [])
        return []
    durability: Optional[Dict[str, object]] = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        durability = {"root": str(checkpoint_dir), "every": checkpoint_every}
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_dir = str(trace_dir)
    # Extra run_campaign options shared by every cell.  cull_every is
    # environmental; hybrid and hunt_crashes are campaign state that each
    # cell's checkpoints fingerprint, so every retry of a cell must run
    # with the same options (they come from here).  subject_module is
    # re-imported inside the worker, covering spawn-start platforms where
    # the parent's import is not inherited.
    options: Dict[str, object] = {}
    if cull_every is not None:
        options["cull_every"] = cull_every
    if hybrid:
        options["hybrid"] = True
        if mine_after is not None:
            options["mine_after"] = mine_after
        if gen_batch is not None:
            options["gen_batch"] = gen_batch
        if gen_depth is not None:
            options["gen_depth"] = gen_depth
    if hunt_crashes:
        options["hunt_crashes"] = True
    if subject_module is not None:
        options["subject_module"] = subject_module
    effective_jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
    effective_jobs = min(effective_jobs, len(specs))
    grid = _GridExecutor(
        specs,
        effective_jobs,
        timeout,
        retries,
        backoff,
        watchdog_grace,
        progress,
        dict(_test_fail_on) if _test_fail_on else None,
        durability,
        resume_retries,
        trace_dir,
        options,
    )
    records = grid.run()
    if metrics_path is not None:
        write_jsonl(metrics_path, [record.metrics for record in records])
    if corpus_path is not None:
        from repro.eval.corpus_store import CorpusStore

        store = CorpusStore(corpus_path)
        for record in records:
            if record.output is not None:
                store.add_output(record.output)
    return records


# --------------------------------------------------------------------- #
# Sharded campaigns (see repro.eval.shards)
# --------------------------------------------------------------------- #


def run_sharded_campaign(
    subject: str,
    budget: int,
    shards: int = 2,
    *,
    base_seed: int = 0,
    slice_executions: int = 200,
    sync_every: Optional[int] = None,
    checkpoint_every: int = 100,
    shard_rotate_every: int = 200,
    coverage_backend: str = "settrace",
    root: Union[str, "os.PathLike[str]", None] = None,
):
    """Grid-level entry point for a sharded campaign group.

    Builds a :class:`~repro.eval.shards.ShardPlan` and runs it through
    :func:`~repro.eval.shards.run_sharded`: ``shards`` shard-aware
    pFuzzer campaigns on one subject, exchanging valid inputs through a
    shared corpus store under ``root`` (a temporary directory when None
    — pass a real one to make the group resumable).  Returns the
    :class:`~repro.eval.shards.ShardGroupResult`.
    """
    import tempfile

    from repro.eval.shards import ShardPlan, run_sharded

    plan = ShardPlan(
        subject=subject,
        budget=budget,
        shards=shards,
        base_seed=base_seed,
        slice_executions=slice_executions,
        sync_every=sync_every,
        checkpoint_every=checkpoint_every,
        shard_rotate_every=shard_rotate_every,
        coverage_backend=coverage_backend,
    )
    if root is None:
        root = tempfile.mkdtemp(prefix="repro-shards-")
    return run_sharded(plan, root)


# --------------------------------------------------------------------- #
# Sequential-API mirrors
# --------------------------------------------------------------------- #


def parallel_campaigns(
    subjects: Sequence[str],
    tools: Sequence[str],
    budgets: Optional[Dict[str, int]] = None,
    default_budget: int = 2_000,
    seed: int = 0,
    **grid_options,
) -> Dict[Tuple[str, str], ToolOutput]:
    """Parallel mirror of :func:`repro.eval.campaign.run_campaigns`.

    Failed/timed-out cells map to an empty :class:`ToolOutput` (zero
    executions, no valid inputs) so downstream tables keep their shape.
    """
    specs = [
        RunSpec(tool, subject, (budgets or {}).get(subject, default_budget), seed)
        for subject in subjects
        for tool in tools
    ]
    records = run_grid(specs, **grid_options)
    results: Dict[Tuple[str, str], ToolOutput] = {}
    for record in records:
        spec = record.spec
        output = record.output
        if output is None:
            output = ToolOutput(tool=spec.tool, subject=spec.subject, seed=spec.seed)
        results[(spec.subject, spec.tool)] = output
    return results


def parallel_best_of(
    tool: str,
    subject_name: str,
    budget: int,
    metric: Callable[[ToolOutput], float],
    repetitions: int = 3,
    base_seed: int = 0,
    **grid_options,
) -> ToolOutput:
    """Parallel mirror of :func:`repro.eval.campaign.best_of`.

    Repetitions run concurrently but are compared in seed order, so the
    selected repetition is identical to the sequential path (``max`` keeps
    the earliest maximum in both).

    Raises:
        RuntimeError: every repetition failed.
    """
    specs = [
        RunSpec(tool, subject_name, budget, base_seed + repetition)
        for repetition in range(repetitions)
    ]
    records = run_grid(specs, **grid_options)
    outputs = [record.output for record in records if record.output is not None]
    if not outputs:
        raise RuntimeError(
            f"all {repetitions} repetitions of {tool} on {subject_name} failed"
        )
    return max(outputs, key=metric)
