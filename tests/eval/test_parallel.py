"""Parallel executor: sequential equivalence, fault isolation, ordering."""

import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.campaign import best_of, run_campaign, run_campaigns
from repro.eval.parallel import (
    RunRecord,
    RunSpec,
    RunStatus,
    WorkerPool,
    parallel_best_of,
    parallel_campaigns,
    receive_tasks,
    run_grid,
)
from repro.eval.report import render_figure3
from repro.eval.token_cov import figure3


def _same_run(output, expected):
    """The determinism contract: everything except wall time matches."""
    assert output.tool == expected.tool
    assert output.subject == expected.subject
    assert output.seed == expected.seed
    assert output.valid_inputs == expected.valid_inputs
    assert output.executions == expected.executions


# --------------------------------------------------------------------- #
# Equivalence with the sequential path
# --------------------------------------------------------------------- #


def test_grid_matches_sequential_and_preserves_order():
    specs = [
        RunSpec("random", "ini", 60, 1),
        RunSpec("pfuzzer", "expr", 120, 0),
        RunSpec("random", "ini", 60, 2),
        RunSpec("afl", "ini", 60, 1),
    ]
    records = run_grid(specs, jobs=2)
    assert [record.spec for record in records] == specs
    for record in records:
        assert record.status is RunStatus.OK
        spec = record.spec
        _same_run(
            record.output,
            run_campaign(spec.tool, spec.subject, spec.budget, seed=spec.seed),
        )


@pytest.mark.parametrize("subject", ["expr", "json"])
def test_best_of_identical_to_sequential(subject):
    """Acceptance: byte-identical best_of selections at --jobs 4."""
    metric = lambda output: len(output.valid_inputs)  # noqa: E731
    budget = 150 if subject == "expr" else 250
    sequential = best_of(
        "pfuzzer", subject, budget, metric, repetitions=3, base_seed=0
    )
    parallel = parallel_best_of(
        "pfuzzer", subject, budget, metric, repetitions=3, base_seed=0, jobs=4
    )
    _same_run(parallel, sequential)


def test_figure_rows_identical_to_sequential():
    """Acceptance: table/figure rows byte-identical to the sequential path."""
    subjects, tools = ["ini"], ["random", "pfuzzer"]
    sequential = run_campaigns(subjects, tools, default_budget=80, seed=1)
    parallel = parallel_campaigns(subjects, tools, default_budget=80, seed=1, jobs=4)
    seq_corpora = {key: output.valid_inputs for key, output in sequential.items()}
    par_corpora = {key: output.valid_inputs for key, output in parallel.items()}
    seq_rendered = render_figure3(
        figure3(seq_corpora, subjects, tools), subjects, tools
    )
    par_rendered = render_figure3(
        figure3(par_corpora, subjects, tools), subjects, tools
    )
    assert par_rendered == seq_rendered


# --------------------------------------------------------------------- #
# Fault isolation
# --------------------------------------------------------------------- #


def test_crash_isolated_to_one_cell():
    specs = [RunSpec("random", "ini", 50, seed) for seed in range(4)]
    records = run_grid(
        specs,
        jobs=2,
        retries=1,
        _test_fail_on={("random", "ini", 2): "crash"},
    )
    assert [record.spec for record in records] == specs
    by_seed = {record.spec.seed: record for record in records}
    assert by_seed[2].status is RunStatus.FAILED
    assert by_seed[2].output is None
    assert by_seed[2].attempts == 2  # initial + 1 retry, both crashed
    assert "worker died" in by_seed[2].error
    for seed in (0, 1, 3):
        assert by_seed[seed].status is RunStatus.OK
        _same_run(by_seed[seed].output, run_campaign("random", "ini", 50, seed=seed))


def test_hang_isolated_to_one_cell():
    specs = [RunSpec("random", "ini", 50, seed) for seed in range(3)]
    records = run_grid(
        specs,
        jobs=2,
        timeout=1.0,
        _test_fail_on={("random", "ini", 0): "hang"},
    )
    by_seed = {record.spec.seed: record for record in records}
    assert by_seed[0].status is RunStatus.TIMEOUT
    assert by_seed[0].output is None
    for seed in (1, 2):
        assert by_seed[seed].status is RunStatus.OK
        _same_run(by_seed[seed].output, run_campaign("random", "ini", 50, seed=seed))


@pytest.mark.slow
def test_hard_hang_recovered_by_watchdog():
    """A worker with its alarm blocked is killed by the parent watchdog."""
    specs = [RunSpec("random", "ini", 50, seed) for seed in range(2)]
    records = run_grid(
        specs,
        jobs=2,
        timeout=0.5,
        watchdog_grace=1.0,
        _test_fail_on={("random", "ini", 0): "hang-hard"},
    )
    by_seed = {record.spec.seed: record for record in records}
    assert by_seed[0].status is RunStatus.TIMEOUT
    assert by_seed[1].status is RunStatus.OK


def test_flaky_run_recovers_via_retry():
    records = run_grid(
        [RunSpec("random", "ini", 50, 7)],
        jobs=1,
        retries=2,
        backoff=0.01,
        _test_fail_on={("random", "ini", 7): "flaky"},
    )
    (record,) = records
    assert record.status is RunStatus.OK
    assert record.attempts == 2
    _same_run(record.output, run_campaign("random", "ini", 50, seed=7))


def test_all_repetitions_failed_raises():
    with pytest.raises(RuntimeError, match="failed"):
        parallel_best_of(
            "random",
            "ini",
            40,
            lambda output: len(output.valid_inputs),
            repetitions=2,
            base_seed=0,
            jobs=1,
            retries=0,
            _test_fail_on={
                ("random", "ini", 0): "crash",
                ("random", "ini", 1): "crash",
            },
        )


# --------------------------------------------------------------------- #
# Plumbing
# --------------------------------------------------------------------- #


def test_empty_grid():
    assert run_grid([], jobs=2) == []


def test_unknown_spec_rejected_before_forking():
    with pytest.raises(ValueError, match="valid tools"):
        run_grid([RunSpec("libfuzzer", "ini", 10, 0)], jobs=1)
    with pytest.raises(ValueError, match="valid subjects"):
        run_grid([RunSpec("random", "nope", 10, 0)], jobs=1)


def test_progress_stream_sees_every_record():
    seen = []
    specs = [RunSpec("random", "ini", 40, seed) for seed in range(3)]
    records = run_grid(specs, jobs=2, progress=seen.append)
    assert len(seen) == 3
    assert all(isinstance(record, RunRecord) for record in seen)
    assert {record.spec.seed for record in seen} == {0, 1, 2}
    assert [record.spec for record in records] == specs


def test_metrics_jsonl_written_in_spec_order(tmp_path):
    from repro.eval.metrics import read_jsonl

    path = tmp_path / "metrics.jsonl"
    specs = [RunSpec("random", "ini", 40, seed) for seed in (5, 3, 1)]
    run_grid(specs, jobs=2, metrics_path=path)
    records = read_jsonl(path)
    assert [record.seed for record in records] == [5, 3, 1]
    assert all(record.status == "ok" for record in records)


def test_trace_dir_writes_per_cell_traces(tmp_path):
    """Each traced pFuzzer cell leaves a valid NDJSON artifact whose
    lineage replays every emitted input."""
    from repro.obs.lineage import LineageLog
    from repro.obs.trace import read_trace

    trace_dir = tmp_path / "traces"
    specs = [RunSpec("pfuzzer", "expr", 120, seed) for seed in (0, 1)]
    records = run_grid(specs, jobs=2, trace_dir=trace_dir)
    for record in records:
        assert record.status is RunStatus.OK
        path = trace_dir / f"pfuzzer-expr-s{record.spec.seed}.ndjson"
        events = read_trace(path, strict=True)
        emitted = [e for e in events if e["type"] == "input_emitted"]
        assert [e["text"] for e in emitted] == record.output.valid_inputs
        lineage = LineageLog.from_trace_events(events)
        for event in emitted:
            assert lineage.replay(event["lineage"]) == event["text"]


def test_failure_records_carry_resume_counts(tmp_path):
    """Regression: a durable cell that resumed before giving up used to
    report resumes=0 in its failure metrics."""
    spec = RunSpec("pfuzzer", "expr", 300, seed=2)
    fail_on = {spec.fault_key(): "hang"}

    (plain,) = run_grid(
        [spec], jobs=1, timeout=0.3, retries=0, _test_fail_on=fail_on
    )
    assert plain.status is RunStatus.TIMEOUT
    assert plain.metrics.resumes == 0

    (durable,) = run_grid(
        [spec],
        jobs=1,
        timeout=0.3,
        retries=0,
        resume_retries=2,
        checkpoint_dir=tmp_path / "grid",
        _test_fail_on=fail_on,
    )
    assert durable.status is RunStatus.TIMEOUT
    assert durable.attempts == 3
    assert durable.metrics.resumes == 2


# --------------------------------------------------------------------- #
# Property: equivalence holds under arbitrary small grids with faults
# --------------------------------------------------------------------- #


@pytest.mark.slow
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["random", "pfuzzer", "afl"]),
            st.sampled_from(["expr", "ini"]),
            st.integers(min_value=20, max_value=60),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    faults=st.lists(
        st.sampled_from(["", "", "crash", "flaky"]), min_size=4, max_size=4
    ),
)
def test_parallel_equals_sequential_under_faults(cells, faults):
    specs = [RunSpec(*cell) for cell in cells]
    fail_on = {
        spec.fault_key(): mode
        for spec, mode in zip(specs, faults)
        if mode
    }
    records = run_grid(
        specs, jobs=2, retries=1, backoff=0.01, _test_fail_on=fail_on
    )
    assert [record.spec for record in records] == specs
    for record in records:
        spec = record.spec
        mode = fail_on.get(spec.fault_key())
        if mode == "crash":
            assert record.status is RunStatus.FAILED
            assert record.output is None
            continue
        assert record.status is RunStatus.OK, record
        _same_run(
            record.output,
            run_campaign(spec.tool, spec.subject, spec.budget, seed=spec.seed),
        )


# --------------------------------------------------------------------- #
# The pool workers' receive loop
# --------------------------------------------------------------------- #


def test_receive_tasks_stops_on_sentinel_and_on_eof():
    inbox, outbox = multiprocessing.Pipe(duplex=False)
    for task in ("a", {"job_id": "b"}, None, "never read"):
        outbox.send(task)
    assert list(receive_tasks(inbox)) == ["a", {"job_id": "b"}]
    inbox.close()
    outbox.close()

    inbox, outbox = multiprocessing.Pipe(duplex=False)
    outbox.send("last")
    outbox.close()
    assert list(receive_tasks(inbox)) == ["last"]
    inbox.close()


def _idle_worker(worker_id, inbox, results):
    for _ in receive_tasks(inbox):
        pass


def _spawn_worker_then_die(report):
    pool = WorkerPool(_idle_worker)
    worker_id = pool.spawn()
    report.send(pool._workers[worker_id].process.pid)
    os._exit(0)  # die without shutdown(): the worker is orphaned


def test_orphaned_pool_worker_exits():
    """A worker whose parent dies without a shutdown stops on its own."""
    if not os.path.isdir("/proc"):
        pytest.skip("needs /proc to see the worker's state")
    ctx = multiprocessing.get_context("fork")
    report_recv, report_send = ctx.Pipe(duplex=False)
    parent = ctx.Process(target=_spawn_worker_then_die, args=(report_send,))
    parent.start()
    worker_pid = report_recv.recv()
    parent.join(timeout=10)
    assert not parent.is_alive()

    def running():
        try:
            with open(f"/proc/{worker_pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return False
        return state not in ("Z", "X")

    deadline = time.monotonic() + 15
    while running() and time.monotonic() < deadline:
        time.sleep(0.1)
    still_running = running()
    if still_running:
        os.kill(worker_pid, signal.SIGKILL)  # don't leak it past the test
    assert not still_running
