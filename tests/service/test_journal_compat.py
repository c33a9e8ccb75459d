"""Journals written before the pooled engine was removed still replay.

Those journals carry ``executor`` and ``batch_size`` in every ``submit``
event's spec.  Both knobs were environmental, so replay drops them and
the job runs inline to the fingerprint it always had.  Specs from
clients are outside input: ``POST /jobs`` keeps rejecting the two names
as unknown fields.
"""

import json
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobError, JobRecord, JobSpec, JobState, JobStore
from repro.service.scheduler import CampaignScheduler, SchedulerConfig
from repro.service.server import CampaignService, make_server

#: A ``submit`` event exactly as the journal recorded it while specs still
#: had the pooled engine's fields.
OLD_SUBMIT = (
    '{"event":"submit","job_id":"job-0000","seq":0,"spec":{"subject":"expr",'
    '"tool":"pfuzzer","budget":150,"seed":4,"priority":1,'
    '"coverage_backend":"settrace","checkpoint_every":50,"trace":false,'
    '"shards":1,"shard_id":null,"shard_group":null,"sync_every":null,'
    '"executor":"pooled","batch_size":8,"cull_every":null,"hybrid":false,'
    '"mine_after":null,"gen_batch":null,"gen_depth":null,'
    '"hunt_crashes":false,"subject_module":null}}'
)


def _drain(store, state_dir):
    scheduler = CampaignScheduler(
        store, state_dir, SchedulerConfig(workers=1, slice_executions=60)
    )
    try:
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()


def test_old_journal_replays_and_runs_to_the_inline_fingerprint(tmp_path):
    old_dir = tmp_path / "old"
    old_dir.mkdir()
    (old_dir / "journal.jsonl").write_text(OLD_SUBMIT + "\n", encoding="ascii")
    old_store = JobStore(old_dir / "journal.jsonl")
    replayed = old_store.get("job-0000")
    assert replayed.state is JobState.QUEUED
    assert "executor" not in replayed.spec.to_dict()
    assert "batch_size" not in replayed.spec.to_dict()
    _drain(old_store, old_dir)

    new_dir = tmp_path / "new"
    new_store = JobStore(new_dir / "journal.jsonl")
    fresh = new_store.submit(
        JobSpec(subject="expr", budget=150, seed=4, checkpoint_every=50)
    )
    _drain(new_store, new_dir)

    old_done = old_store.get("job-0000")
    assert old_done.state is JobState.DONE
    assert old_done.result_fingerprint is not None
    assert (
        old_done.result_fingerprint
        == new_store.get(fresh.job_id).result_fingerprint
    )
    # The rewritten journal no longer carries the retired fields.
    old_store.compact()
    assert "batch_size" not in (old_dir / "journal.jsonl").read_text()


def test_record_from_dict_drops_retired_spec_fields():
    event = json.loads(OLD_SUBMIT)
    record = JobRecord.from_dict(
        {"job_id": "job-0000", "spec": event["spec"], "state": "done"}
    )
    assert record.spec == JobSpec(
        subject="expr", budget=150, seed=4, checkpoint_every=50
    )


@pytest.mark.parametrize("field", ["executor", "batch_size"])
def test_client_specs_with_retired_fields_are_rejected(field):
    with pytest.raises(JobError, match=f"unknown job spec fields: {field}"):
        JobSpec.from_dict({"subject": "expr", field: "pooled"})


def test_http_submit_with_executor_is_a_400(tmp_path):
    service = CampaignService(
        tmp_path / "state", SchedulerConfig(workers=1, slice_executions=60)
    )
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        client = ServiceClient(f"http://{host}:{port}")
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"subject": "expr", "executor": "pooled"})
        assert excinfo.value.status == 400
        assert "unknown job spec fields: executor" in excinfo.value.message
        assert client.jobs() == []
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.scheduler.shutdown()
