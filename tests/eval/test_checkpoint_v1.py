"""Format-1 checkpoints still load, restore and resume to the same result.

``data/checkpoint_v1/ckpt-00000001.json`` was written by the format-1
writer (payload nested in the envelope, one dict per queue entry).  It is
the first generation of the campaign ``FIXTURE_CONFIG`` describes, taken
after 60 executions: what a job killed part-way through leaves behind.
Such a job must resume from it, not silently restart from zero.

Coverage arcs name the subject's source file, and path signatures hash
those names, so the fixture's subject is ``data/checkpoint_v1/sums.py``
loaded under the relative file name ``sums.py``: the fixture then does not
depend on where the checkout lives.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    list_generations,
    load_latest,
    load_snapshot,
    result_fingerprint,
)
from repro.runtime.arcs import arc_table_for
from repro.subjects.function import FunctionSubject

DATA = Path(__file__).parent / "data" / "checkpoint_v1"
FIXTURE = DATA / "ckpt-00000001.json"
FIXTURE_CONFIG = dict(
    seed=3, queue_limit=32, coverage_backend="ast", checkpoint_every=60
)
FIXTURE_EXECUTIONS = 60
MODULE = "ckpt_v1_sums"


@pytest.fixture
def sums(monkeypatch):
    """Factory of the fixture's subject, its module loaded as ``sums.py``."""
    monkeypatch.chdir(DATA)  # the instrumenter opens ``sums.py`` relatively
    module = sys.modules.get(MODULE)
    if module is None:
        module = types.ModuleType(MODULE)
        module.__file__ = "sums.py"
        source = (DATA / "sums.py").read_text()
        exec(compile(source, "sums.py", "exec"), module.__dict__)
        sys.modules[MODULE] = module
    return lambda: FunctionSubject(module.parse_sums, name="ckpt-v1-sums")


def _copy_fixture(tmp_path):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    (directory / FIXTURE.name).write_bytes(FIXTURE.read_bytes())
    return directory


def test_fixture_is_format_1():
    envelope = json.loads(FIXTURE.read_text())
    assert envelope["version"] == 1 < FORMAT_VERSION
    record = envelope["payload"]["queue"]["entries"][0][2]
    assert isinstance(record, dict) and "parent_branches" in record


def test_format_1_loads_and_restores(tmp_path, sums):
    generation, payload = load_latest(_copy_fixture(tmp_path))
    assert generation == 1
    assert payload["executions"] == FIXTURE_EXECUTIONS
    fuzzer = PFuzzer(
        sums(), FuzzerConfig(max_executions=FIXTURE_EXECUTIONS, **FIXTURE_CONFIG)
    )
    fuzzer.restore(payload)
    entries, _ = fuzzer._queue.dump_entries()
    assert len(entries) == len(payload["queue"]["entries"])
    # Snapshotting again stores each sibling group's branch set once.
    upgraded = fuzzer.snapshot()["queue"]
    distinct = {
        tuple(record["parent_branches"])
        for _, _, record in payload["queue"]["entries"]
    }
    assert len(upgraded["branch_sets"]) == len(distinct) < len(entries)


@pytest.mark.parametrize("budget", [120, 300])
def test_format_1_resumes_to_the_uninterrupted_fingerprint(
    tmp_path, sums, budget
):
    subject = sums()
    reference = PFuzzer(
        subject, FuzzerConfig(max_executions=budget, **FIXTURE_CONFIG)
    ).run()
    directory = _copy_fixture(tmp_path)
    resumed = PFuzzer(
        sums(),
        FuzzerConfig(
            max_executions=budget,
            checkpoint_dir=str(directory),
            resume=True,
            **FIXTURE_CONFIG,
        ),
    ).run()
    assert resumed.resumes == 1
    assert resumed.executions == budget
    table = arc_table_for(subject)
    assert result_fingerprint(resumed, table) == result_fingerprint(
        reference, table
    )
    # The resumed campaign's own checkpoints are written in format 2.
    newest = directory / f"ckpt-{list_generations(directory)[-1]:08d}.json"
    header = json.loads(newest.read_text().split("\n", 1)[0])
    assert header["version"] == FORMAT_VERSION


def test_tampered_format_1_payload_fails_checksum(tmp_path):
    path = _copy_fixture(tmp_path) / FIXTURE.name
    envelope = json.loads(path.read_text())
    envelope["payload"]["executions"] += 1
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="checksum"):
        load_snapshot(path)
    assert load_latest(path.parent) is None
