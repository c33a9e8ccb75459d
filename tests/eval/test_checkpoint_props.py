"""Property tests: snapshot -> restore -> snapshot is a fixed point.

The durability contract hinges on restore being *exact*: a restored fuzzer
must be indistinguishable from the one that was snapshot, state for state.
The cleanest statement of that is idempotence — restoring a snapshot into a
fresh fuzzer and snapshotting again must reproduce the identical payload,
whatever campaign state the original snapshot captured.  Hypothesis drives
real (short) campaigns to arbitrary points to generate those states.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import _canonical_payload
from repro.subjects.registry import load_subject


def _campaign_snapshot(subject_name, seed, budget, max_input_length, backend):
    """Run a short real campaign and snapshot wherever it ended up."""
    fuzzer = PFuzzer(
        load_subject(subject_name),
        FuzzerConfig(
            seed=seed,
            max_executions=budget,
            max_input_length=max_input_length,
            coverage_backend=backend,
        ),
    )
    fuzzer.run()
    return fuzzer


def _assert_fixed_point(fuzzer, subject_name):
    first = fuzzer.snapshot()
    restored = PFuzzer(load_subject(subject_name), fuzzer.config)
    restored.restore(first)
    second = restored.snapshot()
    assert _canonical_payload(second) == _canonical_payload(first)
    # And once more: restore of a restored snapshot stays fixed.
    again = PFuzzer(load_subject(subject_name), fuzzer.config)
    again.restore(second)
    assert _canonical_payload(again.snapshot()) == _canonical_payload(first)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.integers(min_value=10, max_value=250),
    max_input_length=st.sampled_from([3, 8, 200]),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_snapshot_restore_snapshot_fixed_point_expr(
    seed, budget, max_input_length
):
    fuzzer = _campaign_snapshot("expr", seed, budget, max_input_length, "settrace")
    _assert_fixed_point(fuzzer, "expr")


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["settrace", "ast"])
@pytest.mark.parametrize("subject_name", ["expr", "ini", "csv", "json"])
def test_snapshot_restore_snapshot_fixed_point_grid(subject_name, backend):
    """The fixed point holds across subjects and both coverage backends."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        budget=st.integers(min_value=10, max_value=300),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def check(seed, budget):
        fuzzer = _campaign_snapshot(subject_name, seed, budget, 200, backend)
        _assert_fixed_point(fuzzer, subject_name)

    check()


def _assert_siblings_share_branch_arrays(fuzzer, subject_name):
    """Restore hands each stored branch set to its siblings as one array."""
    payload = fuzzer.snapshot()
    queue = payload["queue"]
    original, _ = fuzzer._queue.dump_entries()
    distinct = {candidate.parent_branches.tobytes() for _, _, candidate in original}
    assert len(queue["branch_sets"]) == len(distinct)

    restored = PFuzzer(load_subject(subject_name), fuzzer.config)
    restored.restore(payload)
    entries, _ = restored._queue.dump_entries()
    assert len(entries) == len(queue["entries"])
    arrays = {}
    for (_, _, candidate), record in zip(entries, queue["entries"]):
        shared = arrays.setdefault(record[5], candidate.parent_branches)
        assert candidate.parent_branches is shared
    assert len({id(array) for array in arrays.values()}) == len(arrays)
    return len(entries) - len(arrays)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    budget=st.integers(min_value=10, max_value=250),
    backend=st.sampled_from(["settrace", "ast"]),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_restored_siblings_share_one_branch_array(seed, budget, backend):
    fuzzer = _campaign_snapshot("expr", seed, budget, 200, backend)
    _assert_siblings_share_branch_arrays(fuzzer, "expr")


def test_branch_sets_are_stored_once_per_sibling_group():
    fuzzer = _campaign_snapshot("json", 0, 200, 200, "ast")
    shared_entries = _assert_siblings_share_branch_arrays(fuzzer, "json")
    assert shared_entries > 0, "campaign queued no sibling groups"


def test_restore_rejects_mismatched_configuration():
    from repro.eval.checkpoint import CheckpointError

    fuzzer = _campaign_snapshot("expr", 1, 60, 200, "settrace")
    payload = fuzzer.snapshot()
    other = PFuzzer(
        load_subject("expr"),
        FuzzerConfig(seed=2, max_executions=60),
    )
    with pytest.raises(CheckpointError, match="seed"):
        other.restore(payload)


def test_restore_allows_a_larger_budget():
    """max_executions is not part of the fingerprint: a finished campaign
    can be resumed with a bigger budget to extend it."""
    fuzzer = _campaign_snapshot("expr", 1, 60, 200, "settrace")
    payload = fuzzer.snapshot()
    bigger = PFuzzer(load_subject("expr"), FuzzerConfig(seed=1, max_executions=120))
    bigger.restore(payload)
    result = bigger.run()
    assert result.executions == 120
