"""Run harness: exit statuses and heuristic coverage cutoff."""

import pytest

from repro.core.candidate import Candidate
from repro.core.substitute import Substitution
from repro.runtime.harness import ExitStatus, run_subject
from repro.subjects.registry import load_subject


def test_valid_run(expr_subject):
    result = run_subject(expr_subject, "1+1")
    assert result.status is ExitStatus.VALID
    assert result.valid
    assert result.value == 2
    assert result.error is None
    assert result.branches


def test_rejected_run(expr_subject):
    result = run_subject(expr_subject, "A")
    assert result.status is ExitStatus.REJECTED
    assert not result.valid
    assert result.error is not None


def test_hang_run():
    subject = load_subject("tinyc")
    result = run_subject(subject, "while(9);")
    assert result.status is ExitStatus.HANG


def test_comparisons_collected(expr_subject):
    result = run_subject(expr_subject, "A")
    assert result.recorder.comparisons
    assert result.recorder.last_compared_index() == 0


def test_eof_accessed_flag(expr_subject):
    assert run_subject(expr_subject, "(").eof_accessed
    assert run_subject(expr_subject, "A").recorder.comparisons


def test_branches_for_heuristic_cuts_error_handling(expr_subject):
    # "1A" is rejected at index 1; branches after the first comparison of
    # index 1 (including rejection plumbing) must not count.
    rejected = run_subject(expr_subject, "1A")
    assert rejected.branches_for_heuristic() <= rejected.branches
    assert len(rejected.branches_for_heuristic()) < len(rejected.branches)


def test_branches_for_heuristic_full_for_valid(expr_subject):
    valid = run_subject(expr_subject, "1")
    assert valid.branches_for_heuristic() == valid.branches


def test_trace_coverage_disabled(expr_subject):
    result = run_subject(expr_subject, "1", trace_coverage=False)
    assert result.valid
    assert result.arcs == {}
    assert result.branches == frozenset()
    # Comparisons are still recorded without the tracer.
    assert result.recorder.comparisons


def test_average_stack_size_nonzero_during_parse(expr_subject):
    result = run_subject(expr_subject, "((1))")
    assert result.average_stack_size() > 0


def test_deeper_nesting_raises_stack_metric(expr_subject):
    shallow = run_subject(expr_subject, "(1")
    deep = run_subject(expr_subject, "((((1")
    assert deep.average_stack_size() > shallow.average_stack_size()


def test_hot_loop_dataclasses_reject_stray_attributes():
    """``__slots__`` audit of the dataclasses built per execution."""
    candidate = Candidate("x")
    with pytest.raises(AttributeError):
        candidate.stray = 1
    result = run_subject(load_subject("expr"), "1")
    with pytest.raises(AttributeError):
        result.stray = 1
    substitution = Substitution("a", "a", 0)
    with pytest.raises(AttributeError):  # FrozenInstanceError
        substitution.text = "b"
    # Stray assignment on a frozen+slots dataclass raises TypeError on
    # 3.11 (the generated __setattr__'s super(cls, self) quirk) and
    # AttributeError elsewhere; either way the attribute never lands.
    with pytest.raises((AttributeError, TypeError)):
        substitution.stray = 1
    for instance in (candidate, result, substitution):
        assert not hasattr(instance, "__dict__")
        assert hasattr(type(instance), "__slots__")
