"""Crash-status equivalence: runs and backends agree on crashes.

The acceptance matrix of crash hunting: a campaign over a crashing
plugin subject must produce the *same* findings — crash counts,
failure-site signatures, crashing inputs, path signatures, and the full
:func:`result_fingerprint` — on every run, on either coverage backend,
and after a resume from any checkpoint generation.
"""

import sys
from pathlib import Path

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import result_fingerprint
from repro.runtime.arcs import arc_table_for
from repro.subjects.registry import load_subject, load_subject_module

HELPERS = str(Path(__file__).resolve().parent.parent / "helpers")
if HELPERS not in sys.path:
    sys.path.insert(0, HELPERS)
load_subject_module("crashy_plugin")

BACKENDS = ("settrace", "ast")


def _campaign(backend, **overrides):
    config = FuzzerConfig(
        seed=7,
        max_executions=400,
        coverage_backend=backend,
        hunt_crashes=True,
        **overrides,
    )
    return PFuzzer(load_subject("crashy"), config).run()


def _fingerprint(result):
    return result_fingerprint(result, arc_table_for(load_subject("crashy")))


# --------------------------------------------------------------------- #
# Repeated runs and both backends
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_engines_agree_on_crash_findings(backend):
    inline = _campaign(backend)
    again = _campaign(backend)
    assert inline.crashes >= 1
    assert inline.crash_signatures
    assert _fingerprint(again) == _fingerprint(inline)
    assert again.crashes == inline.crashes
    assert again.crash_inputs == inline.crash_inputs
    assert again.crash_signatures == inline.crash_signatures
    assert again.crash_path_signatures == inline.crash_path_signatures


def test_backends_agree_on_crash_signatures():
    results = {backend: _campaign(backend) for backend in BACKENDS}
    assert (
        results["settrace"].crash_signatures
        == results["ast"].crash_signatures
    )
    assert results["settrace"].crash_inputs == results["ast"].crash_inputs


# --------------------------------------------------------------------- #
# Resume: crash findings are part of the durable fingerprint
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_resumed_hunt_matches_uninterrupted(backend, tmp_path):
    import shutil

    from repro.eval.checkpoint import list_generations

    reference = _campaign(
        backend,
        checkpoint_dir=str(tmp_path / "reference"),
        checkpoint_every=100,
        checkpoint_keep=1_000,
    )
    assert reference.crash_signatures
    generations = list_generations(str(tmp_path / "reference"))
    assert len(generations) >= 2
    for generation in generations[:-1]:
        resume_dir = tmp_path / f"resume-{backend}-{generation}"
        resume_dir.mkdir()
        name = f"ckpt-{generation:08d}.json"
        shutil.copy(tmp_path / "reference" / name, resume_dir / name)
        resumed = _campaign(
            backend,
            checkpoint_dir=str(resume_dir),
            checkpoint_every=100,
            resume=True,
        )
        assert resumed.resumes == 1
        assert _fingerprint(resumed) == _fingerprint(reference)
        assert resumed.crash_signatures == reference.crash_signatures
