"""A subject that exits or is interrupted: results, not vanished campaigns.

``sys.exit()`` (and a stray ``GeneratorExit``) escaping a subject is a
CRASH result with the usual failure-site signature, so a campaign spends
its whole budget and stays deterministic.  ``KeyboardInterrupt`` is the
operator's stop and still escapes :func:`run_subject`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import result_fingerprint
from repro.runtime.arcs import arc_table_for
from repro.runtime.harness import ExitStatus, run_subject
from repro.subjects.function import FunctionSubject
from repro.subjects.registry import load_subject, load_subject_module

HELPERS = str(Path(__file__).resolve().parent.parent / "helpers")
if HELPERS not in sys.path:
    sys.path.insert(0, HELPERS)
load_subject_module("exiting_plugin")

import exiting_plugin  # noqa: E402  (needs sys.path above)

BACKENDS = ("settrace", "ast")
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.mark.parametrize("backend", BACKENDS)
def test_sys_exit_is_a_crash_result(backend):
    subject = load_subject("exiting")
    result = run_subject(
        subject, exiting_plugin.EXITING_INPUT, coverage_backend=backend
    )
    assert result.status is ExitStatus.CRASH
    kind, filename, line = result.crash_signature
    assert kind == "SystemExit"
    assert filename == exiting_plugin.__file__
    assert line > 0
    assert result.error == f"SystemExit: {exiting_plugin.EXIT_CODE}"
    assert run_subject(subject, "42", coverage_backend=backend).status is (
        ExitStatus.VALID
    )


def _raise(exc_type):
    def parse(stream):
        stream.next_char()
        raise exc_type()

    return FunctionSubject(parse, name=f"raises-{exc_type.__name__}")


def test_generator_exit_is_a_crash_result():
    result = run_subject(_raise(GeneratorExit), "x")
    assert result.status is ExitStatus.CRASH
    assert result.crash_signature[0] == "GeneratorExit"


def test_keyboard_interrupt_still_escapes():
    with pytest.raises(KeyboardInterrupt):
        run_subject(_raise(KeyboardInterrupt), "x")


@pytest.mark.parametrize("backend", BACKENDS)
def test_exiting_campaign_spends_its_budget_deterministically(backend):
    def campaign():
        config = FuzzerConfig(
            seed=5, max_executions=300, coverage_backend=backend
        )
        return PFuzzer(load_subject("exiting"), config).run()

    first, second = campaign(), campaign()
    assert first.executions == 300
    assert first.crashes > 0
    table = arc_table_for(load_subject("exiting"))
    assert result_fingerprint(first, table) == result_fingerprint(
        second, table
    )


def test_cli_fuzz_on_exiting_subject_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HELPERS] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "fuzz", "exiting",
            "--subject-module", "exiting_plugin",
            "--budget", "200", "--seed", "5",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "200 executions" in completed.stderr
