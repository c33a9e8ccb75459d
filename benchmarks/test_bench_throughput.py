"""Hot-path throughput: the two coverage backends.

Subject execution is the fuzzer's hot path — every campaign iteration
costs up to two subject runs under coverage.  This benchmark replays a
fixed json corpus (valid, rejected and EOF-truncated inputs, shallow and
nested) through :func:`run_subject` under both backends and records
executions/second for each in the bench JSON (``extra_info``), plus the
speedup ratio of the ast backend (AST >= 3x settrace on json).

Repo-root ``BENCH_throughput.json`` keeps the history of the removed
pooled/batched engine's matrix (inline, coldstart, pooled and batched
rates).  It is no longer appended to: whole-campaign throughput is
measured by ``perfbench/`` instead.

Run with ``--benchmark-json=out.json`` to persist the numbers; set
``REPRO_BENCH_SMOKE=1`` (CI smoke) to keep the measurements but skip the
ratio assertion, which needs an unloaded machine.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime.harness import COVERAGE_BACKENDS, run_subject
from repro.subjects.registry import load_subject

#: Replay corpus: the mix a real campaign sees — rejections dominate, with
#: a few deep valid inputs exercising loops, recursion and handler arcs.
CORPUS = (
    "",
    "1",
    "[1, 2]",
    '{"a": true}',
    "[1,",
    '"str"',
    "nul",
    "-1.5e3",
    '{"a": {"b": [1, 2, {"c": null}]}}',
    "[" * 20 + "1" + "]" * 20,
    '{"k1": [true, false, null], "k2": "some longer string value", "k3": 1e-7}',
)


def _replay(subject, backend: str) -> None:
    for text in CORPUS:
        run_subject(subject, text, coverage_backend=backend)


def _rate(subject, backend: str, seconds: float = 1.5) -> float:
    """Executions/second over a fixed wall-clock window."""
    _replay(subject, backend)  # warm caches (instrumentation, arc tables)
    runs = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        _replay(subject, backend)
        runs += len(CORPUS)
    return runs / (time.perf_counter() - started)


@pytest.mark.parametrize("backend", COVERAGE_BACKENDS)
def test_bench_backend_throughput(benchmark, backend):
    """Per-backend replay cost; executions/sec lands in the bench JSON."""
    subject = load_subject("json")
    _replay(subject, backend)  # warm up outside the measurement
    benchmark.pedantic(
        _replay, args=(subject, backend), rounds=20, iterations=1, warmup_rounds=2
    )
    per_replay = benchmark.stats.stats.mean
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["corpus_size"] = len(CORPUS)
    benchmark.extra_info["executions_per_second"] = len(CORPUS) / per_replay


def test_bench_ast_speedup_over_settrace(benchmark):
    """The tentpole acceptance number: AST backend >= 3x settrace on json."""
    subject = load_subject("json")
    rates = benchmark.pedantic(
        lambda: {b: _rate(subject, b) for b in COVERAGE_BACKENDS},
        rounds=1,
        iterations=1,
    )
    ratio = rates["ast"] / rates["settrace"]
    benchmark.extra_info["settrace_per_second"] = rates["settrace"]
    benchmark.extra_info["ast_per_second"] = rates["ast"]
    benchmark.extra_info["speedup"] = ratio
    print("\n\n=== execution-engine throughput (json corpus) ===")
    for backend in COVERAGE_BACKENDS:
        print(f"  {backend:<9} {rates[backend]:8.0f} executions/s")
    print(f"  speedup   {ratio:.2f}x")
    if os.environ.get("REPRO_BENCH_SMOKE"):
        pytest.skip("smoke mode: measured, ratio assertion skipped")
    assert ratio >= 3.0, f"AST backend only {ratio:.2f}x faster than settrace"
