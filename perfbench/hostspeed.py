"""Campaign time rescaled to a reference host speed.

On a shared host, other tenants' load comes and goes over seconds to
minutes and changes how fast the same Python code runs by up to 2x,
with CPU time slowed as much as wall time.  A whole benchmark run can
fall inside one slow or one fast stretch, so wall-clock executions per
second differ by that much from run to run.

The fix is to time, next to the campaign and on the same core,
:func:`probe`: a fixed piece of pure-Python work that belongs to the
benchmark and never calls the program.  Campaign time is scaled by
``REF_PROBE_S / probe time``, which gives the time the campaign would
have taken on a host where the probe takes ``REF_PROBE_S``.  A change
that makes the program slower still lengthens the campaign by the same
share; a host that is slower for a while lengthens the probe with it.

* :class:`HostSpeed` does this for an inline campaign: it cuts the
  campaign into short segments and probes at the end of each.
* :func:`probe_after_runs` does it for service slices, which run in
  forked workers: each worker probes after every slice.
"""

from __future__ import annotations

import os
import statistics
import time

#: Probe time that defines a reference-second.  Any fixed value works;
#: this one lies inside the range of per-run median probe times (42 to
#: 96 us, by load) on the 2-vCPU Xeon VM the baseline was measured on.
REF_PROBE_S = 60e-6

#: Segments are scaled by the median of this many most recent probes, so
#: one probe hit by an interrupt does not rescale its segment.
WINDOW = 3

#: Untimed probes before the first segment, so that the interpreter has
#: specialised the probe's bytecode before it is timed.
WARMUP = 20

#: A small JSON-like document: the probe tokenises it, character by
#: character, as the subjects' parsers do their input.
_DOCUMENT = (
    '{"name": "probe", "items": [1, 22, 333, {"k": "v", "ok": true}], '
    '"nested": {"a": null, "b": [false, 4.5e3, "text"]}, "n": -17}'
) * 3


def probe() -> int:
    """Tokenise the fixed document; returns the token count."""
    text = _DOCUMENT
    size = len(text)
    tokens = []
    index = 0
    while index < size:
        char = text[index]
        if char in "{}[],:":
            tokens.append(char)
            index += 1
        elif char == '"':
            end = text.index('"', index + 1)
            tokens.append(text[index:end + 1])
            index = end + 1
        elif char.isspace():
            index += 1
        else:
            end = index
            while end < size and text[end] not in ",}] ":
                end += 1
            tokens.append(text[index:end])
            index = end
    return len(tokens)


class HostSpeed:
    """Accumulates an inline campaign's time rescaled to the reference host.

    Call :meth:`mark` from the campaign's own thread, between executions:
    each call ends a segment, so the probe shares the campaign's core.
    """

    def __init__(self) -> None:
        for _ in range(WARMUP):
            probe()
        self._started = time.perf_counter()
        self.probes = []
        self.scaled_s = 0.0

    def mark(self) -> None:
        """End the current segment: probe, then add it rescaled."""
        now = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - now)
        speed = REF_PROBE_S / statistics.median(self.probes[-WINDOW:])
        self.scaled_s += (now - self._started) * speed
        self._started = now


def probe_after_runs(log_dir) -> None:
    """Follow every ``PFuzzer.run`` in this process, and its forks, with probes.

    The service runs each slice as one ``PFuzzer.run`` in a forked worker,
    which no hook of the program reaches.  After each run the worker
    appends ``<run seconds> <probe seconds>`` to ``probes-<pid>.txt`` in
    ``log_dir``; :func:`read_runs` collects them.  Install it before the
    workers are forked.
    """
    from repro.core.fuzzer import PFuzzer

    for _ in range(WARMUP):
        probe()
    run = PFuzzer.run

    def probed_run(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return run(self, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            probes = []
            for _ in range(WINDOW):
                began = time.perf_counter()
                probe()
                probes.append(time.perf_counter() - began)
            path = os.path.join(log_dir, f"probes-{os.getpid()}.txt")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"{elapsed!r} {statistics.median(probes)!r}\n")

    PFuzzer.run = probed_run


def read_runs(log_dir) -> list:
    """``(run seconds, probe seconds)`` of every run :func:`probe_after_runs` saw."""
    runs = []
    for name in sorted(os.listdir(log_dir)):
        if name.startswith("probes-"):
            with open(os.path.join(log_dir, name), encoding="utf-8") as handle:
                runs.extend(tuple(map(float, line.split())) for line in handle)
    return runs
