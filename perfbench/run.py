"""Whole-campaign benchmark: executions per second, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload json-ast --seed 1 --seconds 30 --trace 0

Every campaign runs in a fresh interpreter (``perfbench/rep.py``) for as
many repetitions as fit in ``--seconds``.  Every measured figure is
printed as a ``name value unit`` line; the last stdout line is one JSON
object with the medians of the metrics BENCHMARK.json lists.  The
bounded rate, ``exec_per_ref_s``, counts campaign time in reference
seconds (``perfbench/hostspeed.py``); ``exec_per_s`` is the wall-clock
rate.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` pairs
untraced and traced repetitions and reports the per-layer metrics plus
the tracing overhead.  Output checks
(fingerprint stability, service == inline fingerprints, valid inputs
re-executing as VALID, full budgets) run on every repetition; any miss
makes the command exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from layers import quantile

#: Inline workloads run ``seeds`` distinct campaigns per pass; the
#: service workload runs ``batches`` distinct batches of ``jobs`` per
#: pass, one batch per repetition.
#: Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "json-ast": {"kind": "inline", "subject": "json", "backend": "ast",
                 "budget": 4000, "seeds": 6},
    "json-settrace": {"kind": "inline", "subject": "json",
                      "backend": "settrace", "budget": 1500, "seeds": 8},
    "service-slices": {"kind": "service",
                       "subjects": ("ini", "expr", "json", "csv"),
                       "jobs": 8, "batches": 2, "budget": 1000},
}

REP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py")
WORKDIR = os.path.join(".bench_build", "perfbench")
REP_TIMEOUT = 150.0
#: The manifest names every metric and its unit, for both kinds of run.
MANIFEST = "BENCHMARK.json"


class RepFailed(Exception):
    pass


def run_rep(task: dict) -> dict:
    """Run one repetition in a fresh interpreter and parse its JSON line."""
    task = dict(task, spawned_at=time.monotonic())
    env = dict(os.environ, PYTHONPATH="src")
    process = subprocess.Popen(
        [sys.executable, REP, json.dumps(task)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"{task['kind']} repetition timed out")
    finally:
        # Service workers poll for their parent's death; make sure none
        # outlives the repetition.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RepFailed(err.strip().splitlines()[-1] if err.strip() else
                        f"exit code {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def campaign_plan(workload: dict, seed: int) -> list:
    """What one pass runs: campaign seeds (inline) or job batches."""
    if workload["kind"] == "inline":
        count = workload["seeds"]
        return [seed * count + index for index in range(count)]
    subjects = workload["subjects"]
    count = workload["jobs"]
    first = seed * count * workload["batches"]
    return [[[subjects[index % len(subjects)], first + batch * count + index]
             for index in range(count)]
            for batch in range(workload["batches"])]


def make_task(workload: dict, entry, index: int, traced: bool, split: bool):
    if workload["kind"] == "inline":
        return {
            "kind": "inline",
            "subject": workload["subject"],
            "backend": workload["backend"],
            "budget": workload["budget"],
            "seed": entry,
            "traced": traced,
            "split": split,
        }
    return {
        "kind": "service",
        "jobs": entry,
        "budget": workload["budget"],
        "workdir": os.path.join(WORKDIR, f"{os.getpid()}-{index}"),
        "traced": traced,
        "split": split,
    }


def end_to_end(reps) -> dict:
    slices = [value for rep in reps for value in rep["slices_s"]]
    turnaround = [value for rep in reps for value in rep["turnaround_s"]]
    # valid_arcs is a pure function of the campaign seed: count each
    # distinct campaign once.  The median, so that a seed which finds a
    # much deeper region does not dominate the figure.
    arcs = {}
    for rep in reps:
        arcs[tuple(sorted(rep["fingerprints"]))] = rep["valid_arcs"]
    probes = sorted(value for rep in reps for value in rep["probe_us"])
    return {
        "exec_per_ref_s": statistics.median(rep["exec_per_ref_s"] for rep in reps),
        "exec_per_s": statistics.median(rep["exec_per_s"] for rep in reps),
        "host.probe_p50_us": quantile(probes, 0.50),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "valid_arcs": statistics.median(arcs.values()),
        "slice_p50_ms": 1000 * statistics.median(slices),
        "slice_p90_ms": 1000 * quantile(sorted(slices), 0.90),
        "job_turnaround_p50_s": statistics.median(turnaround),
    }, len(slices)


def check(reps, reference) -> list:
    """One problem per failed campaign or job, in every repetition.

    A campaign fails when it stopped short of its budget, emitted an
    input that does not re-execute as VALID, or its fingerprint differs
    from the reference (service) or from its own first repetition.
    """
    problems = []
    first = {}
    for rep in reps:
        for key, fingerprint in rep["fingerprints"].items():
            expected = (
                reference.get(key)
                if reference is not None
                else first.setdefault(key, fingerprint)
            )
            reason = rep["failures"].get(key)
            if reason is None and fingerprint != expected:
                reason = "result fingerprint differs"
            if reason is not None:
                problems.append(f"{key}: {reason}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout with src/repro",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    plan = campaign_plan(workload, args.seed)
    traced = bool(args.trace)
    reps = {False: [], True: []}

    def repeat(entry, trace_this: bool) -> None:
        index = len(reps[False]) + len(reps[True])
        split = trace_this and not reps[True]
        task = make_task(workload, entry, index, trace_this, split)
        reps[trace_this].append(run_rep(task))

    try:
        deadline = time.monotonic() + args.seconds
        if traced:
            # Pair an untraced and a traced repetition of each campaign;
            # the pairs give the tracing overhead.  No full pass: the
            # per-layer figures need no balanced seed mix.
            for entry in itertools.cycle(plan):
                started = time.monotonic()
                repeat(entry, False)
                repeat(entry, True)
                now = time.monotonic()
                if now + (now - started) > deadline:
                    break
        else:
            # Whole passes only, so every campaign seed weighs the same.
            passes = 0
            while True:
                started = time.monotonic()
                for entry in plan:
                    repeat(entry, False)
                passes += 1
                now = time.monotonic()
                if now + (now - started) > deadline:
                    break
            if passes == 1 and len(plan) > 1:
                # Run the first campaign again so its fingerprint is
                # checked against itself.
                repeat(plan[0], False)
        reference = None
        if workload["kind"] == "service":
            jobs = [job for batch in plan for job in batch]
            reference = run_rep({"kind": "reference", "jobs": jobs,
                                 "budget": workload["budget"]})["fingerprints"]
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    traced_reps = reps[True]
    untraced_reps = reps[False]
    problems = check(untraced_reps + traced_reps, reference)
    failed = len(problems)
    attempted = sum(
        len(rep["fingerprints"]) for rep in untraced_reps + traced_reps
    )
    metrics, slice_samples = end_to_end(untraced_reps)
    print(f"# {args.workload} seed={args.seed}: {len(untraced_reps)} untraced and "
          f"{len(traced_reps)} traced repetitions, {slice_samples} slice samples")
    for name in ("exec_per_ref_s", "exec_per_s"):
        print(f"# {name} by repetition: " + " ".join(
            f"{rep[name]:.1f}" for rep in untraced_reps))
    print(f"failed_frac {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for problem in problems:
        print(f"# check failed: {problem}")
    values = dict(metrics)
    if traced:
        # Medians over the traced repetitions; the execute split comes
        # from the first one only (it replays that campaign's inputs).
        for name in traced_reps[0]["layers"]:
            values[name] = statistics.median(
                rep["layers"][name] for rep in traced_reps
                if name in rep["layers"]
            )
        # Reference-second rates, so that host load between the two
        # halves of a pair does not read as tracing overhead.
        untraced = metrics["exec_per_ref_s"]
        traced_rate = statistics.median(
            rep["exec_per_ref_s"] for rep in traced_reps
        )
        values["trace.untraced_exec_per_s"] = untraced
        values["trace.traced_exec_per_s"] = traced_rate
        values["trace.overhead_frac"] = 1.0 - traced_rate / untraced
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    units = {
        entry["name"]: entry["unit"]
        for entry in manifest["end_to_end"] + manifest["per_layer"]
    }
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    report = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in manifest["per_layer" if traced else "end_to_end"]
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
