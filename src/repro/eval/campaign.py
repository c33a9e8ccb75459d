"""Campaign plumbing: run one tool on one subject under a budget.

The paper runs every tool for 48 hours per subject, three repetitions, and
reports the best run.  Here budgets are execution counts (see DESIGN.md §2)
and repetitions vary the seed; :func:`best_of` picks the best repetition by
a caller-supplied metric, mirroring the paper's "we report the best run".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.afl import AFLConfig, AFLFuzzer
from repro.baselines.klee import KleeConfig, KleeExplorer
from repro.baselines.rand import RandomConfig, RandomFuzzer
from repro.baselines.driller import DrillerConfig, DrillerFuzzer
from repro.baselines.steelix import SteelixConfig, SteelixFuzzer
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.subjects.base import Subject
from repro.subjects.registry import (
    available_subjects,
    is_known_subject,
    load_subject,
    load_subject_module,
)


def _run_pfuzzer(subject: Subject, seed: int, budget: int, durability: dict):
    config = FuzzerConfig(seed=seed, max_executions=budget, **durability)
    return PFuzzer(subject, config).run()


def _run_afl(subject: Subject, seed: int, budget: int, durability: dict):
    return AFLFuzzer(subject, AFLConfig(seed=seed, max_executions=budget)).run()


def _run_klee(subject: Subject, seed: int, budget: int, durability: dict):
    return KleeExplorer(subject, KleeConfig(seed=seed, max_executions=budget)).run()


def _run_random(subject: Subject, seed: int, budget: int, durability: dict):
    return RandomFuzzer(subject, RandomConfig(seed=seed, max_executions=budget)).run()


def _run_steelix(subject: Subject, seed: int, budget: int, durability: dict):
    return SteelixFuzzer(subject, SteelixConfig(seed=seed, max_executions=budget)).run()


def _run_driller(subject: Subject, seed: int, budget: int, durability: dict):
    return DrillerFuzzer(subject, DrillerConfig(seed=seed, max_executions=budget)).run()


#: tool name -> runner.  Every runner returns an object with
#: ``valid_inputs`` / ``executions`` / ``wall_time`` attributes.
_RUNNERS = {
    "pfuzzer": _run_pfuzzer,
    "afl": _run_afl,
    "klee": _run_klee,
    "random": _run_random,
    "steelix": _run_steelix,
    "driller": _run_driller,
}

#: Tool names accepted by :func:`run_campaign`.  "steelix" (AFL +
#: comparison progress) and "driller" (AFL + symbolic stints) are the §6.2
#: related-work baselines, not part of the paper's evaluation grid.
TOOLS: Tuple[str, ...] = ("pfuzzer", "afl", "klee", "random", "steelix", "driller")


@dataclass
class ToolOutput:
    """Normalised campaign output, whichever tool produced it."""

    tool: str
    subject: str
    seed: int
    valid_inputs: List[str] = field(default_factory=list)
    executions: int = 0
    wall_time: float = 0.0
    #: Final pFuzzer queue depth; ``None`` for tools without a queue.
    queue_depth: Optional[int] = None
    #: Seconds per campaign phase (pFuzzer reports "execute" / "rescore" /
    #: "substitute" / "checkpoint"); ``None`` for tools without a breakdown.
    phase_times: Optional[Dict[str, float]] = None
    #: Times the campaign was restored from a checkpoint (0 = never; only
    #: pFuzzer campaigns are checkpointable).
    resumes: int = 0
    #: Stable path signature per valid input (pFuzzer only; parallel with
    #: ``valid_inputs``), persisted by :mod:`repro.eval.corpus_store`.
    valid_signatures: Optional[List[int]] = None
    #: Subject executions that crashed (raised something other than the
    #: subject's declared rejection exceptions).  Always counted; the
    #: fields below are populated only in crash-hunting mode.
    crashes: int = 0
    #: Deduplicated crashing inputs (one per distinct failure site;
    #: pFuzzer crash-hunting mode only).
    crash_inputs: List[str] = field(default_factory=list)
    #: Failure-site signatures parallel with ``crash_inputs`` (see
    #: :func:`repro.runtime.harness.failure_site`).
    crash_signatures: List[tuple] = field(default_factory=list)
    #: Path signatures parallel with ``crash_inputs``, persisted as
    #: ``"crash"``-kind corpus records.
    crash_path_signatures: List[int] = field(default_factory=list)


def validate_campaign(tool: str, subject_name: str) -> None:
    """Reject unknown tools/subjects up front, naming the valid choices.

    Raises:
        ValueError: unknown ``tool`` or ``subject_name``; the message lists
            every valid choice for whichever argument was wrong.
    """
    problems = []
    if tool not in _RUNNERS:
        problems.append(f"unknown tool {tool!r}; valid tools: {', '.join(TOOLS)}")
    if not is_known_subject(subject_name):
        problems.append(
            f"unknown subject {subject_name!r}; valid subjects: "
            f"{', '.join(available_subjects())}"
        )
    if problems:
        raise ValueError("; ".join(problems))


def run_campaign(
    tool: str,
    subject_name: str,
    budget: int,
    seed: int = 0,
    *,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
    corpus_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    cull_every: Optional[int] = None,
    hybrid: bool = False,
    mine_after: Optional[int] = None,
    gen_batch: Optional[int] = None,
    gen_depth: Optional[int] = None,
    hunt_crashes: bool = False,
    subject_module: Optional[str] = None,
) -> ToolOutput:
    """Run ``tool`` on ``subject_name`` with an execution ``budget``.

    Args:
        tool: one of :data:`TOOLS`.
        subject_name: a registered subject.
        budget: execution budget for the run.
        seed: PRNG seed.
        checkpoint_dir: enable durable snapshots there (pFuzzer only; the
            baselines ignore durability options — they have no resumable
            state worth snapshotting and restart from scratch instead).
        checkpoint_every: snapshot cadence in executions (pFuzzer only).
        resume: restore the newest valid snapshot before fuzzing.
        corpus_path: append the run's valid inputs (with path signatures,
            when the tool reports them) to this
            :class:`~repro.eval.corpus_store.CorpusStore` file.
        trace_path: write an NDJSON campaign trace there (pFuzzer only;
            see :mod:`repro.obs.trace`).
        cull_every: queue-hygiene cadence in executions (pFuzzer only;
            see :attr:`repro.core.config.FuzzerConfig.cull_every`).
            Environmental like ``trace_path`` — never changes the result.
        hybrid: run the pFuzzer campaign in hybrid mine/generate mode
            (see :mod:`repro.hybrid`).  Unlike the environmental knobs
            above this changes the campaign result and participates in
            the snapshot fingerprint.
        mine_after: hybrid gain-evidence/inter-phase floor (pFuzzer
            default when None).
        gen_batch: hybrid generated candidates per flood (pFuzzer
            default when None).
        gen_depth: hybrid compiled-generator flood depth budget (pFuzzer
            default when None).
        hunt_crashes: record crashing inputs as campaign findings
            (pFuzzer only; see
            :attr:`repro.core.config.FuzzerConfig.hunt_crashes`).  Like
            ``hybrid`` this changes the result and participates in the
            snapshot fingerprint.
        subject_module: import this module before resolving
            ``subject_name``, so plugin subjects registered via
            :func:`repro.subjects.registry.register_subject` at import
            time are available (the ``--subject-module`` CLI flag).
    """
    if subject_module is not None:
        load_subject_module(subject_module)
    validate_campaign(tool, subject_name)
    subject = load_subject(subject_name)
    durability = {}
    if checkpoint_dir is not None:
        durability["checkpoint_dir"] = checkpoint_dir
        durability["resume"] = resume
        if checkpoint_every is not None:
            durability["checkpoint_every"] = checkpoint_every
    if trace_path is not None:
        durability["trace_path"] = trace_path
    if cull_every is not None:
        durability["cull_every"] = cull_every
    if hybrid:
        durability["hybrid"] = True
        if mine_after is not None:
            durability["mine_after"] = mine_after
        if gen_batch is not None:
            durability["gen_batch"] = gen_batch
        if gen_depth is not None:
            durability["gen_depth"] = gen_depth
    if hunt_crashes:
        durability["hunt_crashes"] = True
    outcome = _RUNNERS[tool](subject, seed, budget, durability)
    output = ToolOutput(
        tool=tool,
        subject=subject_name,
        seed=seed,
        valid_inputs=list(outcome.valid_inputs),
        executions=outcome.executions,
        wall_time=outcome.wall_time,
        queue_depth=getattr(outcome, "queue_depth", None),
        phase_times=getattr(outcome, "phase_times", None),
        resumes=getattr(outcome, "resumes", 0),
        valid_signatures=list(getattr(outcome, "valid_signatures", None) or [])
        or None,
        crashes=getattr(outcome, "crashes", 0),
        crash_inputs=list(getattr(outcome, "crash_inputs", [])),
        crash_signatures=[
            tuple(sig) for sig in getattr(outcome, "crash_signatures", [])
        ],
        crash_path_signatures=list(
            getattr(outcome, "crash_path_signatures", [])
        ),
    )
    if corpus_path is not None:
        from repro.eval.corpus_store import CorpusStore

        CorpusStore(corpus_path).add_output(output)
    return output


def best_of(
    tool: str,
    subject_name: str,
    budget: int,
    metric: Callable[[ToolOutput], float],
    repetitions: int = 3,
    base_seed: int = 0,
) -> ToolOutput:
    """Best of N repetitions by ``metric`` (paper: "we report the best run")."""
    outputs = [
        run_campaign(tool, subject_name, budget, seed=base_seed + repetition)
        for repetition in range(repetitions)
    ]
    return max(outputs, key=metric)


def run_campaigns(
    subjects: Sequence[str],
    tools: Sequence[str],
    budgets: Optional[Dict[str, int]] = None,
    default_budget: int = 2_000,
    seed: int = 0,
) -> Dict[Tuple[str, str], ToolOutput]:
    """Run every (subject, tool) pair once; key the results by the pair."""
    results: Dict[Tuple[str, str], ToolOutput] = {}
    for subject_name in subjects:
        budget = (budgets or {}).get(subject_name, default_budget)
        for tool in tools:
            results[(subject_name, tool)] = run_campaign(
                tool, subject_name, budget, seed=seed
            )
    return results
