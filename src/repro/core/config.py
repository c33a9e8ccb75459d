"""Configuration of the parser-directed fuzzer."""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Optional

#: Default pool the fuzzer appends random characters from: printable ASCII
#: plus the common whitespace control characters.  The paper uses "the set of
#: all ASCII characters"; restricting to printables only changes how often a
#: random append is immediately useless.
DEFAULT_CHARACTER_POOL = (
    string.ascii_letters + string.digits + string.punctuation + " \t\n"
)


@dataclass
class HeuristicWeights:
    """Weights of the §3.1 search heuristic (Algorithm 1, Lines 47–51).

    The paper's formula is::

        cov  = |branches \\ vBr|
        cov -= len(input)
        cov += 2 * len(replacement)
        cov -= avgStackSize()
        cov += numParents          # but see `parents` below

    Attributes:
        new_branches: weight of newly covered branches (Line 48).
        input_length: penalty per input character (Line 49) — avoids
            coverage-driven depth-first blowup.
        replacement_length: bonus per replacement character (Line 49) —
            favours string-comparison substitutions, i.e. keywords.
        stack_size: penalty on the average stack size between the last two
            comparisons (Line 50) — favours inputs that close syntactic
            features.
        parents: weight of the substitution-chain length.  Algorithm 1
            literally *adds* numParents, but the prose says inputs with
            fewer parents should rank higher; we default to the prose
            (negative weight).  The ablation bench measures both signs.
        path_repetition: penalty per prior execution of the same branch
            path (§3.2: inputs covering already-taken paths rank lower).
    """

    new_branches: float = 1.0
    input_length: float = 1.0
    replacement_length: float = 2.0
    stack_size: float = 1.0
    parents: float = -1.0
    path_repetition: float = 1.0


@dataclass
class FuzzerConfig:
    """Runtime knobs of one fuzzing campaign.

    Attributes:
        seed: PRNG seed; None draws entropy from the OS.
        max_executions: execution budget (each loop iteration costs up to
            two executions, §3.1).  The stand-in for the paper's 48 hours.
        max_valid_inputs: stop early after emitting this many new-coverage
            valid inputs (None = no cap).
        max_input_length: safety cap; longer candidates are not extended.
        queue_limit: maximum queue size; lowest-scored candidates are
            dropped beyond it.
        character_pool: characters used for random appends.
        weights: heuristic weights.
        trace_coverage: disable to skip branch tracing (the heuristic then
            degrades to comparisons only; used by ablations).
        coverage_backend: ``"settrace"`` (reference tracer) or ``"ast"``
            (compiled-in AST instrumentation, several times faster; see
            :mod:`repro.runtime.instrument`).  Both backends produce
            identical campaigns for the same seed.
        checkpoint_dir: directory for durable campaign snapshots (see
            :mod:`repro.eval.checkpoint`); None disables checkpointing.
        checkpoint_every: write a snapshot every N subject executions
            (checked at the iteration boundary, so the actual spacing can
            overshoot by one iteration's executions).
        checkpoint_keep: snapshot generations retained on disk; older ones
            are deleted after each successful write.
        resume: restore the newest valid snapshot from ``checkpoint_dir``
            before fuzzing; a resumed campaign is byte-identical (modulo
            timings) to an uninterrupted one with the same config.
        trace_path: write a structured NDJSON trace of the campaign to
            this file (see :mod:`repro.obs.trace`); None disables tracing
            (the null-recorder fast path).  Tracing never affects the
            campaign's result: lineage ids are assigned identically with
            tracing on or off, and ``trace_path`` is excluded from the
            snapshot fingerprint so a resumed campaign may toggle it.
        shard_id: this campaign's index within a sharded group (AFL's
            ``-M/-S`` model; see DESIGN.md §8).  With ``shard_count`` > 1
            the substitution/append candidate space is deterministically
            partitioned: a shard only queues the substitutions it owns
            and appends from its slice of the character pool.
        shard_count: number of shards in the group.  The default of 1
            disables partitioning entirely — a single-shard campaign is
            byte-identical to a pre-sharding one.
        shard_rotate_every: rotation cadence in executions.  Ownership is
            keyed on ``(hash(text) + epoch) % shard_count`` where
            ``epoch = executions // shard_rotate_every``, so the partition
            rotates over time and no candidate is permanently orphaned on
            a shard that never reaches it.
        sync_store: path of a shared :class:`~repro.eval.corpus_store.
            CorpusStore` JSONL file this shard pushes its valid inputs to
            and imports other shards' inputs from; None disables corpus
            sync.  Like ``checkpoint_dir``, the path is environmental and
            excluded from the snapshot fingerprint.
        sync_every: exchange inputs with ``sync_store`` every N subject
            executions, checked at the iteration boundary (the same
            cadence discipline as ``checkpoint_every``, which is also the
            default when None).  Determinism contract: sync points are a
            pure function of the executions counter, so a killed and
            resumed shard syncs at exactly the points the uninterrupted
            run would have.
        cull_every: run :meth:`repro.core.queue.CandidateQueue.cull`
            every N subject executions, checked at the iteration boundary
            (the same cadence discipline as ``checkpoint_every`` /
            ``sync_every``): dead entries (text already executed) and
            dominated duplicates are dropped, keeping long campaigns'
            re-scores proportional to the live frontier.  None disables
            culling.  Environmental like ``trace_path``: culling never
            changes the campaign result (the equivalence suite asserts
            fingerprint identity with culling on and off), so it is
            excluded from the snapshot fingerprint and a resumed campaign
            may toggle it.
        hybrid: run the campaign as a hybrid discover→learn→generate
            loop (see :mod:`repro.hybrid`): parser-directed search runs
            until the coverage-gain posterior plateaus, a grammar is
            mined from the accumulated valid inputs (token boundaries
            enriched from the lineage log), and the compiled generator
            floods candidates that re-seed the corpus as ``"gen"``
            lineage roots and reset ``vBr``.  Unlike the environmental
            knobs above, hybrid mode *changes the campaign result*, so
            it (and its three phase knobs) participates in the snapshot
            fingerprint and must match on resume.
        mine_after: decayed-execution evidence the gain estimator needs
            before a plateau can trigger a mining phase (see
            :class:`repro.hybrid.campaign.HybridConfig`); also the floor
            between consecutive mining phases.
        gen_batch: maximum generated candidates injected per generation
            flood.
        gen_depth: depth budget of the compiled generator during floods.
            Shallow floods (the default) produce corpus-scale re-seed
            roots whose structure deepens across mining rounds; subjects
            whose coverage lives in deep input structure (tinyC programs)
            benefit from flooding deeper directly.
        hunt_crashes: treat crashes as campaign findings: crashing inputs
            are recorded (deduplicated by failure-site signature, see
            :func:`repro.runtime.harness.failure_site`), emitted as
            ``crash_found`` trace events, and surface in
            ``FuzzingResult.crash_inputs`` for the corpus store.  Off,
            crashes are still counted and kept alive-but-ignored (the
            status fix) — hunting only changes what is *recorded*, but
            recorded findings join the result, so like ``hybrid`` the
            flag participates in the snapshot fingerprint and must match
            on resume.
    """

    seed: Optional[int] = None
    max_executions: int = 2_000
    max_valid_inputs: Optional[int] = None
    max_input_length: int = 200
    queue_limit: int = 5_000
    character_pool: str = DEFAULT_CHARACTER_POOL
    weights: HeuristicWeights = field(default_factory=HeuristicWeights)
    trace_coverage: bool = True
    coverage_backend: str = "settrace"
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 500
    checkpoint_keep: int = 2
    resume: bool = False
    trace_path: Optional[str] = None
    shard_id: int = 0
    shard_count: int = 1
    shard_rotate_every: int = 200
    sync_store: Optional[str] = None
    sync_every: Optional[int] = None
    cull_every: Optional[int] = None
    hybrid: bool = False
    mine_after: int = 600
    gen_batch: int = 32
    gen_depth: int = 3
    hunt_crashes: bool = False
    #: Optional seed corpus.  pFuzzer needs none (the paper's point), but a
    #: previous campaign's corpus can be resumed from here; seeds are
    #: processed before the empty-string start.
    initial_inputs: tuple = ()
