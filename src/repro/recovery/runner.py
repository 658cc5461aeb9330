"""Deterministic checkpointed-ingest runs, shared by CLI and crash harness.

A crash-injection experiment has three legs — the run that gets killed,
the resume, and the uninterrupted single-pass reference — and they are
only comparable if all three reconstruct *exactly* the same stream,
template and ingest shape.  :class:`RunConfig` is that single source of
truth: the CLI subcommands (``repro-experiments checkpoint`` /
``resume``) parse flags into one, the crash harness builds one and turns
it back into the same flags via :meth:`RunConfig.to_argv`, and
:func:`run_checkpointed` executes it identically in either process.

Streams come from :func:`repro.verify.streams.generate_stream` — the same
seeded adversarial profiles the differential harness fuzzes with.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.conditions import ImplicationConditions
from ..core.estimator import ImplicationCountEstimator
from ..core.serialize import estimator_state_digest
from ..observability import metrics as obs
from ..verify.streams import generate_stream
from .checkpoint import CheckpointManager
from .ingest import ingest_checkpointed

__all__ = ["RunConfig", "run_checkpointed"]


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a checkpointed ingest, reproducibly."""

    tuples: int = 20_000
    chunk_size: int = 4096
    every: int = 1
    seed: int = 0
    profile: str = "uniform"
    min_support: int = 2
    theta: float = 0.0
    max_multiplicity: int | None = None
    num_bitmaps: int = 16
    keep: int = 3

    def conditions(self) -> ImplicationConditions:
        return ImplicationConditions(
            max_multiplicity=self.max_multiplicity,
            min_support=self.min_support,
            top_c=1,
            min_top_confidence=self.theta,
        )

    def template(self) -> ImplicationCountEstimator:
        return ImplicationCountEstimator(
            self.conditions(), num_bitmaps=self.num_bitmaps, seed=self.seed
        )

    def stream(self):
        return generate_stream(self.profile, seed=self.seed, size=self.tuples)

    @property
    def chunk_count(self) -> int:
        return -(-self.tuples // self.chunk_size)

    def to_argv(self, mode: str, checkpoint_dir: str) -> list[str]:
        """The exact CLI invocation reproducing this run."""
        argv = [
            mode,
            "--checkpoint-dir", checkpoint_dir,
            "--tuples", str(self.tuples),
            "--chunk-size", str(self.chunk_size),
            "--every", str(self.every),
            "--seed", str(self.seed),
            "--profile", self.profile,
            "--min-support", str(self.min_support),
            "--theta", str(self.theta),
            "--num-bitmaps", str(self.num_bitmaps),
            "--keep", str(self.keep),
        ]
        if self.max_multiplicity is not None:
            argv += ["--max-multiplicity", str(self.max_multiplicity)]
        return argv


def run_checkpointed(config: RunConfig, checkpoint_dir: str) -> dict:
    """Execute one (possibly resuming) checkpointed ingest.

    Returns a JSON-able report: the final ``estimator_state_digest``,
    cursor, what (if anything) was restored, which generations were
    skipped as invalid, and the generations now on disk.  This dict is the
    machine interface the crash harness parses from the CLI's stdout.
    """
    manager = CheckpointManager(checkpoint_dir, keep=config.keep)
    template = config.template()
    # Probe what resume will see, for the report; ingest_checkpointed
    # re-loads (cheap at these sizes) and enforces shape compatibility.
    probe = manager.load_latest(template=template)
    restored_generation = probe.generation if probe is not None else None
    restored_cursor = probe.cursor if probe is not None else None
    skipped = list(manager.last_skipped)
    if probe is not None and probe.manifest["metrics"]:
        # Carry pre-crash telemetry across the restart so counters and
        # timings accumulate over the logical ingest, not the process.
        obs.get_registry().merge_snapshot(probe.manifest["metrics"])
    lhs, rhs = config.stream()
    estimator = ingest_checkpointed(
        template,
        lhs,
        rhs,
        manager=manager,
        chunk_size=config.chunk_size,
        every=config.every,
    )
    return {
        "digest": estimator_state_digest(estimator),
        "tuples": config.tuples,
        "cursor": config.tuples,
        "tuples_seen": estimator.tuples_seen,
        "profile": config.profile,
        "chunk_size": config.chunk_size,
        "chunks": config.chunk_count,
        "restored_generation": restored_generation,
        "restored_cursor": restored_cursor,
        "skipped_generations": [
            {"generation": generation, "reason": reason}
            for generation, reason in skipped
        ],
        "generations": manager.generations(),
        "checkpoint_dir": manager.directory,
    }
