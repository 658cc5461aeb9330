"""Durable checkpoint/recovery: the synopsis must outlive the process.

The paper maintains implication statistics *continuously* in environments
where processes are the least reliable component; this package makes the
accumulated NIPS/CI state crash-proof:

* :mod:`repro.recovery.checkpoint` — atomic, checksummed, generational
  snapshots (:class:`CheckpointManager`) with fall-back-on-corruption
  loading;
* :mod:`repro.recovery.crash` — named SIGKILL injection points inside the
  save protocol and ingest loop;
* :mod:`repro.recovery.ingest` — checkpointed ingest: one resident
  estimator advanced chunk by chunk, resumable from any generation;
* :mod:`repro.recovery.runner` — deterministic checkpointed runs shared by
  the CLI (``repro-experiments checkpoint`` / ``resume``) and tests;
* :mod:`repro.recovery.harness` — the crash-injection driver that kills a
  real subprocess at fuzzed protocol windows, resumes, and asserts
  digest equality with an uninterrupted run.
"""

from .checkpoint import CheckpointManager, RestoredCheckpoint
from .harness import CrashInjectionHarness, CrashOutcome, CrashReport
from .ingest import ingest_checkpointed
from .runner import RunConfig, run_checkpointed

__all__ = [
    "CheckpointManager",
    "RestoredCheckpoint",
    "CrashInjectionHarness",
    "CrashOutcome",
    "CrashReport",
    "RunConfig",
    "ingest_checkpointed",
    "run_checkpointed",
]
