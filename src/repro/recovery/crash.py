"""Deterministic crash injection — SIGKILL at named points, for real.

The recovery guarantees of :mod:`repro.recovery.checkpoint` are only worth
anything if they survive a process that dies *without* running any cleanup:
no ``finally`` blocks, no ``atexit``, no buffered writes magically flushed.
The honest way to simulate that is the same way an OOM killer or a power
cut behaves — ``SIGKILL`` to our own pid, delivered at a precisely chosen
instruction boundary.

The checkpoint writer and the chunked ingest loop call
:func:`maybe_crash` at every interesting point of their protocols
(mid-payload-write, between the payload and manifest renames, right after
a chunk ingest, ...).  In normal operation the calls are a single ``dict``
lookup against a cached environment value; in a crash-injection run the
driver (:mod:`repro.recovery.harness`) sets ``REPRO_CRASH_POINT`` to one
point name in the child process's environment and the child genuinely
kills itself there.

Point names are structured strings:

``gen<G>:<stage>``
    Inside :meth:`CheckpointManager.save` for generation ``G``; stages are
    ``payload-mid-write``, ``payload-pre-rename``, ``mid-rename`` (payload
    committed, manifest not — the classic torn-update window),
    ``manifest-mid-write``, ``manifest-pre-rename`` and ``post-commit``.
``chunk:<I>``
    In the chunked ingest loop, after chunk ``I`` has been ingested into
    the resident estimator but before the checkpoint decision — progress
    that dies un-checkpointed and must be replayed.
"""

from __future__ import annotations

import os
import signal

__all__ = ["CRASH_ENV", "SAVE_STAGES", "maybe_crash", "armed_point"]

#: Env var holding the single crash-point name armed for this process.
CRASH_ENV = "REPRO_CRASH_POINT"

#: The stages of one checkpoint save, in protocol order (see
#: :meth:`repro.recovery.checkpoint.CheckpointManager.save`).
SAVE_STAGES: tuple[str, ...] = (
    "payload-mid-write",
    "payload-pre-rename",
    "mid-rename",
    "manifest-mid-write",
    "manifest-pre-rename",
    "post-commit",
)


def armed_point() -> str | None:
    """The crash point armed via ``REPRO_CRASH_POINT``, or ``None``.

    Read from the environment on every call (not cached at import) so a
    test harness can arm/disarm points in-process; the lookup is one dict
    access, which is free next to any file or sketch work.
    """
    raw = os.environ.get(CRASH_ENV, "").strip()
    return raw or None


def maybe_crash(point: str) -> None:
    """Die by SIGKILL — no cleanup, no flush — if ``point`` is armed."""
    if armed_point() == point:
        os.kill(os.getpid(), signal.SIGKILL)
