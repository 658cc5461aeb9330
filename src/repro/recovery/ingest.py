"""Checkpointed ingest: one resident estimator, committed chunk by chunk.

The durable batch path behind ``repro-experiments checkpoint``/``resume``
(:mod:`repro.recovery.runner`) and the crash-injection harness.
"""

from __future__ import annotations

import numpy as np

from ..core.estimator import ImplicationCountEstimator
from ..observability import metrics as obs
from ..sketch.hashing import coerce_columns
from . import crash
from .checkpoint import RESIDENT_STATE, CheckpointManager, check_resume_shape

__all__ = ["ingest_checkpointed"]

#: The resume-enforced identity every checkpointed-ingest manifest records.
_SHAPE = {"kind": "checkpointed", "state": RESIDENT_STATE}


def ingest_checkpointed(
    template: ImplicationCountEstimator,
    lhs: np.ndarray,
    rhs: np.ndarray,
    *,
    manager: CheckpointManager,
    chunk_size: int = 8192,
    every: int = 1,
) -> ImplicationCountEstimator:
    """Ingest the stream with durable checkpoints — and the resume path.

    A fresh :meth:`~ImplicationCountEstimator.spawn_sibling` of
    ``template`` (the template itself is never mutated) ingests the stream
    one chunk at a time.  Chunks end at multiples of ``chunk_size`` from
    tuple zero, so the ``chunk:<I>`` crash points name the same instants
    in every run.  After every ``every`` chunks, and at end-of-stream, the
    estimator is committed to ``manager`` with the stream cursor.

    Calling this again over the same stream and checkpoint directory *is*
    the resume path: the latest valid generation is restored (torn or
    corrupt generations fall back automatically), keeps the template's
    kernel backend, and continues over the suffix from its cursor — under
    any ``chunk_size`` or ``every``.  The result's
    :func:`~repro.core.serialize.estimator_state_digest` equals one
    ``update_batch`` pass over the whole stream, for every condition
    profile.  Checkpoints written by the per-batch merge chain are refused
    by name (:func:`~repro.recovery.checkpoint.check_resume_shape`).
    """
    lhs, rhs = coerce_columns(lhs, rhs)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    registry = obs.get_registry()
    restored = manager.load_latest(template=template)
    if restored is not None:
        check_resume_shape(restored, _SHAPE)
        if restored.cursor > len(lhs):
            raise ValueError(
                f"checkpoint cursor {restored.cursor} is beyond the "
                f"{len(lhs)}-tuple stream — wrong stream or wrong "
                f"checkpoint directory"
            )
        estimator = restored.estimator
        estimator.kernels = template.kernels
        cursor = restored.cursor
        registry.counter("recovery.resumed_ingests").add(1)
        registry.counter("recovery.tuples_skipped").add(cursor)
    else:
        estimator = template.spawn_sibling()
        cursor = 0
    chunks_since_save = 0
    while cursor < len(lhs):
        chunk_index = cursor // chunk_size
        end = min((chunk_index + 1) * chunk_size, len(lhs))
        estimator.update_batch(lhs[cursor:end], rhs[cursor:end])
        cursor = end
        registry.counter("recovery.chunks_ingested").add(1)
        crash.maybe_crash(f"chunk:{chunk_index}")
        chunks_since_save += 1
        if chunks_since_save >= every or cursor == len(lhs):
            manager.save(
                estimator,
                cursor=cursor,
                epoch={"chunk_index": chunk_index},
                extra=_SHAPE,
            )
            chunks_since_save = 0
    return estimator
