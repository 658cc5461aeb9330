"""Sharded multi-core ingestion: split, ingest, ship, merge — fault-tolerantly.

The distributed machinery of Section 1 (per-node sketches folded by an
aggregator) works just as well *inside* one machine: the stream is split
into ``n`` contiguous shards, each shard is ingested by a worker process
into a fresh sibling estimator (:meth:`ImplicationCountEstimator
.spawn_sibling` — same geometry, same placement hash), the workers ship
their state back through the versioned wire format
(:mod:`repro.core.serialize`), and the parent folds the payloads with
:meth:`ImplicationCountEstimator.merge`.

Execution goes through the persistent worker runtime
(:mod:`repro.engine.pool`): workers are spawned once and reused across
``ingest_payloads`` calls, the stream is published once per ingest epoch (shared memory, with fork-inherited and
inline fallbacks) so shard jobs carry only ``(offset, length)`` spans,
and sibling templates ship to each worker at most once per geometry.
Results are collected as workers finish but merged in shard order, so
the final state — and the ``estimator_state_digest`` — is bit-for-bit
independent of completion order, pool reuse, and execution vehicle
(persistent pool == fresh pool == serial; the ``pool-execution-
equivalence`` contract in :mod:`repro.verify.contracts` pins this).

Fault tolerance (the paper's constrained-environment premise: nodes die):

* each shard job has an optional per-shard timeout (``job_timeout``) so a
  hung or killed worker cannot stall the whole ingest — its process is
  killed and the pool slot respawned;
* a failed or timed-out shard is re-ingested **serially in the parent,
  exactly once** — only the failed shards are redone, never the whole
  stream, and because every shard is deterministic (same template payload,
  same rows) the retried result is bit-for-bit what the worker would have
  produced;
* failures are injectable for tests: the ``REPRO_SHARD_FAILURE`` env var
  (comma-separated shard indexes) or a ``failure_hook`` constructor arg
  kills chosen shards deterministically on their first attempt.  The env
  var is evaluated in the *parent* at dispatch time, so it keeps working
  with long-lived workers that were forked before the variable changed.

Workers also ship their metrics snapshot (:mod:`repro.observability`) back
alongside the sketch payload; the parent folds the snapshots into the
process-global registry **in shard-index order** (never arrival order —
``Gauge`` merges are last-write-wins, so arrival order would make
identical runs diverge), and per-shard wall times and worker-side batch
counters survive the process boundary just like the sketches do.

Semantics caveat (inherited from :meth:`ItemsetState.merge`): the sticky
violation semantics are order-*dependent* — a confidence dip that is only
visible in one particular interleaving of two shards cannot be
reconstructed from their final states, so a sharded run may classify such
an itemset differently from a single-pass run over the same tuples.
Support counts, partner counts and multiplicity violations merge exactly;
only interleaving-sensitive confidence dips are affected.  This is the same
approximation every distributed deployment of the paper makes (Section 1's
sensor-network aggregation), and :mod:`tests.test_batch_engine` pins both
sides of it: bit-for-bit equality on order-robust streams, plus a targeted
test demonstrating the caveat.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from ..core.estimator import ImplicationCountEstimator
from ..kernels.backend import resolve as resolve_kernels
from ..observability import metrics as obs
from ..sketch.hashing import coerce_encoded
from . import pool as pool_runtime
from .workers import ShardFailure, run_shard_job

__all__ = ["ShardedIngestor", "ShardFailure", "available_workers"]

#: Env var naming shard indexes that fail their first attempt (tests).
FAILURE_ENV = "REPRO_SHARD_FAILURE"


def available_workers() -> int:
    """Worker count the local machine can usefully run (>= 1).

    Prefers the scheduling affinity mask over the raw core count:
    ``os.cpu_count()`` reports every core in the box, which overcommits
    in cgroup- or affinity-constrained environments (containers, CI
    runners, ``taskset``) where only a subset is actually schedulable.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(len(getaffinity(0)), 1)
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return max(os.cpu_count() or 1, 1)


def _injected_failure_shards() -> frozenset[int]:
    """Shard indexes the ``REPRO_SHARD_FAILURE`` env var marks for failure."""
    raw = os.environ.get(FAILURE_ENV, "").strip()
    if not raw:
        return frozenset()
    try:
        return frozenset(int(field) for field in raw.split(",") if field.strip())
    except ValueError:
        raise ValueError(
            f"{FAILURE_ENV} must be comma-separated shard indexes, got {raw!r}"
        ) from None


def _ingest_shard(
    args: tuple,
) -> tuple[bytes, dict]:
    """Serial shard execution (workers=1 path and the parent retry path).

    Same body as the pooled workers run (:func:`workers.run_shard_job`),
    so every execution vehicle produces byte-identical payloads and the
    same metrics shape.  Failure injection runs *before* any work: an
    injected shard behaves like a worker that died on arrival, and the
    retry (``attempt >= 1``) re-ingests from scratch.
    """
    (
        shard_index,
        attempt,
        template_payload,
        lhs,
        rhs,
        failure_hook,
        kernels,
    ) = args
    fail_injected = attempt == 0 and shard_index in _injected_failure_shards()
    return run_shard_job(
        shard_index,
        attempt,
        template_payload,
        lhs,
        rhs,
        fail_injected,
        failure_hook,
        kernels,
    )


class _IngestSession:
    """One ingest epoch: the stream, the template, and a lazy segment.

    Publication is deferred until a pooled round actually happens, so a
    serial ingest (one shard, pool disabled) never touches shared memory.
    """

    def __init__(
        self, template: ImplicationCountEstimator, lhs: np.ndarray, rhs: np.ndarray
    ) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.template_payload = template.spawn_sibling().to_bytes()
        self.digest = pool_runtime.template_digest(self.template_payload)
        self._segment: pool_runtime.StreamSegment | None = None

    def segment(self) -> pool_runtime.StreamSegment:
        if self._segment is None:
            self._segment = pool_runtime.get_runtime().publish(self.lhs, self.rhs)
        return self._segment

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None


class ShardedIngestor:
    """Parallel ingest-then-merge over contiguous stream shards.

    Parameters
    ----------
    template:
        Estimator defining geometry, conditions and the placement hash.
        The template itself is never mutated — every shard gets a fresh
        :meth:`~ImplicationCountEstimator.spawn_sibling`.
    workers:
        Number of shards.  ``1`` ingests serially in the calling process
        (no subprocess overhead), which is also the fallback whenever
        process pools are unavailable.  The pool itself never exceeds
        :func:`available_workers` processes regardless of the shard count.
    job_timeout:
        Seconds each shard may run *once dispatched to a worker* before
        it is declared dead, its worker killed and respawned, and the
        shard re-ingested serially.  ``None`` (default) waits
        indefinitely — set a timeout whenever workers can be killed out
        from under the pool (a killed worker's result never arrives, so
        without a timeout the parent would wait forever; note the pooled
        runtime *does* detect outright worker deaths without a timeout —
        the pipe closes — a timeout is for hangs).
    failure_hook:
        ``hook(shard_index, attempt)`` called at the top of every shard
        job; raise from it (or sleep past ``job_timeout``) to simulate a
        worker death deterministically.  Shard jobs are shipped to the
        pool by pickling, so the hook must be a picklable top-level
        callable; the ``REPRO_SHARD_FAILURE`` env var (comma-separated
        shard indexes, first attempt only) is the pickling-free
        alternative.
    use_pool:
        ``False`` forces every shard to run serially in the parent while
        keeping the exact split/ship/merge structure — the reference leg
        of the pool-equivalence contract, and an escape hatch for hosts
        where subprocesses are flaky rather than unavailable.
    kernels:
        Batch-ingest backend for every shard (see
        :mod:`repro.kernels.backend`).  Resolved here, in the parent, to
        a concrete backend name that ships inside each shard job — so
        pooled workers, the serial path and the parent-side retry all
        run the same backend regardless of when the worker processes
        were forked.  ``None`` / ``"auto"`` prefers compiled.

    Examples
    --------
    >>> ingestor = ShardedIngestor(template, workers=4, job_timeout=60.0)
    >>> merged = ingestor.ingest(lhs, rhs)
    >>> merged.implication_count()  # doctest: +SKIP
    """

    def __init__(
        self,
        template: ImplicationCountEstimator,
        workers: int = 1,
        *,
        job_timeout: float | None = None,
        failure_hook: Callable[[int, int], None] | None = None,
        use_pool: bool = True,
        kernels: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {job_timeout}")
        self.template = template
        self.workers = workers
        self.job_timeout = job_timeout
        self.failure_hook = failure_hook
        self.use_pool = use_pool
        self.kernels_name = resolve_kernels(kernels).name

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest_payloads(
        self, lhs: np.ndarray, rhs: np.ndarray
    ) -> list[tuple[str, bytes]]:
        """Ingest shards and return ``(shard_name, payload)`` snapshots.

        This is the coordinator-friendly form: each payload is exactly what
        a :class:`repro.distributed.coordinator.Coordinator` expects from
        :meth:`receive`, so an in-process shard farm and a fleet of remote
        nodes are interchangeable aggregation sources.  Each shard runs
        :meth:`~ImplicationCountEstimator.update_batch`, so a one-shard
        payload is bit-for-bit the scalar loop over the stream.
        """
        lhs, rhs = self._validated(lhs, rhs)
        session = _IngestSession(self.template, lhs, rhs)
        try:
            return self._ingest_span(session, 0, len(lhs))
        finally:
            session.close()

    def ingest(self, lhs: np.ndarray, rhs: np.ndarray) -> ImplicationCountEstimator:
        """Ingest the stream across all shards and return the merged estimator."""
        merged = self.template.spawn_sibling()
        for _, payload in self.ingest_payloads(lhs, rhs):
            merged.merge(ImplicationCountEstimator.from_bytes(payload))
        return merged

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _validated(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lhs = coerce_encoded(lhs)
        rhs = coerce_encoded(rhs)
        if lhs.shape != rhs.shape:
            raise ValueError(
                f"lhs and rhs must have equal shapes, got {lhs.shape} vs {rhs.shape}"
            )
        return lhs, rhs

    def _spans(self, start: int, end: int) -> list[tuple[int, int]]:
        """Contiguous, near-equal ``(offset, length)`` shards of a span.

        Matches ``np.array_split`` boundaries exactly (the pre-runtime
        split), so the merge structure — and therefore the state digest —
        is unchanged across the transport rewrite.
        """
        length = end - start
        count = max(min(self.workers, length), 1)
        base, remainder = divmod(length, count)
        spans = []
        offset = start
        for index in range(count):
            size = base + (1 if index < remainder else 0)
            spans.append((offset, size))
            offset += size
        return spans

    def _pool_processes(self, job_count: int) -> int:
        """Pool size: one process per shard, capped at the machine's cores."""
        return max(min(job_count, available_workers()), 1)

    def _serial_job(
        self,
        session: _IngestSession,
        shard_index: int,
        span: tuple[int, int],
    ) -> tuple:
        """An in-parent job tuple (the `_ingest_shard` / retry format)."""
        offset, length = span
        return (
            shard_index,
            0,
            session.template_payload,
            session.lhs[offset : offset + length],
            session.rhs[offset : offset + length],
            self.failure_hook,
            self.kernels_name,
        )

    def _retry_serially(self, job: tuple, error: BaseException) -> tuple[bytes, dict]:
        """Second (and last) attempt for a failed shard, in the parent.

        Serial re-ingest is deterministic — same template payload, same
        rows — so the merged result is bit-for-bit identical to a run where
        the worker never failed.  A second failure is terminal.
        """
        registry = obs.get_registry()
        registry.counter("sharded.shard_failures").add(1)
        registry.counter("sharded.shard_retries").add(1)
        registry.counter("engine.shard_retries").add(1)
        shard_index = job[0]
        retry_job = (shard_index, 1, *job[2:])
        try:
            return _ingest_shard(retry_job)
        except Exception as retry_error:  # pragma: no cover - double fault
            raise ShardFailure(
                f"shard {shard_index} failed twice: first {error!r}, "
                f"then {retry_error!r}"
            ) from retry_error

    def _run_serial(self, job: tuple) -> tuple[bytes, dict]:
        """Run one shard in-process, with the same one-retry contract."""
        try:
            return _ingest_shard(job)
        except Exception as error:
            return self._retry_serially(job, error)

    def _ingest_span(
        self, session: _IngestSession, start: int, end: int
    ) -> list[tuple[str, bytes]]:
        """One sharded round over ``[start, end)`` of the session's stream."""
        spans = self._spans(start, end)
        registry = obs.get_registry()
        registry.counter("sharded.ingests").add(1)
        registry.counter("sharded.jobs").add(len(spans))
        # Touch the retry counter so it exports as an explicit zero in
        # --metrics-json even for runs where no shard ever failed.
        registry.counter("engine.shard_retries")
        if len(spans) == 1 or not self.use_pool:
            results = [
                self._run_serial(self._serial_job(session, index, span))
                for index, span in enumerate(spans)
            ]
        else:
            results = self._run_pool(session, spans)
        payloads = []
        # Shard-index order, never arrival order: Gauge merges are
        # last-write-wins, so folding by completion would make identical
        # runs' merged telemetry diverge.  ``results`` is slot-ordered by
        # construction (both here and in WorkerRuntime.run_shards).
        for index, (payload, worker_snapshot) in enumerate(results):
            registry.merge_snapshot(worker_snapshot)
            payloads.append((f"shard-{index}", payload))
        return payloads

    def _run_pool(
        self,
        session: _IngestSession,
        spans: Sequence[tuple[int, int]],
    ) -> list[tuple[bytes, dict]]:
        """Run shard spans on the persistent runtime; failures retry serially.

        Every failure mode — a worker that raises, dies (pipe closed), or
        hangs past ``job_timeout`` (killed and respawned) — costs only its
        own shard: the shard is re-ingested in the parent and every healthy
        worker's result is kept.  When no pool can be created at all (no
        ``/dev/shm``, sandboxed fork, …) the same split/ship/merge pipeline
        runs serially.
        """
        injected = _injected_failure_shards()
        jobs = [
            pool_runtime.ShardJob(
                shard_index=index,
                attempt=0,
                digest=session.digest,
                template_payload=session.template_payload,
                offset=offset,
                length=length,
                fail_injected=index in injected,
                failure_hook=self.failure_hook,
                kernels=self.kernels_name,
            )
            for index, (offset, length) in enumerate(spans)
        ]
        try:
            runtime = pool_runtime.get_runtime()
            results, failures = runtime.run_shards(
                session.segment(),
                jobs,
                processes=self._pool_processes(len(jobs)),
                job_timeout=self.job_timeout,
            )
        except (OSError, RuntimeError):  # pragma: no cover - no subprocesses
            # Constrained environments: keep the pipeline, just serially.
            return [
                self._run_serial(self._serial_job(session, index, span))
                for index, span in enumerate(spans)
            ]
        for index, error in failures:
            results[index] = self._retry_serially(
                self._serial_job(session, index, spans[index]), error
            )
        return results  # type: ignore[return-value]
