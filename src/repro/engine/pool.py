"""Persistent shard-worker runtime: reusable processes, cheap transport.

The fix for the sharded-scaling inversion.  The original engine forked a
fresh ``multiprocessing.Pool`` on *every* ``ingest_payloads`` call — once
per chunk on a chunked ingest — and every job pickled its full shard
arrays plus a freshly serialized template payload through the pool's
task queue.  Dispatch cost was per-*pool*, which dominated the
ingest itself and made two workers slower than one.  This module makes
dispatch cost per-*batch*, the amortization the paper's folding model
(Section 1: nodes ship sketches, never tuples) takes for granted:

* **Persistent workers** (:class:`WorkerRuntime`) — a lazily started,
  process-global pool that survives across ``ingest_payloads`` calls.
  Dead or hung workers are killed and respawned without tearing the pool
  down.
* **Pickle-free shard transport** — the stream is published once per
  ingest epoch as a :class:`SharedMemorySegment`
  (``multiprocessing.shared_memory``); shard jobs carry only
  ``(offset, length)`` into it.  Where shared memory is unavailable the
  runtime degrades to fork-inherited read-only views
  (:class:`InheritedSegment`, workers forked after publication) and
  finally to inline per-shard slices (:class:`InlineSegment`) — strictly
  narrower than the old full-array pickling in every tier.
* **Template dedup** — each worker caches sibling-template payloads by
  content digest (:mod:`repro.engine.workers`), so the template ships
  once per worker per epoch instead of once per job.

Observability (all through :mod:`repro.observability`):

``pool.spawns`` / ``pool.reuses`` / ``pool.respawns``
    worker processes started, reused across batches, and replaced after
    a death or timeout;
``pool.shm_bytes`` / ``pool.publishes``
    shared-memory bytes and stream segments published;
``pool.template_ships`` / ``pool.template_hits``
    sibling payloads actually sent versus served from worker caches;
``pool.size``
    live workers right now (gauge).

Deadline semantics: each shard's ``job_timeout`` clock starts when the
shard is *dispatched to an idle worker* — the runtime keeps exactly one
job in flight per worker — so a shard queued behind others starts its
budget late rather than sharing it.  (The old implementation's
sequential ``handle.get(timeout)`` calls stacked budgets similarly; see
DESIGN.md §10.)  An overrun kills the worker, fails the shard back to
the caller for its serial parent retry, and respawns the slot.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

from ..observability import metrics as obs
from . import workers as worker_mod
from .workers import ShardFailure

__all__ = [
    "ShardJob",
    "StreamSegment",
    "SharedMemorySegment",
    "InheritedSegment",
    "InlineSegment",
    "WorkerRuntime",
    "get_runtime",
    "shutdown_runtime",
    "template_digest",
]

_segment_counter = itertools.count()


def template_digest(payload: bytes) -> str:
    """Content digest keying worker-side template caches.

    The payload is the serialized sibling estimator, so the digest pins
    the full geometry (bitmap count, cell layout, placement hash,
    conditions) — two ingests with equal geometry share cache entries.
    """
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class ShardJob:
    """One shard's work order: a span of the published stream."""

    shard_index: int
    attempt: int
    digest: str
    template_payload: bytes
    offset: int
    length: int
    fail_injected: bool
    failure_hook: Callable[[int, int], None] | None
    kernels: str | None = None


# --------------------------------------------------------------------- #
# Stream segments (the published-once shard transport)
# --------------------------------------------------------------------- #


class StreamSegment:
    """A published ``(lhs, rhs)`` stream workers address by span."""

    kind = "abstract"

    def descriptor(self) -> tuple:
        raise NotImplementedError

    def job_transport(self, job: ShardJob) -> tuple:
        """The transport tuple shipped with one job (descriptor by default)."""
        return self.descriptor()

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class SharedMemorySegment(StreamSegment):
    """Both columns in one shared-memory block; jobs carry offsets only."""

    kind = "shm"

    def __init__(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        rows = len(lhs)
        self.rows = rows
        self.nbytes = max(2 * rows * 8, 1)
        self._shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
        if rows:
            columns = np.ndarray((2, rows), dtype=np.uint64, buffer=self._shm.buf)
            columns[0, :] = lhs
            columns[1, :] = rhs
        self.name = self._shm.name

    def descriptor(self) -> tuple:
        return ("shm", self.name, self.rows)

    def close(self) -> None:
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass


class InheritedSegment(StreamSegment):
    """Fork-inherited read-only views, for hosts without shared memory.

    Valid only for workers forked *after* :func:`workers.publish_inherited`
    ran — the runtime therefore only picks this transport when the pool
    has no live workers yet (they will inherit the staged arrays), and a
    worker that nevertheless misses the token fails the shard cleanly
    into the serial retry path.
    """

    kind = "inherited"

    def __init__(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self.token = f"stream-{next(_segment_counter)}"
        self.rows = len(lhs)
        lhs = lhs.view()
        rhs = rhs.view()
        lhs.flags.writeable = False
        rhs.flags.writeable = False
        worker_mod.publish_inherited(self.token, lhs, rhs)

    def descriptor(self) -> tuple:
        return ("inherited", self.token, self.rows)

    def close(self) -> None:
        worker_mod.release_inherited(self.token)


class InlineSegment(StreamSegment):
    """Last resort: each job ships its own slice through the pipe.

    Still strictly cheaper than the pre-runtime engine — only the shard's
    rows cross the boundary, the template does not — and it works under
    any start method with live workers.
    """

    kind = "inline"

    def __init__(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.rows = len(lhs)

    def descriptor(self) -> tuple:
        return ("inline", None, self.rows)

    def job_transport(self, job: ShardJob) -> tuple:
        stop = job.offset + job.length
        return ("inline", self.lhs[job.offset : stop], self.rhs[job.offset : stop])


# --------------------------------------------------------------------- #
# The runtime
# --------------------------------------------------------------------- #


class _Worker:
    """Parent-side handle: process, pipe, and what the worker has cached."""

    __slots__ = ("process", "conn", "digests")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.digests: set[str] = set()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerRuntime:
    """A lazily started, reusable shard-worker pool (one per process).

    Use :func:`get_runtime` rather than constructing directly — the whole
    point is that the pool outlives individual ingest calls.
    """

    def __init__(self) -> None:
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            self._context = multiprocessing.get_context()
        self._workers: list[_Worker] = []

    # -- lifecycle ------------------------------------------------------ #

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_mod.worker_main,
            args=(child_conn,),
            daemon=True,
            name="repro-shard-worker",
        )
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        return _Worker(process, parent_conn)

    def _bury(self, worker: _Worker) -> None:
        """Tear one worker down hard (kill, join, close the pipe)."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        if worker in self._workers:
            self._workers.remove(worker)
        obs.get_registry().gauge("pool.size").set(len(self._workers))

    def live_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    def worker_pids(self) -> list[int]:
        """PIDs of live workers (tests kill these to prove respawn)."""
        return [w.process.pid for w in self._workers if w.alive]

    def ensure_workers(self, count: int) -> list[_Worker]:
        """At least ``count`` live workers; returns the ones to use.

        Dead workers (killed, crashed) are reaped and replaced here, so a
        batch that lost workers never shrinks the next batch's pool.
        """
        registry = obs.get_registry()
        for worker in [w for w in self._workers if not w.alive]:
            self._bury(worker)
        reused = min(len(self._workers), count)
        if reused:
            registry.counter("pool.reuses").add(reused)
        while len(self._workers) < count:
            self._workers.append(self._spawn())
            registry.counter("pool.spawns").add(1)
        registry.gauge("pool.size").set(len(self._workers))
        return self._workers[:count]

    def shutdown(self) -> None:
        """Stop every worker (pipes closed, processes joined or killed)."""
        for worker in list(self._workers):
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for worker in list(self._workers):
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=5.0)
        self._workers.clear()
        obs.get_registry().gauge("pool.size").set(0)

    # -- transport ------------------------------------------------------ #

    def publish(self, lhs: np.ndarray, rhs: np.ndarray) -> StreamSegment:
        """Publish one ingest epoch's stream for span-addressed shard jobs.

        Tiered: shared memory, then fork-inherited views (only while no
        workers are alive yet — later forks inherit the staged arrays),
        then inline slices.
        """
        registry = obs.get_registry()
        registry.counter("pool.publishes").add(1)
        try:
            segment: StreamSegment = SharedMemorySegment(lhs, rhs)
            registry.counter("pool.shm_bytes").add(segment.nbytes)
            return segment
        except (OSError, ValueError):
            pass
        if (
            self.live_workers() == 0
            and getattr(self._context, "get_start_method", lambda: "fork")()
            == "fork"
        ):
            return InheritedSegment(lhs, rhs)
        return InlineSegment(lhs, rhs)

    # -- execution ------------------------------------------------------ #

    def _dispatch(self, worker: _Worker, job: ShardJob, segment: StreamSegment) -> None:
        registry = obs.get_registry()
        payload = None
        cached = job.digest in worker.digests
        if not cached:
            payload = job.template_payload
        worker.conn.send(
            (
                "job",
                job.shard_index,
                job.attempt,
                job.digest,
                payload,
                segment.job_transport(job),
                job.offset,
                job.length,
                job.fail_injected,
                job.failure_hook,
                job.kernels,
            )
        )
        # Record ownership and telemetry only after the send succeeds: a
        # raising send means the worker never received the template, and
        # marking its digest as cached would make the *next* job for this
        # geometry skip the ship — the worker (if it survived the failed
        # send) would then sink every job on a missing template.
        if cached:
            registry.counter("pool.template_hits").add(1)
        else:
            registry.counter("pool.template_ships").add(1)
            worker.digests.add(job.digest)

    def run_shards(
        self,
        segment: StreamSegment,
        jobs: Sequence[ShardJob],
        *,
        processes: int,
        job_timeout: float | None = None,
    ) -> tuple[list[tuple[bytes, dict] | None], list[tuple[int, BaseException]]]:
        """Run shard jobs on the pool; results land in shard-slot order.

        Returns ``(results, failures)`` where ``results[i]`` corresponds
        to ``jobs[i]`` (``None`` for failed slots) and ``failures`` names
        those slots with the error that sank them — the caller owns the
        retry policy.  Results are *collected* as workers finish but
        *returned* slot-ordered, so downstream merging and metrics
        folding stay deterministic regardless of completion order.
        """
        workers = self.ensure_workers(max(min(processes, len(jobs)), 1))
        results: list[tuple[bytes, dict] | None] = [None] * len(jobs)
        failures: list[tuple[int, BaseException]] = []
        pending = deque(enumerate(jobs))
        idle = list(reversed(workers))
        busy: dict[_Worker, tuple[int, float | None]] = {}
        while pending or busy:
            # Feed every idle worker (one job in flight per worker).
            while pending and idle:
                worker = idle.pop()
                slot, job = pending.popleft()
                try:
                    self._dispatch(worker, job, segment)
                except (BrokenPipeError, EOFError, OSError) as error:
                    failures.append(
                        (slot, ShardFailure(f"worker died before accepting shard: {error}"))
                    )
                    self._replace(worker, idle)
                    continue
                except Exception as error:
                    # A non-pipe failure (e.g. an unpicklable failure_hook)
                    # happens while serializing the message, before any
                    # bytes hit the pipe — the worker is healthy and its
                    # channel clean, so keep it and fail only the shard.
                    # Letting this propagate instead would abandon every
                    # in-flight job and desync slot bookkeeping on the
                    # next ingest round.
                    failures.append(
                        (slot, ShardFailure(f"shard job could not be shipped: {error}"))
                    )
                    idle.append(worker)
                    continue
                deadline = (
                    time.monotonic() + job_timeout if job_timeout is not None else None
                )
                busy[worker] = (slot, deadline)
            if not busy:
                if pending and not idle:  # pragma: no cover - pool collapsed
                    for slot, job in pending:
                        failures.append(
                            (slot, ShardFailure("no live workers to run shard"))
                        )
                    pending.clear()
                continue
            deadlines = [d for (_, d) in busy.values() if d is not None]
            wait_timeout = (
                None
                if not deadlines
                else max(min(deadlines) - time.monotonic(), 0.0)
            )
            ready = mp_connection.wait(
                [worker.conn for worker in busy], timeout=wait_timeout
            )
            if ready:
                by_conn = {worker.conn: worker for worker in busy}
                for conn in ready:
                    worker = by_conn[conn]
                    slot, __ = busy.pop(worker)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        failures.append(
                            (
                                slot,
                                ShardFailure(
                                    f"worker pid {worker.process.pid} died "
                                    f"mid-shard (shard {jobs[slot].shard_index})"
                                ),
                            )
                        )
                        self._replace(worker, idle)
                        continue
                    if message[0] == "ok":
                        results[slot] = (message[2], message[3])
                    else:
                        failures.append((slot, ShardFailure(message[2])))
                    idle.append(worker)
                continue
            # Deadline pass: every overdue worker is declared dead.
            now = time.monotonic()
            overdue = [
                worker
                for worker, (_, deadline) in busy.items()
                if deadline is not None and deadline <= now
            ]
            for worker in overdue:
                slot, __ = busy.pop(worker)
                failures.append(
                    (
                        slot,
                        multiprocessing.TimeoutError(
                            f"shard {jobs[slot].shard_index} overran its "
                            f"{job_timeout}s budget"
                        ),
                    )
                )
                self._replace(worker, idle)
        return results, failures

    def _replace(self, worker: _Worker, idle: list[_Worker]) -> None:
        """Bury a dead/hung worker and respawn its slot if possible."""
        registry = obs.get_registry()
        self._bury(worker)
        try:
            replacement = self._spawn()
        except (OSError, RuntimeError):  # pragma: no cover - spawn exhausted
            return
        self._workers.append(replacement)
        idle.append(replacement)
        registry.counter("pool.respawns").add(1)
        registry.gauge("pool.size").set(len(self._workers))


# --------------------------------------------------------------------- #
# The process-global runtime
# --------------------------------------------------------------------- #

_RUNTIME: WorkerRuntime | None = None


def get_runtime() -> WorkerRuntime:
    """The process-global persistent runtime (created lazily)."""
    global _RUNTIME
    if _RUNTIME is None:
        _RUNTIME = WorkerRuntime()
    return _RUNTIME


def shutdown_runtime() -> None:
    """Stop the global runtime's workers; the next ingest starts fresh."""
    global _RUNTIME
    if _RUNTIME is not None:
        _RUNTIME.shutdown()
        _RUNTIME = None


atexit.register(shutdown_runtime)
