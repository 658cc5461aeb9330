"""Pluggable stream sources for the serving layer.

A :class:`StreamSource` is a deterministic sequence of ``(lhs, rhs)``
tuples addressed by **tuple cursor**: ``batch(cursor)`` returns the next
batch starting at tuple ``cursor`` (at most ``batch_size`` tuples), and
always the same arrays for the same cursor.  The service keeps one
resident estimator per profile and advances it in place, and
``update_batch`` is exact for any chunking, so how a stream is cut into
batches never reaches served state: resume just continues from the
checkpoint's cursor, and the resumed digest is bit-for-bit the
uninterrupted one (both are a plain single pass over the same tuples).

First-party sources:

* :class:`ProfileSource` — the adversarial stream profiles of
  :mod:`repro.verify.streams` (``uniform``, ``skewed``, ``bursty``, ...),
  generated per batch from a seed derived as ``sha256(seed, index)`` so
  any batch is computable without generating its predecessors.  Here
  ``batch_size`` is data identity: it decides which tuples the stream
  holds.  Bounded by ``tuples`` or infinite.
* :class:`ArraySource` — wraps concrete arrays (tests, the equivalence
  contract, and the :mod:`repro.datasets` generators via
  ``dataset-one:`` specs).
* :class:`PushSource` — the write path: clients *push* ``(lhs, rhs)``
  chunks (``POST /ingest``) into a bounded queue the ingest loop drains
  in ``batch_size`` batches.  A drained push stream lands bit-for-bit on
  the single pass over the concatenated pushes, however the client chunks
  them (the ``serve-push-equivalence`` contract).

``make_source`` parses the CLI's ``--source`` spec strings.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque

import numpy as np

from ..sketch.hashing import coerce_columns
from ..verify.streams import generate_stream, profile_names

__all__ = [
    "StreamSource",
    "ProfileSource",
    "ArraySource",
    "PushSource",
    "PushBacklogFull",
    "PENDING",
    "make_source",
]

#: Sentinel returned by :meth:`StreamSource.wait_batch` when a push source
#: has no complete batch yet but is not closed — the ingest loop should
#: re-check its stop event and wait again, *not* treat the stream as
#: drained (``None``) or ingest anything.
PENDING = object()


class StreamSource:
    """Deterministic cursor-addressed batch supplier (abstract)."""

    batch_size: int

    def batch(self, cursor: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The batch starting at tuple ``cursor`` as ``(lhs, rhs)``, or
        ``None`` past the end."""
        raise NotImplementedError

    def wait_batch(
        self, cursor: int, stop_event: threading.Event | None = None
    ):
        """The batch at ``cursor``, waiting for it if the source is push-fed.

        Pull sources never wait — the default just answers
        :meth:`batch`.  Push sources block until a batch is complete
        (returning it), the stream is closed (``None`` once drained), or
        ``stop_event`` is set (:data:`PENDING`, so the caller can commit
        and stop without misreading a pause as end-of-stream).
        """
        return self.batch(cursor)

    def describe(self) -> dict:
        """JSON-able identity of this source.

        Recorded in every checkpoint manifest and enforced on resume: two
        sources with equal descriptions must produce the same tuples.
        """
        raise NotImplementedError


def _batch_seed(seed: int, index: int) -> int:
    """A per-batch RNG seed that is stable across processes and versions."""
    digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


class ProfileSource(StreamSource):
    """Batches drawn from one :mod:`repro.verify.streams` profile.

    Each batch is an independent ``batch_size``-tuple stream from the
    profile's generator, seeded by ``(seed, index)`` — the logical stream
    is their concatenation, so ``batch_size`` is part of the data
    identity.  ``batch(cursor)`` answers the rest of the generated batch
    holding tuple ``cursor``.  ``tuples=None`` makes the source infinite
    (a service that runs until SIGTERM); bounded sources emit a short
    final batch when ``tuples`` is not a multiple of ``batch_size``.
    """

    def __init__(
        self,
        profile: str,
        *,
        seed: int = 0,
        batch_size: int = 4096,
        tuples: int | None = None,
    ) -> None:
        if profile not in profile_names():
            raise ValueError(
                f"unknown stream profile {profile!r}; "
                f"known: {', '.join(profile_names())}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if tuples is not None and tuples < 1:
            raise ValueError(f"tuples must be >= 1 or None, got {tuples}")
        self.profile = profile
        self.seed = seed
        self.batch_size = batch_size
        self.tuples = tuples

    def batch(self, cursor: int) -> tuple[np.ndarray, np.ndarray] | None:
        if self.tuples is not None and cursor >= self.tuples:
            return None
        index, offset = divmod(cursor, self.batch_size)
        start = index * self.batch_size
        size = self.batch_size
        if self.tuples is not None:
            size = min(size, self.tuples - start)
        lhs, rhs = generate_stream(
            self.profile, _batch_seed(self.seed, index), size
        )
        return lhs[offset:], rhs[offset:]

    def describe(self) -> dict:
        return {
            "kind": "profile",
            "profile": self.profile,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "tuples": self.tuples,
        }


class ArraySource(StreamSource):
    """Concrete in-memory arrays served in ``batch_size`` slices."""

    def __init__(
        self,
        lhs: np.ndarray,
        rhs: np.ndarray,
        *,
        batch_size: int = 4096,
        description: dict | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        # The rule every batch entry point applies, checked here so a bad
        # column fails at construction instead of mid-run.
        self.lhs, self.rhs = coerce_columns(lhs, rhs)
        self.batch_size = batch_size
        if description is None:
            # Content-address anonymous arrays so a resume against
            # different data is rejected rather than silently diverging.
            # Hashed once, here: the service describes its source on
            # every durable commit.
            digest = hashlib.sha256()
            digest.update(self.lhs.tobytes())
            digest.update(self.rhs.tobytes())
            description = {
                "kind": "array",
                "sha256": digest.hexdigest()[:16],
                "tuples": int(len(self.lhs)),
            }
        self._description = description

    def batch(self, cursor: int) -> tuple[np.ndarray, np.ndarray] | None:
        if cursor >= len(self.lhs):
            return None
        stop = cursor + self.batch_size
        return self.lhs[cursor:stop], self.rhs[cursor:stop]

    def describe(self) -> dict:
        return dict(self._description)


class PushBacklogFull(RuntimeError):
    """The push queue is at capacity — the client must back off and retry.

    Raised by :meth:`PushSource.push` instead of buffering without bound:
    the serving layer's memory is constrained by construction, so
    backpressure is explicit (HTTP maps this to ``429`` with a
    ``Retry-After`` hint) and never silent.
    """

    def __init__(self, pending_tuples: int, capacity_tuples: int) -> None:
        super().__init__(
            f"push backlog full: {pending_tuples} tuples pending against a "
            f"capacity of {capacity_tuples} — drain before pushing more"
        )
        self.pending_tuples = pending_tuples
        self.capacity_tuples = capacity_tuples
        #: Seconds a client should wait before retrying (coarse hint).
        self.retry_after = 1


class PushSource(StreamSource):
    """Bounded queue of client-pushed tuples, drained by the ingest loop.

    The write path: ``POST /ingest`` (or :meth:`push` directly) appends
    ``(lhs, rhs)`` chunks of *any* size; the source re-chunks them into
    full ``batch_size`` batches, which keeps the commit cadence of a pull
    source.  Served state is a single pass over the concatenated pushes,
    so how a client chunks them can never leak into it.

    Capacity is bounded at ``capacity_batches * batch_size`` buffered
    tuples: a push that would exceed it raises :class:`PushBacklogFull`
    instead of buffering unboundedly, and the client retries after the
    loop drains.  ``close()`` marks end-of-stream — once the buffer
    drains, :meth:`wait_batch` answers ``None`` (a trailing partial batch
    is emitted first, exactly like a bounded pull source's short final
    batch).

    The source is single-consumer and monotone: the ingest loop asks for
    the batch at its own tuple cursor, which must be the number of tuples
    the source has handed out, and consumed batches are dropped (memory
    stays bounded).  Determinism across restarts is the client's replay
    responsibility: on resume the service calls :meth:`resume_at` and the
    source silently swallows the first ``cursor`` re-pushed tuples, so a
    client that replays its stream from the beginning lands on the
    uninterrupted digest — the discipline the CI push smoke proves
    end-to-end.  A checkpoint taken after the stream ended (close
    observed, buffer fully drained) restores through
    :meth:`resume_drained` instead: the finished stream is served as
    drained, and no replay is expected.
    """

    def __init__(
        self, *, batch_size: int = 4096, capacity_batches: int = 64
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if capacity_batches < 1:
            raise ValueError(
                f"capacity_batches must be >= 1, got {capacity_batches}"
            )
        self.batch_size = batch_size
        self.capacity_batches = capacity_batches
        self._state = threading.Condition()
        self._ready: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._tail: list[tuple[np.ndarray, np.ndarray]] = []
        self._tail_tuples = 0
        self._closed = False
        self._cursor = 0
        self._skip_remaining = 0
        self.pushed_tuples = 0
        self.skipped_tuples = 0

    # ------------------------------------------------------------------ #
    # Producer side (HTTP POST /ingest)
    # ------------------------------------------------------------------ #

    @property
    def capacity_tuples(self) -> int:
        return self.capacity_batches * self.batch_size

    @property
    def pending_tuples(self) -> int:
        """Buffered tuples not yet handed to the ingest loop."""
        with self._state:
            return self._pending_locked()

    def _pending_locked(self) -> int:
        return len(self._ready) * self.batch_size + self._tail_tuples

    def push(self, lhs: np.ndarray, rhs: np.ndarray) -> int:
        """Append one client chunk; returns the tuples actually buffered.

        Raises :class:`PushBacklogFull` when the chunk does not fit —
        atomically: a rejected push buffers nothing, so the client can
        retry the identical chunk after backing off.  Raises
        ``ValueError`` on malformed chunks or pushes after ``close()``,
        and ``TypeError`` on float or bool chunks (the rule of every batch
        entry point, :func:`coerce_columns`).
        """
        lhs, rhs = coerce_columns(lhs, rhs)
        lhs = np.ascontiguousarray(lhs)
        rhs = np.ascontiguousarray(rhs)
        with self._state:
            if self._closed:
                raise ValueError("push after close(): the stream has ended")
            skip = min(self._skip_remaining, len(lhs))
            kept = len(lhs) - skip
            if kept:
                # Capacity check *before* any state moves: a rejected push
                # must leave the resume-skip accounting untouched too, or a
                # retried chunk that straddled the resume boundary would
                # re-buffer tuples the interrupted run already ingested.
                pending = self._pending_locked()
                if pending + kept > self.capacity_tuples:
                    raise PushBacklogFull(pending, self.capacity_tuples)
            if skip:
                self._skip_remaining -= skip
                self.skipped_tuples += skip
                lhs, rhs = lhs[skip:], rhs[skip:]
            if not kept:
                return 0
            self._tail.append((lhs, rhs))
            self._tail_tuples += len(lhs)
            self.pushed_tuples += len(lhs)
            while self._tail_tuples >= self.batch_size:
                self._ready.append(self._carve_locked(self.batch_size))
            self._state.notify_all()
            return len(lhs)

    def close(self) -> None:
        """Mark end-of-stream; the buffered remainder still drains."""
        with self._state:
            self._closed = True
            self._state.notify_all()

    @property
    def closed(self) -> bool:
        with self._state:
            return self._closed

    @property
    def end_of_stream(self) -> bool:
        """True once ``close()`` was called and every buffered tuple was
        consumed — the stream is over for good (pushes after close raise),
        which the service records in its checkpoints so a restart serves a
        finished stream as drained instead of arming a replay skip."""
        with self._state:
            return self._closed and not self._ready and not self._tail_tuples

    def _carve_locked(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Take exactly ``size`` tuples off the front of the tail buffer."""
        lhs_parts, rhs_parts, taken = [], [], 0
        while taken < size:
            lhs, rhs = self._tail[0]
            take = min(size - taken, len(lhs))
            lhs_parts.append(lhs[:take])
            rhs_parts.append(rhs[:take])
            taken += take
            if take == len(lhs):
                self._tail.pop(0)
            else:
                self._tail[0] = (lhs[take:], rhs[take:])
        self._tail_tuples -= size
        return np.concatenate(lhs_parts), np.concatenate(rhs_parts)

    # ------------------------------------------------------------------ #
    # Consumer side (the ingest loop)
    # ------------------------------------------------------------------ #

    def resume_at(self, cursor: int) -> None:
        """Skip the already-ingested prefix after a checkpoint restore.

        The first ``cursor`` tuples subsequently pushed are swallowed, so a
        client replaying its stream from the beginning continues the
        interrupted run exactly.
        """
        with self._state:
            if self._cursor or self.pushed_tuples:
                raise ValueError("resume_at on a source that already served")
            self._cursor = self._skip_remaining = cursor

    def resume_drained(self, cursor: int) -> None:
        """Restore a stream that had already ended at ``cursor``.

        The counterpart of :meth:`resume_at` for checkpoints whose stream
        closed and fully drained before the commit: nothing will ever be
        re-pushed — pushes after ``close()`` raise — so the source
        restores as closed-and-empty and the service serves the
        checkpoint as drained.
        """
        with self._state:
            if self._cursor or self.pushed_tuples:
                raise ValueError(
                    "resume_drained on a source that already served"
                )
            self._cursor = cursor
            self._closed = True
            self._state.notify_all()

    def batch(self, cursor: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Non-blocking pull: the ready batch, ``None`` when drained after
        ``close()``, or :data:`PENDING` while the queue is momentarily
        empty on a live stream."""
        return self._take(cursor, block=False, stop_event=None)

    def wait_batch(
        self, cursor: int, stop_event: threading.Event | None = None
    ):
        return self._take(cursor, block=True, stop_event=stop_event)

    def _take(self, cursor: int, *, block: bool, stop_event):
        with self._state:
            if cursor != self._cursor:
                raise ValueError(
                    f"push sources are single-consumer and monotone: asked "
                    f"for the batch at tuple {cursor}, expected {self._cursor}"
                )
            while True:
                if self._ready:
                    batch = self._ready.popleft()
                    self._cursor += len(batch[0])
                    return batch
                if self._closed:
                    if self._tail_tuples:
                        batch = self._carve_locked(self._tail_tuples)
                        self._cursor += len(batch[0])
                        return batch
                    return None
                if not block or (stop_event is not None and stop_event.is_set()):
                    return PENDING
                # Short timed waits so a stop request set without a
                # notify (another process's signal handler) still wakes us.
                self._state.wait(0.05)

    def describe(self) -> dict:
        # Capacity and batch size are cadence, not data identity — runs
        # that differ only in them ingest the same tuples — so they stay
        # out of the resume-enforced description, like ``publish_every``.
        return {"kind": "push"}


def _parse_params(raw: str, spec: str) -> dict[str, int]:
    params: dict[str, int] = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep or not value.lstrip("-").isdigit():
            raise ValueError(
                f"malformed source parameter {chunk!r} in {spec!r} "
                f"(expected key=integer)"
            )
        params[key.strip()] = int(value)
    return params


def make_source(
    spec: str,
    *,
    seed: int = 0,
    batch_size: int = 4096,
    tuples: int | None = None,
) -> StreamSource:
    """Build a source from a CLI spec string.

    * ``profile:NAME`` — a :class:`ProfileSource` over a
      :mod:`repro.verify.streams` profile (``profile:uniform``).
    * ``dataset-one`` or ``dataset-one:cardinality=..,implied=..,c=..`` —
      the Section 6.1 Dataset One generator, bounded by construction
      (``tuples`` and ``batch_size`` slice it; its own size wins when
      ``tuples`` is None).
    * ``push`` or ``push:capacity=N`` — a :class:`PushSource` write path
      (``POST /ingest``) holding at most N batches of backlog
      (default 64); bounded by the client's close, never by ``tuples``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "profile":
        return ProfileSource(
            rest, seed=seed, batch_size=batch_size, tuples=tuples
        )
    if kind == "push":
        if tuples is not None:
            raise ValueError(
                "push sources are bounded by the client closing the "
                "stream, not by --tuples"
            )
        params = _parse_params(rest, spec)
        unknown = set(params) - {"capacity"}
        if unknown:
            raise ValueError(
                f"unknown push parameters {sorted(unknown)} in {spec!r}"
            )
        return PushSource(
            batch_size=batch_size,
            capacity_batches=params.get("capacity", 64),
        )
    if kind == "dataset-one":
        from ..datasets.synthetic import generate_dataset_one

        params = _parse_params(rest, spec)
        known = {"cardinality", "implied", "c"}
        unknown = set(params) - known
        if unknown:
            raise ValueError(
                f"unknown dataset-one parameters {sorted(unknown)} in {spec!r}"
            )
        cardinality = params.get("cardinality", 20000)
        implied = params.get("implied", cardinality // 2)
        arity = params.get("c", 1)
        dataset = generate_dataset_one(cardinality, implied, c=arity, seed=seed)
        lhs, rhs = dataset.lhs, dataset.rhs
        if tuples is not None:
            lhs, rhs = lhs[:tuples], rhs[:tuples]
        return ArraySource(
            lhs,
            rhs,
            batch_size=batch_size,
            description={
                "kind": "dataset-one",
                "cardinality": cardinality,
                "implied": implied,
                "c": arity,
                "seed": seed,
                "tuples": int(len(lhs)),
            },
        )
    raise ValueError(
        f"unknown source spec {spec!r}; expected 'profile:NAME', "
        f"'dataset-one[:cardinality=..,implied=..,c=..]' or "
        f"'push[:capacity=N]'"
    )
