"""The serving core: multi-profile ingest loop + snapshot isolation.

One :class:`ImplicationService` owns:

* a :class:`~repro.serving.sources.StreamSource` supplying deterministic
  batches addressed by tuple cursor;
* one resident estimator **per named condition profile** — the
  conditions ``(K, tau, c, theta)`` are baked into estimator state at
  ingest time, so "queries at arbitrary condition profiles" means one
  estimator per *registered* profile, all fed the same batches (the
  default registry is :data:`repro.verify.harness.CONDITION_PROFILES`);
* a :class:`SnapshotStore` of **published** read-only snapshots.

Each batch advances every resident estimator in place with
:meth:`~repro.core.estimator.ImplicationCountEstimator.update_batch`,
which is exact for any chunking, so the state at cursor ``c`` is one
plain single pass over the stream prefix ``[:c]`` — whatever the batch
size, push chunking or restart history (:func:`offline_reference`).

Snapshot isolation is copy-on-publish: after every ``publish_every``
batches the estimators are serialized through the wire format, their
state digests computed, and fresh decoded copies swapped into the store
under a lock.  HTTP readers only ever touch store snapshots — immutable
after publication — so reads never block ingest and can never observe a
torn state.  The serialized payload doubles as the checkpoint payload
(:mod:`repro.recovery.checkpoint`): the primary profile is the
generation's payload, secondary profiles ride as checksummed
attachments, and the manifest's ``extra`` records the run's identity
(source, profiles, geometry) which resume validates.  A SIGTERM'd
service resumed from its last checkpoint therefore lands on the digest
of an uninterrupted run.  The ``serve-snapshot-equivalence`` contract in
:mod:`repro.verify.contracts` checks every published snapshot against a
single pass on every harness iteration; :mod:`tests.test_serving` and
the CI serving smoke check the resume end-to-end.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.conditions import ImplicationConditions
from ..core.estimator import ImplicationCountEstimator
from ..core.serialize import estimator_state_digest
from ..observability import metrics as obs
from ..recovery.checkpoint import (
    RESIDENT_STATE,
    CheckpointManager,
    check_resume_shape,
)
from ..sketch.bitops import least_significant_bit
from .sources import PENDING, StreamSource, make_source

__all__ = [
    "ServeConfig",
    "ServedSnapshot",
    "SnapshotStore",
    "ImplicationService",
    "default_profiles",
    "itemset_summary",
    "offline_reference",
]

#: Attachment-name prefix for secondary profile payloads in checkpoints.
_PROFILE_ATTACHMENT = "profile:"
#: Attachment-name prefix for windowed generation payloads in checkpoints
#: (one attachment per live pane: ``window:PROFILE:INDEX``).
_WINDOW_ATTACHMENT = "window:"


def default_profiles() -> dict[str, ImplicationConditions]:
    """The named condition profiles served when none are configured.

    The verify harness's :data:`~repro.verify.harness.CONDITION_PROFILES`
    — five ``(K, tau, c, theta)`` settings spanning support-only through
    top-2 confidence — so the service answers mixed-condition traffic out
    of the box and every profile the differential harness exercises is
    also servable.
    """
    from ..verify.harness import CONDITION_PROFILES

    return dict(CONDITION_PROFILES)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes a service run (and its resume identity).

    The source's identity, ``seed``, ``num_bitmaps``, ``profiles`` and the
    window settings are recorded in every checkpoint and enforced on
    resume.  ``batch_size`` and ``publish_every`` are cadence and may
    differ across restarts — except that a ``profile:`` source generates
    its tuples batch by batch, so there ``batch_size`` is part of the
    source's identity.
    """

    source: str = "profile:uniform"
    seed: int = 0
    tuples: int | None = None
    batch_size: int = 4096
    publish_every: int = 1
    num_bitmaps: int = 16
    profiles: tuple[str, ...] = ()
    keep: int = 3
    kernels: str | None = None
    #: Pace :meth:`ImplicationService.run` to at most this many tuples per
    #: second — models a stream's real arrival rate instead of replaying a
    #: recorded stream at ingest speed.  ``None`` runs flat out.  Pacing
    #: is wall-clock only: it never changes which tuples are ingested, so
    #: it is excluded from the resume-enforced shape (like
    #: ``publish_every``).
    pace_tps: float | None = None
    #: Additionally maintain a sliding-window view over the last ``window``
    #: tuples per profile (DESIGN.md §13): every snapshot then carries
    #: windowed readouts and ``/query?window=`` answers from them.  Part of
    #: the resume-enforced shape — the generation set is checkpointed as
    #: attachments and restored bit-for-bit.  ``None`` serves landmark only.
    window: int | None = None
    window_generations: int = 4

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window is not None:
            if self.window < 1:
                raise ValueError(f"window must be >= 1, got {self.window}")
            if self.window_generations < 1 or self.window % self.window_generations:
                raise ValueError(
                    f"window ({self.window}) must be a positive multiple of "
                    f"window_generations ({self.window_generations})"
                )
        if self.publish_every < 1:
            raise ValueError(
                f"publish_every must be >= 1, got {self.publish_every}"
            )
        if self.pace_tps is not None and self.pace_tps <= 0:
            raise ValueError(f"pace_tps must be positive, got {self.pace_tps}")


@dataclass(frozen=True)
class ServedSnapshot:
    """One profile's published, immutable read view.

    ``estimator`` is a fresh decode of ``payload`` — it shares no state
    with the resident estimator, so any number of reader threads may query
    it while ingest continues.  ``stats`` are the readouts precomputed at
    publish time (queries answer from here, keeping the hot path a dict
    lookup); ``digest`` is the ``estimator_state_digest`` the equivalence
    contract compares against an offline single pass.
    """

    name: str
    conditions: ImplicationConditions
    estimator: ImplicationCountEstimator
    payload: bytes
    digest: str
    cursor: int
    generation: int | None
    stats: dict = field(default_factory=dict)
    #: Windowed readouts when the service runs with ``config.window``:
    #: ``{"window", "generations", "start", "covered", "digest",
    #: "merged_digest", "stats"}`` — ``digest`` is the window-relative
    #: ``windowed_state_digest`` the resume test compares,
    #: ``merged_digest`` the ``estimator_state_digest`` of the merged
    #: readout (what ``/snapshot?window=1`` clients verify).  ``None`` on
    #: landmark-only services.
    window: dict | None = None
    #: The merged window readout (a fresh, never-again-mutated estimator)
    #: backing ``/top?window=`` point lookups.  ``None`` when not windowed.
    window_estimator: ImplicationCountEstimator | None = None
    #: The merged window readout's wire payload, served by
    #: ``/snapshot?window=1`` — decodes to ``window["merged_digest"]``.
    window_payload: bytes | None = None

    def describe(self) -> dict:
        body = {
            "profile": self.name,
            "conditions": self.conditions.describe(),
            "cursor": self.cursor,
            "generation": self.generation,
            "digest": self.digest,
            "stats": dict(self.stats),
        }
        if self.window is not None:
            body["window"] = dict(self.window)
        return body


def itemset_summary(
    estimator: ImplicationCountEstimator, itemset: int
) -> dict:
    """Point lookup: where ``itemset`` routes and what is known about it.

    Replays the scalar routing math (bitmap index from the low route
    bits, cell position from the least-significant set bit of the rest)
    and reads the fringe cell — strictly read-only, so it is safe against
    published snapshots shared across reader threads.  An untracked
    itemset is not necessarily unseen: its cell may have been absorbed
    into Zone 1 or floated away, which the ``zone`` field disambiguates.
    """
    encoded = int(itemset)
    hashed = estimator.hash_function(encoded)
    index = int(hashed & (estimator.num_bitmaps - 1))
    position = min(
        least_significant_bit(hashed >> estimator.route_bits),
        estimator.length - 1,
    )
    bitmap = estimator.bitmaps[index]
    summary = {
        "itemset": encoded,
        "bitmap": index,
        "position": position,
        "zone": bitmap.zone_of(position),
        "tracked": False,
    }
    state = bitmap.state_of(position, encoded)
    if state is not None:
        conditions = estimator.conditions
        summary.update(
            {
                "tracked": True,
                "support": state.support,
                "status": state.status(conditions).value,
                "top_confidence": state.top_confidence(conditions),
                "violated": state.violated,
                "multiplicity_exceeded": state.multiplicity_exceeded,
            }
        )
    return summary


class SnapshotStore:
    """Atomically swapped map of published snapshots (reader-facing).

    ``publish`` replaces the whole map under a lock; readers take either
    one snapshot or a consistent copy of the map.  Snapshots themselves
    are immutable, so once a reader holds one, nothing the ingest loop
    does can tear it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: dict[str, ServedSnapshot] = {}
        self._status = "starting"

    def publish(self, snapshots: Mapping[str, ServedSnapshot]) -> None:
        fresh = dict(snapshots)
        with self._lock:
            self._snapshots = fresh

    def get(self, name: str) -> ServedSnapshot | None:
        with self._lock:
            return self._snapshots.get(name)

    def all(self) -> dict[str, ServedSnapshot]:
        with self._lock:
            return dict(self._snapshots)

    def find_by_conditions(
        self, conditions: ImplicationConditions
    ) -> ServedSnapshot | None:
        with self._lock:
            for snapshot in self._snapshots.values():
                if snapshot.conditions == conditions:
                    return snapshot
        return None

    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    def set_status(self, status: str) -> None:
        with self._lock:
            self._status = status


class ImplicationService:
    """The resident ingest + query core (transport-agnostic).

    The HTTP layer (:mod:`repro.serving.http`) and the CLI wrap this; the
    equivalence contract and the concurrency tests drive it directly via
    :meth:`ingest_step`, which is deliberately synchronous — one batch
    through every profile's estimator, one optional commit — so single
    steps can be interleaved with assertions.

    Parameters
    ----------
    config:
        The run shape (see :class:`ServeConfig`).
    source:
        Override the source built from ``config.source`` (tests, the
        contract).  Must honour the deterministic-batch property.
    profiles:
        Override the named condition profiles (default: the
        ``config.profiles`` selection of :func:`default_profiles`).
        Insertion order matters: the first profile is the checkpoint
        primary.
    checkpoint_dir:
        Enable durability: every publish commits a checkpoint generation
        here, and construction restores the newest valid one (validating
        that its recorded shape matches ``config``).
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        source: StreamSource | None = None,
        profiles: Mapping[str, ImplicationConditions] | None = None,
        checkpoint_dir: str | None = None,
    ) -> None:
        self.config = config
        if profiles is not None:
            self.profiles = dict(profiles)
        else:
            registry = default_profiles()
            if config.profiles:
                missing = [
                    name for name in config.profiles if name not in registry
                ]
                if missing:
                    raise ValueError(
                        f"unknown condition profiles {missing}; known: "
                        f"{', '.join(registry)}"
                    )
                self.profiles = {
                    name: registry[name] for name in config.profiles
                }
            else:
                self.profiles = registry
        if not self.profiles:
            raise ValueError("at least one condition profile is required")
        self.source = source or make_source(
            config.source,
            seed=config.seed,
            batch_size=config.batch_size,
            tuples=config.tuples,
        )
        self.templates = {
            name: ImplicationCountEstimator(
                conditions,
                num_bitmaps=config.num_bitmaps,
                seed=config.seed,
                kernels=config.kernels,
            )
            for name, conditions in self.profiles.items()
        }
        self.estimators = {
            name: template.spawn_sibling()
            for name, template in self.templates.items()
        }
        if config.window is not None:
            from ..windowed.estimator import WindowedImplicationEstimator

            # Rotation splits on the absolute tuple grid, which the
            # pane-aligned update_batch guarantees for any batch size.
            self.windowed: dict[str, WindowedImplicationEstimator] = {
                name: WindowedImplicationEstimator(
                    conditions,
                    num_bitmaps=config.num_bitmaps,
                    seed=config.seed,
                    kernels=config.kernels,
                    window=config.window,
                    generations=config.window_generations,
                )
                for name, conditions in self.profiles.items()
            }
        else:
            self.windowed = {}
        self.store = SnapshotStore()
        self.cursor = 0
        self.restored_generation: int | None = None
        self._generation: int | None = None
        self._since_publish = 0
        if checkpoint_dir is not None:
            self.manager = CheckpointManager(checkpoint_dir, keep=config.keep)
            self._restore()
        else:
            self.manager = None
        # Always publish the starting state (fresh zeros or the restored
        # checkpoint) so readers get answers before the first batch lands.
        self._publish()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def primary(self) -> str:
        return next(iter(self.profiles))

    @property
    def generation(self) -> int | None:
        """The newest committed checkpoint generation (``None`` if volatile)."""
        return self._generation

    def _shape(self) -> dict:
        """The resume-enforced run identity (cadence excluded)."""
        return {
            "kind": "serving",
            "state": RESIDENT_STATE,
            "source": self.source.describe(),
            "num_bitmaps": self.config.num_bitmaps,
            "seed": self.config.seed,
            "profiles": list(self.profiles),
            "window": self.config.window,
            "window_generations": (
                self.config.window_generations
                if self.config.window is not None
                else None
            ),
        }

    def _restore(self) -> None:
        restored = self.manager.load_latest(template=self.templates[self.primary])
        if restored is None:
            return
        check_resume_shape(restored, self._shape())
        self.estimators[self.primary] = restored.estimator
        for name in list(self.profiles)[1:]:
            blob = restored.attachments.get(_PROFILE_ATTACHMENT + name)
            if blob is None:  # pragma: no cover - shape guard catches first
                raise ValueError(
                    f"checkpoint generation {restored.generation} has no "
                    f"payload for profile {name!r}"
                )
            self.estimators[name] = ImplicationCountEstimator.from_bytes(blob)
        # Decoding resolves the backend from the environment; the restored
        # estimators keep ingesting, so they take the configured one.
        for name, estimator in self.estimators.items():
            estimator.kernels = self.templates[name].kernels
        if self.windowed:
            window_epoch = restored.manifest["epoch"].get("window")
            if window_epoch is None:  # pragma: no cover - shape guard first
                raise ValueError(
                    f"checkpoint generation {restored.generation} carries no "
                    f"windowed generation set"
                )
            for name, windowed in self.windowed.items():
                origins = window_epoch["origins"][name]
                payloads = []
                for index, origin in enumerate(origins):
                    blob = restored.attachments.get(
                        f"{_WINDOW_ATTACHMENT}{name}:{index:03d}"
                    )
                    if blob is None:  # pragma: no cover - manifest checksums
                        raise ValueError(
                            f"checkpoint generation {restored.generation} is "
                            f"missing windowed pane {index} for {name!r}"
                        )
                    payloads.append((origin, blob))
                windowed.load_generations(window_epoch["clock"], payloads)
        self.cursor = restored.cursor
        resume_at = getattr(self.source, "resume_at", None)
        if resume_at is not None:
            if restored.manifest["epoch"].get("source_ended", False):
                # The stream is over for good — pushes after close()
                # raise — so serve the checkpoint as drained instead of
                # arming a replay skip.
                self.source.resume_drained(self.cursor)
                self.store.set_status("drained")
            else:
                # Push sources cannot random-access history: tell the queue
                # to swallow the first ``cursor`` re-pushed tuples so a client
                # replaying its stream from the start continues the
                # interrupted run exactly.
                resume_at(self.cursor)
        self.restored_generation = restored.generation
        self._generation = restored.generation
        registry = obs.get_registry()
        registry.counter("serving.restores").add(1)
        # Carry the previous run's telemetry across the restart (validated
        # + atomic, so a damaged manifest metrics block is quarantined).
        registry.merge_snapshot(restored.manifest.get("metrics", {}))

    # ------------------------------------------------------------------ #
    # Ingest loop
    # ------------------------------------------------------------------ #

    def ingest_step(self, stop_event: threading.Event | None = None) -> bool:
        """Ingest exactly one batch through every profile.

        Returns ``False`` when the source is drained (after committing
        any unpublished progress), ``True`` otherwise.  A commit happens
        every ``publish_every`` batches and always at end-of-stream, so
        the final published snapshot covers the whole stream.

        With a push source, ``stop_event`` makes the step *wait* for the
        next batch (waking on data, close, or the event); without one the
        step never blocks — a momentarily empty live queue returns
        ``True`` with no progress, so tests and contracts can interleave
        pushes with steps freely.
        """
        if stop_event is not None:
            batch = self.source.wait_batch(self.cursor, stop_event)
        else:
            batch = self.source.batch(self.cursor)
        if batch is PENDING:
            # Live push stream, nothing buffered yet — not end-of-stream.
            return True
        if batch is None:
            if self._since_publish:
                self.commit()
            self.store.set_status("drained")
            return False
        lhs, rhs = batch
        registry = obs.get_registry()
        started = time.perf_counter()
        for estimator in self.estimators.values():
            estimator.update_batch(lhs, rhs)
        for windowed in self.windowed.values():
            windowed.update_batch(lhs, rhs)
        self.cursor += len(lhs)
        self._since_publish += 1
        registry.counter("serving.batches").add(1)
        registry.counter("serving.tuples").add(len(lhs))
        registry.histogram("serving.batch_seconds").observe(
            time.perf_counter() - started
        )
        if self._since_publish >= self.config.publish_every:
            self.commit()
        return True

    def commit(self) -> None:
        """Serialize every estimator, checkpoint (if durable), publish."""
        registry = obs.get_registry()
        started = time.perf_counter()
        payloads = {
            name: estimator.to_bytes()
            for name, estimator in self.estimators.items()
        }
        digests = {
            name: estimator_state_digest(estimator)
            for name, estimator in self.estimators.items()
        }
        if self.manager is not None:
            attachments = {
                _PROFILE_ATTACHMENT + name: payloads[name]
                for name in list(self.profiles)[1:]
            }
            epoch: dict = {
                # Push streams that closed and fully drained are finished
                # for good; the marker lets a restart serve this checkpoint
                # as drained rather than wait for a replay that cannot come.
                "source_ended": bool(
                    getattr(self.source, "end_of_stream", False)
                ),
            }
            if self.windowed:
                window_payloads = {
                    name: windowed.generation_payloads()
                    for name, windowed in self.windowed.items()
                }
                # The generation set rides as one attachment per live pane
                # (each the stock estimator wire format); origins and the
                # shared clock live in the epoch so restore can rebuild the
                # deque bit-for-bit.
                for name, panes in window_payloads.items():
                    for index, (_, blob) in enumerate(panes):
                        attachments[
                            f"{_WINDOW_ATTACHMENT}{name}:{index:03d}"
                        ] = blob
                epoch["window"] = {
                    "clock": next(iter(self.windowed.values())).clock,
                    "origins": {
                        name: [origin for origin, _ in panes]
                        for name, panes in window_payloads.items()
                    },
                }
            manifest = self.manager.save(
                self.estimators[self.primary],
                cursor=self.cursor,
                epoch=epoch,
                extra=self._shape(),
                attachments=attachments,
            )
            self._generation = manifest["generation"]
        self._publish(payloads=payloads, digests=digests)
        self._since_publish = 0
        registry.counter("serving.publishes").add(1)
        registry.gauge("serving.cursor").set(float(self.cursor))
        registry.histogram("serving.publish_seconds").observe(
            time.perf_counter() - started
        )

    def _publish(
        self,
        payloads: dict[str, bytes] | None = None,
        digests: dict[str, str] | None = None,
    ) -> None:
        if payloads is None:
            payloads = {
                name: estimator.to_bytes()
                for name, estimator in self.estimators.items()
            }
        if digests is None:
            digests = {
                name: estimator_state_digest(estimator)
                for name, estimator in self.estimators.items()
            }
        snapshots = {}
        for name, conditions in self.profiles.items():
            estimator = ImplicationCountEstimator.from_bytes(payloads[name])
            stats = {
                "implication": estimator.implication_count(),
                "nonimplication": estimator.nonimplication_count(),
                "supported": estimator.supported_distinct_count(),
                "tuples": estimator.tuples_seen,
            }
            window_view = None
            window_estimator = None
            window_payload = None
            if name in self.windowed:
                west = self.windowed[name]
                window_estimator = west.merged()
                window_payload = window_estimator.to_bytes()
                window_view = {
                    "window": west.window,
                    "generations": west.generations,
                    "clock": west.clock,
                    "start": west.window_start,
                    "covered": west.tuples_in_window,
                    "digest": west.state_digest(),
                    "merged_digest": estimator_state_digest(window_estimator),
                    "stats": {
                        "implication": window_estimator.implication_count(),
                        "nonimplication": window_estimator.nonimplication_count(),
                        "supported": window_estimator.supported_distinct_count(),
                        "tuples": west.tuples_in_window,
                    },
                }
            snapshots[name] = ServedSnapshot(
                name=name,
                conditions=conditions,
                estimator=estimator,
                payload=payloads[name],
                digest=digests[name],
                cursor=self.cursor,
                generation=self._generation,
                stats=stats,
                window=window_view,
                window_estimator=window_estimator,
                window_payload=window_payload,
            )
        self.store.publish(snapshots)

    def run(self, stop_event: threading.Event | None = None) -> None:
        """Ingest until the source drains or ``stop_event`` is set.

        A stop request takes effect at the next batch boundary — the
        graceful-SIGTERM semantics: the in-flight batch finishes, progress
        up to the boundary is committed (so resume replays nothing that
        was already ingested), and the store status flips to ``stopped``.

        With ``config.pace_tps`` set, the loop sleeps between batches so
        the cursor tracks the configured arrival rate (a stop request cuts
        any sleep short).  Pacing lives here, not in :meth:`ingest_step`,
        so contract checks and tests stepping the service directly always
        run flat out.
        """
        self.store.set_status("ingesting")
        pace = self.config.pace_tps
        started = time.monotonic()
        paced_start = self.cursor  # resume paces the remainder, not history
        # A push source's wait_batch needs an event to watch even when the
        # caller did not supply one (it would otherwise never wake a
        # blocked wait); pull sources never consult it.
        waiter = stop_event if stop_event is not None else threading.Event()
        while stop_event is None or not stop_event.is_set():
            if not self.ingest_step(waiter):
                return
            if pace is not None:
                due = started + (self.cursor - paced_start) / pace
                delay = due - time.monotonic()
                if delay > 0:
                    if stop_event is not None:
                        stop_event.wait(delay)
                    else:
                        time.sleep(delay)
        if self._since_publish:
            self.commit()
        self.store.set_status("stopped")


def offline_reference(
    template: ImplicationCountEstimator,
    lhs: np.ndarray,
    rhs: np.ndarray,
    *,
    batch_size: int | None = None,
) -> ImplicationCountEstimator:
    """One plain ``update_batch`` pass over the stream (the served state).

    A sibling of ``template`` ingests ``(lhs, rhs)`` in one call.  The
    service advances one resident estimator per profile the same way, so
    this digest equals every served snapshot's digest at the same cursor.
    ``batch_size`` is accepted for callers that pass the service's batch
    size; the result does not depend on it.
    """
    estimator = template.spawn_sibling()
    estimator.update_batch(lhs, rhs)
    return estimator
