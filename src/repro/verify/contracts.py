"""The contract registry — cross-algorithm identities the system must keep.

A *contract* is a machine-checkable identity between two or more
implementations that process the same stream: the exact sticky-semantics
counter, NIPS/CI through its scalar and batch entry points on both kernel
backends, the sub-stream merge + coordinator path, the wire format, and
the ``sketch/`` distinct-count estimators against their analytic error
envelopes.  Each contract knows *when it applies*: the sticky confidence
condition (theta > 0) is inherently order-dependent and bounded-fringe
overflow is timing-dependent, so identities like merge-of-shards ==
single-pass are exact only under the scopes documented on each contract —
scoping them precisely is what lets every violation be treated as a real
bug rather than a known caveat.

"Bit-for-bit" throughout means equality of
:func:`repro.core.serialize.estimator_state_digest` — complete logical
state, canonicalized over dict insertion order.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..baselines.distinct_sampling import DistinctSamplingImplicationCounter
from ..baselines.exact import ExactImplicationCounter
from ..baselines.lossy_counting import ImplicationLossyCounting
from ..baselines.sticky_sampling import ImplicationStickySampling
from ..core.conditions import ImplicationConditions, ItemsetStatus
from ..core.estimator import ImplicationCountEstimator
from ..core.serialize import estimator_state_digest
from ..distributed.coordinator import Coordinator
from ..kernels.backend import available_backends
from ..sketch.fm import PCSA
from ..sketch.hashing import HashFamily
from ..sketch.kmv import KMinimumValues
from ..sketch.linear_counting import LinearCounter
from ..sketch.loglog import HyperLogLog, LogLog

__all__ = ["Contract", "StreamCase", "CONTRACTS", "contract_by_name"]


@dataclass
class StreamCase:
    """One differential test case: a stream plus everything needed to run it.

    ``factory`` builds the estimator under test (the planted-mutation
    fixture swaps in a deliberately broken subclass here); the exact
    counter and the sketches are always the stock implementations — they
    are the oracles the estimator is measured against.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    conditions: ImplicationConditions
    seed: int
    profile: str = "unknown"
    factory: Callable[..., ImplicationCountEstimator] = ImplicationCountEstimator
    num_bitmaps: int = 8
    hash_seed: int = 0

    def make(self, **overrides) -> ImplicationCountEstimator:
        """Build an estimator under test with this case's geometry."""
        kwargs: dict = {"num_bitmaps": self.num_bitmaps, "seed": self.hash_seed}
        kwargs.update(overrides)
        return self.factory(self.conditions, **kwargs)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.lhs.tolist(), self.rhs.tolist()))

    def with_stream(self, lhs: np.ndarray, rhs: np.ndarray) -> "StreamCase":
        return replace(self, lhs=np.asarray(lhs, dtype=np.uint64),
                       rhs=np.asarray(rhs, dtype=np.uint64))

    @property
    def theta_zero(self) -> bool:
        return self.conditions.min_top_confidence == 0.0


@dataclass(frozen=True)
class Contract:
    """A named, scoped identity checked over a :class:`StreamCase`.

    ``check`` returns ``None`` when the contract holds and a violation
    message otherwise; ``applies`` gates the contract to the condition
    scopes where the identity is exact (see the registry entries).
    """

    name: str
    description: str
    check: Callable[[StreamCase], str | None]
    applies: Callable[[StreamCase], bool] = field(default=lambda case: True)


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _scalar_reference(case: StreamCase, **overrides) -> ImplicationCountEstimator:
    """The trusted reference: one `update` call per tuple, in stream order."""
    estimator = case.make(**overrides)
    for itemset, partner in case.pairs():
        estimator.update(itemset, partner)
    return estimator


def _compare_states(
    label_a: str,
    a: ImplicationCountEstimator,
    label_b: str,
    b: ImplicationCountEstimator,
) -> str | None:
    if estimator_state_digest(a) == estimator_state_digest(b):
        return None
    return (
        f"{label_a} and {label_b} diverged: "
        f"S {a.implication_count():.3f} vs {b.implication_count():.3f}, "
        f"S-bar {a.nonimplication_count():.3f} vs {b.nonimplication_count():.3f}, "
        f"F0_sup {a.supported_distinct_count():.3f} vs "
        f"{b.supported_distinct_count():.3f}, "
        f"tuples {a.tuples_seen} vs {b.tuples_seen}"
    )


def _exact_counts(counter: ExactImplicationCounter) -> tuple[float, float, float, int]:
    return (
        counter.implication_count(),
        counter.nonimplication_count(),
        counter.supported_distinct_count(),
        counter.distinct_count(),
    )


# --------------------------------------------------------------------- #
# NIPS/CI batch-path contracts
# --------------------------------------------------------------------- #


def _check_batch_scalar_replay(case: StreamCase) -> str | None:
    """``update_batch`` is bit-for-bit scalar replay on every backend, for
    every condition profile and every fringe (it replays surviving rows
    one at a time, in stream order)."""
    scalar = _scalar_reference(case)
    for backend in available_backends():
        batch = case.make(kernels=backend)
        batch.update_batch(case.lhs, case.rhs)
        message = _compare_states("scalar", scalar, f"batch(kernels={backend})", batch)
        if message is not None:
            return message
    return None


#: Families whose compiled ``update_batch`` receives a hashed column.
_PREHASHED_FAMILIES = ("multiply-shift", "polynomial", "tabulation")


def _check_kernel_backend_equivalence(case: StreamCase) -> str | None:
    """Compiled and python backends are the same machine, different fuel.

    No theta or fringe scope: both sides run the identical batch pipeline
    (same blocks, same per-row replay order), so even the order-dependent
    sticky semantics must land identically — the only thing allowed to
    differ is the execution vehicle.  Passes trivially (``None``) on hosts
    where the compiled backend cannot build.

    Checked twice: with the case's default SplitMix64 hash, which the
    kernel computes in its block loop, and with one other family (rotated
    by ``case.seed``), which reaches the kernel as a pre-hashed column.
    """
    if "compiled" not in available_backends():
        return None
    family = _PREHASHED_FAMILIES[case.seed % len(_PREHASHED_FAMILIES)]
    hash_functions = {
        "splitmix": None,  # the case's own default hash
        family: HashFamily(family, seed=case.hash_seed).one(),
    }
    for kind, hash_function in hash_functions.items():
        python = case.make(kernels="python", hash_function=hash_function)
        python.update_batch(case.lhs, case.rhs)
        compiled = case.make(kernels="compiled", hash_function=hash_function)
        compiled.update_batch(case.lhs, case.rhs)
        message = _compare_states(
            f"python/{kind}", python, f"compiled/{kind}", compiled
        )
        if message is not None:
            return message
    return None


# --------------------------------------------------------------------- #
# Distributed contracts
# --------------------------------------------------------------------- #


def _check_shard_merge(case: StreamCase) -> str | None:
    """Merge of contiguous sub-stream estimators == single pass, directly
    and through the Coordinator quarantine path.

    Three siblings of one template each run ``update_batch`` over a
    contiguous third of the stream, as three nodes that each see one piece
    of it would.  Scoped to theta == 0 plus an unbounded fringe: sticky
    confidence dips are interleaving-dependent and bounded-fringe fixation
    is timing-dependent — both documented merge approximations, not bugs.
    Under this scope supports, partner counters and multiplicity
    violations merge exactly, so the identity is bit-for-bit.
    """
    single = _scalar_reference(case, fringe_size=None)
    template = case.make(fringe_size=None)
    # Each sibling's batch is exact scalar replay (batch-scalar-replay pins
    # that), so a divergence here is a merge or wire-format defect.
    siblings = []
    for lhs, rhs in zip(np.array_split(case.lhs, 3), np.array_split(case.rhs, 3)):
        sibling = template.spawn_sibling()
        sibling.update_batch(lhs, rhs)
        siblings.append(sibling)
    # Encode before merging: a broken merge may write into its argument.
    payloads = [sibling.to_bytes() for sibling in siblings]
    merged = template.spawn_sibling()
    for sibling in siblings:
        merged.merge(sibling)
    message = _compare_states("single-pass", single, "merged sub-streams", merged)
    if message is not None:
        return message
    coordinator = Coordinator(template)
    for index, payload in enumerate(payloads):
        name = f"node-{index}"
        if not coordinator.receive(name, payload):
            return (
                f"coordinator quarantined healthy node payload {name}: "
                f"{coordinator.rejection_reasons.get(name)}"
            )
    return _compare_states(
        "single-pass", single, "coordinator merge", coordinator.merged_estimator()
    )


def _single_pass(
    template: ImplicationCountEstimator, lhs: np.ndarray, rhs: np.ndarray
) -> ImplicationCountEstimator:
    """The resident-state reference: one ``update_batch`` over the stream."""
    estimator = template.spawn_sibling()
    estimator.update_batch(lhs, rhs)
    return estimator


def _check_resume_single_pass(case: StreamCase) -> str | None:
    """Checkpoint/resume == one plain single pass, bit-for-bit, all profiles.

    Checkpointed ingest (:func:`repro.recovery.ingest_checkpointed`)
    advances one resident estimator chunk by chunk.  Three runs must land
    on the digest of one ``update_batch`` pass over the whole stream: an
    uninterrupted run; an interrupted run (the stream prefix up to a chunk
    boundary — the state a crash leaves behind) resumed over the full
    stream under a second chunk size; and the same resume after the
    latest checkpoint generation has been corrupted on disk (torn-write
    stand-in), which must fall back to the previous generation.  No theta
    or fringe scope: ``update_batch`` is exact for any chunking, so any
    divergence is a recovery defect.
    """
    from ..recovery import ingest_checkpointed
    from ..recovery.checkpoint import CheckpointManager

    template = case.make()
    single = _single_pass(template, case.lhs, case.rhs)
    chunk = max(len(case.lhs) // 4, 1)
    other = max(len(case.lhs) // 7, 1)
    boundary = min(2 * chunk, len(case.lhs))
    with tempfile.TemporaryDirectory(prefix="repro-resume-contract-") as root:
        uninterrupted = ingest_checkpointed(
            template,
            case.lhs,
            case.rhs,
            manager=CheckpointManager(os.path.join(root, "full"), keep=8),
            chunk_size=chunk,
        )
        message = _compare_states(
            "single pass", single, "uninterrupted checkpointed run", uninterrupted
        )
        if message is not None:
            return message
        part_manager = CheckpointManager(os.path.join(root, "part"), keep=8)
        ingest_checkpointed(
            template,
            case.lhs[:boundary],
            case.rhs[:boundary],
            manager=part_manager,
            chunk_size=chunk,
        )
        resumed = ingest_checkpointed(
            template, case.lhs, case.rhs, manager=part_manager, chunk_size=other
        )
        message = _compare_states(
            "single pass", single, f"run resumed at chunk_size={other}", resumed
        )
        if message is not None:
            return message
        # Corrupt the newest generation's payload (manifest checksums now
        # lie about it); resume must fall back a generation, replay more
        # suffix, and still converge.
        generations = part_manager.generations()
        latest = generations[-1]
        payload_path = os.path.join(
            part_manager.directory, f"ckpt-{latest:06d}.payload"
        )
        with open(payload_path, "r+b") as handle:
            blob = bytearray(handle.read())
            blob[len(blob) // 2] ^= 0xFF
            handle.seek(0)
            handle.write(blob)
        fallback_manager = CheckpointManager(part_manager.directory, keep=8)
        recovered = ingest_checkpointed(
            template, case.lhs, case.rhs, manager=fallback_manager, chunk_size=other
        )
        if len(generations) > 1 and not any(
            generation == latest for generation, _ in fallback_manager.last_skipped
        ):
            return (
                f"corrupted generation {latest} was not skipped on resume "
                f"(skipped: {fallback_manager.last_skipped})"
            )
        return _compare_states(
            "single pass",
            single,
            "resume after corrupted latest generation",
            recovered,
        )


def _check_serve_snapshot_equivalence(case: StreamCase) -> str | None:
    """Every served snapshot == one plain single pass over its prefix.

    Drives the serving loop (:class:`repro.serving.service.ImplicationService`)
    batch by batch over the case stream, at two batch sizes, and for every
    snapshot it publishes runs one ``update_batch`` pass of a template
    sibling over the stream prefix up to the snapshot's cursor.  Each
    published ``estimator_state_digest`` must match its single pass
    bit-for-bit — so both batch sizes drain to the same digest — and the
    snapshot's own digest must match its decoded payload (the wire form a
    ``/snapshot`` client receives).  No theta or fringe scope: the service
    advances one resident estimator per profile, so any divergence is a
    serving-layer defect (stale estimator published, cursor off by a
    batch, torn snapshot), never a documented approximation.
    """
    from ..serving.service import ImplicationService, ServeConfig
    from ..serving.sources import ArraySource

    for batch in sorted({max(len(case.lhs) // 3, 1), max(len(case.lhs) // 5, 1)}):
        config = ServeConfig(
            batch_size=batch,
            publish_every=1,
            num_bitmaps=case.num_bitmaps,
            seed=case.hash_seed,
        )
        service = ImplicationService(
            config,
            source=ArraySource(case.lhs, case.rhs, batch_size=batch),
            profiles={"case": case.conditions},
        )
        published: list[tuple[int, str, bytes]] = []
        while service.ingest_step():
            snapshot = service.store.get("case")
            published.append((snapshot.cursor, snapshot.digest, snapshot.payload))
        snapshot = service.store.get("case")
        if snapshot.cursor != len(case.lhs):
            return (
                f"drained service (batch_size={batch}) stopped at cursor "
                f"{snapshot.cursor}, expected {len(case.lhs)}"
            )
        published.append((snapshot.cursor, snapshot.digest, snapshot.payload))
        template = service.templates["case"]
        for cursor, digest, payload in published:
            decoded = ImplicationCountEstimator.from_bytes(payload)
            if estimator_state_digest(decoded) != digest:
                return (
                    f"snapshot payload at cursor {cursor} (batch_size={batch}) "
                    f"decodes to a different digest than the one served"
                )
            reference = _single_pass(
                template, case.lhs[:cursor], case.rhs[:cursor]
            )
            if estimator_state_digest(reference) != digest:
                return (
                    f"served snapshot at cursor {cursor} (batch_size={batch}) "
                    f"diverges from the single pass over the same stream prefix"
                )
    return None


def _check_serve_push_equivalence(case: StreamCase) -> str | None:
    """A drained push stream == one plain single pass, bit-for-bit.

    *How* a client chunks its pushes must never leak into served state.
    This check drives :class:`~repro.serving.sources.PushSource`-backed
    services through three adversarial legs and pins every final digest
    to one ``update_batch`` pass of a template sibling over the stream:

    * **Irregular chunking** — the case stream pushed in a cycling
      pattern of awkward chunk sizes (1 tuple, half batches, exact
      batches, stragglers) against a 2-batch-capacity queue, so
      :class:`~repro.serving.sources.PushBacklogFull` backpressure fires
      repeatedly and every accepted retry really is the rejected chunk
      re-sent verbatim.
    * **Interleaving** — pushes and ingest steps interleave freely
      (drain-on-429), so batches are carved while the producer is
      mid-stream, not only after close.
    * **Interrupt + resume** — a checkpointed service is abandoned
      mid-stream (the SIGTERM story), a fresh service with a second batch
      size resumes from its checkpoint directory, and the client replays
      the stream *from the beginning with different chunk sizes*; the
      source must swallow exactly the committed prefix and the drained
      digest must equal the uninterrupted one.

    No theta or fringe scope: the service advances one resident estimator
    per profile, so any divergence is a write-path defect (mis-carved
    batch, tuples dropped under backpressure, resume skipping the wrong
    prefix), never a documented approximation.
    """
    from ..serving.service import ImplicationService, ServeConfig
    from ..serving.sources import PushBacklogFull

    batch = max(len(case.lhs) // 3, 1)
    config = ServeConfig(
        source="push:capacity=2",
        batch_size=batch,
        publish_every=1,
        num_bitmaps=case.num_bitmaps,
        seed=case.hash_seed,
    )
    chunk_cycle = (1, max(batch // 2, 1), batch, 3, max(batch - 1, 1))

    def feed(service, lhs, rhs, *, phase, close=True, cycle=chunk_cycle):
        """Push the whole stream in irregular chunks, draining on 429."""
        offset, step = 0, 0
        while offset < len(lhs):
            size = min(cycle[step % len(cycle)], len(lhs) - offset)
            step += 1
            for _ in range(64):
                try:
                    service.source.push(
                        lhs[offset : offset + size],
                        rhs[offset : offset + size],
                    )
                    break
                except PushBacklogFull:
                    # Backpressure: drain one batch, retry the identical
                    # chunk — exactly the client's 429 discipline.
                    service.ingest_step()
            else:
                return f"{phase}: backpressure never cleared after 64 drains"
            offset += size
        if close:
            service.source.close()
        return None

    # Leg 1+2: irregular chunking interleaved with backpressure drains.
    service = ImplicationService(config, profiles={"case": case.conditions})
    error = feed(service, case.lhs, case.rhs, phase="uninterrupted push")
    if error:
        return error
    while service.ingest_step():
        pass
    if service.cursor != len(case.lhs):
        return (
            f"push service drained at cursor {service.cursor}, "
            f"expected {len(case.lhs)}"
        )
    pushed_digest = service.store.get("case").digest
    reference = _single_pass(service.templates["case"], case.lhs, case.rhs)
    if estimator_state_digest(reference) != pushed_digest:
        return (
            "drained push stream diverges from the single pass over the "
            "same tuples (client chunking leaked into state)"
        )

    # Leg 3: abandon a checkpointed service mid-stream, resume with a
    # second batch size, replay from the start with *different* chunking.
    # The second size holds half the stream, so two batches of backlog
    # fit every replayed chunk.
    resumed_config = replace(config, batch_size=max(len(case.lhs) // 2, 1))
    with tempfile.TemporaryDirectory(prefix="repro-push-contract-") as root:
        first = ImplicationService(
            config, profiles={"case": case.conditions}, checkpoint_dir=root
        )
        prefix = min(2 * batch + 1, len(case.lhs))
        error = feed(
            first,
            case.lhs[:prefix],
            case.rhs[:prefix],
            phase="pre-interrupt push",
            close=False,
        )
        if error:
            return error
        while first.source.pending_tuples >= batch:
            first.ingest_step()
        if first.cursor == 0:
            return "pre-interrupt service committed nothing to resume from"
        # The service dies here (no close, buffered stragglers lost) —
        # only committed generations survive.
        resumed = ImplicationService(
            resumed_config, profiles={"case": case.conditions}, checkpoint_dir=root
        )
        if resumed.cursor != first.cursor:
            return (
                f"resume restored cursor {resumed.cursor}, the interrupted "
                f"service had committed {first.cursor}"
            )
        error = feed(
            resumed,
            case.lhs,
            case.rhs,
            phase="replayed push",
            cycle=(max(batch // 3, 1), 2, batch, 5),
        )
        if error:
            return error
        while resumed.ingest_step():
            pass
        if resumed.source.skipped_tuples != first.cursor:
            return (
                f"resumed source swallowed {resumed.source.skipped_tuples} "
                f"replayed tuples, expected the committed prefix of "
                f"{first.cursor}"
            )
        resumed_digest = resumed.store.get("case").digest
        if resumed_digest != pushed_digest:
            return (
                "resumed push run diverges from the uninterrupted one "
                "(replay-from-start did not land on the committed prefix)"
            )
    return None


def _check_windowed_offline_replay(case: StreamCase) -> str | None:
    """The windowed readout at cursor t is a function of only the last W
    tuples — expired evidence leaves no trace.

    Drives a :class:`~repro.windowed.WindowedImplicationEstimator` scalar
    over the case stream and, at every rotation boundary plus the final
    cursor, replays *only the covered suffix* through a fresh windowed
    sibling (:func:`~repro.windowed.offline_window_reference`).  The
    window-relative :func:`~repro.windowed.windowed_state_digest` must
    match exactly, for **every** condition profile — any dependence on
    pre-window history (a stale pane retained, an off-grid rotation, merge
    leaking between panes) breaks the equality.  Under theta == 0 with an
    unbounded fringe (the scope where :meth:`ItemsetState.merge` is exact,
    as for ``shard-merge``) a second leg additionally pins the *merged*
    readout bit-for-bit against a plain landmark single pass over the same
    suffix — the literal "landmark estimator run over only the last W
    tuples".
    """
    from ..windowed.estimator import (
        WindowedImplicationEstimator,
        offline_window_reference,
        windowed_state_digest,
    )

    generations = 4
    step = max(len(case.lhs) // 8, 1)
    window = generations * step
    windowed = WindowedImplicationEstimator(
        case.conditions,
        num_bitmaps=case.num_bitmaps,
        seed=case.hash_seed,
        window=window,
        generations=generations,
    )
    pairs = case.pairs()
    for index, (itemset, partner) in enumerate(pairs, start=1):
        windowed.update(itemset, partner)
        if index % step and index != len(pairs):
            continue
        start = windowed.window_start
        replay = offline_window_reference(
            windowed, case.lhs[start:index], case.rhs[start:index]
        )
        if windowed_state_digest(replay) != windowed_state_digest(windowed):
            return (
                f"windowed state at cursor {index} is not a pure function "
                f"of the covered suffix [{start}:{index}] (window {window}, "
                f"{generations} generations) — expired tuples left a trace "
                f"or rotation left the pane grid"
            )
    if case.theta_zero:
        unbounded = WindowedImplicationEstimator(
            case.conditions,
            num_bitmaps=case.num_bitmaps,
            fringe_size=None,
            seed=case.hash_seed,
            window=window,
            generations=generations,
        )
        for itemset, partner in pairs:
            unbounded.update(itemset, partner)
        landmark = case.make(fringe_size=None)
        for itemset, partner in pairs[unbounded.window_start :]:
            landmark.update(itemset, partner)
        message = _compare_states(
            "windowed merge-on-read",
            unbounded.merged(),
            "landmark single pass over the window suffix",
            landmark,
        )
        if message is not None:
            return message
    return None


def _check_generation_rotation_determinism(case: StreamCase) -> str | None:
    """Rotation schedules that land on the same window land on the same
    digest, for every condition profile.

    Four drives of the identical stream — per-tuple scalar, one whole
    exact batch, deliberately off-grid batch chunks, and ``update_many``
    — must produce identical window-relative state digests: rotation
    happens on the absolute tuple grid, never on call boundaries.  (The
    batch legs' scalar equivalence is ``batch-scalar-replay``'s; what this
    contract adds is the rotation/retirement bookkeeping splitting those
    calls at pane boundaries.)

    A second leg pins the *merged* readout across drives — but only
    under theta == 0 with an unbounded fringe, the scope where
    :meth:`ItemsetState.merge` is order-compressing (as for
    ``shard-merge``).  Outside that scope the leg would be unsound, not
    merely flaky: the batch exact path equals the scalar path
    *canonically* (``estimator_state_digest`` sorts away itemset
    insertion order, which legitimately differs between the two), and
    merging canonically-equal panes with a bounded fringe or a sticky
    confidence threshold walks their entries in insertion order, so
    capacity/confidence absorption can latch different cells — same
    covered window, divergent merged bytes, by design.
    """
    from ..windowed.estimator import (
        WindowedImplicationEstimator,
        windowed_state_digest,
    )

    generations = 4
    step = max(len(case.lhs) // 8, 1)
    window = generations * step

    def fresh() -> WindowedImplicationEstimator:
        return WindowedImplicationEstimator(
            case.conditions,
            num_bitmaps=case.num_bitmaps,
            seed=case.hash_seed,
            window=window,
            generations=generations,
        )

    scalar = fresh()
    for itemset, partner in case.pairs():
        scalar.update(itemset, partner)
    want = windowed_state_digest(scalar)

    legs: list[tuple[str, WindowedImplicationEstimator]] = []
    whole = fresh()
    whole.update_batch(case.lhs, case.rhs)
    legs.append(("one whole batch", whole))
    chunked = fresh()
    chunk = max(step - 1, 1)  # deliberately off the pane grid
    for begin in range(0, len(case.lhs), chunk):
        chunked.update_batch(
            case.lhs[begin : begin + chunk], case.rhs[begin : begin + chunk]
        )
    legs.append((f"batches of {chunk}", chunked))
    many = fresh()
    many.update_many(case.pairs())
    legs.append(("update_many", many))
    for label, leg in legs:
        if leg.clock != scalar.clock or leg.live_origins() != scalar.live_origins():
            return (
                f"rotation schedule diverged for {label}: clock "
                f"{leg.clock} vs {scalar.clock}, origins {leg.live_origins()} "
                f"vs {scalar.live_origins()}"
            )
        if windowed_state_digest(leg) != want:
            return (
                f"windowed digest for {label} diverged from the scalar "
                f"drive over the same stream (window {window}, "
                f"{generations} generations)"
            )
    if not case.theta_zero:
        return None

    def fresh_unbounded() -> WindowedImplicationEstimator:
        return WindowedImplicationEstimator(
            case.conditions,
            num_bitmaps=case.num_bitmaps,
            fringe_size=None,
            seed=case.hash_seed,
            window=window,
            generations=generations,
        )

    scalar_exact = fresh_unbounded()
    for itemset, partner in case.pairs():
        scalar_exact.update(itemset, partner)
    chunked_exact = fresh_unbounded()
    for begin in range(0, len(case.lhs), chunk):
        chunked_exact.update_batch(
            case.lhs[begin : begin + chunk], case.rhs[begin : begin + chunk]
        )
    return _compare_states(
        "scalar-drive merged readout",
        scalar_exact.merged(),
        "chunked-drive merged readout",
        chunked_exact.merged(),
    )


def _check_serialize_roundtrip(case: StreamCase) -> str | None:
    """to_bytes -> from_bytes is the identity, and re-encoding is stable."""
    estimator = _scalar_reference(case)
    payload = estimator.to_bytes()
    decoded = ImplicationCountEstimator.from_bytes(payload)
    message = _compare_states("original", estimator, "round-tripped", decoded)
    if message is not None:
        return message
    if decoded.to_bytes() != payload:
        return "re-serializing a decoded estimator produced different bytes"
    return None


# --------------------------------------------------------------------- #
# Exact-counter semantics contracts
# --------------------------------------------------------------------- #


def _check_exact_permutation(case: StreamCase) -> str | None:
    """Exact-counter permutation invariance.

    Support and distinct counts are permutation-invariant for every
    condition profile; the full partition (S, S-bar) additionally requires
    theta == 0, because a sticky confidence dip can exist in one
    interleaving only.
    """
    forward = ExactImplicationCounter(case.conditions)
    forward.update_many(case.pairs())
    order = np.random.default_rng(case.seed ^ 0x5EED5EED).permutation(len(case.lhs))
    permuted = ExactImplicationCounter(case.conditions)
    permuted.update_many(
        list(zip(case.lhs[order].tolist(), case.rhs[order].tolist()))
    )
    if forward.supported_distinct_count() != permuted.supported_distinct_count():
        return (
            "exact supported count changed under permutation: "
            f"{forward.supported_distinct_count()} vs "
            f"{permuted.supported_distinct_count()}"
        )
    if forward.distinct_count() != permuted.distinct_count():
        return (
            "exact distinct count changed under permutation: "
            f"{forward.distinct_count()} vs {permuted.distinct_count()}"
        )
    if case.theta_zero and _exact_counts(forward) != _exact_counts(permuted):
        return (
            "exact counts changed under permutation (theta=0): "
            f"{_exact_counts(forward)} vs {_exact_counts(permuted)}"
        )
    return None


def _check_monotone_nonimplication(case: StreamCase) -> str | None:
    """S-bar is monotone non-decreasing — the property that makes it
    recordable by a write-once bitmap — and every NIPS fringe start only
    ever advances."""
    counter = ExactImplicationCounter(case.conditions)
    previous = 0.0
    for index, (itemset, partner) in enumerate(case.pairs()):
        counter.update(itemset, partner)
        current = counter.nonimplication_count()
        if current < previous:
            return (
                f"exact non-implication count regressed at tuple {index}: "
                f"{previous} -> {current}"
            )
        previous = current
    estimator = case.make()
    starts = [0] * estimator.num_bitmaps
    for index, (itemset, partner) in enumerate(case.pairs()):
        estimator.update(itemset, partner)
        if index % 16 and index != len(case.lhs) - 1:
            continue
        for bitmap_index, bitmap in enumerate(estimator.bitmaps):
            if bitmap.fringe_start < starts[bitmap_index]:
                return (
                    f"fringe start of bitmap {bitmap_index} regressed at "
                    f"tuple {index}: {starts[bitmap_index]} -> "
                    f"{bitmap.fringe_start}"
                )
            starts[bitmap_index] = bitmap.fringe_start
    return None


def _check_sticky_absorption(case: StreamCase) -> str | None:
    """Once VIOLATED, always VIOLATED (Section 3.1.1's sticky semantics)."""
    counter = ExactImplicationCounter(case.conditions)
    violated: set = set()
    for index, (itemset, partner) in enumerate(case.pairs()):
        counter.update(itemset, partner)
        status = counter.status_of(itemset)
        if itemset in violated and status is not ItemsetStatus.VIOLATED:
            return (
                f"itemset {itemset} left VIOLATED at tuple {index}: "
                f"now {status.value}"
            )
        if status is ItemsetStatus.VIOLATED:
            violated.add(itemset)
    return None


# --------------------------------------------------------------------- #
# Weighted-update contract
# --------------------------------------------------------------------- #


def _check_update_many_weights(case: StreamCase) -> str | None:
    """``update_many`` with weight k == k adjacent scalar repeats.

    Exact under theta == 0: a weighted observation evaluates the sticky
    conditions once at ``support + k`` where repeats also evaluate at the
    intermediate supports — with the confidence condition off, the
    intermediate evaluations can never latch anything the weighted one
    misses.  Checked for the estimator and the exact counter.
    """
    weights = [2] * len(case.lhs)
    weighted = case.make()
    weighted.update_many(case.pairs(), weights)
    repeated = case.make()
    for itemset, partner in case.pairs():
        repeated.update(itemset, partner)
        repeated.update(itemset, partner)
    message = _compare_states(
        "update_many(weights=2)", weighted, "adjacent scalar repeats", repeated
    )
    if message is not None:
        return message
    exact_weighted = ExactImplicationCounter(case.conditions)
    exact_weighted.update_many(case.pairs(), weights)
    exact_repeated = ExactImplicationCounter(case.conditions)
    for itemset, partner in case.pairs():
        exact_repeated.update(itemset, partner)
        exact_repeated.update(itemset, partner)
    if _exact_counts(exact_weighted) != _exact_counts(exact_repeated):
        return (
            "exact counter weighted/repeated divergence: "
            f"{_exact_counts(exact_weighted)} vs {_exact_counts(exact_repeated)}"
        )
    return None


# --------------------------------------------------------------------- #
# Approximation-envelope contracts
# --------------------------------------------------------------------- #

#: Deviation allowance in units of each sketch's analytic standard error.
#: Six sigma keeps clean seeds comfortably inside while a broken estimator
#: (dropped updates, wrong scaling) lands far outside.
_ENVELOPE_SIGMA = 6.0
#: Absolute slack for the small-range regime: the ``0.78/sqrt(m)`` envelope
#: is asymptotic (F0 >> m); below that, register occupancy is sparse and
#: the readout granularity is on the order of ``m`` itself, so every
#: envelope gets an additive floor of about one ``m`` on top of the
#: relative term.  The floor keeps clean small-cardinality streams (and
#: the shrinker's descent into them) out of false-violation territory
#: while leaving gross breakage — dropped updates, wrong scaling — far
#: outside on any large-cardinality profile.
_ENVELOPE_FLOOR = 48.0


def _check_sketch_error_envelope(case: StreamCase) -> str | None:
    """Every F0 sketch estimates the stream's distinct LHS count within its
    analytic ``~c/sqrt(m)`` standard-error envelope (6 sigma + floor)."""
    truth = float(len(np.unique(case.lhs)))
    sketches: Sequence[tuple[str, object, float]] = (
        ("pcsa", PCSA(num_bitmaps=64, seed=case.hash_seed), 0.78 / 8.0),
        ("kmv", KMinimumValues(k=64, seed=case.hash_seed), 1.0 / (62.0 ** 0.5)),
        ("loglog", LogLog(num_registers=64, seed=case.hash_seed), 1.30 / 8.0),
        ("hyperloglog", HyperLogLog(num_registers=64, seed=case.hash_seed), 1.04 / 8.0),
        ("linear-counting", LinearCounter(num_bits=4096, seed=case.hash_seed), 0.02),
    )
    for name, sketch, relative_se in sketches:
        sketch.add_encoded_array(case.lhs)
        estimate = sketch.estimate()
        allowance = _ENVELOPE_SIGMA * relative_se * truth + _ENVELOPE_FLOOR
        if abs(estimate - truth) > allowance:
            return (
                f"{name} estimate {estimate:.1f} outside envelope "
                f"[{truth - allowance:.1f}, {truth + allowance:.1f}] "
                f"for F0 = {truth:.0f}"
            )
    return None


def _check_estimator_error_envelope(case: StreamCase) -> str | None:
    """NIPS/CI's F0_sup and S-bar readouts land within the
    stochastic-averaging envelope (~0.78/sqrt(m)) of the exact counts.

    Uses the unbounded-fringe reference estimator — the configuration the
    paper's own error experiments (Figures 4-6) evaluate — because a
    bounded fringe deliberately trades accuracy on float-heavy low-support
    streams for memory (fixated cells read as supported, the Section 4.3.3
    limitation), which is a documented bias, not a defect this contract
    should fire on.
    """
    exact = ExactImplicationCounter(case.conditions)
    exact.update_many(case.pairs())
    estimator = case.make(num_bitmaps=64, fringe_size=None)
    estimator.update_batch(case.lhs, case.rhs)
    epsilon = estimator.expected_relative_error()
    # Small-range granularity of the m-bitmap readout itself.
    small_range = float(estimator.num_bitmaps)
    supported_truth = exact.supported_distinct_count()
    supported = estimator.supported_distinct_count()
    allowance = _ENVELOPE_SIGMA * epsilon * supported_truth + small_range
    if abs(supported - supported_truth) > allowance:
        return (
            f"F0_sup estimate {supported:.1f} outside envelope "
            f"[{supported_truth - allowance:.1f}, "
            f"{supported_truth + allowance:.1f}] for exact {supported_truth:.0f}"
        )
    nonimpl_truth = exact.nonimplication_count()
    nonimpl = estimator.nonimplication_count()
    floor = estimator.minimum_estimable_nonimplication(supported_truth)
    allowance = _ENVELOPE_SIGMA * epsilon * nonimpl_truth + small_range + floor
    if abs(nonimpl - nonimpl_truth) > allowance:
        return (
            f"S-bar estimate {nonimpl:.1f} outside envelope "
            f"[{nonimpl_truth - allowance:.1f}, {nonimpl_truth + allowance:.1f}] "
            f"for exact {nonimpl_truth:.0f} (fixation floor {floor:.1f})"
        )
    return None


# --------------------------------------------------------------------- #
# Baseline comparator contracts
# --------------------------------------------------------------------- #


def _check_baseline_sanity(case: StreamCase) -> str | None:
    """The Section 5/6 comparators stay internally consistent, and DS with
    an unconstrained budget degenerates to the exact counter."""
    exact = ExactImplicationCounter(case.conditions)
    exact.update_many(case.pairs())
    budget = (len(case.lhs) + 1) * 8
    sampler = DistinctSamplingImplicationCounter(
        case.conditions,
        sample_budget=budget,
        per_value_bound=budget,
        seed=case.hash_seed,
    )
    sampler.update_many(case.pairs())
    if sampler.level != 0:
        return (
            f"distinct sampling raised its level to {sampler.level} despite "
            f"an unconstrained budget of {budget}"
        )
    if (
        sampler.implication_count(),
        sampler.nonimplication_count(),
        sampler.supported_distinct_count(),
    ) != _exact_counts(exact)[:3]:
        return (
            "level-0 distinct sampling disagrees with the exact counter: "
            f"DS ({sampler.implication_count()}, {sampler.nonimplication_count()}, "
            f"{sampler.supported_distinct_count()}) vs exact "
            f"{_exact_counts(exact)[:3]}"
        )
    for name, baseline in (
        ("ILC", ImplicationLossyCounting(case.conditions, epsilon=0.01)),
        (
            "ISS",
            ImplicationStickySampling(
                case.conditions, epsilon=0.01, seed=case.hash_seed
            ),
        ),
    ):
        baseline.update_many(case.pairs())
        counts = (
            baseline.implication_count(),
            baseline.nonimplication_count(),
            baseline.supported_distinct_count(),
        )
        if any(count < 0 or not np.isfinite(count) for count in counts):
            return f"{name} produced a negative or non-finite count: {counts}"
    return None


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

CONTRACTS: tuple[Contract, ...] = (
    Contract(
        name="batch-scalar-replay",
        description=(
            "update_batch is bit-for-bit scalar replay on every kernel "
            "backend (all condition profiles)"
        ),
        check=_check_batch_scalar_replay,
    ),
    Contract(
        name="kernel-backend-equivalence",
        description=(
            "compiled and python kernel backends produce identical state "
            "digests (all condition profiles; trivially green where the "
            "compiled backend cannot build)"
        ),
        check=_check_kernel_backend_equivalence,
    ),
    Contract(
        name="shard-merge",
        description=(
            "merge of three contiguous sub-stream estimators, directly and "
            "through the Coordinator, equals a single pass [scope: "
            "theta=0, unbounded fringe]"
        ),
        check=_check_shard_merge,
        applies=lambda case: case.theta_zero,
    ),
    Contract(
        name="serialize-roundtrip",
        description="wire-format round trip is the identity and re-encoding is stable",
        check=_check_serialize_roundtrip,
    ),
    Contract(
        name="resume-single-pass",
        description=(
            "checkpointed ingest — uninterrupted, resumed under a second "
            "chunk size, and resumed past a corrupted latest generation — "
            "equals one update_batch pass bit-for-bit (all condition "
            "profiles)"
        ),
        check=_check_resume_single_pass,
    ),
    Contract(
        name="serve-snapshot-equivalence",
        description=(
            "every snapshot the serving loop publishes, at two batch sizes, "
            "equals one update_batch pass over the same stream prefix "
            "bit-for-bit, and its payload decodes to the served digest (all "
            "condition profiles)"
        ),
        check=_check_serve_snapshot_equivalence,
    ),
    Contract(
        name="serve-push-equivalence",
        description=(
            "a drained push-ingest stream lands bit-for-bit on one "
            "update_batch pass over the pushed tuples — irregular client "
            "chunking, backpressure retries, and interrupt/replay resume "
            "under a second batch size all included (all condition "
            "profiles)"
        ),
        check=_check_serve_push_equivalence,
    ),
    Contract(
        name="windowed-vs-offline-replay",
        description=(
            "windowed readout at cursor t == estimator run over only the "
            "covered window suffix: pure-function digest equality for all "
            "condition profiles, plus bit-for-bit merged-readout equality "
            "against a plain landmark single pass [scope of that leg: "
            "theta=0, unbounded fringe]"
        ),
        check=_check_windowed_offline_replay,
    ),
    Contract(
        name="generation-rotation-determinism",
        description=(
            "scalar / whole-batch / off-grid-chunked / update_many drives "
            "landing rotations on the same tuple grid produce identical "
            "windowed digests (all condition profiles)"
        ),
        check=_check_generation_rotation_determinism,
    ),
    Contract(
        name="exact-permutation-invariance",
        description=(
            "exact counter is permutation-invariant (full partition under "
            "theta=0; supported/distinct always)"
        ),
        check=_check_exact_permutation,
    ),
    Contract(
        name="monotone-nonimplication",
        description="S-bar never decreases; NIPS fringe starts only advance",
        check=_check_monotone_nonimplication,
    ),
    Contract(
        name="sticky-absorption",
        description="VIOLATED is an absorbing state of the exact counter",
        check=_check_sticky_absorption,
    ),
    Contract(
        name="update-many-weights",
        description=(
            "update_many weight k == k adjacent repeats, estimator and "
            "exact counter [scope: theta=0]"
        ),
        check=_check_update_many_weights,
        applies=lambda case: case.theta_zero,
    ),
    Contract(
        name="sketch-error-envelope",
        description=(
            "F0 sketches (PCSA, KMV, LogLog, HLL, linear counting) stay "
            "inside their analytic error envelopes"
        ),
        check=_check_sketch_error_envelope,
    ),
    Contract(
        name="estimator-error-envelope",
        description=(
            "NIPS/CI readouts stay inside the stochastic-averaging envelope "
            "plus the fixation floor"
        ),
        check=_check_estimator_error_envelope,
    ),
    Contract(
        name="baseline-sanity",
        description=(
            "DS with an unconstrained budget equals exact; ILC/ISS counts "
            "stay finite and non-negative"
        ),
        check=_check_baseline_sanity,
    ),
)


def contract_by_name(name: str) -> Contract:
    for contract in CONTRACTS:
        if contract.name == name:
            return contract
    raise ValueError(
        f"unknown contract {name!r}; known: "
        f"{', '.join(contract.name for contract in CONTRACTS)}"
    )
