"""Atomic, checksummed epoch snapshots of estimator state.

The paper's premise is that the synopsis is *maintained* — statistics
accumulate across hours of stream, and §1's constrained environments
(sensors, routers) are exactly the places where processes die.  A NIPS/CI
sketch that evaporates on SIGKILL forces a full replay from tuple zero;
this module makes the sketch durable instead, with recovery that is
provably lossless (bit-for-bit, in the :func:`estimator_state_digest`
sense) rather than approximately so.

A **checkpoint directory** holds numbered generations, each two files plus
optional attachments::

    ckpt-000004.payload         # estimator wire bytes (core.serialize)
    ckpt-000004.att-000         # attachment 0 (e.g. a coordinator's
                                #   per-node snapshots)
    ckpt-000004.manifest.json   # commit record: cursor, epoch, geometry,
                                #   checksums, state digest, metrics

The write protocol makes each generation atomic under kill-anywhere
semantics:

1. every data file (attachments, then the payload) is written to a
   dot-prefixed temp name, flushed, ``fsync``\\ ed, then ``os.replace``\\ d
   into place;
2. the manifest — which records the byte length and SHA-256 of every data
   file plus the estimator's logical state digest — is written the same
   way, **last**.  The manifest rename is the commit point: a generation
   without a readable, self-consistent manifest does not exist;
3. the directory itself is fsynced after the commit so the rename is
   durable, then generations older than ``keep`` are pruned
   (manifest first, so a half-pruned generation can never look valid).

A kill at *any* point of that protocol — mid-payload-write, between the
two renames, mid-manifest — leaves either the previous generations intact
(temp files are ignored on load) or the new generation fully committed.
:mod:`repro.recovery.crash` names each window so the crash-injection
harness can prove it, not just argue it.

The **load path** walks generations newest-first and returns the first one
that survives full validation: manifest parse + version check
(:func:`checkpoint_manifest_from_bytes`), per-file length + SHA-256
verification, estimator decode (:func:`estimator_from_bytes`), and a
recomputed :func:`estimator_state_digest` compared against the manifest's
recorded digest.  Every failure is a :class:`SketchFormatError` internally
and becomes a fall-back to the previous generation, with the reason kept
on :attr:`CheckpointManager.last_skipped` and counted in observability.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

from ..core.estimator import ImplicationCountEstimator
from ..core.serialize import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    SketchFormatError,
    checkpoint_manifest_from_bytes,
    checkpoint_manifest_to_bytes,
    estimator_state_digest,
)
from ..observability import metrics as obs
from . import crash

__all__ = [
    "CheckpointManager",
    "RESIDENT_STATE",
    "RestoredCheckpoint",
    "check_resume_shape",
]

#: ``extra["state"]`` of every checkpoint whose payload is one resident
#: estimator advanced in place by ``update_batch`` — a plain single pass
#: over the stream prefix.  Checkpointed ingest and the serving loop both
#: record it.  Checkpoints written by the per-batch merge chain (and by
#: every older ingest path) lack it: their state is not a single pass, so
#: continuing it would never reach the uninterrupted digest.
RESIDENT_STATE = "resident-single-pass"

_MANIFEST_SUFFIX = ".manifest.json"
_PAYLOAD_SUFFIX = ".payload"
_TMP_PREFIX = "."


def _generation_stem(generation: int) -> str:
    return f"ckpt-{generation:06d}"


def _fsync_directory(path: str) -> None:
    """Make renames inside ``path`` durable (best effort off-POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directories not fsyncable here
        pass
    finally:
        os.close(fd)


@dataclass
class RestoredCheckpoint:
    """A fully validated generation, ready to resume from."""

    generation: int
    cursor: int
    estimator: ImplicationCountEstimator
    manifest: dict
    attachments: dict[str, bytes] = field(default_factory=dict)
    #: ``(generation, reason)`` for every newer generation that failed
    #: validation and was skipped on the way to this one.
    skipped: list[tuple[int, str]] = field(default_factory=list)


def check_resume_shape(restored: RestoredCheckpoint, shape: dict) -> None:
    """Refuse to resume a run shaped ``shape`` from ``restored``.

    ``shape`` is the resuming run's identity, recorded as the manifest's
    ``extra`` by every save; it carries ``"state": RESIDENT_STATE``.  A
    manifest without that constant was written by the per-batch merge
    chain and is refused by name; any other difference means a different
    stream or estimator set.
    """
    recorded = {key: restored.manifest["extra"].get(key) for key in shape}
    if recorded.get("state") != RESIDENT_STATE:
        raise ValueError(
            f"checkpoint generation {restored.generation} was written by the "
            f"per-batch merge chain (or an older ingest path), not by a "
            f"resident single pass, so resuming it cannot reach the "
            f"uninterrupted digest — start again from an empty checkpoint "
            f"directory"
        )
    if recorded != shape:
        raise ValueError(
            f"checkpoint generation {restored.generation} was written by a "
            f"run shaped {recorded}, cannot resume with {shape} — it covers "
            f"a different stream or estimator set"
        )


class CheckpointManager:
    """Numbered, atomic, self-verifying checkpoint generations in one dir.

    Parameters
    ----------
    directory:
        Checkpoint directory; created if missing.  One manager owns one
        logical ingest — don't point two concurrent ingests at the same
        directory.
    keep:
        Generations retained after each save.  Must be >= 2: torn-write
        recovery *is* falling back one generation, so a retention of 1
        would make the latest checkpoint a single point of failure.
    """

    def __init__(self, directory: str, *, keep: int = 3) -> None:
        if keep < 2:
            raise ValueError(f"keep must be >= 2 (fallback needs one spare), got {keep}")
        self.directory = os.path.abspath(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)
        #: ``(generation, reason)`` entries from the most recent load call.
        self.last_skipped: list[tuple[int, str]] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def generations(self) -> list[int]:
        """Committed generation numbers (manifest present), ascending."""
        found = []
        for name in os.listdir(self.directory):
            if name.startswith(_TMP_PREFIX) or not name.endswith(_MANIFEST_SUFFIX):
                continue
            stem = name[: -len(_MANIFEST_SUFFIX)]
            if stem.startswith("ckpt-") and stem[5:].isdigit():
                found.append(int(stem[5:]))
        return sorted(found)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #

    def _write_file(
        self, final_name: str, data: bytes, *, mid_write: str | None, pre_rename: str | None
    ) -> None:
        """Temp-write + fsync + rename one file, with named crash windows."""
        tmp_path = self._path(_TMP_PREFIX + final_name + ".tmp")
        with open(tmp_path, "wb") as handle:
            half = len(data) // 2
            handle.write(data[:half])
            if mid_write is not None:
                handle.flush()
                os.fsync(handle.fileno())
                crash.maybe_crash(mid_write)
            handle.write(data[half:])
            handle.flush()
            os.fsync(handle.fileno())
        if pre_rename is not None:
            crash.maybe_crash(pre_rename)
        os.replace(tmp_path, self._path(final_name))

    def save(
        self,
        estimator: ImplicationCountEstimator,
        *,
        cursor: int,
        epoch: dict | None = None,
        extra: dict | None = None,
        attachments: dict[str, bytes] | None = None,
    ) -> dict:
        """Commit one new generation; returns the manifest dict.

        ``cursor`` is the stream position the snapshot covers — resume
        replays the suffix from exactly here.  ``epoch`` and ``extra`` are
        free-form context (chunk index, ingest parameters, coordinator
        epoch); ``attachments`` are named auxiliary byte blobs stored and
        checksummed alongside the payload.
        """
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        started = time.perf_counter()
        existing = self.generations()
        generation = existing[-1] + 1 if existing else 0
        stem = _generation_stem(generation)
        tag = f"gen{generation}"

        attachment_entries = []
        attachment_bytes = 0
        for index, (name, blob) in enumerate(sorted((attachments or {}).items())):
            file_name = f"{stem}.att-{index:03d}"
            self._write_file(file_name, blob, mid_write=None, pre_rename=None)
            attachment_entries.append(
                {
                    "name": name,
                    "file": file_name,
                    "bytes": len(blob),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
            attachment_bytes += len(blob)

        payload = estimator.to_bytes()
        payload_name = stem + _PAYLOAD_SUFFIX
        self._write_file(
            payload_name,
            payload,
            mid_write=f"{tag}:payload-mid-write",
            pre_rename=f"{tag}:payload-pre-rename",
        )
        crash.maybe_crash(f"{tag}:mid-rename")

        manifest = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "generation": generation,
            "cursor": cursor,
            "tuples_seen": estimator.tuples_seen,
            "state_digest": estimator_state_digest(estimator),
            "payload": {
                "file": payload_name,
                "bytes": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            },
            "geometry": {
                "num_bitmaps": estimator.num_bitmaps,
                "length": estimator.length,
                "fringe_size": estimator.fringe_size,
            },
            "attachments": attachment_entries,
            "epoch": dict(epoch or {}),
            "metrics": obs.get_registry().snapshot(),
            "extra": dict(extra or {}),
        }
        self._write_file(
            stem + _MANIFEST_SUFFIX,
            checkpoint_manifest_to_bytes(manifest),
            mid_write=f"{tag}:manifest-mid-write",
            pre_rename=f"{tag}:manifest-pre-rename",
        )
        _fsync_directory(self.directory)
        crash.maybe_crash(f"{tag}:post-commit")
        self._prune()

        registry = obs.get_registry()
        registry.counter("checkpoint.saves").add(1)
        registry.counter("checkpoint.bytes_written").add(
            len(payload) + attachment_bytes
        )
        registry.gauge("checkpoint.latest_generation").set(float(generation))
        registry.histogram("checkpoint.save_seconds").observe(
            time.perf_counter() - started
        )
        registry.histogram("checkpoint.payload_bytes").observe(len(payload))
        return manifest

    def _prune(self) -> None:
        """Drop generations beyond ``keep``, manifest first.

        Deleting the manifest before the data files means a crash mid-prune
        can only ever leave orphaned *data* files (invisible to the loader),
        never a manifest whose files are gone — that would burn a fallback
        hop for nothing.
        """
        generations = self.generations()
        doomed = generations[: -self.keep] if len(generations) > self.keep else []
        for generation in doomed:
            stem = _generation_stem(generation)
            try:
                manifest = checkpoint_manifest_from_bytes(
                    self._read(stem + _MANIFEST_SUFFIX)
                )
                data_files = [manifest["payload"]["file"]] + [
                    entry["file"] for entry in manifest["attachments"]
                ]
            except (OSError, SketchFormatError):
                data_files = [stem + _PAYLOAD_SUFFIX]
            for name in [stem + _MANIFEST_SUFFIX, *data_files]:
                try:
                    os.unlink(self._path(name))
                except OSError:  # pragma: no cover - already gone
                    pass
            obs.get_registry().counter("checkpoint.pruned").add(1)

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #

    def _read(self, name: str) -> bytes:
        with open(self._path(name), "rb") as handle:
            return handle.read()

    def _verified_file(self, entry: dict, context: str) -> bytes:
        try:
            data = self._read(entry["file"])
        except OSError as error:
            raise SketchFormatError(f"{context} unreadable: {error}") from None
        if len(data) != entry["bytes"]:
            raise SketchFormatError(
                f"{context} is {len(data)} bytes, manifest says {entry['bytes']}"
            )
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry["sha256"]:
            raise SketchFormatError(
                f"{context} checksum mismatch: {digest} != {entry['sha256']}"
            )
        return data

    def _load_generation(
        self, generation: int, template: ImplicationCountEstimator | None
    ) -> RestoredCheckpoint:
        stem = _generation_stem(generation)
        try:
            manifest_bytes = self._read(stem + _MANIFEST_SUFFIX)
        except OSError as error:
            raise SketchFormatError(f"manifest unreadable: {error}") from None
        manifest = checkpoint_manifest_from_bytes(manifest_bytes)
        if manifest["generation"] != generation:
            raise SketchFormatError(
                f"manifest {stem} claims generation {manifest['generation']}"
            )
        payload = self._verified_file(manifest["payload"], "checkpoint payload")
        estimator = ImplicationCountEstimator.from_bytes(payload)
        digest = estimator_state_digest(estimator)
        if digest != manifest["state_digest"]:
            raise SketchFormatError(
                f"state digest mismatch: decoded {digest}, "
                f"manifest recorded {manifest['state_digest']}"
            )
        if template is not None and not template.is_compatible(estimator):
            raise SketchFormatError(
                f"checkpointed estimator ({estimator.num_bitmaps} bitmaps x "
                f"{estimator.length} cells, fringe {estimator.fringe_size}) is "
                f"incompatible with the resume template "
                f"({template.num_bitmaps} x {template.length}, "
                f"fringe {template.fringe_size})"
            )
        attachments = {
            entry["name"]: self._verified_file(
                entry, f"checkpoint attachment {entry['name']!r}"
            )
            for entry in manifest["attachments"]
        }
        return RestoredCheckpoint(
            generation=generation,
            cursor=manifest["cursor"],
            estimator=estimator,
            manifest=manifest,
            attachments=attachments,
        )

    def load_latest(
        self, template: ImplicationCountEstimator | None = None
    ) -> RestoredCheckpoint | None:
        """Newest generation that validates end-to-end, or ``None``.

        Walks generations newest-first; a torn or corrupt generation is
        skipped (reason recorded in :attr:`last_skipped`, counted as
        ``recovery.fallbacks``) and the previous one is tried.  ``None``
        means nothing restorable exists — an empty directory, or every
        generation invalid — and the caller starts from tuple zero, which
        is always *correct*, just slower.  With ``template`` given, a
        geometry-incompatible snapshot is also treated as invalid.
        """
        self.last_skipped = []
        registry = obs.get_registry()
        for generation in reversed(self.generations()):
            try:
                restored = self._load_generation(generation, template)
            except SketchFormatError as error:
                self.last_skipped.append((generation, str(error)))
                registry.counter("recovery.fallbacks").add(1)
                continue
            restored.skipped = list(self.last_skipped)
            registry.counter("recovery.restores").add(1)
            registry.gauge("recovery.restored_generation").set(float(generation))
            return restored
        return None

    def __repr__(self) -> str:
        generations = self.generations()
        return (
            f"CheckpointManager({self.directory!r}, keep={self.keep}, "
            f"generations={generations})"
        )
