"""Durable checkpoint/recovery subsystem (repro.recovery)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.serialize import (
    CHECKPOINT_VERSION,
    SketchFormatError,
    checkpoint_manifest_from_bytes,
    checkpoint_manifest_to_bytes,
    estimator_state_digest,
)
from repro.distributed.coordinator import Coordinator
from repro.kernels import available_backends
from repro.observability import metrics as obs
from repro.recovery import (
    CheckpointManager,
    RunConfig,
    ingest_checkpointed,
    run_checkpointed,
)
from repro.recovery.checkpoint import RESIDENT_STATE
from repro.recovery.cli import main as recovery_cli_main
from repro.verify.streams import generate_stream


def make_estimator(seed: int = 0, tuples: int = 200) -> ImplicationCountEstimator:
    estimator = ImplicationCountEstimator(
        ImplicationConditions(min_support=2), num_bitmaps=8, seed=seed
    )
    lhs, rhs = generate_stream("skewed", seed=seed, size=tuples)
    estimator.update_batch(lhs, rhs)
    return estimator


def corrupt_file(path: str, offset_fraction: float = 0.5) -> None:
    with open(path, "r+b") as handle:
        blob = bytearray(handle.read())
        blob[int(len(blob) * offset_fraction) % len(blob)] ^= 0xFF
        handle.seek(0)
        handle.write(blob)


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        estimator = make_estimator()
        manifest = manager.save(estimator, cursor=200, epoch={"chunk_index": 3})
        assert manifest["generation"] == 0
        assert manifest["cursor"] == 200
        assert manifest["state_digest"] == estimator_state_digest(estimator)
        restored = manager.load_latest()
        assert restored is not None
        assert restored.generation == 0
        assert restored.cursor == 200
        assert restored.manifest["epoch"] == {"chunk_index": 3}
        assert estimator_state_digest(restored.estimator) == estimator_state_digest(
            estimator
        )
        assert restored.skipped == []

    def test_generations_increment_and_prune_to_keep(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt", keep=2)
        estimator = make_estimator()
        for cursor in (10, 20, 30, 40):
            manager.save(estimator, cursor=cursor)
        assert manager.generations() == [2, 3]
        # Pruned generations' files are really gone.
        names = set(os.listdir(manager.directory))
        assert "ckpt-000000.payload" not in names
        assert "ckpt-000000.manifest.json" not in names
        restored = manager.load_latest()
        assert restored.generation == 3
        assert restored.cursor == 40

    def test_keep_below_two_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(tmp_path / "ckpt", keep=1)

    def test_empty_directory_loads_none(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        assert manager.load_latest() is None
        assert manager.generations() == []
        assert manager.last_skipped == []

    def test_temp_files_are_invisible(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        estimator = make_estimator()
        manager.save(estimator, cursor=5)
        # Simulate a kill mid-write of the next generation: stray temps.
        for name in (".ckpt-000001.payload.tmp", ".ckpt-000001.manifest.json.tmp"):
            (tmp_path / "ckpt" / name).write_bytes(b"torn garbage")
        assert manager.generations() == [0]
        assert manager.load_latest().generation == 0

    def test_corrupt_payload_falls_back_a_generation(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        first = make_estimator(seed=1)
        second = make_estimator(seed=1, tuples=400)
        manager.save(first, cursor=200)
        manager.save(second, cursor=400)
        corrupt_file(str(tmp_path / "ckpt" / "ckpt-000001.payload"))
        obs.reset_registry()
        registry = obs.get_registry()
        restored = manager.load_latest()
        assert restored.generation == 0
        assert restored.cursor == 200
        assert estimator_state_digest(restored.estimator) == estimator_state_digest(
            first
        )
        assert len(restored.skipped) == 1
        assert restored.skipped[0][0] == 1
        assert "checksum mismatch" in restored.skipped[0][1]
        assert registry.counter("recovery.fallbacks").value == 1

    def test_missing_payload_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(make_estimator(), cursor=100)
        manager.save(make_estimator(tuples=300), cursor=300)
        os.unlink(tmp_path / "ckpt" / "ckpt-000001.payload")
        restored = manager.load_latest()
        assert restored.generation == 0
        assert "unreadable" in restored.skipped[0][1]

    def test_digest_mismatch_in_manifest_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(make_estimator(), cursor=100)
        manager.save(make_estimator(tuples=300), cursor=300)
        manifest_path = tmp_path / "ckpt" / "ckpt-000001.manifest.json"
        manifest = json.loads(manifest_path.read_bytes())
        manifest["state_digest"] = "0" * 64
        # Keep the manifest itself internally valid: only the recorded
        # logical digest lies, which load-time recomputation must catch.
        manifest_path.write_bytes(checkpoint_manifest_to_bytes(manifest))
        restored = manager.load_latest()
        assert restored.generation == 0
        assert "state digest mismatch" in restored.skipped[0][1]

    def test_all_generations_corrupt_loads_none(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(make_estimator(), cursor=100)
        corrupt_file(str(tmp_path / "ckpt" / "ckpt-000000.payload"))
        assert manager.load_latest() is None
        assert len(manager.last_skipped) == 1

    def test_incompatible_template_is_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(make_estimator(), cursor=100)
        other_geometry = ImplicationCountEstimator(
            ImplicationConditions(min_support=2), num_bitmaps=4, seed=0
        )
        assert manager.load_latest(template=other_geometry) is None
        assert "incompatible" in manager.last_skipped[0][1]

    def test_attachments_round_trip_and_are_verified(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        estimator = make_estimator()
        blobs = {"node-a": b"alpha" * 100, "node-b": b"beta" * 50}
        manager.save(estimator, cursor=10, attachments=blobs)
        restored = manager.load_latest()
        assert restored.attachments == blobs
        manager.save(estimator, cursor=20, attachments=blobs)
        corrupt_file(str(tmp_path / "ckpt" / "ckpt-000001.att-000"))
        restored = manager.load_latest()
        assert restored.generation == 0
        assert "attachment" in restored.skipped[0][1]


class TestManifestFormat:
    def manifest_bytes(self, tmp_path) -> bytes:
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(make_estimator(), cursor=100)
        return (tmp_path / "ckpt" / "ckpt-000000.manifest.json").read_bytes()

    def test_round_trip_is_stable(self, tmp_path):
        data = self.manifest_bytes(tmp_path)
        manifest = checkpoint_manifest_from_bytes(data)
        assert checkpoint_manifest_to_bytes(manifest) == data
        assert manifest["version"] == CHECKPOINT_VERSION

    def test_unknown_version_raises_format_error(self, tmp_path):
        manifest = checkpoint_manifest_from_bytes(self.manifest_bytes(tmp_path))
        manifest["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(SketchFormatError, match="unsupported checkpoint"):
            checkpoint_manifest_from_bytes(checkpoint_manifest_to_bytes(manifest))

    def test_version_skew_on_disk_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(make_estimator(), cursor=100)
        manager.save(make_estimator(tuples=300), cursor=300)
        manifest_path = tmp_path / "ckpt" / "ckpt-000001.manifest.json"
        manifest = json.loads(manifest_path.read_bytes())
        manifest["version"] = 99
        manifest_path.write_bytes(checkpoint_manifest_to_bytes(manifest))
        restored = manager.load_latest()
        assert restored.generation == 0
        assert "unsupported checkpoint manifest version" in restored.skipped[0][1]

    def test_wrong_format_and_garbage_raise_format_error(self, tmp_path):
        with pytest.raises(SketchFormatError, match="not a checkpoint manifest"):
            checkpoint_manifest_from_bytes(b'{"format": "something-else"}')
        with pytest.raises(SketchFormatError, match="corrupt checkpoint manifest"):
            checkpoint_manifest_from_bytes(b"\xff\x00 not json")
        with pytest.raises(SketchFormatError):
            checkpoint_manifest_from_bytes(b'["a", "list"]')

    def test_missing_and_malformed_fields_raise_format_error(self, tmp_path):
        manifest = checkpoint_manifest_from_bytes(self.manifest_bytes(tmp_path))
        for mutate in (
            lambda m: m.pop("cursor"),
            lambda m: m.pop("state_digest"),
            lambda m: m.pop("payload"),
            lambda m: m.__setitem__("cursor", -1),
            lambda m: m.__setitem__("state_digest", "not-hex"),
            lambda m: m["payload"].__setitem__("file", "../escape"),
            lambda m: m["payload"].__setitem__("sha256", "ff"),
            lambda m: m.__setitem__("geometry", []),
        ):
            broken = json.loads(json.dumps(manifest))
            mutate(broken)
            with pytest.raises(SketchFormatError):
                checkpoint_manifest_from_bytes(checkpoint_manifest_to_bytes(broken))


class TestResumableIngest:
    def run_config(self, **overrides) -> dict:
        kwargs = dict(chunk_size=100, every=1)
        kwargs.update(overrides)
        return kwargs

    def make_parts(self, seed: int = 5, size: int = 500):
        lhs, rhs = generate_stream("bursty", seed=seed, size=size)
        template = ImplicationCountEstimator(
            ImplicationConditions(min_support=2), num_bitmaps=8, seed=seed
        )
        return lhs, rhs, template

    @staticmethod
    def single_pass(template, lhs, rhs) -> str:
        single = template.spawn_sibling()
        single.update_batch(lhs, rhs)
        return estimator_state_digest(single)

    def test_empty_checkpoint_dir_resume_runs_fresh(self, tmp_path):
        lhs, rhs, template = self.make_parts()
        manager = CheckpointManager(tmp_path / "ckpt")
        estimator = ingest_checkpointed(
            template, lhs, rhs, manager=manager, **self.run_config()
        )
        # One resident estimator advanced chunk by chunk is the single pass.
        assert estimator_state_digest(estimator) == self.single_pass(
            template, lhs, rhs
        )
        assert template.tuples_seen == 0  # the template is never mutated
        assert manager.generations() != []
        assert manager.load_latest().cursor == len(lhs)

    def test_resume_equals_uninterrupted_bit_for_bit(self, tmp_path):
        lhs, rhs, template = self.make_parts()
        full = CheckpointManager(tmp_path / "full")
        uninterrupted = ingest_checkpointed(
            template, lhs, rhs, manager=full, **self.run_config()
        )
        part = CheckpointManager(tmp_path / "part")
        _, _, template2 = self.make_parts()
        ingest_checkpointed(
            template2, lhs[:300], rhs[:300], manager=part, **self.run_config()
        )
        _, _, template3 = self.make_parts()
        obs.reset_registry()
        registry = obs.get_registry()
        resumed = ingest_checkpointed(
            template3, lhs, rhs, manager=part, **self.run_config()
        )
        assert estimator_state_digest(resumed) == estimator_state_digest(
            uninterrupted
        )
        assert registry.counter("recovery.resumed_ingests").value == 1
        assert registry.counter("recovery.tuples_skipped").value == 300

    @pytest.mark.parametrize("chunk_size", [7, 64, 250, 1000])
    def test_resume_under_another_chunk_size_matches_single_pass(
        self, tmp_path, chunk_size
    ):
        """Chunk size is cadence: a checkpoint resumes under any
        ``chunk_size`` (an off-grid cursor included) and lands on the
        single pass, on a sticky theta > 0 profile too."""
        lhs, rhs = generate_stream("float_trigger_dense", seed=2, size=900)
        template = ImplicationCountEstimator(
            ImplicationConditions(min_support=2, min_top_confidence=0.6),
            num_bitmaps=8,
            seed=2,
        )
        manager = CheckpointManager(tmp_path / "ckpt")
        ingest_checkpointed(
            template, lhs[:300], rhs[:300], manager=manager, chunk_size=100
        )
        resumed = ingest_checkpointed(
            template, lhs, rhs, manager=manager, chunk_size=chunk_size
        )
        assert estimator_state_digest(resumed) == self.single_pass(
            template, lhs, rhs
        )
        assert manager.load_latest().cursor == len(lhs)

    def test_resume_with_different_shape_refused(self, tmp_path):
        """A checkpoint of another kind of run (a serving checkpoint) is
        refused; chunk size no longer belongs to the shape."""
        lhs, rhs, template = self.make_parts()
        manager = CheckpointManager(tmp_path / "ckpt")
        prefix = ingest_checkpointed(
            template, lhs[:200], rhs[:200], manager=manager, **self.run_config()
        )
        shape = manager.load_latest().manifest["extra"]
        assert shape == {"kind": "checkpointed", "state": RESIDENT_STATE}
        other = CheckpointManager(tmp_path / "other")
        other.save(prefix, cursor=200, extra={**shape, "kind": "serving"})
        with pytest.raises(ValueError, match="cannot resume"):
            ingest_checkpointed(
                template, lhs, rhs, manager=other, **self.run_config()
            )

    def test_checkpoint_from_removed_batch_path_refused(self, tmp_path):
        """Manifests written by earlier ingest paths — the per-batch merge
        chain (``chunk_size``/``workers`` in the shape) and the removed
        pair-aggregation/grouped-dispatch path before it — lack the
        resident-state marker and are refused by name."""
        lhs, rhs, template = self.make_parts()
        prefix = ingest_checkpointed(
            template,
            lhs[:300],
            rhs[:300],
            manager=CheckpointManager(tmp_path / "resident"),
            **self.run_config(),
        )
        merge_chain = {
            "kind": "sharded-checkpointed",
            "chunk_size": 100,
            "workers": 1,
            "aggregate": False,
            "grouped": False,
        }
        for name, extra in (
            ("chain", merge_chain),
            ("grouped", {**merge_chain, "aggregate": True, "grouped": True}),
        ):
            old = CheckpointManager(tmp_path / name)
            old.save(prefix, cursor=300, epoch={"chunk_index": 2}, extra=extra)
            with pytest.raises(ValueError, match="per-batch merge chain"):
                ingest_checkpointed(
                    template, lhs, rhs, manager=old, **self.run_config()
                )

    @pytest.mark.skipif(
        "compiled" not in available_backends(),
        reason="needs a second kernel backend to tell them apart",
    )
    def test_restore_keeps_template_kernel_backend(self, tmp_path, monkeypatch):
        """Decoding resolves the backend from the environment (auto picks
        compiled here); the resumed estimator must keep the template's."""
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        lhs, rhs, _ = self.make_parts()
        template = ImplicationCountEstimator(
            ImplicationConditions(min_support=2), num_bitmaps=8, kernels="python"
        )
        manager = CheckpointManager(tmp_path / "ckpt")
        ingest_checkpointed(
            template, lhs[:200], rhs[:200], manager=manager, **self.run_config()
        )
        assert manager.load_latest().estimator.kernels.name == "compiled"
        resumed = ingest_checkpointed(
            template, lhs, rhs, manager=manager, **self.run_config()
        )
        assert resumed.kernels.name == "python"

    def test_checkpoint_cursor_beyond_stream_refused(self, tmp_path):
        lhs, rhs, template = self.make_parts()
        manager = CheckpointManager(tmp_path / "ckpt")
        ingest_checkpointed(template, lhs, rhs, manager=manager, **self.run_config())
        with pytest.raises(ValueError, match="beyond"):
            ingest_checkpointed(
                template, lhs[:100], rhs[:100], manager=manager, **self.run_config()
            )

    def test_every_controls_checkpoint_cadence(self, tmp_path):
        lhs, rhs, template = self.make_parts()
        manager = CheckpointManager(tmp_path / "ckpt", keep=16)
        ingest_checkpointed(
            template, lhs, rhs, manager=manager, **self.run_config(every=2)
        )
        # 5 chunks, every=2 -> saves after chunks 2, 4 and the tail.
        cursors = []
        for generation in manager.generations():
            path = os.path.join(
                manager.directory, f"ckpt-{generation:06d}.manifest.json"
            )
            with open(path, "rb") as handle:
                cursors.append(checkpoint_manifest_from_bytes(handle.read())["cursor"])
        assert cursors == [200, 400, 500]

    def test_invalid_parameters_rejected(self, tmp_path):
        lhs, rhs, template = self.make_parts()
        manager = CheckpointManager(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="chunk_size"):
            ingest_checkpointed(template, lhs, rhs, manager=manager, chunk_size=0)
        with pytest.raises(ValueError, match="every"):
            ingest_checkpointed(
                template, lhs, rhs, manager=manager, chunk_size=10, every=0
            )
        with pytest.raises(ValueError, match="equal shapes"):
            ingest_checkpointed(
                template, lhs[:10], rhs[:9], manager=manager, chunk_size=10
            )

    def test_checkpoint_metrics_recorded(self, tmp_path):
        obs.reset_registry()
        registry = obs.get_registry()
        lhs, rhs, template = self.make_parts(size=300)
        manager = CheckpointManager(tmp_path / "ckpt")
        ingest_checkpointed(template, lhs, rhs, manager=manager, **self.run_config())
        assert registry.counter("checkpoint.saves").value == 3
        assert registry.counter("checkpoint.bytes_written").value > 0
        assert registry.gauge("checkpoint.latest_generation").value == 2.0
        assert registry.histogram("checkpoint.save_seconds").count == 3
        assert registry.counter("recovery.chunks_ingested").value == 3


class TestCoordinatorCheckpoint:
    def build_coordinator(self, seed: int = 2):
        template = ImplicationCountEstimator(
            ImplicationConditions(min_support=2), num_bitmaps=8, seed=seed
        )
        coordinator = Coordinator(template)
        for node in range(3):
            node_estimator = template.spawn_sibling()
            lhs, rhs = generate_stream("uniform", seed=seed + node, size=150)
            node_estimator.update_batch(lhs, rhs)
            coordinator.receive(f"node-{node}", node_estimator.to_bytes())
        coordinator.receive("evil", b"garbage")
        return template, coordinator

    def test_checkpoint_restore_round_trip(self, tmp_path):
        template, coordinator = self.build_coordinator()
        coordinator.ingest_sharded(
            *generate_stream("skewed", seed=9, size=120), workers=1
        )
        before_digest = estimator_state_digest(coordinator.merged_estimator())
        manager = CheckpointManager(tmp_path / "ckpt")
        manifest = coordinator.checkpoint(manager, cursor=420)
        assert manifest["extra"]["kind"] == "coordinator"
        fresh = Coordinator(template)
        assert fresh.restore(manager) is True
        assert estimator_state_digest(fresh.merged_estimator()) == before_digest
        assert fresh.node_count == coordinator.node_count
        assert fresh.bytes_received == coordinator.bytes_received
        assert fresh.rejected_payloads == coordinator.rejected_payloads
        assert fresh.rejection_reasons == coordinator.rejection_reasons
        # The epoch counter survives, so post-restore sharded ingests keep
        # namespacing forward instead of colliding with pre-crash shards.
        assert fresh._ingest_epoch == coordinator._ingest_epoch

    def test_restore_empty_directory_returns_false(self, tmp_path):
        template, coordinator = self.build_coordinator()
        manager = CheckpointManager(tmp_path / "ckpt")
        assert coordinator.restore(manager) is False
        assert coordinator.node_count == 3  # untouched

    def test_corrupted_node_attachment_degrades_that_node_only(self, tmp_path):
        template, coordinator = self.build_coordinator()
        manager = CheckpointManager(tmp_path / "ckpt")
        coordinator.checkpoint(manager)
        coordinator.checkpoint(manager)  # second generation to fall back to
        # Corrupt one attachment of the *latest* generation: the loader's
        # checksums catch it and recovery falls back one generation whole.
        corrupt_file(str(tmp_path / "ckpt" / "ckpt-000001.att-000"))
        fresh = Coordinator(template)
        assert fresh.restore(manager) is True
        assert fresh.node_count == 3


class TestRecoveryCli:
    def test_checkpoint_then_resume_same_digest(self, tmp_path, capsys):
        directory = str(tmp_path / "ckpt")
        argv = RunConfig(
            tuples=600, chunk_size=150, num_bitmaps=8, seed=4
        ).to_argv("checkpoint", directory)
        assert recovery_cli_main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["mode"] == "checkpoint"
        assert first["restored_generation"] is None
        resume_argv = RunConfig(
            tuples=600, chunk_size=150, num_bitmaps=8, seed=4
        ).to_argv("resume", directory)
        assert recovery_cli_main(resume_argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["mode"] == "resume"
        assert second["digest"] == first["digest"]
        assert second["restored_cursor"] == 600

    def test_checkpoint_refuses_populated_directory(self, tmp_path, capsys):
        directory = str(tmp_path / "ckpt")
        argv = RunConfig(tuples=200, chunk_size=100, num_bitmaps=8).to_argv(
            "checkpoint", directory
        )
        assert recovery_cli_main(argv) == 0
        capsys.readouterr()
        assert recovery_cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "already holds generations" in err

    def test_resume_on_empty_directory_is_a_fresh_run(self, tmp_path, capsys):
        directory = str(tmp_path / "empty")
        argv = RunConfig(tuples=200, chunk_size=100, num_bitmaps=8).to_argv(
            "resume", directory
        )
        assert recovery_cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["restored_generation"] is None
        assert report["cursor"] == 200

    def test_metrics_json_includes_checkpoint_and_retry_counters(
        self, tmp_path, capsys
    ):
        obs.reset_registry()
        directory = str(tmp_path / "ckpt")
        metrics_path = str(tmp_path / "metrics.json")
        argv = RunConfig(tuples=200, chunk_size=100, num_bitmaps=8).to_argv(
            "checkpoint", directory
        ) + ["--metrics-json", metrics_path]
        assert recovery_cli_main(argv) == 0
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        assert metrics["counters"]["checkpoint.saves"] == 2
        assert metrics["counters"]["recovery.chunks_ingested"] == 2

    def test_bad_flag_values_exit_2(self, tmp_path, capsys):
        base = ["checkpoint", "--checkpoint-dir", str(tmp_path / "x")]
        assert recovery_cli_main(base + ["--tuples", "0"]) == 2
        assert recovery_cli_main(base + ["--keep", "1"]) == 2


class TestRunConfig:
    def test_argv_round_trip_reproduces_stream_and_template(self):
        config = RunConfig(
            tuples=123, chunk_size=40, seed=9, profile="skewed", theta=0.5,
            max_multiplicity=2,
        )
        argv = config.to_argv("checkpoint", "/tmp/dir")
        assert argv[0] == "checkpoint"
        assert "--max-multiplicity" in argv
        lhs_a, _ = config.stream()
        lhs_b, _ = RunConfig(
            tuples=123, chunk_size=40, seed=9, profile="skewed", theta=0.5,
            max_multiplicity=2,
        ).stream()
        assert np.array_equal(lhs_a, lhs_b)
        assert estimator_state_digest(config.template()) == estimator_state_digest(
            config.template()
        )

    def test_run_checkpointed_reports(self, tmp_path):
        config = RunConfig(tuples=250, chunk_size=100, num_bitmaps=8)
        report = run_checkpointed(config, str(tmp_path / "ckpt"))
        assert report["chunks"] == 3
        assert report["cursor"] == 250
        assert report["generations"] == [0, 1, 2]
        assert report["skipped_generations"] == []
