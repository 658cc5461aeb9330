"""Tests for the serving layer: sources, service core, HTTP, durability.

The concurrency tests pin the headline guarantees: reads during active
ingest are internally consistent (every observed digest equals an offline
single pass over that snapshot's stream prefix — never a torn state), a
SIGTERM'd service resumes to the bit-for-bit digest of an uninterrupted
run, and ``/metrics`` never 500s under concurrent load.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.serialize import estimator_state_digest
from repro.kernels import available_backends
from repro.observability import MetricsRegistry, set_registry
from repro.recovery import CheckpointManager
from repro.recovery.checkpoint import RESIDENT_STATE
from repro.serving import (
    ArraySource,
    ImplicationService,
    ProfileSource,
    PushBacklogFull,
    PushSource,
    ServeConfig,
    make_source,
    offline_reference,
)
from repro.serving.aio import build_async_server
from repro.serving.http import build_server
from repro.serving.sources import PENDING
from repro.verify.harness import CONDITION_PROFILES
from repro.verify.streams import generate_stream

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

#: Both HTTP front-ends, for parametrized coverage — they share the
#: Router, and these tests hold them to identical observable behavior.
FRONTENDS = {"threaded": build_server, "asyncio": build_async_server}


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def small_conditions() -> ImplicationConditions:
    return ImplicationConditions(min_support=2)


def get(port: int, path: str, timeout: float = 10.0):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def post(
    port: int,
    path: str,
    body: bytes,
    content_type: str = "application/json",
    timeout: float = 10.0,
):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method="POST",
        headers={"Content-Type": content_type},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def serve_on_thread(build, service):
    """Start a front-end for ``service``; returns (server, join-less stop)."""
    server = build(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop() -> None:
        server.shutdown()
        server.server_close()

    return server, stop


class TestSources:
    def test_profile_source_is_deterministic_and_random_access(self):
        source = ProfileSource("skewed", seed=3, batch_size=100, tuples=350)
        again = ProfileSource("skewed", seed=3, batch_size=100, tuples=350)
        last = source.batch(300)
        assert len(last[0]) == 50  # short final batch
        assert source.batch(350) is None
        # Random access: the batch at tuple 200 is the same in any order.
        lhs_a, rhs_a = source.batch(200)
        lhs_b, rhs_b = again.batch(200)
        np.testing.assert_array_equal(lhs_a, lhs_b)
        np.testing.assert_array_equal(rhs_a, rhs_b)
        # A cursor inside a generated batch answers the rest of it.
        np.testing.assert_array_equal(source.batch(230)[0], lhs_a[30:])
        # Distinct batches differ (per-batch derived seeds).
        assert not np.array_equal(source.batch(0)[0], source.batch(100)[0])

    def test_profile_source_infinite_without_tuples(self):
        source = ProfileSource("uniform", batch_size=10)
        assert source.batch(10_000) is not None

    def test_array_source_slices_absolutely(self):
        lhs, rhs = generate_stream("uniform", 1, 25)
        source = ArraySource(lhs, rhs, batch_size=10)
        np.testing.assert_array_equal(source.batch(10)[0], lhs[10:20])
        np.testing.assert_array_equal(source.batch(13)[1], rhs[13:23])
        assert len(source.batch(20)[0]) == 5
        assert source.batch(25) is None

    def test_array_source_description_is_content_addressed(self):
        lhs, rhs = generate_stream("uniform", 1, 25)
        a = ArraySource(lhs, rhs, batch_size=10).describe()
        b = ArraySource(lhs, rhs + np.uint64(1), batch_size=10).describe()
        assert a != b

    def test_array_source_content_address_is_stable(self):
        # Integer columns address by their uint64 bytes, whatever their
        # integer dtype, so checkpoints written earlier still resume.
        for dtype in (np.uint64, np.int64):
            column = np.arange(5, dtype=dtype)
            assert ArraySource(column, column).describe() == {
                "kind": "array", "sha256": "2a7ad9849d3fa429", "tuples": 5
            }
        signed = np.array([-1, 3, 2**40], dtype=np.int64)
        assert ArraySource(signed, signed).describe()["sha256"] == (
            "c3e1fa7f28c5378d"
        )

    def test_array_source_hashes_its_columns_once(self, monkeypatch):
        # The service describes its source on every durable commit; an
        # anonymous source used to re-hash both whole columns each time.
        from repro.serving import sources

        constructions = []

        def counting_sha256(*args):
            constructions.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(
            sources, "hashlib", SimpleNamespace(sha256=counting_sha256)
        )
        column = np.arange(1000, dtype=np.uint64)
        source = ArraySource(column, column)
        described = [source.describe() for _ in range(3)]
        assert len(constructions) <= 1
        assert described[0] == described[1] == described[2]
        described[0]["tuples"] = -1  # callers get their own copy
        assert source.describe()["tuples"] == 1000

    def test_array_source_rejects_float_columns(self):
        # The batch entry points refuse floats; the source used to
        # truncate them to 1, 2, 3 and serve those.
        floats = np.array([1.7, 2.2, 3.9])
        with pytest.raises(TypeError):
            ArraySource(floats, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(TypeError):
            ArraySource(np.arange(3), floats)

    def test_array_source_rejects_2d_columns(self):
        # A 4x2 column used to be served as (2, 2) slices that the
        # service's update_batch then rejected mid-run.
        grid = np.arange(8, dtype=np.uint64).reshape(4, 2)
        with pytest.raises(ValueError):
            ArraySource(grid, grid)

    def test_make_source_specs(self):
        assert make_source("profile:bursty", tuples=100).describe()["kind"] == "profile"
        dataset = make_source("dataset-one:cardinality=300,implied=100")
        assert dataset.describe()["cardinality"] == 300
        with pytest.raises(ValueError):
            make_source("profile:nope")
        with pytest.raises(ValueError):
            make_source("csv:/tmp/x")
        with pytest.raises(ValueError):
            make_source("dataset-one:bogus=1")
        with pytest.raises(ValueError):
            make_source("dataset-one:cardinality=abc")

    def test_make_source_push_specs(self):
        source = make_source("push:capacity=3", batch_size=10)
        assert isinstance(source, PushSource)
        assert source.capacity_tuples == 30
        # Batch size is cadence for a push stream, not data identity.
        assert make_source("push").describe() == {"kind": "push"}
        with pytest.raises(ValueError, match="--tuples"):
            make_source("push", tuples=100)
        with pytest.raises(ValueError, match="unknown push"):
            make_source("push:bogus=1")


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


class TestPushSource:
    def test_rechunks_onto_absolute_batch_grid(self):
        source = PushSource(batch_size=4, capacity_batches=8)
        # Awkward chunk sizes: 1, 6, 1 — batches must still be 4/4/tail.
        source.push(_column([0]), _column([100]))
        source.push(_column([1, 2, 3, 4, 5, 6]), _column([101, 102, 103, 104, 105, 106]))
        source.push(_column([7]), _column([107]))
        assert source.batch(0)[0].tolist() == [0, 1, 2, 3]
        assert source.batch(4)[1].tolist() == [104, 105, 106, 107]
        assert source.batch(8) is PENDING  # live stream, nothing buffered
        source.close()
        assert source.batch(8) is None

    def test_trailing_partial_batch_drains_after_close(self):
        source = PushSource(batch_size=4)
        source.push(_column([1, 2, 3, 4, 5, 6]), _column([1, 2, 3, 4, 5, 6]))
        assert len(source.batch(0)[0]) == 4
        source.close()
        assert source.batch(4)[0].tolist() == [5, 6]
        assert source.batch(6) is None

    def test_backpressure_is_atomic(self):
        source = PushSource(batch_size=4, capacity_batches=1)
        source.push(_column([1, 2, 3]), _column([1, 2, 3]))
        with pytest.raises(PushBacklogFull) as excinfo:
            source.push(_column([4, 5]), _column([4, 5]))
        assert excinfo.value.pending_tuples == 3
        assert excinfo.value.capacity_tuples == 4
        assert excinfo.value.retry_after >= 1
        # Atomic: the rejected chunk buffered nothing.
        assert source.pending_tuples == 3
        source.push(_column([4]), _column([4]))  # exactly fits
        assert source.batch(0)[0].tolist() == [1, 2, 3, 4]

    def test_single_consumer_monotone(self):
        source = PushSource(batch_size=2)
        source.push(_column([1, 2, 3, 4]), _column([1, 2, 3, 4]))
        source.batch(0)
        with pytest.raises(ValueError, match="monotone"):
            source.batch(0)  # re-reading a consumed batch
        with pytest.raises(ValueError, match="monotone"):
            source.batch(3)  # skipping ahead
        assert source.batch(2)[0].tolist() == [3, 4]

    def test_push_validation(self):
        source = PushSource(batch_size=4)
        with pytest.raises(ValueError, match="equal shapes"):
            source.push(_column([1, 2]), _column([1]))
        grid = np.arange(8, dtype=np.uint64).reshape(4, 2)
        with pytest.raises(ValueError, match="1-D"):
            source.push(grid, grid)
        source.close()
        with pytest.raises(ValueError, match="close"):
            source.push(_column([1]), _column([1]))

    @pytest.mark.parametrize(
        "chunk",
        [np.array([1.7, 2.2]), np.array([True, False])],
        ids=["float", "bool"],
    )
    def test_push_rejects_float_and_bool_chunks(self, chunk):
        # update_batch and ArraySource refuse these; push used to truncate
        # floats to [1, 2] and bools to [1, 0] and serve them.
        source = PushSource(batch_size=2)
        source.resume_at(3)
        source.push(_column([5, 6]), _column([7, 8]))  # one skip left
        pending, skipped = source.pending_tuples, source.skipped_tuples
        with pytest.raises(TypeError):
            source.push(chunk, _column([3, 4]))
        with pytest.raises(TypeError):
            source.push(_column([3, 4]), chunk)
        assert source.pending_tuples == pending
        assert source.skipped_tuples == skipped

    def test_wait_batch_wakes_on_stop_event(self):
        source = PushSource(batch_size=4)
        stop = threading.Event()
        stop.set()
        assert source.wait_batch(0, stop) is PENDING

    def test_wait_batch_blocks_until_push(self):
        source = PushSource(batch_size=2)
        got = []

        def consumer() -> None:
            got.append(source.wait_batch(0, threading.Event()))

        thread = threading.Thread(target=consumer)
        thread.start()
        source.push(_column([8, 9]), _column([8, 9]))
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert got[0][0].tolist() == [8, 9]

    def test_resume_swallows_committed_prefix(self):
        source = PushSource(batch_size=4)
        source.resume_at(8)
        source.push(_column(range(10)), _column(range(10)))
        assert source.skipped_tuples == 8
        assert source.pushed_tuples == 2
        source.close()
        assert source.batch(8)[0].tolist() == [8, 9]

    def test_resume_off_grid_cursor_hands_out_full_batches(self):
        """A cursor is any tuple count: a checkpoint written at another
        batch size resumes mid-grid and the source carves full batches
        from there."""
        source = PushSource(batch_size=4)
        source.resume_at(6)
        source.push(_column(range(12)), _column(range(12)))
        assert source.batch(6)[0].tolist() == [6, 7, 8, 9]
        source.close()
        assert source.batch(10)[0].tolist() == [10, 11]
        assert source.batch(12) is None

    def test_resume_refused_on_a_source_that_already_served(self):
        for resume in ("resume_at", "resume_drained"):
            used = PushSource(batch_size=4)
            used.push(_column([1]), _column([1]))
            with pytest.raises(ValueError, match="already served"):
                getattr(used, resume)(4)

    def test_rejected_push_leaves_resume_skip_intact(self):
        """A 429'd push must be atomic *including* the resume-skip state —
        the regression consumed the skip prefix before the capacity check,
        so the client's subsequent (split) retries re-buffered tuples the
        interrupted run had already ingested."""
        source = PushSource(batch_size=4, capacity_batches=1)
        source.resume_at(8)
        # One chunk straddling the resume boundary, too big to buffer:
        # 8 skipped + 5 kept > the 4-tuple capacity.
        with pytest.raises(PushBacklogFull):
            source.push(_column(range(13)), _column(range(13)))
        assert source.skipped_tuples == 0  # nothing consumed by the reject
        assert source.pending_tuples == 0
        # The client splits the same range into smaller chunks: the skip
        # prefix must still swallow exactly the committed 8 tuples.
        assert source.push(_column(range(8)), _column(range(8))) == 0
        assert source.push(_column(range(8, 12)), _column(range(8, 12))) == 4
        assert source.skipped_tuples == 8
        assert source.batch(8)[0].tolist() == [8, 9, 10, 11]

    def test_resume_drained_restores_closed_tail(self):
        source = PushSource(batch_size=4)
        source.resume_drained(6)  # the closed stream ended at tuple 6
        assert source.closed
        assert source.end_of_stream
        assert source.batch(6) is None  # serves as drained, no replay
        with pytest.raises(ValueError, match="close"):
            source.push(_column([1]), _column([1]))

    def test_end_of_stream_only_after_close_and_drain(self):
        source = PushSource(batch_size=4)
        source.push(_column(range(6)), _column(range(6)))
        assert not source.end_of_stream
        source.close()
        assert not source.end_of_stream  # two batches still buffered
        source.batch(0)
        source.batch(4)  # the short tail
        assert source.end_of_stream


class TestServiceCore:
    def test_unknown_profile_selection_rejected(self, registry):
        with pytest.raises(ValueError):
            ImplicationService(ServeConfig(profiles=("no-such-profile",)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(publish_every=0)

    def test_initial_publish_before_first_batch(self, registry):
        service = ImplicationService(
            ServeConfig(source="profile:uniform", tuples=50, batch_size=10,
                        num_bitmaps=8),
            profiles={"case": small_conditions()},
        )
        snapshot = service.store.get("case")
        assert snapshot is not None and snapshot.cursor == 0
        assert snapshot.stats["tuples"] == 0

    def test_every_publish_matches_offline_reference(self, registry):
        lhs, rhs = generate_stream("skewed", 7, 900)
        service = ImplicationService(
            ServeConfig(batch_size=200, num_bitmaps=8, seed=2),
            source=ArraySource(lhs, rhs, batch_size=200),
            profiles={"case": small_conditions()},
        )
        while service.ingest_step():
            snapshot = service.store.get("case")
            reference = offline_reference(
                service.templates["case"],
                lhs[: snapshot.cursor],
                rhs[: snapshot.cursor],
                batch_size=200,
            )
            assert snapshot.digest == estimator_state_digest(reference)
        assert service.store.status == "drained"
        assert service.cursor == 900

    def test_drained_uniform_stream_matches_single_pass(self, registry):
        """The served state is one plain single pass: on this stream the
        per-batch merge chain drained to a different digest."""
        lhs, rhs = generate_stream("uniform", seed=0, size=2048)
        service = ImplicationService(
            ServeConfig(batch_size=256, num_bitmaps=4, seed=0),
            source=ArraySource(lhs, rhs, batch_size=256),
            profiles={"support-only": dict(CONDITION_PROFILES)["support-only"]},
        )
        while service.ingest_step():
            pass
        single = service.templates["support-only"].spawn_sibling()
        single.update_batch(lhs, rhs)
        snapshot = service.store.get("support-only")
        assert snapshot.cursor == 2048
        assert snapshot.digest == estimator_state_digest(single)

    def test_publish_every_batches_cadence(self, registry):
        lhs, rhs = generate_stream("uniform", 3, 500)
        service = ImplicationService(
            ServeConfig(batch_size=100, publish_every=3, num_bitmaps=8),
            source=ArraySource(lhs, rhs, batch_size=100),
            profiles={"case": small_conditions()},
        )
        service.ingest_step()
        service.ingest_step()
        assert service.store.get("case").cursor == 0  # not yet published
        service.ingest_step()
        assert service.store.get("case").cursor == 300
        while service.ingest_step():
            pass
        # Drain always commits the tail even mid-cadence.
        assert service.store.get("case").cursor == 500

    def test_run_honours_stop_event(self, registry):
        service = ImplicationService(
            ServeConfig(source="profile:uniform", batch_size=50, num_bitmaps=8),
            profiles={"case": small_conditions()},
        )
        stop = threading.Event()
        thread = threading.Thread(target=service.run, args=(stop,))
        thread.start()
        deadline = time.monotonic() + 30.0
        while service.cursor == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert service.store.status == "stopped"
        # The boundary commit covers everything ingested.
        assert service.store.get("case").cursor == service.cursor > 0


class TestDurability:
    def test_stop_resume_matches_uninterrupted_digests(self, registry, tmp_path):
        config = ServeConfig(
            source="profile:bursty", tuples=1200, batch_size=150,
            num_bitmaps=8, seed=4,
        )
        uninterrupted = ImplicationService(config)
        while uninterrupted.ingest_step():
            pass
        want = {
            name: snapshot.digest
            for name, snapshot in uninterrupted.store.all().items()
        }

        interrupted = ImplicationService(config, checkpoint_dir=str(tmp_path))
        for _ in range(4):
            interrupted.ingest_step()
        del interrupted

        resumed = ImplicationService(config, checkpoint_dir=str(tmp_path))
        assert resumed.restored_generation is not None
        assert resumed.cursor == 600
        while resumed.ingest_step():
            pass
        got = {
            name: snapshot.digest for name, snapshot in resumed.store.all().items()
        }
        assert got == want

    def test_resume_refuses_checkpoint_without_exact_batch_path(
        self, registry, tmp_path
    ):
        """Serving checkpoints without the resident-state marker are
        refused by name: those written before batch ingest became exact
        replay (no ``batch_path``) and those the per-batch merge chain
        wrote (``batch_path: exact``) — a merged state no single pass
        continues."""
        config = ServeConfig(
            source="profile:skewed", tuples=600, batch_size=150, num_bitmaps=8
        )
        first = ImplicationService(config, checkpoint_dir=str(tmp_path / "new"))
        first.ingest_step()
        restored = first.manager.load_latest()
        assert restored.manifest["extra"]["state"] == RESIDENT_STATE
        old_shape = {
            key: value
            for key, value in restored.manifest["extra"].items()
            if key != "state"
        }
        old_shape.update(batch_size=150, workers=1)
        for name, extra in (
            ("old", old_shape),
            ("chain", {**old_shape, "batch_path": "exact"}),
        ):
            CheckpointManager(str(tmp_path / name)).save(
                restored.estimator,
                cursor=restored.cursor,
                epoch=restored.manifest["epoch"],
                extra=extra,
                attachments=restored.attachments,
            )
            with pytest.raises(ValueError, match="per-batch merge chain"):
                ImplicationService(config, checkpoint_dir=str(tmp_path / name))

    def test_resume_under_another_batch_size_matches_single_pass(
        self, registry, tmp_path
    ):
        """Batch size is cadence: an array-source checkpoint resumes under
        a different ``batch_size`` and drains to the single pass."""
        lhs, rhs = generate_stream("float_trigger_dense", 3, 700)
        profiles = {
            "case": ImplicationConditions(min_support=2, min_top_confidence=0.6)
        }

        def service(batch_size: int) -> ImplicationService:
            return ImplicationService(
                ServeConfig(batch_size=batch_size, num_bitmaps=8, seed=3),
                source=ArraySource(lhs, rhs, batch_size=batch_size),
                profiles=profiles,
                checkpoint_dir=str(tmp_path),
            )

        first = service(150)
        first.ingest_step()
        first.ingest_step()
        resumed = service(64)
        assert resumed.cursor == 300
        while resumed.ingest_step():
            pass
        reference = offline_reference(resumed.templates["case"], lhs, rhs)
        assert resumed.store.get("case").digest == estimator_state_digest(
            reference
        )

    def test_push_resume_under_another_batch_size_matches_single_pass(
        self, registry, tmp_path
    ):
        lhs, rhs = generate_stream("skewed", 8, 600)
        profiles = {"case": small_conditions()}

        def service(batch_size: int) -> ImplicationService:
            return ImplicationService(
                ServeConfig(
                    source="push:capacity=8", batch_size=batch_size,
                    num_bitmaps=8,
                ),
                profiles=profiles,
                checkpoint_dir=str(tmp_path),
            )

        first = service(64)
        first.source.push(lhs[:256], rhs[:256])
        while first.source.pending_tuples:
            first.ingest_step()
        assert first.cursor == 256
        resumed = service(100)
        assert resumed.cursor == 256
        resumed.source.push(lhs, rhs)  # the client replays from the start
        resumed.source.close()
        while resumed.ingest_step():
            pass
        assert resumed.source.skipped_tuples == 256
        reference = offline_reference(resumed.templates["case"], lhs, rhs)
        assert resumed.store.get("case").digest == estimator_state_digest(
            reference
        )

    @pytest.mark.skipif(
        "compiled" not in available_backends(),
        reason="needs a second kernel backend to tell them apart",
    )
    def test_restore_keeps_configured_kernel_backend(
        self, registry, tmp_path, monkeypatch
    ):
        """Decoding resolves the backend from the environment (auto picks
        compiled here); restored estimators keep ingesting, so they must
        take the configured one instead."""
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        config = ServeConfig(
            source="profile:skewed", tuples=600, batch_size=150,
            num_bitmaps=8, kernels="python", window=200,
            profiles=("support-only", "noisy-confidence"),
        )
        first = ImplicationService(config, checkpoint_dir=str(tmp_path))
        first.ingest_step()
        resumed = ImplicationService(config, checkpoint_dir=str(tmp_path))
        assert resumed.cursor == 150
        for estimator in resumed.estimators.values():
            assert estimator.kernels.name == "python"
        for windowed in resumed.windowed.values():
            assert windowed._panes
            assert {pane.kernels.name for _, pane in windowed._panes} == {
                "python"
            }

    def test_resume_rejects_mismatched_shape(self, registry, tmp_path):
        config = ServeConfig(
            source="profile:uniform", tuples=400, batch_size=100, num_bitmaps=8
        )
        service = ImplicationService(config, checkpoint_dir=str(tmp_path))
        service.ingest_step()
        with pytest.raises(ValueError, match="shaped"):
            ImplicationService(
                ServeConfig(
                    source="profile:uniform", tuples=400, batch_size=50,
                    num_bitmaps=8,
                ),
                checkpoint_dir=str(tmp_path),
            )

    def test_push_restart_after_partial_final_batch(self, registry, tmp_path):
        """Restarting a push service whose stream ended on a short final
        batch must serve the checkpoint as drained — the regression was a
        ValueError from resume_at's grid check at construction, leaving the
        service permanently unable to start against its own checkpoints."""
        config = ServeConfig(
            source="push:capacity=4", batch_size=4, num_bitmaps=8
        )
        lhs, rhs = generate_stream("uniform", 21, 6)  # 4 + a 2-tuple tail
        service = ImplicationService(
            config, profiles={"case": small_conditions()},
            checkpoint_dir=str(tmp_path),
        )
        service.source.push(lhs, rhs)
        service.source.close()
        while service.ingest_step():
            pass
        assert service.cursor == 6
        want = service.store.get("case").digest
        del service

        resumed = ImplicationService(
            config, profiles={"case": small_conditions()},
            checkpoint_dir=str(tmp_path),
        )
        assert resumed.restored_generation is not None
        assert resumed.cursor == 6
        assert resumed.store.status == "drained"
        assert resumed.store.get("case").digest == want
        # The stream is over: a run drains immediately, no replay expected.
        assert resumed.ingest_step() is False
        assert resumed.store.get("case").digest == want

    def test_push_restart_after_on_grid_drain(self, registry, tmp_path):
        """Same story when the stream happened to end exactly on the batch
        grid: the recorded end-of-stream marker (not the cursor's
        off-grid-ness) is what flips the restore to drained."""
        config = ServeConfig(
            source="push:capacity=4", batch_size=4, num_bitmaps=8
        )
        lhs, rhs = generate_stream("uniform", 22, 8)
        service = ImplicationService(
            config, profiles={"case": small_conditions()},
            checkpoint_dir=str(tmp_path),
        )
        service.source.push(lhs, rhs)
        service.source.close()
        while service.ingest_step():
            pass
        want = service.store.get("case").digest
        del service

        resumed = ImplicationService(
            config, profiles={"case": small_conditions()},
            checkpoint_dir=str(tmp_path),
        )
        assert resumed.cursor == 8
        assert resumed.store.status == "drained"
        assert resumed.ingest_step() is False
        assert resumed.store.get("case").digest == want

    def test_restored_metrics_fold_into_registry(self, registry, tmp_path):
        config = ServeConfig(
            source="profile:uniform", tuples=300, batch_size=100, num_bitmaps=8
        )
        service = ImplicationService(config, checkpoint_dir=str(tmp_path))
        while service.ingest_step():
            pass
        tuples_before = registry.counter("serving.tuples").value
        assert tuples_before == 300
        set_registry(MetricsRegistry())
        try:
            ImplicationService(config, checkpoint_dir=str(tmp_path))
            from repro.observability import get_registry

            assert get_registry().counter("serving.tuples").value == tuples_before
            assert get_registry().counter("serving.restores").value == 1
        finally:
            set_registry(registry)


@pytest.mark.slow
class TestConcurrentReads:
    def test_reads_during_ingest_are_never_torn(self, registry):
        """Reader threads hammer the store while ingest runs; every digest
        they observe must (a) match its own snapshot's decoded payload and
        (b) equal the offline single pass over that cursor's prefix."""
        lhs, rhs = generate_stream("duplicate_heavy", 9, 2000)
        service = ImplicationService(
            ServeConfig(batch_size=125, num_bitmaps=8, seed=6),
            source=ArraySource(lhs, rhs, batch_size=125),
            profiles={"case": small_conditions()},
        )
        observed: dict[int, str] = {}
        torn: list[str] = []
        done = threading.Event()

        def reader() -> None:
            while not done.is_set():
                snapshot = service.store.get("case")
                digest = estimator_state_digest(snapshot.estimator)
                if digest != snapshot.digest:
                    torn.append(
                        f"cursor {snapshot.cursor}: served digest "
                        f"{snapshot.digest[:12]} != decoded {digest[:12]}"
                    )
                observed[snapshot.cursor] = snapshot.digest

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        while service.ingest_step():
            pass
        done.set()
        for thread in threads:
            thread.join()
        assert torn == []
        assert len(observed) > 1  # readers saw the state advance
        for cursor, digest in observed.items():
            reference = offline_reference(
                service.templates["case"], lhs[:cursor], rhs[:cursor],
                batch_size=125,
            )
            assert digest == estimator_state_digest(reference), (
                f"digest at cursor {cursor} does not match a checkpoint "
                f"generation of the stream"
            )

    def test_metrics_endpoint_never_500s_under_load(self, registry):
        service = ImplicationService(
            ServeConfig(source="profile:uniform", batch_size=200, num_bitmaps=8),
            profiles={"case": small_conditions()},
        )
        httpd = build_server(service)
        port = httpd.server_address[1]
        http_thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        http_thread.start()
        stop = threading.Event()
        ingest = threading.Thread(target=service.run, args=(stop,), daemon=True)
        ingest.start()
        statuses: list[int] = []
        errors: list[str] = []

        def client() -> None:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                try:
                    status, _, _ = get(port, "/metrics", timeout=10.0)
                    statuses.append(status)
                except Exception as error:  # noqa: BLE001 - recorded below
                    errors.append(repr(error))

        clients = [threading.Thread(target=client) for _ in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop.set()
        ingest.join(timeout=30.0)
        httpd.shutdown()
        httpd.server_close()
        assert errors == []
        assert statuses and set(statuses) == {200}


class TestHTTPEndpoints:
    """The endpoint table, run identically against both front-ends."""

    @pytest.fixture(params=sorted(FRONTENDS))
    def served(self, request, registry):
        lhs, rhs = generate_stream("skewed", 12, 600)
        service = ImplicationService(
            ServeConfig(batch_size=200, num_bitmaps=8),
            source=ArraySource(lhs, rhs, batch_size=200),
            profiles={
                "strict": ImplicationConditions(min_support=4),
                "loose": ImplicationConditions(min_support=1),
            },
        )
        while service.ingest_step():
            pass
        server, stop = serve_on_thread(FRONTENDS[request.param], service)
        yield service, server.server_address[1], lhs
        stop()

    def test_health(self, served):
        service, port, _ = served
        status, body, _ = get(port, "/health")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "drained"
        assert health["cursor"] == 600
        assert health["profiles"] == ["strict", "loose"]

    def test_profiles_lists_both(self, served):
        _, port, _ = served
        status, body, _ = get(port, "/profiles")
        assert status == 200
        assert set(json.loads(body)) == {"strict", "loose"}

    def test_query_by_profile_and_stat(self, served):
        service, port, _ = served
        status, body, _ = get(port, "/query?profile=strict&stat=implication")
        assert status == 200
        payload = json.loads(body)
        snapshot = service.store.get("strict")
        assert payload["value"] == snapshot.stats["implication"]
        assert payload["digest"] == snapshot.digest

    def test_query_by_conditions(self, served):
        _, port, _ = served
        status, body, _ = get(port, "/query?min_support=4")
        assert status == 200
        assert json.loads(body)["profile"] == "strict"

    def test_query_errors(self, served):
        _, port, _ = served
        assert get(port, "/query?profile=missing")[0] == 404
        assert get(port, "/query?min_support=99")[0] == 404
        assert get(port, "/query?profile=strict&stat=bogus")[0] == 400
        assert get(port, "/query")[0] == 400
        assert get(port, "/nope")[0] == 404

    def test_top_lookup(self, served):
        service, port, lhs = served
        itemset = int(lhs[0])
        status, body, _ = get(port, f"/top?profile=loose&itemset={itemset}")
        assert status == 200
        lookup = json.loads(body)["lookup"]
        assert lookup["itemset"] == itemset
        assert {"bitmap", "position", "zone", "tracked"} <= set(lookup)

    def test_snapshot_bytes_roundtrip(self, served):
        service, port, _ = served
        status, body, headers = get(port, "/snapshot?profile=strict")
        assert status == 200
        assert headers["Content-Type"] == "application/octet-stream"
        decoded = ImplicationCountEstimator.from_bytes(body)
        assert estimator_state_digest(decoded) == headers["X-Repro-Digest"]
        assert int(headers["X-Repro-Cursor"]) == 600

    def test_window_flag_falsey_spellings_read_landmark(self, served):
        """``window=0/false/no/off`` must behave exactly like no flag —
        the regression was 400ing every spelling that wasn't truthy."""
        _, port, _ = served
        want = get(port, "/snapshot?profile=strict")[2]["X-Repro-Digest"]
        for spelling in ("0", "false", "no", "off"):
            status, _, headers = get(
                port, f"/snapshot?profile=strict&window={spelling}"
            )
            assert status == 200, spelling
            assert headers["X-Repro-Digest"] == want
            assert get(port, f"/query?profile=strict&window={spelling}")[0] == 200

    def test_window_flag_gibberish_rejected(self, served):
        _, port, _ = served
        status, body, _ = get(port, "/snapshot?profile=strict&window=maybe")
        assert status == 400
        assert b"window" in body

    def test_bare_window_flag_selects_the_flag(self, served):
        """A valueless ``?window`` is a documented truthy spelling — the
        regression dropped blank params before _parse_flag ever saw them,
        so a bare flag silently read the landmark view."""
        _, port, _ = served
        for path in (
            "/snapshot?profile=strict&window",
            "/snapshot?profile=strict&window=",
            "/query?profile=strict&window",
        ):
            status, body, _ = get(port, path)
            assert status == 400, path  # windowing is off on this service
            assert b"--window" in body, path

    def test_malformed_content_length_answers_400(self, served):
        """Both front-ends must answer a clean 400 and close, for a
        non-integer and for negative lengths.  The threaded handler used
        to let int() raise out of _handle on ``abc`` (a socketserver
        traceback, no response); on ``-1`` it read until the client
        closed, and on ``-5`` the read raised.  The asyncio reader dropped
        both negative lengths without a response."""
        _, port, _ = served
        for length in (b"abc", b"-1", b"-5"):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(
                    b"POST /ingest HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: " + length + b"\r\n\r\n"
                )
                chunks = []
                closed = False
                while not closed:
                    try:
                        data = sock.recv(65536)
                    except socket.timeout:
                        break
                    closed = not data
                    chunks.append(data)
            reply = b"".join(chunks)
            assert reply.startswith(b"HTTP/1.1 400"), (length, reply)
            assert b"malformed Content-Length" in reply, length
            assert closed, length

    def test_windowed_snapshot_refused_without_window(self, served):
        """A landmark-only service must refuse ``/snapshot?window=1``
        explicitly — the regression served the landmark payload under the
        landmark digest while the client believed it got windowed bytes."""
        _, port, _ = served
        status, body, _ = get(port, "/snapshot?profile=strict&window=1")
        assert status == 400
        assert b"--window" in body

    def test_keep_alive_connection_reuse(self, served):
        import http.client

        _, port, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            sock = None
            for _ in range(3):
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                if sock is None:
                    sock = connection.sock
                assert connection.sock is sock  # same socket — reused
        finally:
            connection.close()

    def test_post_routing_errors(self, served):
        _, port, _ = served
        assert get(port, "/ingest")[0] == 405
        assert post(port, "/health", b"{}")[0] == 404
        # A pull-source service has no push queue to ingest into.
        status, body, _ = post(port, "/ingest", b'{"lhs": [], "rhs": []}')
        assert status == 409
        assert b"--source push" in body


class TestWindowedSnapshotEndpoint:
    @pytest.fixture(params=sorted(FRONTENDS))
    def windowed(self, request, registry):
        lhs, rhs = generate_stream("skewed", 21, 600)
        service = ImplicationService(
            ServeConfig(
                batch_size=50, num_bitmaps=8, window=200, window_generations=4
            ),
            source=ArraySource(lhs, rhs, batch_size=50),
            profiles={"case": small_conditions()},
        )
        while service.ingest_step():
            pass
        server, stop = serve_on_thread(FRONTENDS[request.param], service)
        yield service, server.server_address[1]
        stop()

    def test_windowed_snapshot_serves_merged_payload(self, windowed):
        service, port = windowed
        status, body, headers = get(port, "/snapshot?profile=case&window=1")
        assert status == 200
        snapshot = service.store.get("case")
        assert headers["X-Repro-Digest"] == snapshot.window["merged_digest"]
        assert headers["X-Repro-Window-Digest"] == snapshot.window["digest"]
        assert int(headers["X-Repro-Window"]) == 200
        decoded = ImplicationCountEstimator.from_bytes(body)
        assert estimator_state_digest(decoded) == headers["X-Repro-Digest"]
        # And the landmark payload is still the default, under a
        # different digest — the two views can never be confused.
        landmark = get(port, "/snapshot?profile=case")[2]["X-Repro-Digest"]
        assert landmark == snapshot.digest != headers["X-Repro-Digest"]


class TestClientDisconnects:
    """A vanished client is a counter bump, never a traceback.

    The regression: the threaded handler caught only ``BrokenPipeError``,
    so ``ConnectionResetError`` (a RST instead of a FIN) and socket
    timeouts dumped tracebacks per dropped client under load.
    """

    def _drained_service(self):
        lhs, rhs = generate_stream("uniform", 5, 100)
        service = ImplicationService(
            ServeConfig(batch_size=50, num_bitmaps=8),
            source=ArraySource(lhs, rhs, batch_size=50),
            profiles={"case": small_conditions()},
        )
        while service.ingest_step():
            pass
        return service

    @pytest.mark.parametrize(
        "error",
        [BrokenPipeError, ConnectionResetError, ConnectionAbortedError, TimeoutError],
    )
    def test_threaded_handler_counts_disconnect(self, registry, error):
        from repro.serving.http import Router, _Handler

        service = self._drained_service()

        class _Vanished:
            def write(self, data):
                raise error()

            def flush(self):  # pragma: no cover - never reached
                pass

        handler = object.__new__(_Handler)
        handler.path = "/health"
        handler.headers = {}
        handler.rfile = io.BytesIO(b"")
        handler.wfile = _Vanished()
        handler.server = SimpleNamespace(router=Router(service))
        handler.requestline = "GET /health HTTP/1.1"
        handler.request_version = "HTTP/1.1"
        handler.client_address = ("127.0.0.1", 0)
        handler.close_connection = False

        handler._handle("GET")  # must not raise

        assert registry.counter("serving.http.client_disconnects").value == 1
        assert handler.close_connection

    def test_asyncio_counts_aborted_request(self, registry):
        service = self._drained_service()
        server, stop = serve_on_thread(build_async_server, service)
        try:
            with socket.create_connection(server.server_address) as sock:
                # Promise a body, deliver a fragment, vanish.
                sock.sendall(
                    b"POST /ingest HTTP/1.1\r\n"
                    b"Content-Length: 64\r\n\r\nshort"
                )
            deadline = time.monotonic() + 30.0
            counter = registry.counter("serving.http.client_disconnects")
            while counter.value == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert counter.value == 1
        finally:
            stop()


class TestPushIngestHTTP:
    """``POST /ingest`` through a real front-end: validation, digests,
    explicit backpressure."""

    @pytest.fixture(params=sorted(FRONTENDS))
    def pushable(self, request, registry):
        service = ImplicationService(
            ServeConfig(
                source="push:capacity=8", batch_size=128, num_bitmaps=8,
                publish_every=1,
            ),
            profiles={"case": small_conditions()},
        )
        server, stop = serve_on_thread(FRONTENDS[request.param], service)
        yield service, server.server_address[1]
        stop()

    def test_push_stream_lands_on_pull_digest(self, pushable):
        """JSON + binary pushes, closed and drained, equal the offline
        pull reference bit-for-bit — the tentpole identity over HTTP."""
        service, port = pushable
        lhs, rhs = generate_stream("skewed", 17, 600)
        half = 300
        status, body, _ = post(
            port,
            "/ingest",
            json.dumps(
                {"lhs": lhs[:half].tolist(), "rhs": rhs[:half].tolist()}
            ).encode(),
        )
        assert status == 200
        assert json.loads(body)["accepted"] == half
        blob = (
            lhs[half:].astype("<u8").tobytes()
            + rhs[half:].astype("<u8").tobytes()
        )
        status, body, _ = post(
            port, "/ingest?close=1", blob, "application/octet-stream"
        )
        assert status == 200
        assert json.loads(body)["closed"]
        while service.ingest_step():
            pass
        reference = offline_reference(
            service.templates["case"], lhs, rhs, batch_size=128
        )
        snapshot = service.store.get("case")
        assert snapshot.cursor == 600
        assert snapshot.digest == estimator_state_digest(reference)

    def test_backpressure_answers_429_with_retry_after(self, pushable):
        service, port = pushable
        size = service.source.capacity_tuples
        full = json.dumps(
            {"lhs": list(range(size)), "rhs": list(range(size))}
        ).encode()
        assert post(port, "/ingest", full)[0] == 200
        status, body, headers = post(
            port, "/ingest", b'{"lhs": [1], "rhs": [1]}'
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        rejected = json.loads(body)
        assert rejected["pending"] == size
        assert rejected["capacity"] == size
        # The client's discipline: drain, then the identical retry lands.
        service.ingest_step()
        assert post(port, "/ingest", b'{"lhs": [1], "rhs": [1]}')[0] == 200

    def test_malformed_bodies_buffer_nothing(self, pushable):
        service, port = pushable
        cases = [
            (b"not json", "application/json"),
            (b"[1, 2]", "application/json"),
            (b'{"lhs": [1]}', "application/json"),
            (b'{"lhs": [1], "rhs": [1, 2]}', "application/json"),
            (b'{"lhs": [1], "rhs": [-1]}', "application/json"),
            (b'{"lhs": [1], "rhs": [1.5]}', "application/json"),
            (b'{"lhs": [true], "rhs": [1]}', "application/json"),
            (b'{"lhs": [1], "rhs": [1], "extra": []}', "application/json"),
            (b"\x00" * 15, "application/octet-stream"),  # not 16-aligned
            (b"{}", "text/plain"),
        ]
        for body, content_type in cases:
            status, _, _ = post(port, "/ingest", body, content_type)
            assert status == 400, (body, content_type)
        assert service.source.pending_tuples == 0
        assert service.source.pushed_tuples == 0

    def test_malformed_close_chunk_does_not_close_stream(self, pushable):
        service, port = pushable
        assert post(port, "/ingest?close=1", b"not json")[0] == 400
        assert not service.source.closed

    def test_bare_close_flag_closes_stream(self, pushable):
        """``POST /ingest?close`` with no value is the documented bare
        spelling — it must close, not be silently dropped by the parse."""
        service, port = pushable
        status, body, _ = post(
            port, "/ingest?close", b'{"lhs": [7], "rhs": [9]}'
        )
        assert status == 200
        assert json.loads(body)["closed"]
        assert service.source.closed

    def test_oversized_body_refused(self, pushable):
        from repro.serving.http import MAX_INGEST_BODY

        _, port = pushable
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/ingest",
            data=b"x",
            method="POST",
            headers={
                "Content-Type": "application/octet-stream",
                "Content-Length": str(MAX_INGEST_BODY + 16),
            },
        )
        with pytest.raises(
            (urllib.error.HTTPError, ConnectionError, urllib.error.URLError)
        ) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        if isinstance(excinfo.value, urllib.error.HTTPError):
            assert excinfo.value.code == 413


@pytest.mark.slow
class TestConcurrentHTTPReads:
    """Never-torn reads, end to end over real sockets, both front-ends."""

    @pytest.mark.parametrize("frontend", sorted(FRONTENDS))
    def test_http_snapshot_reads_never_torn(self, registry, frontend):
        lhs, rhs = generate_stream("duplicate_heavy", 19, 1500)
        service = ImplicationService(
            ServeConfig(batch_size=125, num_bitmaps=8),
            source=ArraySource(lhs, rhs, batch_size=125),
            profiles={"case": small_conditions()},
        )
        server, stop = serve_on_thread(FRONTENDS[frontend], service)
        port = server.server_address[1]
        torn: list[str] = []
        errors: list[str] = []
        done = threading.Event()

        def reader() -> None:
            while not done.is_set():
                try:
                    status, body, headers = get(port, "/snapshot?profile=case")
                    if status != 200:
                        errors.append(f"status {status}")
                        continue
                    digest = estimator_state_digest(
                        ImplicationCountEstimator.from_bytes(body)
                    )
                    if digest != headers["X-Repro-Digest"]:
                        torn.append(headers["X-Repro-Cursor"])
                except Exception as error:  # noqa: BLE001 - recorded below
                    errors.append(repr(error))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            while service.ingest_step():
                pass
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30.0)
            stop()
        assert torn == []
        assert errors == []


@pytest.mark.slow
class TestServeSubprocess:
    """The CLI process end to end: SIGTERM mid-ingest, resume, digest."""

    def _spawn(self, ckdir: Path, extra: list[str]):
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--source", "profile:skewed", "--tuples", "30000",
            "--batch-size", "2048", "--num-bitmaps", "8",
            "--checkpoint-dir", str(ckdir),
            "--profiles", "support-only,noisy-confidence", *extra,
        ]
        env = {"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"}
        env.update({k: v for k, v in os.environ.items() if k not in env})
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        listening = json.loads(proc.stdout.readline())
        assert listening["event"] == "listening", listening
        return proc, listening

    def test_asyncio_frontend_serves_and_stops_cleanly(self, tmp_path):
        proc, listening = self._spawn(tmp_path, ["--frontend", "asyncio"])
        port = listening["port"]
        try:
            assert listening["frontend"] == "asyncio"
            status, body, _ = get(port, "/health")
            assert status == 200
            assert json.loads(body)["profiles"] == [
                "support-only", "noisy-confidence",
            ]
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if json.loads(get(port, "/health")[1])["cursor"] > 0:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        stopped = json.loads(out.strip().splitlines()[-1])
        assert stopped["status"] == "stopped"
        assert stopped["cursor"] > 0
        assert "Traceback" not in err, err

    def test_asyncio_sigterm_with_idle_keep_alive_connection(self, tmp_path):
        """An idle keep-alive client at SIGTERM must not print a
        traceback — the regression was a CancelledError traceback from
        the connection handler parked in readline()."""
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--frontend", "asyncio", "--source", "push",
            "--num-bitmaps", "8", "--profiles", "support-only",
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            listening = json.loads(proc.stdout.readline())
            with socket.create_connection(
                ("127.0.0.1", listening["port"]), timeout=30
            ) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                # The connection stays open and idle across the SIGTERM.
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert json.loads(out.strip().splitlines()[-1])["event"] == "stopped"
        assert "Traceback" not in err, err

    def test_sigterm_resume_reaches_uninterrupted_digest(self, tmp_path):
        proc, listening = self._spawn(tmp_path, [])
        port = listening["port"]
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                health = json.loads(get(port, "/health")[1])
                if health["cursor"] >= 10000:
                    break
                time.sleep(0.05)
            assert health["cursor"] >= 10000, "service never made progress"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        stopped = json.loads(out.strip().splitlines()[-1])
        assert stopped["status"] == "stopped"
        assert 0 < stopped["cursor"] < 30000
        assert "resource_tracker" not in err, err

        proc, listening = self._spawn(tmp_path, ["--exit-when-drained"])
        try:
            assert listening["resumed_generation"] is not None
            assert listening["cursor"] == stopped["cursor"]
            out, err = proc.communicate(timeout=240)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        final = json.loads(out.strip().splitlines()[-1])
        assert final["cursor"] == 30000
        assert "resource_tracker" not in err, err

        # The resumed digest must equal an uninterrupted run's.
        config = ServeConfig(
            source="profile:skewed", tuples=30000, batch_size=2048,
            num_bitmaps=8, profiles=("support-only", "noisy-confidence"),
        )
        reference = ImplicationService(config)
        while reference.ingest_step():
            pass
        want = reference.store.get("support-only").digest
        assert final["digest"] == want
