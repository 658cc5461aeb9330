"""Fault-tolerance tests for the sharded ingest engine.

The injectable failure mechanisms (``REPRO_SHARD_FAILURE`` env var and the
``failure_hook`` constructor arg) let these tests kill chosen shard workers
deterministically and assert the retry contract: only the failed shards are
re-ingested, and the merged estimator is bit-for-bit identical to a run
where nothing failed.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.shared_memory
import os
import signal
import time

import numpy as np
import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.serialize import estimator_state_digest
from repro.datasets.synthetic import generate_dataset_one
from repro.engine import ShardedIngestor, ShardFailure, available_workers
from repro.engine import pool as pool_module
from repro.engine import sharded as sharded_module
from repro.engine import workers as workers_module
from repro.kernels import available_backends
from repro.observability import MetricsRegistry, set_registry
from repro.verify.streams import generate_stream


def _pool_available() -> bool:
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=1) as pool:
            pool.map(abs, [1])
        return True
    except (ValueError, OSError, RuntimeError):
        return False


POOL_AVAILABLE = _pool_available()


# Hooks must be module-level: shard jobs (hook included) are pickled into
# the pool's task queue.
def _kill_shard_one_first_attempt(shard_index: int, attempt: int) -> None:
    if shard_index == 1 and attempt == 0:
        raise RuntimeError("injected worker death (shard 1)")


def _kill_shard_zero_always(shard_index: int, attempt: int) -> None:
    if shard_index == 0:
        raise RuntimeError("injected repeated worker death (shard 0)")


def _hang_shard_zero_first_attempt(shard_index: int, attempt: int) -> None:
    if shard_index == 0 and attempt == 0:
        time.sleep(30.0)


def _sigkill_worker_on_shard_one(shard_index: int, attempt: int) -> None:
    """SIGKILL the *worker process* handling shard 1's first attempt.

    Guarded by ``in_worker()`` so the serial in-parent retry of the same
    shard (and the use_pool=False reference leg) survives the hook.
    """
    if shard_index == 1 and attempt == 0 and workers_module.in_worker():
        os.kill(os.getpid(), signal.SIGKILL)


def _stagger_shards_inverse(shard_index: int, attempt: int) -> None:
    """Make later shards finish *first* (arrival order != shard order)."""
    time.sleep(0.05 * max(2 - shard_index, 0))


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_stream(seed: int = 11):
    data = generate_dataset_one(400, 200, c=1, seed=seed)
    template = ImplicationCountEstimator(data.conditions, seed=seed)
    return data, template


class TestValidation:
    def test_workers_must_be_positive(self):
        __, template = make_stream()
        with pytest.raises(ValueError):
            ShardedIngestor(template, workers=0)

    def test_job_timeout_must_be_positive(self):
        __, template = make_stream()
        with pytest.raises(ValueError):
            ShardedIngestor(template, workers=2, job_timeout=0)


class TestPoolSizing:
    def test_pool_capped_at_available_workers(self, monkeypatch):
        """More shards than cores must not spawn one process per shard."""
        __, template = make_stream()
        ingestor = ShardedIngestor(template, workers=64)
        monkeypatch.setattr(sharded_module, "available_workers", lambda: 2)
        assert ingestor._pool_processes(64) == 2
        assert ingestor._pool_processes(1) == 1

    def test_pool_cap_does_not_change_results(self, monkeypatch):
        """The split depends on the shard count only, so queueing shards on
        a smaller pool (workers >> cores) must be bit-for-bit neutral."""
        data, template = make_stream(seed=21)
        ingestor = ShardedIngestor(template, workers=6)
        wide = ingestor.ingest(data.lhs, data.rhs)
        monkeypatch.setattr(sharded_module, "available_workers", lambda: 1)
        narrow = ingestor.ingest(data.lhs, data.rhs)
        assert narrow.to_bytes() == wide.to_bytes()


class TestInjectedFailures:
    def test_env_var_failure_retries_bit_for_bit(self, monkeypatch, registry):
        """Acceptance: shard N killed once -> retry -> identical result."""
        data, template = make_stream(seed=13)
        ingestor = ShardedIngestor(template, workers=3)
        monkeypatch.delenv(sharded_module.FAILURE_ENV, raising=False)
        clean = ingestor.ingest(data.lhs, data.rhs)
        monkeypatch.setenv(sharded_module.FAILURE_ENV, "1")
        recovered = ingestor.ingest(data.lhs, data.rhs)
        assert recovered.to_bytes() == clean.to_bytes()
        assert registry.counter("sharded.shard_retries").value == 1
        assert registry.counter("sharded.shard_failures").value == 1

    def test_every_shard_failing_once_still_completes(self, monkeypatch, registry):
        data, template = make_stream(seed=17)
        ingestor = ShardedIngestor(template, workers=3)
        monkeypatch.delenv(sharded_module.FAILURE_ENV, raising=False)
        clean = ingestor.ingest(data.lhs, data.rhs)
        monkeypatch.setenv(sharded_module.FAILURE_ENV, "0,1,2")
        recovered = ingestor.ingest(data.lhs, data.rhs)
        assert recovered.to_bytes() == clean.to_bytes()
        assert registry.counter("sharded.shard_retries").value == 3

    def test_failure_hook_retries_bit_for_bit(self, registry):
        data, template = make_stream(seed=19)
        clean = ShardedIngestor(template, workers=2).ingest(data.lhs, data.rhs)
        flaky = ShardedIngestor(
            template, workers=2, failure_hook=_kill_shard_one_first_attempt
        )
        recovered = flaky.ingest(data.lhs, data.rhs)
        assert recovered.to_bytes() == clean.to_bytes()
        assert registry.counter("sharded.shard_retries").value == 1

    def test_second_failure_is_terminal(self):
        data, template = make_stream(seed=23)
        doomed = ShardedIngestor(
            template, workers=2, failure_hook=_kill_shard_zero_always
        )
        with pytest.raises(ShardFailure, match="failed twice"):
            doomed.ingest(data.lhs, data.rhs)

    def test_only_failed_shard_is_retried(self, monkeypatch, registry):
        """The healthy shards' pool results are kept, not recomputed."""
        data, template = make_stream(seed=29)
        ingestor = ShardedIngestor(template, workers=4)
        monkeypatch.setenv(sharded_module.FAILURE_ENV, "2")
        ingestor.ingest(data.lhs, data.rhs)
        # 4 shards attempted, exactly one retried: 5 completed jobs total
        # would each have recorded a wall-time observation, but the killed
        # attempt died before ingesting, so exactly 4 observations exist.
        assert registry.histogram("sharded.shard_seconds").count == 4
        assert registry.counter("sharded.shard_retries").value == 1

    @pytest.mark.skipif(
        not POOL_AVAILABLE, reason="no process pool in this environment"
    )
    def test_hung_worker_times_out_and_retries(self, registry):
        """A worker sleeping past job_timeout is declared dead; the shard
        re-ingests serially and the run completes."""
        data, template = make_stream(seed=31)
        clean = ShardedIngestor(template, workers=2).ingest(data.lhs, data.rhs)
        hung = ShardedIngestor(
            template,
            workers=2,
            job_timeout=1.0,
            failure_hook=_hang_shard_zero_first_attempt,
        )
        started = time.perf_counter()
        recovered = hung.ingest(data.lhs, data.rhs)
        elapsed = time.perf_counter() - started
        assert recovered.to_bytes() == clean.to_bytes()
        # On a single-core pool the sleeper also blocks the healthy shard
        # past its deadline, so up to both shards may retry serially.
        assert registry.counter("sharded.shard_retries").value >= 1
        # The 30s sleeper must have been abandoned, not waited out.
        assert elapsed < 15.0


class TestSingleWorkerPath:
    def test_serial_ingest_also_retries(self, monkeypatch, registry):
        """workers=1 runs in-process but honours the same retry contract."""
        data, template = make_stream(seed=37)
        ingestor = ShardedIngestor(template, workers=1)
        monkeypatch.delenv(sharded_module.FAILURE_ENV, raising=False)
        clean = ingestor.ingest(data.lhs, data.rhs)
        monkeypatch.setenv(sharded_module.FAILURE_ENV, "0")
        recovered = ingestor.ingest(data.lhs, data.rhs)
        assert recovered.to_bytes() == clean.to_bytes()
        assert registry.counter("sharded.shard_retries").value == 1


class TestAvailableWorkers:
    def test_prefers_affinity_mask_over_cpu_count(self, monkeypatch):
        """cgroup/taskset-constrained hosts must not overcommit: the
        schedulable-CPU set wins over the raw core count."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_workers() == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_workers() == 3

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_workers() == 1


def _fresh_runtime():
    """Shut the global runtime down so the next ingest starts a new pool."""
    pool_module.shutdown_runtime()


def make_profile_stream(profile: str, *, theta: float = 0.0, size: int = 1200):
    lhs, rhs = generate_stream(profile, seed=5, size=size)
    conditions = ImplicationConditions(
        min_support=2, top_c=1, min_top_confidence=theta
    )
    template = ImplicationCountEstimator(conditions, num_bitmaps=8, seed=3)
    return lhs, rhs, template


@pytest.mark.skipif(not POOL_AVAILABLE, reason="no process pool in this environment")
class TestPersistentPool:
    """The persistent worker runtime: reuse, respawn, determinism."""

    def test_pool_survives_across_ingest_calls(self, registry):
        """The scaling fix itself: the second ingest reuses live workers
        instead of forking a fresh pool."""
        _fresh_runtime()
        data, template = make_stream(seed=43)
        ingestor = ShardedIngestor(template, workers=2)
        first = ingestor.ingest(data.lhs, data.rhs)
        pids_after_first = pool_module.get_runtime().worker_pids()
        second = ingestor.ingest(data.lhs, data.rhs)
        pids_after_second = pool_module.get_runtime().worker_pids()
        assert first.to_bytes() == second.to_bytes()
        assert pids_after_first and pids_after_first == pids_after_second
        assert registry.counter("pool.reuses").value >= 1
        assert registry.counter("pool.respawns").value == 0

    @pytest.mark.parametrize("kernels", available_backends())
    @pytest.mark.parametrize(
        "profile", ["uniform", "skewed", "float_trigger_dense"]
    )
    def test_pool_reuse_determinism_across_profiles(
        self, registry, profile, kernels
    ):
        """persistent pool == fresh pool == serial, bit-for-bit, on the
        verify harness's adversarial stream profiles — including a sticky
        (theta > 0) condition profile, because all three legs share one
        merge structure — under every available kernel backend."""
        lhs, rhs, template = make_profile_stream(profile, theta=0.5)
        serial = ShardedIngestor(
            template, workers=3, use_pool=False, kernels=kernels
        ).ingest(lhs, rhs)
        _fresh_runtime()
        fresh = ShardedIngestor(template, workers=3, kernels=kernels).ingest(
            lhs, rhs
        )
        reused = ShardedIngestor(template, workers=3, kernels=kernels).ingest(
            lhs, rhs
        )
        assert (
            estimator_state_digest(serial)
            == estimator_state_digest(fresh)
            == estimator_state_digest(reused)
        )
        assert registry.counter("pool.spawns").value >= 1
        assert registry.counter("pool.reuses").value >= 1

    def test_worker_sigkilled_mid_ingest_respawns_and_retries(self, registry):
        """A pooled worker SIGKILLed mid-ingest (no timeout needed — the
        pipe closes) costs only its shard: serial retry, slot respawned,
        pool still healthy for the next ingest."""
        data, template = make_stream(seed=41)
        clean = ShardedIngestor(template, workers=3, use_pool=False).ingest(
            data.lhs, data.rhs
        )
        _fresh_runtime()
        lethal = ShardedIngestor(
            template, workers=3, failure_hook=_sigkill_worker_on_shard_one
        )
        recovered = lethal.ingest(data.lhs, data.rhs)
        assert recovered.to_bytes() == clean.to_bytes()
        assert registry.counter("pool.respawns").value >= 1
        assert registry.counter("sharded.shard_retries").value == 1
        # The runtime stays serviceable: a hook-free ingest on the same
        # (respawned) pool still matches.
        again = ShardedIngestor(template, workers=3).ingest(data.lhs, data.rhs)
        assert again.to_bytes() == clean.to_bytes()

    def test_template_ships_once_per_worker_across_chunks(self, registry):
        """The sibling payload crosses the boundary once per worker — a
        chunked ingest (one ``ingest_payloads`` call per chunk) must not
        re-ship it per job."""
        _fresh_runtime()
        lhs, rhs, template = make_profile_stream("uniform", size=1200)
        ingestor = ShardedIngestor(template, workers=2)
        for start in range(0, len(lhs), 300):
            ingestor.ingest_payloads(lhs[start : start + 300], rhs[start : start + 300])
        ships = registry.counter("pool.template_ships").value
        hits = registry.counter("pool.template_hits").value
        jobs = registry.counter("sharded.jobs").value
        spawned = (
            registry.counter("pool.spawns").value
            + registry.counter("pool.respawns").value
        )
        assert ships + hits == jobs  # every pooled job was accounted
        assert ships <= spawned  # at most one ship per worker process
        assert hits >= jobs - spawned  # 4 chunks x 2 shards: the rest hit

    def test_snapshots_fold_in_shard_order_not_arrival_order(self, registry):
        """Gauge merges are last-write-wins; folding must follow shard
        index even when later shards finish first, so identical runs
        produce identical merged telemetry."""
        data, template = make_stream(seed=47)
        _fresh_runtime()
        ingestor = ShardedIngestor(
            template, workers=3, failure_hook=_stagger_shards_inverse
        )
        for _ in range(2):
            ingestor.ingest(data.lhs, data.rhs)
            assert registry.gauge("sharded.last_shard_folded").value == 2


def _noop_module_hook(shard_index: int, attempt: int) -> None:
    """Picklable no-op; the lambda twin below is the unpicklable case."""


class _RaisingConn:
    """A connection whose send always fails mid-serialization."""

    def send(self, message):
        raise RuntimeError("injected send failure (unpicklable payload)")


class _StubProcess:
    pid = -1


class TestDispatchFaults:
    """A raising ``conn.send`` must not corrupt template-cache bookkeeping."""

    def _job(self, template):
        payload = template.spawn_sibling().to_bytes()
        return pool_module.ShardJob(
            shard_index=0,
            attempt=0,
            digest=pool_module.template_digest(payload),
            template_payload=payload,
            offset=0,
            length=4,
            fail_injected=False,
            failure_hook=None,
        )

    def test_send_failure_does_not_mark_template_cached(self, registry):
        __, template = make_stream(seed=13)
        job = self._job(template)
        runtime = pool_module.WorkerRuntime()
        worker = pool_module._Worker(_StubProcess(), _RaisingConn())
        segment = pool_module.InlineSegment(
            np.zeros(4, dtype=np.uint64), np.zeros(4, dtype=np.uint64)
        )
        with pytest.raises(RuntimeError):
            runtime._dispatch(worker, job, segment)
        # The worker never received the template: recording its digest now
        # would make the next job for this geometry skip the ship and sink
        # on a missing template.
        assert job.digest not in worker.digests
        assert registry.counter("pool.template_ships").value == 0
        assert registry.counter("pool.template_hits").value == 0

    @pytest.mark.skipif(
        not POOL_AVAILABLE, reason="no process pool in this environment"
    )
    def test_unpicklable_hook_fails_shards_not_the_pool(self, registry):
        """An unpicklable failure_hook dies inside ``conn.send`` while the
        message is serialized.  The shard must fail cleanly (serial
        in-parent retry, where no pickling happens), the digest must match
        the no-pool leg, and the pool must stay usable afterwards."""
        _fresh_runtime()
        data, template = make_stream(seed=29)
        unpicklable = lambda shard_index, attempt: None  # noqa: E731
        pooled = ShardedIngestor(
            template, workers=2, failure_hook=unpicklable
        ).ingest(data.lhs, data.rhs)
        serial = ShardedIngestor(
            template, workers=2, use_pool=False, failure_hook=_noop_module_hook
        ).ingest(data.lhs, data.rhs)
        assert estimator_state_digest(pooled) == estimator_state_digest(serial)
        assert registry.counter("engine.shard_retries").value > 0
        # Slot bookkeeping survived: the next pooled ingest is clean.
        clean = ShardedIngestor(template, workers=2).ingest(data.lhs, data.rhs)
        assert estimator_state_digest(clean) == estimator_state_digest(serial)


class _LegacySharedMemory:
    """Stand-in for the pre-3.13 SharedMemory: no ``track`` kwarg."""

    # Bound at definition time: the test monkeypatches the module global,
    # so delegating through the module would recurse into this stub.
    _real = multiprocessing.shared_memory.SharedMemory

    def __init__(self, *args, **kwargs):
        if "track" in kwargs:
            raise TypeError(
                "__init__() got an unexpected keyword argument 'track'"
            )
        self._shm = self._real(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._shm, name)


class TestAttachTracking:
    """Worker-side attaches must never register segment ownership."""

    def test_attach_untracked_suppresses_registration(self, tmp_path):
        from multiprocessing import resource_tracker

        owned = multiprocessing.shared_memory.SharedMemory(create=True, size=64)
        recorded = []
        original = resource_tracker.register
        try:
            resource_tracker.register = lambda name, rtype: recorded.append(
                (name, rtype)
            )
            attached = workers_module._attach_untracked(owned.name)
            attached.close()
            assert recorded == []
            # Sanity: the recorder does see a plain (tracked) attach.
            plain = multiprocessing.shared_memory.SharedMemory(name=owned.name)
            plain.close()
            assert len(recorded) == 1
        finally:
            resource_tracker.register = original
            owned.close()
            owned.unlink()

    def test_segment_cache_fallback_attach_is_untracked(self, monkeypatch):
        from multiprocessing import resource_tracker

        owned = multiprocessing.shared_memory.SharedMemory(create=True, size=64)
        recorded = []
        monkeypatch.setattr(
            workers_module.shared_memory, "SharedMemory", _LegacySharedMemory
        )
        original = resource_tracker.register
        monkeypatch.setattr(
            resource_tracker,
            "register",
            lambda name, rtype: recorded.append((name, rtype)),
        )
        cache = workers_module._SegmentCache()
        lhs, rhs = cache.resolve(owned.name, rows=4, offset=0, length=4)
        assert len(lhs) == 4 and len(rhs) == 4
        cache.release()
        monkeypatch.setattr(resource_tracker, "register", original)
        assert recorded == [], (
            "fallback attach registered segment ownership; a worker-owned "
            "resource tracker would unlink the parent's live segment"
        )
        owned.close()
        owned.unlink()

    @pytest.mark.skipif(
        not POOL_AVAILABLE, reason="no process pool in this environment"
    )
    def test_pooled_ingest_leaves_no_tracker_noise(self):
        """End to end: pooled ingest + worker shutdown in a subprocess must
        produce no resource_tracker KeyErrors or leaked-segment warnings
        on stderr (the symptom of either tracked worker attaches or
        parent-registration loss)."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        script = (
            "from repro.datasets.synthetic import generate_dataset_one\n"
            "from repro.core.estimator import ImplicationCountEstimator\n"
            "from repro.engine import ShardedIngestor, shutdown_runtime\n"
            "data = generate_dataset_one(600, 300, c=1, seed=9)\n"
            "template = ImplicationCountEstimator(data.conditions, seed=9)\n"
            "ingestor = ShardedIngestor(template, workers=2)\n"
            "for _ in range(3):\n"
            "    ingestor.ingest(data.lhs, data.rhs)\n"
            "shutdown_runtime()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        for needle in ("resource_tracker", "leaked shared_memory", "KeyError"):
            assert needle not in result.stderr, result.stderr
