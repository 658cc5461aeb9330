"""Tests for the observability layer (metrics registry + instrumentation)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.estimator import ImplicationCountEstimator
from repro.datasets.synthetic import generate_dataset_one
from repro.observability import (
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
)


@pytest.fixture()
def registry():
    """A fresh global registry for the duration of one test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestRegistry:
    def test_counter_accumulates(self, registry):
        registry.counter("x").add()
        registry.counter("x").add(4)
        assert registry.counter("x").value == 5

    def test_gauge_last_write_wins(self, registry):
        registry.gauge("g").set(3.0)
        registry.gauge("g").set(1.5)
        assert registry.gauge("g").value == 1.5

    def test_histogram_summary(self, registry):
        histogram = registry.histogram("h")
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 15.0
        assert histogram.minimum == 2.0
        assert histogram.maximum == 8.0
        assert histogram.mean == 5.0

    def test_name_cannot_change_type(self, registry):
        registry.counter("metric")
        with pytest.raises(ValueError):
            registry.gauge("metric")
        with pytest.raises(ValueError):
            registry.histogram("metric")

    def test_snapshot_roundtrips_through_json(self, registry):
        registry.counter("c").add(7)
        registry.gauge("g").set(0.25)
        registry.histogram("h").observe(3.0)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        other = MetricsRegistry()
        other.merge_snapshot(snapshot)
        assert other.snapshot() == registry.snapshot()

    def test_merge_snapshot_combines(self, registry):
        registry.counter("c").add(2)
        registry.histogram("h").observe(1.0)
        incoming = MetricsRegistry()
        incoming.counter("c").add(3)
        incoming.histogram("h").observe(9.0)
        registry.merge_snapshot(incoming.snapshot())
        assert registry.counter("c").value == 5
        assert registry.histogram("h").count == 2
        assert registry.histogram("h").maximum == 9.0
        assert registry.histogram("h").minimum == 1.0

    def test_merge_empty_histogram_is_noop(self, registry):
        registry.histogram("h").observe(4.0)
        registry.merge_snapshot(MetricsRegistry().snapshot())
        empty = MetricsRegistry()
        empty.histogram("h")  # registered but never observed
        registry.merge_snapshot(empty.snapshot())
        assert registry.histogram("h").count == 1
        assert registry.histogram("h").minimum == 4.0

    def test_histogram_buckets_track_observations(self, registry):
        from repro.observability import HISTOGRAM_BUCKET_COUNT

        histogram = registry.histogram("h")
        for value in (0.001, 0.001, 8.0):
            histogram.observe(value)
        assert len(histogram.buckets) == HISTOGRAM_BUCKET_COUNT
        assert sum(histogram.buckets) == 3
        # The two equal observations share one bucket.
        assert max(histogram.buckets) == 2

    def test_histogram_quantile(self, registry):
        histogram = registry.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        p50 = histogram.quantile(0.5)
        p99 = histogram.quantile(0.99)
        # Log-spaced buckets: estimates are bucket upper bounds, so they
        # can overshoot by at most one factor-of-two step (and are clamped
        # into the observed range).
        assert 50.0 <= p50 <= 100.0
        assert p50 <= p99 <= 100.0
        assert histogram.quantile(0.0) >= 1.0
        assert histogram.quantile(1.0) == 100.0

    def test_histogram_quantile_edge_cases(self, registry):
        histogram = registry.histogram("h")
        assert histogram.quantile(0.5) is None
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        histogram.observe(3.0)
        assert histogram.quantile(0.5) == 3.0

    def test_histogram_buckets_merge_elementwise(self, registry):
        registry.histogram("h").observe(1.0)
        incoming = MetricsRegistry()
        incoming.histogram("h").observe(1.0)
        incoming.histogram("h").observe(64.0)
        assert registry.merge_snapshot(incoming.snapshot())
        merged = registry.histogram("h")
        assert merged.count == 3
        assert sum(merged.buckets) == 3
        # Both 1.0 observations landed in the same bucket on both sides.
        assert max(merged.buckets) == 2
        assert merged.quantile(1.0) == 64.0

    def test_merge_accepts_v1_summaries_without_buckets(self, registry):
        registry.histogram("h").observe(2.0)
        incoming = MetricsRegistry()
        incoming.histogram("h").observe(8.0)
        snapshot = incoming.snapshot()
        del snapshot["histograms"]["h"]["buckets"]  # a v1 writer's summary
        assert registry.merge_snapshot(snapshot)
        assert registry.histogram("h").count == 2
        assert registry.histogram("h").maximum == 8.0
        # Count/sum/extrema merged; bucket mass only covers local points.
        assert sum(registry.histogram("h").buckets) == 1

    def test_merge_rejects_malformed_snapshot_atomically(self, registry):
        registry.counter("c").add(2)
        registry.histogram("h").observe(1.0)
        before = registry.snapshot()
        # Counters valid, histograms malformed: without up-front
        # validation the counter fold would land before the fold raised.
        malformed = {
            "counters": {"c": 5},
            "gauges": {},
            "histograms": {"h": {"count": "three", "sum": 3.0}},
        }
        assert registry.merge_snapshot(malformed) is False
        after = registry.snapshot()
        rejected = after["counters"].pop("observability.rejected_snapshots")
        assert rejected == 1
        assert after == before

    @pytest.mark.parametrize(
        "snapshot",
        [
            "not a dict",
            {"counters": ["c"]},
            {"counters": {"c": "NaN-ish"}},
            {"counters": {3: 1}},
            {"gauges": {"g": None}},
            {"histograms": {"h": 7}},
            {"histograms": {"h": {"count": -1, "sum": 0.0}}},
            {"histograms": {"h": {"count": True, "sum": 0.0}}},
            {"histograms": {"h": {"count": 1, "sum": "x"}}},
            {"histograms": {"h": {"count": 1, "sum": 1.0, "buckets": [1]}}},
            {"histograms": {"h": {"count": 1, "sum": 1.0, "min": "low"}}},
        ],
    )
    def test_merge_rejects_each_malformation(self, registry, snapshot):
        assert registry.merge_snapshot(snapshot) is False
        assert (
            registry.counter("observability.rejected_snapshots").value == 1
        )

    def test_merge_rejects_cross_kind_name_conflicts(self, registry):
        registry.counter("metric").add(1)
        assert registry.merge_snapshot({"gauges": {"metric": 1.0}}) is False
        assert registry.counter("metric").value == 1
        assert (
            registry.counter("observability.rejected_snapshots").value == 1
        )

    def test_render_lists_every_metric(self, registry):
        registry.counter("ingest.tuples").add(10)
        registry.gauge("depth").set(2)
        registry.histogram("bytes").observe(100.0)
        table = registry.render()
        for name in ("ingest.tuples", "depth", "bytes"):
            assert name in table

    def test_render_empty(self, registry):
        assert "no metrics" in registry.render()

    def test_reset_registry_installs_fresh(self, registry):
        registry.counter("x").add(1)
        reset_registry()
        try:
            assert get_registry().counter("x").value == 0
        finally:
            set_registry(registry)


class TestInstrumentation:
    def test_update_batch_counts_tuples_and_dispatch(self, registry):
        data = generate_dataset_one(300, 150, c=1, seed=9)
        estimator = ImplicationCountEstimator(data.conditions, seed=9)
        estimator.update_batch(data.lhs, data.rhs)
        assert registry.counter("ingest.batches").value == 1
        assert registry.counter("ingest.tuples").value == len(data.lhs)
        assert registry.counter("batch.blocks").value >= 1
        # The head of a stream always floats fringes rightward.
        assert registry.counter("nips.fringe_floats").value >= 1

    def test_serialize_metrics(self, registry):
        data = generate_dataset_one(200, 100, c=1, seed=3)
        estimator = ImplicationCountEstimator(data.conditions, seed=3)
        estimator.update_batch(data.lhs, data.rhs)
        payload = estimator.to_bytes()
        ImplicationCountEstimator.from_bytes(payload)
        assert registry.counter("serialize.encoded").value == 1
        assert registry.counter("serialize.decoded").value == 1
        histogram = registry.histogram("serialize.payload_bytes")
        assert histogram.count == 1
        assert histogram.maximum == len(payload)


class TestCliExport:
    def test_metrics_json_written(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "quick")
        target = tmp_path / "metrics.json"
        assert main(["throughput", "--metrics-json", str(target)]) == 0
        exported = json.loads(target.read_text())
        assert exported["counters"]["ingest.tuples"] > 0
        out = capsys.readouterr().out
        assert "ingest.tuples" in out  # text table printed alongside

    def test_metrics_json_rejects_missing_directory(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "throughput",
                    "--metrics-json",
                    "/nonexistent-dir-xyz/metrics.json",
                ]
            )
