"""Tests for incremental and sliding-window implication counting (§3.2).

Sliding-window counts come from :mod:`repro.windowed`; its rotation,
expiry and serialization are pinned by ``tests/test_windowed.py``.
"""

from __future__ import annotations

import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.incremental import IncrementalImplicationCounter
from repro.windowed import WindowedImplicationEstimator


def strict() -> ImplicationConditions:
    return ImplicationConditions(
        max_multiplicity=1, min_support=1, top_c=1, min_top_confidence=1.0
    )


def feed_phase(counter, prefix: str, count: int) -> None:
    """Feed ``count`` fresh one-to-one itemsets named with ``prefix``."""
    for index in range(count):
        counter.update(f"{prefix}-{index}", f"partner-{prefix}-{index}")


class TestIncremental:
    def test_increment_counts_new_itemsets(self):
        counter = IncrementalImplicationCounter(
            ImplicationCountEstimator(strict(), seed=1)
        )
        feed_phase(counter, "early", 400)
        at_t1 = counter.checkpoint("t1")
        feed_phase(counter, "late", 400)
        increment = counter.increment_since("t1")
        assert at_t1 > 0
        # ~400 new implying itemsets appeared; allow sketch error.
        assert 200 < increment < 700

    def test_tuples_since(self):
        counter = IncrementalImplicationCounter(
            ImplicationCountEstimator(strict(), seed=1)
        )
        feed_phase(counter, "a", 10)
        counter.checkpoint("mark")
        feed_phase(counter, "b", 25)
        assert counter.tuples_since("mark") == 25

    def test_unknown_checkpoint(self):
        counter = IncrementalImplicationCounter(
            ImplicationCountEstimator(strict(), seed=1)
        )
        with pytest.raises(KeyError):
            counter.increment_since("never")
        with pytest.raises(KeyError):
            counter.tuples_since("never")

    def test_clamping(self):
        counter = IncrementalImplicationCounter(
            ImplicationCountEstimator(strict(), seed=1)
        )
        feed_phase(counter, "x", 300)
        counter.checkpoint("t1")
        # Violate many previously-good itemsets: the count *drops*.
        for index in range(300):
            counter.update(f"x-{index}", "second-partner")
        assert counter.increment_since("t1") == 0.0
        assert counter.increment_since("t1", clamp=False) < 0.0

    def test_drop_checkpoint(self):
        counter = IncrementalImplicationCounter(
            ImplicationCountEstimator(strict(), seed=1)
        )
        counter.checkpoint("gone")
        counter.drop_checkpoint("gone")
        with pytest.raises(KeyError):
            counter.increment_since("gone")


class TestSlidingWindow:
    def test_old_contributions_retire(self):
        """Itemsets from long ago must leave the windowed count."""
        window = WindowedImplicationEstimator(
            strict(), seed=2, window=1000, generations=4
        )
        feed_phase(window, "old", 500)
        count_after_burst = window.implication_count()
        assert count_after_burst > 100
        # Push the burst far out of the window with unrelated repeats of a
        # single itemset (contributes at most 1 to any count).
        for _ in range(3000):
            window.update("filler", "filler-partner")
        assert window.implication_count() <= count_after_burst / 3

    def test_window_sees_recent_itemsets(self):
        window = WindowedImplicationEstimator(
            strict(), seed=4, window=800, generations=4
        )
        for _ in range(2000):
            window.update("warmup", "warmup-partner")
        feed_phase(window, "recent", 400)
        assert window.implication_count() > 100
