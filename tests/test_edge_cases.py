"""Failure injection and edge cases across the library.

Adversarial inputs a production deployment would meet: degenerate hash
functions, empty batches, extreme weights, unicode keys, pathological
geometry, interleaved merge-and-update sequences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactImplicationCounter
from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.nips import NIPSBitmap
from repro.sketch.hashing import HashFunction


class ConstantHash(HashFunction):
    """Worst-case 'hash': every item collides into one bitmap and cell."""

    seed = 0

    def mix(self, value: int) -> int:
        return 1  # lsb position 0, bitmap 1 (after routing bits: still 0)

    def hash_array(self, values):
        return np.full(len(values), 1, dtype=np.uint64)

    def __repr__(self) -> str:
        return "ConstantHash()"


def strict() -> ImplicationConditions:
    return ImplicationConditions(
        max_multiplicity=1, min_support=1, top_c=1, min_top_confidence=1.0
    )


class TestDegenerateHash:
    def test_constant_hash_cannot_crash_the_estimator(self):
        """A fully-colliding hash wrecks accuracy (necessarily) but must
        never corrupt state or raise."""
        estimator = ImplicationCountEstimator(
            strict(), num_bitmaps=8, hash_function=ConstantHash()
        )
        for item in range(500):
            estimator.update(item, item * 3)
        assert estimator.implication_count() >= 0.0
        assert estimator.nonimplication_count() >= 0.0
        profile = estimator.memory_profile()
        assert profile.stored_itemsets <= profile.itemset_budget

    def test_constant_hash_batch_path(self):
        estimator = ImplicationCountEstimator(
            strict(), num_bitmaps=8, hash_function=ConstantHash()
        )
        lhs = np.arange(500, dtype=np.uint64)
        estimator.update_batch(lhs, lhs * np.uint64(3))
        assert estimator.tuples_seen == 500


class TestEmptyAndExtremeInputs:
    def test_empty_batch_is_a_noop(self, one_to_one):
        estimator = ImplicationCountEstimator(one_to_one, num_bitmaps=8)
        estimator.update_batch(
            np.array([], dtype=np.uint64), np.array([], dtype=np.uint64)
        )
        assert estimator.tuples_seen == 0
        assert estimator.implication_count() == 0.0

    def test_huge_weights(self, one_to_one):
        counter = ExactImplicationCounter(one_to_one)
        counter.update("a", "b", weight=10**12)
        assert counter.tuples_seen == 10**12
        assert counter.implication_count() == 1.0

    def test_unicode_and_mixed_keys(self, one_to_one):
        estimator = ImplicationCountEstimator(one_to_one, num_bitmaps=8, seed=1)
        estimator.update("δεδομένα", "πηγή")
        estimator.update(("复合", 42), b"\x00bytes")
        estimator.update(3.14159, None)
        assert estimator.tuples_seen == 3

    def test_single_cell_bitmap(self):
        bitmap = NIPSBitmap(strict(), length=1, fringe_size=1)
        bitmap.update_at(0, "a", "b1")
        bitmap.update_at(0, "a", "b2")
        assert bitmap.leftmost_zero_nonimplication() == 1

    def test_fringe_wider_than_bitmap(self):
        bitmap = NIPSBitmap(strict(), length=4, fringe_size=16)
        for position in range(4):
            bitmap.update_at(position, f"a{position}", "b")
        assert bitmap.fringe_end == 3

    def test_estimator_handles_every_bitmap_saturated(self):
        conditions = ImplicationConditions(max_multiplicity=1, min_support=1)
        estimator = ImplicationCountEstimator(
            conditions, num_bitmaps=8, length=4, seed=2
        )
        for item in range(5000):
            estimator.update(item, 0)
            estimator.update(item, 1)  # everything violates
        assert estimator.nonimplication_count() > 0
        # R cannot exceed the bitmap length.
        for bitmap in estimator.bitmaps:
            assert bitmap.leftmost_zero_nonimplication() <= 4


class TestInterleavedMergeAndUpdate:
    def test_merge_then_continue_updating(self):
        conditions = strict()
        left = ImplicationCountEstimator(conditions, num_bitmaps=8, seed=5)
        right = left.spawn_sibling()
        left.update("a", "b")
        right.update("c", "d")
        left.merge(right)
        left.update("e", "f")
        left.update("a", "b2")  # violate a post-merge
        assert left.tuples_seen == 4
        assert left.nonimplication_count() >= 0.0

    def test_double_merge_of_same_source_double_counts_support(self):
        """Merging the SAME sketch twice is wrong by design (supports add);
        the distributed Coordinator avoids it by rebuilding from latest
        snapshots.  This test documents the behaviour."""
        conditions = ImplicationConditions(min_support=4)
        base = ImplicationCountEstimator(conditions, num_bitmaps=8, seed=6)
        other = base.spawn_sibling()
        other.update("a", "b", weight=2)

        def support_of_a(estimator):
            for bitmap in estimator.bitmaps:
                for cell in bitmap._cells.values():
                    if "a" in cell:
                        return cell["a"].support
            return 0

        base.merge(other)
        assert support_of_a(base) == 2
        base.merge(other)
        assert support_of_a(base) == 4  # double-counted, as documented


class TestSerializationEdgeCases:
    def test_unbounded_fringe_roundtrip(self):
        conditions = strict()
        estimator = ImplicationCountEstimator(
            conditions, num_bitmaps=8, fringe_size=None, seed=7
        )
        for item in range(200):
            estimator.update(item, item * 7)
        clone = ImplicationCountEstimator.from_bytes(estimator.to_bytes())
        assert clone.fringe_size is None
        assert clone.implication_count() == estimator.implication_count()

    def test_empty_estimator_roundtrip(self):
        estimator = ImplicationCountEstimator(strict(), num_bitmaps=8, seed=8)
        clone = ImplicationCountEstimator.from_bytes(estimator.to_bytes())
        assert clone.tuples_seen == 0
        assert clone.implication_count() == 0.0

