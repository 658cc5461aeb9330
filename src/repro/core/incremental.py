"""Incremental implication counts (Section 3.2, Figure 1).

The base estimator counts itemsets whose implication conditions hold *from a
reference point in the stream onward*.  The incremental relaxation asks "how
many *new* implying itemsets appeared between t1 and t2?" and answers it as
``ic(t2) - ic(t1)`` by checkpointing the running count.

Sliding-window counts (Figure 2) live in :mod:`repro.windowed`:
:class:`~repro.windowed.WindowedImplicationEstimator` rotates pane-disjoint
generations of the estimator and merges them on read.
"""

from __future__ import annotations

from typing import Hashable

from .estimator import ImplicationCountEstimator

__all__ = ["IncrementalImplicationCounter"]


class IncrementalImplicationCounter:
    """Checkpointed implication counts: ``ic(t2) - ic(t1)``.

    Wraps a single estimator; :meth:`checkpoint` snapshots the current
    estimates under a label, and :meth:`increment_since` returns the growth
    of the implication count since that label.

    Note the semantics inherited from the paper: the increment counts *new*
    itemsets that satisfy the conditions, net of itemsets that left the
    count by violating a condition in the interval — which is why a small
    negative increment is possible and is clamped only on request.
    """

    def __init__(self, estimator: ImplicationCountEstimator) -> None:
        self.estimator = estimator
        self._checkpoints: dict[str, tuple[int, float]] = {}

    def update(self, itemset: Hashable, partner: Hashable, weight: int = 1) -> None:
        self.estimator.update(itemset, partner, weight)

    def update_batch(self, lhs, rhs) -> None:
        self.estimator.update_batch(lhs, rhs)

    def checkpoint(self, label: str) -> float:
        """Snapshot the running count under ``label``; returns the count."""
        count = self.estimator.implication_count()
        self._checkpoints[label] = (self.estimator.tuples_seen, count)
        return count

    def increment_since(self, label: str, clamp: bool = True) -> float:
        """Implication-count growth since the labelled checkpoint."""
        if label not in self._checkpoints:
            raise KeyError(f"no checkpoint named {label!r}")
        __, then = self._checkpoints[label]
        delta = self.estimator.implication_count() - then
        return max(delta, 0.0) if clamp else delta

    def tuples_since(self, label: str) -> int:
        """Stream tuples consumed since the labelled checkpoint."""
        if label not in self._checkpoints:
            raise KeyError(f"no checkpoint named {label!r}")
        tuples_then, __ = self._checkpoints[label]
        return self.estimator.tuples_seen - tuples_then

    def drop_checkpoint(self, label: str) -> None:
        self._checkpoints.pop(label, None)
