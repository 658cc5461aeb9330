"""A stream node: local sketching plus snapshot shipping.

The paper's Section 1 setting: "a node in a distributed environment
receives a stream of data and wants to maintain a series of statistics
about various implicated attributes", with aggregation mattering "for
bandwidth conservation and energy consumption" in sensor networks.

A :class:`StreamNode` owns a local NIPS/CI estimator (spawned from a shared
template so every node uses the same placement hash) and periodically emits
:meth:`snapshot` payloads — the complete, mergeable sketch state, a few KB
regardless of how many tuples the node has absorbed.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from ..core.estimator import ImplicationCountEstimator
from ..observability import metrics as obs

__all__ = ["StreamNode"]


class StreamNode:
    """One observation point (router line card, sensor).

    Parameters
    ----------
    name:
        Identifier used in reports.
    template:
        An estimator whose geometry / conditions / placement hash this node
        must share with every peer; the node works on a fresh sibling.
    """

    def __init__(self, name: str, template: ImplicationCountEstimator) -> None:
        self.name = name
        self.estimator = template.spawn_sibling()
        self.snapshots_sent = 0
        self.bytes_sent = 0

    def observe(self, itemset: Hashable, partner: Hashable, weight: int = 1) -> None:
        """Record one locally-observed tuple."""
        self.estimator.update(itemset, partner, weight)

    def observe_batch(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        """Record a batch of integer-encoded local tuples."""
        self.estimator.update_batch(lhs, rhs)

    @property
    def tuples_seen(self) -> int:
        return self.estimator.tuples_seen

    def snapshot(self) -> bytes:
        """Serialize the node's current sketch for shipping upstream.

        Snapshots are *cumulative* (the whole local state each time), so an
        aggregator can always rebuild from the latest snapshot per node —
        sync is idempotent and tolerates lost messages.
        """
        payload = self.estimator.to_bytes()
        self.snapshots_sent += 1
        self.bytes_sent += len(payload)
        registry = obs.get_registry()
        registry.counter("node.snapshots").add(1)
        registry.counter("node.bytes_sent").add(len(payload))
        return payload

    def local_implication_count(self) -> float:
        """The node's own (sub-stream) estimate — useful for debugging."""
        return self.estimator.implication_count()

    def __repr__(self) -> str:
        return (
            f"StreamNode({self.name!r}, tuples={self.tuples_seen}, "
            f"snapshots={self.snapshots_sent})"
        )
