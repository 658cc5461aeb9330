"""In-process bulk ingest: one exact ``update_batch`` pass per stream.

CI's stochastic averaging sends each tuple to exactly one of the ``m``
bitmaps (PAPER.md §1), so the only split of a stream across cores that
stays exact is by bitmap route: a shard that owns a fixed set of bitmap
indexes and ingests only the rows routed to them, in stream order,
rebuilds those bitmaps exactly.  On a 2-core host that split does not
pay — every shard still hashes the whole stream to find its rows — so the
engine runs one pass in the calling process (DESIGN.md §10 has the
measured bound).  Contiguous stream shards merged with
:meth:`ImplicationCountEstimator.merge` are exact only at theta = 0 with
an unbounded fringe; that identity stays pinned by the ``shard-merge``
contract for the distributed :class:`~repro.distributed.Coordinator`.
"""

from __future__ import annotations

import numpy as np

from ..core.estimator import ImplicationCountEstimator

__all__ = ["ShardedIngestor"]


class ShardedIngestor:
    """Bulk ingest of a whole stream into a fresh sibling of ``template``.

    The template is never mutated; its geometry, conditions, placement
    hash and kernel backend carry over through
    :meth:`~ImplicationCountEstimator.spawn_sibling`, so callers pick a
    backend with ``kernels=`` on the template.

    Examples
    --------
    >>> estimator = ShardedIngestor(template).ingest(lhs, rhs)
    >>> estimator.implication_count()  # doctest: +SKIP
    """

    def __init__(self, template: ImplicationCountEstimator) -> None:
        self.template = template

    def ingest(self, lhs: np.ndarray, rhs: np.ndarray) -> ImplicationCountEstimator:
        """One :meth:`~ImplicationCountEstimator.update_batch` pass over the
        stream: bit-for-bit the scalar loop on every stream and condition
        profile."""
        estimator = self.template.spawn_sibling()
        estimator.update_batch(lhs, rhs)
        return estimator
