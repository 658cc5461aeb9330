"""Bulk ingest engine: one exact in-process pass per stream.

:class:`ShardedIngestor` runs one
:meth:`repro.core.estimator.ImplicationCountEstimator.update_batch` pass
(Zone-1 filter, then exact per-row replay) over a fresh sibling of its
template.  DESIGN.md §10 records why no multi-process split remains.
"""

from .sharded import ShardedIngestor

__all__ = ["ShardedIngestor"]
