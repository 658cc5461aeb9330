"""Observability for the ingest stack: metrics registry and exports.

See :mod:`repro.observability.metrics` for the registry itself.  The hot
paths (:meth:`ImplicationCountEstimator.update_batch`, the coordinator,
the wire format, checkpoints and the serving loop) instrument themselves
against the process-global registry; ``repro-experiments throughput
--metrics-json PATH`` exports the collected metrics after a run.
"""

from .metrics import (
    Counter,
    Gauge,
    HISTOGRAM_BUCKET_BOUNDS,
    HISTOGRAM_BUCKET_COUNT,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "HISTOGRAM_BUCKET_BOUNDS",
    "HISTOGRAM_BUCKET_COUNT",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "set_registry",
]
