"""The paper's primary contribution: NIPS/CI implication-count estimation.

Public surface:

* :class:`ImplicationConditions` — the ``(K, tau, c, theta)`` knobs;
* :class:`ImplicationCountEstimator` — NIPS/CI with stochastic averaging;
* :class:`NIPSBitmap` — a single bitmap (building block / research use);
* :class:`MedianOfEstimators` and the (eps, delta) helpers;
* the incremental wrapper (sliding windows are :mod:`repro.windowed`);
* the declarative query layer of Table 2.
"""

from .aggregates import (
    ExactImplicationAggregates,
    SampledImplicationAggregates,
)
from .approximation import (
    MedianOfEstimators,
    bitmaps_for_accuracy,
    groups_for_confidence,
    minimum_estimable_count,
    required_fringe_size,
)
from .conditions import ImplicationConditions, ItemsetStatus
from .estimator import ImplicationCountEstimator, MemoryProfile
from .incremental import IncrementalImplicationCounter
from .nips import DEFAULT_CAPACITY_SLACK, DEFAULT_FRINGE_SIZE, NIPSBitmap
from .queries import (
    AggregateQuery,
    DistinctCountQuery,
    ImplicationQuery,
    QueryEngine,
    WindowedImplicationQuery,
)
from .tracker import ItemsetState, ItemsetTracker
from .triggers import BaselineTrigger, Trigger, TriggerBoard, TriggerEvent

__all__ = [
    "ImplicationConditions",
    "ItemsetStatus",
    "ImplicationCountEstimator",
    "MemoryProfile",
    "NIPSBitmap",
    "DEFAULT_FRINGE_SIZE",
    "DEFAULT_CAPACITY_SLACK",
    "ItemsetState",
    "ItemsetTracker",
    "ExactImplicationAggregates",
    "SampledImplicationAggregates",
    "MedianOfEstimators",
    "required_fringe_size",
    "minimum_estimable_count",
    "groups_for_confidence",
    "bitmaps_for_accuracy",
    "IncrementalImplicationCounter",
    "ImplicationQuery",
    "AggregateQuery",
    "DistinctCountQuery",
    "WindowedImplicationQuery",
    "QueryEngine",
    "Trigger",
    "BaselineTrigger",
    "TriggerBoard",
    "TriggerEvent",
]
