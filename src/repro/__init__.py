"""repro — implication statistics over constrained data streams.

A production-grade reproduction of *Sismanis & Roussopoulos, "Maintaining
Implicated Statistics in Constrained Environments", ICDE 2005*: the NIPS/CI
framework for estimating how many itemsets of one attribute set *imply*
another (appear with at most K partners, with minimum support, at a minimum
top-c confidence) using a few kilobytes of state and O(K log K) work per
tuple.

Quickstart::

    from repro import ImplicationConditions, ImplicationCountEstimator

    conditions = ImplicationConditions(
        max_multiplicity=1, min_support=1, top_c=1, min_top_confidence=1.0
    )
    estimator = ImplicationCountEstimator(conditions, num_bitmaps=64)
    for source, destination in stream:
        estimator.update((destination,), (source,))
    print(estimator.implication_count())   # destinations with one source

See README.md for the architecture tour and DESIGN.md for the
paper-to-module map.
"""

from .baselines import (
    DistinctSamplingImplicationCounter,
    ExactImplicationCounter,
    ImplicationLossyCounting,
    ImplicationStickySampling,
    LossyCounting,
    StickySampling,
)
from .core import (
    AggregateQuery,
    DistinctCountQuery,
    ExactImplicationAggregates,
    ImplicationConditions,
    ImplicationCountEstimator,
    ImplicationQuery,
    IncrementalImplicationCounter,
    ItemsetStatus,
    MedianOfEstimators,
    MemoryProfile,
    NIPSBitmap,
    QueryEngine,
    WindowedImplicationQuery,
    SampledImplicationAggregates,
    BaselineTrigger,
    Trigger,
    TriggerBoard,
    TriggerEvent,
    minimum_estimable_count,
    required_fringe_size,
)
from .mining import DependencyFinder, DependencyScore, SynopsisPlan, plan_synopsis
from .offline import RefreshReport, WarehouseMonitor
from .distributed import AggregationTree, Coordinator, StreamNode
from .sketch import PCSA, FMBitmap, HashFamily, HyperLogLog, KMinimumValues, LogLog
from .stream import Relation, Schema
from .windowed import (
    DecayingImplicationCounter,
    WindowedImplicationEstimator,
    decay_fringe_counters,
    offline_window_reference,
    windowed_state_digest,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ImplicationConditions",
    "ItemsetStatus",
    "ImplicationCountEstimator",
    "MemoryProfile",
    "NIPSBitmap",
    "MedianOfEstimators",
    "required_fringe_size",
    "minimum_estimable_count",
    "IncrementalImplicationCounter",
    "ImplicationQuery",
    "AggregateQuery",
    "DistinctCountQuery",
    "WindowedImplicationQuery",
    "QueryEngine",
    # baselines
    "ExactImplicationCounter",
    "DistinctSamplingImplicationCounter",
    "ImplicationLossyCounting",
    "ImplicationStickySampling",
    "LossyCounting",
    "StickySampling",
    # sketches
    "FMBitmap",
    "PCSA",
    "HashFamily",
    "LogLog",
    "HyperLogLog",
    "KMinimumValues",
    # triggers
    "Trigger",
    "BaselineTrigger",
    "TriggerBoard",
    "TriggerEvent",
    # mining applications
    "DependencyFinder",
    "DependencyScore",
    "SynopsisPlan",
    "plan_synopsis",
    # aggregates & offline maintenance
    "ExactImplicationAggregates",
    "SampledImplicationAggregates",
    "WarehouseMonitor",
    "RefreshReport",
    # distributed aggregation
    "StreamNode",
    "Coordinator",
    "AggregationTree",
    # stream model
    "Schema",
    "Relation",
    # time-windowed estimators (DESIGN.md §13)
    "WindowedImplicationEstimator",
    "DecayingImplicationCounter",
    "decay_fringe_counters",
    "offline_window_reference",
    "windowed_state_digest",
]
