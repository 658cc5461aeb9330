"""Dependency-free metrics: counters, gauges and simple histograms.

The paper's constrained environments (Section 1) ship *sketches* because
tuples are too expensive to move; the same logic applies to telemetry.  A
:class:`MetricsRegistry` is a tiny in-process accumulator whose whole state
snapshots to a flat JSON-able dict, so a checkpoint can carry its metrics
and a restore (or a load client) folds them back with
:meth:`MetricsRegistry.merge_snapshot` — exactly the snapshot/merge shape
the estimators themselves use.

Design constraints:

* **No dependencies** — stdlib only, importable from the innermost hot
  paths without cycles (this module imports nothing from :mod:`repro`).
* **Cheap updates** — a counter ``add`` is one attribute increment; hot
  paths instrument at batch/segment/group granularity, never per tuple,
  keeping the measured overhead of the layer within noise (the acceptance
  bound is <= 5% on the full batch engine).
* **Swappable global** — instrumented code resolves the active registry
  through :func:`get_registry` at call time, so a caller (a test, a CLI
  export) can install a fresh registry with :func:`set_registry` or
  :func:`reset_registry` and read back only what ran after it.
"""

from __future__ import annotations

import json
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_BUCKET_BOUNDS",
    "HISTOGRAM_BUCKET_COUNT",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "reset_registry",
]

#: Shared log-spaced bucket upper bounds (inclusive) for every
#: :class:`Histogram`: 1e-6 doubling 64 times (~1 microsecond to ~9e12 in
#: whatever unit the caller observes — covers sub-millisecond latencies
#: and multi-gigabyte payload sizes alike at ~2x resolution).  One fixed
#: layout for all histograms keeps the merge well-defined with zero
#: per-histogram configuration: any two snapshots always agree on bucket
#: edges, so bucket counts fold by plain addition like everything else.
HISTOGRAM_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * 2.0**exponent for exponent in range(64)
)

#: Total bucket count, including the final overflow bucket for values
#: beyond the last bound.
HISTOGRAM_BUCKET_COUNT = len(HISTOGRAM_BUCKET_BOUNDS) + 1


class Counter:
    """Monotonically increasing count (merges by summation)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Point-in-time value (merges by last-write-wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Distribution histogram: count / sum / min / max plus fixed buckets.

    The summary fields (count, sum, extrema) merge exactly and answer
    mean/spread/worst-case; the fixed log-spaced bucket counts
    (:data:`HISTOGRAM_BUCKET_BOUNDS` plus one overflow bucket) survive
    snapshot/merge so quantiles stay computable from *shipped*
    metrics — a merged p99 needs the distribution, not just extrema.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.buckets = [0] * HISTOGRAM_BUCKET_COUNT

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.buckets[bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated q-quantile from the bucket counts.

        Returns the upper bound of the bucket holding the q-th observation,
        clamped into ``[minimum, maximum]`` — within one doubling of the
        true quantile by construction.  ``None`` when no bucketed mass
        exists: an empty histogram, or one populated purely by merging
        v1 summaries (which shipped no buckets).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        total = sum(self.buckets)
        if total == 0:
            return None
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(HISTOGRAM_BUCKET_BOUNDS):
                    estimate = HISTOGRAM_BUCKET_BOUNDS[index]
                else:  # overflow bucket: only the observed maximum bounds it
                    estimate = (
                        self.maximum
                        if self.maximum is not None
                        else HISTOGRAM_BUCKET_BOUNDS[-1]
                    )
                if self.minimum is not None:
                    estimate = max(estimate, self.minimum)
                if self.maximum is not None:
                    estimate = min(estimate, self.maximum)
                return estimate
        return self.maximum  # pragma: no cover - loop always returns

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.6g})"
        )


class MetricsRegistry:
    """Named metrics with snapshot/merge semantics.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name; a name
    belongs to exactly one metric type (reusing it with another type
    raises).  :meth:`snapshot` produces a plain dict that round-trips
    through JSON, and :meth:`merge_snapshot` folds such a dict in —
    counters add, histograms combine, gauges take the incoming value.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already a {other_kind}, "
                    f"cannot reuse it as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, "histogram")
            metric = self._histograms[name] = Histogram(name)
        return metric

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------ #
    # Snapshot / merge (the shipping format checkpoints and clients use)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Flat JSON-able state (the wire form checkpoints record)."""
        return {
            "counters": {
                name: metric.value for name, metric in self._counters.items()
            },
            "gauges": {
                name: metric.value for name, metric in self._gauges.items()
            },
            "histograms": {
                name: {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.minimum,
                    "max": metric.maximum,
                    "buckets": list(metric.buckets),
                }
                for name, metric in self._histograms.items()
            },
        }

    @staticmethod
    def _is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def _snapshot_fault(self, snapshot) -> str | None:
        """Why ``snapshot`` cannot be merged, or ``None`` when it can.

        Checks everything the fold below will touch — section shapes,
        value types, histogram summary layout, bucket-list length, and
        name/kind conflicts against already-registered metrics — so the
        fold itself can never raise part-way through.
        """
        if not isinstance(snapshot, dict):
            return f"snapshot must be a dict, got {type(snapshot).__name__}"
        tables = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }

        def conflicted(name: str, kind: str) -> str | None:
            for other_kind, table in tables.items():
                if other_kind != kind and name in table:
                    return f"{kind} {name!r} is already a {other_kind} here"
            return None

        for section, kind in (("counters", "counter"), ("gauges", "gauge")):
            table = snapshot.get(section, {})
            if not isinstance(table, dict):
                return f"{section!r} must be a dict"
            for name, value in table.items():
                if not isinstance(name, str):
                    return f"{section!r} key {name!r} is not a string"
                if not self._is_number(value):
                    return f"{kind} {name!r} value {value!r} is not numeric"
                conflict = conflicted(name, kind)
                if conflict is not None:
                    return conflict
        histograms = snapshot.get("histograms", {})
        if not isinstance(histograms, dict):
            return "'histograms' must be a dict"
        for name, summary in histograms.items():
            if not isinstance(name, str):
                return f"'histograms' key {name!r} is not a string"
            if not isinstance(summary, dict):
                return f"histogram {name!r} summary is not a dict"
            count = summary.get("count", 0)
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                return f"histogram {name!r} count {count!r} is invalid"
            if not self._is_number(summary.get("sum", 0.0)):
                return f"histogram {name!r} sum {summary.get('sum')!r} is not numeric"
            for extremum in ("min", "max"):
                value = summary.get(extremum)
                if value is not None and not self._is_number(value):
                    return (
                        f"histogram {name!r} {extremum} {value!r} "
                        f"is not numeric"
                    )
            buckets = summary.get("buckets")
            if buckets is not None:
                if (
                    not isinstance(buckets, list)
                    or len(buckets) != HISTOGRAM_BUCKET_COUNT
                ):
                    return (
                        f"histogram {name!r} buckets must be a list of "
                        f"{HISTOGRAM_BUCKET_COUNT} counts"
                    )
                for bucket_count in buckets:
                    if (
                        not isinstance(bucket_count, int)
                        or isinstance(bucket_count, bool)
                        or bucket_count < 0
                    ):
                        return (
                            f"histogram {name!r} bucket count "
                            f"{bucket_count!r} is invalid"
                        )
            conflict = conflicted(name, "histogram")
            if conflict is not None:
                return conflict
        return None

    def merge_snapshot(self, snapshot: dict) -> bool:
        """Fold a :meth:`snapshot` dict into this registry, atomically.

        The whole snapshot is validated *before* anything is applied: a
        malformed or torn one (non-numeric counter, string histogram sum,
        wrong bucket layout, a name that clashes with a differently-typed
        metric here) is rejected in full — never half-merged — counted in
        ``observability.rejected_snapshots``, and reported by returning
        ``False``.  This mirrors the coordinator's payload quarantine: by
        the time a restored checkpoint's metrics are folded its sketch
        payload was already accepted, so a mid-fold ``TypeError`` would
        corrupt the live telemetry with no way back.

        v1 summaries (no ``"buckets"`` key) still merge — count, sum and
        extrema combine; only quantiles are unavailable for their mass.
        """
        fault = self._snapshot_fault(snapshot)
        if fault is not None:
            self.counter("observability.rejected_snapshots").add(1)
            return False
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = int(summary.get("count", 0))
            if count <= 0:
                continue
            histogram.count += count
            histogram.total += float(summary.get("sum", 0.0))
            for bucket_index, bucket_count in enumerate(
                summary.get("buckets") or ()
            ):
                histogram.buckets[bucket_index] += bucket_count
            for extremum, pick in (("min", min), ("max", max)):
                incoming = summary.get(extremum)
                if incoming is None:
                    continue
                current = getattr(histogram, "minimum" if extremum == "min" else "maximum")
                merged = incoming if current is None else pick(current, incoming)
                setattr(
                    histogram,
                    "minimum" if extremum == "min" else "maximum",
                    merged,
                )
        return True

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document (``--metrics-json`` output)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable text table of every metric, sorted by name."""
        rows: list[tuple[str, str, str]] = []
        for name in sorted(self._counters):
            rows.append((name, "counter", f"{self._counters[name].value:,}"))
        for name in sorted(self._gauges):
            rows.append((name, "gauge", f"{self._gauges[name].value:,.6g}"))
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            rows.append(
                (
                    name,
                    "histogram",
                    f"n={histogram.count} mean={histogram.mean:,.6g} "
                    f"min={histogram.minimum if histogram.minimum is not None else '-'} "
                    f"max={histogram.maximum if histogram.maximum is not None else '-'}",
                )
            )
        if not rows:
            return "(no metrics recorded)"
        headers = ("metric", "type", "value")
        widths = [
            max(len(headers[column]), *(len(row[column]) for row in rows))
            for column in range(3)
        ]
        lines = [
            "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
            "  ".join("-" * width for width in widths),
        ]
        lines.extend(
            "  ".join(field.ljust(width) for field, width in zip(row, widths))
            for row in rows
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


# --------------------------------------------------------------------- #
# The process-global registry
# --------------------------------------------------------------------- #

_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The active registry — instrumented code resolves this at call time."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


def reset_registry() -> MetricsRegistry:
    """Install a fresh, empty registry (convenience for CLI runs / tests)."""
    return set_registry(MetricsRegistry())

