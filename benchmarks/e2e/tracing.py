"""Benchmark-owned span tracer: wraps public functions from outside.

The tracer replaces named functions of the program with wrappers that
record one span per call: name, start, end, parent span, thread and id.
Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC), which every
process on the host shares, so a client-side request span in ``run.py``
and the server's dispatch span for the same ``rid`` can be joined.
Spans stay in memory and are written as JSON lines when the traced
process exits.

A target that no longer exists is skipped with a warning on stderr: the
untraced benchmark never depends on a wrapper, and a later change that
renames a function loses one trace row, not the whole run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

from stats import percentile


def _dispatch_attrs(args, kwargs, result):
    params = args[3] if len(args) > 3 else kwargs.get("params", {})
    return {"method": args[1], "rid": (params.get("rid") or [None])[0]}


def _bytes_attrs(args, kwargs, result):
    return {"bytes": len(result)} if isinstance(result, bytes) else None


def _save_attrs(args, kwargs, result):
    if not isinstance(result, dict):
        return None
    attached = sum(entry["bytes"] for entry in result.get("attachments", ()))
    return {"bytes": result["payload"]["bytes"] + attached}


#: Layer boundaries both the serving and the bulk runs cross.
ENGINE_TARGETS = (
    ("repro.engine.sharded", "ShardedIngestor.ingest", "engine.ingest", None),
    (
        "repro.engine.sharded",
        "ShardedIngestor.ingest_payloads",
        "engine.ingest_payloads",
        None,
    ),
    (
        "repro.core.estimator",
        "ImplicationCountEstimator.update_batch",
        "core.update_batch",
        None,
    ),
    ("repro.core.estimator", "ImplicationCountEstimator.merge", "core.merge", None),
    (
        "repro.core.estimator",
        "ImplicationCountEstimator.to_bytes",
        "serialize.to_bytes",
        _bytes_attrs,
    ),
    (
        "repro.core.estimator",
        "ImplicationCountEstimator.from_bytes",
        "serialize.from_bytes",
        None,
    ),
    ("repro.core.serialize", "estimator_state_digest", "serialize.digest", None),
    (
        "repro.core.estimator",
        "ImplicationCountEstimator.implication_count",
        "core.readout",
        None,
    ),
    (
        "repro.core.estimator",
        "ImplicationCountEstimator.nonimplication_count",
        "core.readout",
        None,
    ),
    (
        "repro.core.estimator",
        "ImplicationCountEstimator.supported_distinct_count",
        "core.readout",
        None,
    ),
)

#: The serving layers, outermost first, plus the engine underneath.
SERVING_TARGETS = (
    ("repro.serving.http", "Router.dispatch", "http.dispatch", _dispatch_attrs),
    ("repro.serving.sources", "PushSource.push", "sources.push", None),
    ("repro.serving.sources", "PushSource.wait_batch", "sources.wait", None),
    (
        "repro.serving.service",
        "ImplicationService.ingest_step",
        "service.step",
        None,
    ),
    ("repro.serving.service", "ImplicationService.commit", "service.commit", None),
    (
        "repro.serving.service",
        "SnapshotStore.publish",
        "service.publish_swap",
        None,
    ),
    (
        "repro.recovery.checkpoint",
        "CheckpointManager.save",
        "recovery.save",
        _save_attrs,
    ),
) + ENGINE_TARGETS


class Tracer:
    """In-memory span recorder over wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function, name: str, attrs=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = time.monotonic_ns()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        attrs(args, kwargs, result) if attrs else None,
                    )
                )

        return traced

    def install(self, targets) -> None:
        """Wrap every target that exists; warn about the others."""
        for module_name, qualname, name, attrs in targets:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attribute = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                print(
                    f"trace: {module_name}.{qualname} no longer exists; "
                    f"skipping the {name} span",
                    file=sys.stderr,
                )
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(self.wrap(raw.__func__, name, attrs)))
                continue
            wrapped = self.wrap(raw, name, attrs)
            setattr(owner, attribute, wrapped)
            if owner is module:
                # Modules that imported the function by name hold their own
                # reference; rebind those too.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and (
                        getattr(other, attribute, None) is raw
                    ):
                        setattr(other, attribute, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread, attrs in list(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def quantile_ms(values_ns, q: float) -> float:
    """Exact nearest-rank quantile of nanosecond samples, in ms (0 if none)."""
    values = list(values_ns)
    return percentile(values, q).value / 1e6 if values else 0.0


def engine_layers(spans: list[dict], counters: dict, gauges: dict) -> dict:
    """Per-layer metrics of the engine and core layers (serving and bulk).

    Times are per call; ``counters``/``gauges`` are the program's metrics
    registry (``/metrics`` for a server, the registry itself for bulk).
    """

    def durations(name: str, key: str = "dur") -> list[int]:
        return [span[key] for span in spans if span["name"] == name]

    ids = {span["id"]: span for span in spans}
    # implication_count calls the other two readouts: count outermost calls.
    readouts = [
        span["dur"]
        for span in spans
        if span["name"] == "core.readout"
        and ids.get(span["parent"], {}).get("name") != "core.readout"
    ]
    payloads = [
        span["attrs"]["bytes"]
        for span in spans
        if span["name"] == "serialize.to_bytes" and span["attrs"]
    ]
    tuples = counters.get("ingest.tuples", 0)
    per_mtuple = 1e6 / tuples if tuples else 0.0
    return {
        "engine.ingest_payloads_ms": quantile_ms(durations("engine.ingest_payloads"), 0.5),
        "core.update_batch_ms": quantile_ms(durations("core.update_batch"), 0.5),
        "core.merge_ms": quantile_ms(durations("core.merge"), 0.5),
        "core.readout_ms": quantile_ms(readouts, 0.5),
        "core.serialize.to_bytes_ms": quantile_ms(durations("serialize.to_bytes"), 0.5),
        "core.serialize.from_bytes_ms": quantile_ms(durations("serialize.from_bytes"), 0.5),
        "core.serialize.digest_ms": quantile_ms(durations("serialize.digest"), 0.5),
        "core.serialize.payload_bytes": float(percentile(payloads, 0.5).value)
        if payloads
        else 0.0,
        "core.live_row_frac": counters.get("batch.live_rows", 0) / tuples
        if tuples
        else 0.0,
        "core.groups_per_mtuple": counters.get("batch.groups", 0) * per_mtuple,
        "core.fringe_floats_per_mtuple": counters.get("nips.fringe_floats", 0)
        * per_mtuple,
        "kernels.fallbacks": float(counters.get("kernels.fallbacks", 0)),
        "kernels.compiled": float(gauges.get("kernels.backend", 0.0)),
    }


def self_time_rows(spans: list[dict], window: tuple[int, int], thread=None) -> dict:
    """Total self time (ns) per span name inside ``window``, one thread or all."""
    begin, end = window
    rows: dict[str, int] = defaultdict(int)
    for span in spans:
        if thread is not None and span["thread"] != thread:
            continue
        if span["end"] <= begin or span["start"] >= end:
            continue
        # Self time scaled by the share of the span inside the window.
        inside = min(span["end"], end) - max(span["start"], begin)
        rows[span["name"]] += int(span["self"] * inside / span["dur"]) if span["dur"] else 0
    return dict(rows)


def covered_ns(spans: list[dict], window: tuple[int, int], thread=None) -> int:
    """Time inside ``window`` covered by top-level spans (one thread or all)."""
    begin, end = window
    covered = 0
    for span in spans:
        if span["parent"] or (thread is not None and span["thread"] != thread):
            continue
        covered += max(min(span["end"], end) - max(span["start"], begin), 0)
    return covered


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    children = defaultdict(int)
    for span in spans:
        if span["parent"]:
            children[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"] - children.get(span["id"], 0)
    return spans
