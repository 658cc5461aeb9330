"""Bulk workloads: ``bulk-zone1`` and ``bulk-fringe``.

Each pass is one ``ShardedIngestor(template).ingest(lhs, rhs)`` with a
fresh ``ImplicationCountEstimator(conditions, seed=...)`` template and
default arguments.  Passes run in child processes (this file run as a
script) so that peak RSS is the program's, not the benchmark's; the
parent derives the truth, checks the gates and times set-up.

The measured time is split over :data:`PROCESSES` consecutive children
that cycle through :data:`INPUTS` inputs seeded from ``--seed``.  Pass
time depends on the input (its live-row share moves by ~10% from seed to
seed) and on the shared host (one process's median moves by up to 40%
from one process to the next on the 2-core host), so one run pools the
passes of five inputs over ten processes.

Child usage (internal)::

    python bulk.py setup WORKLOAD SEED
    python bulk.py measure WORKLOAD SEED SECONDS QUICK [SPANS]
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gates
import gen
import tracing
from stats import percentile

HERE = Path(__file__).resolve().parent
#: Dataset One conditions of Section 6.1 at c = 2: K = 10c, tau = 50, theta = 0.9.
CONDITIONS = {
    "max_multiplicity": 20,
    "min_support": 50,
    "top_c": 2,
    "min_top_confidence": 0.9,
}
NUM_BITMAPS = 64  # the estimator's default, which the passes use
INPUTS = 5
PROCESSES = 2 * INPUTS
MIN_PASSES = 3  # per child, even when its share of the time is shorter
#: Discarded passes per child: the first few run slower while caches,
#: the allocator and lazy set-up settle.
WARMUP_PASSES = 3
#: Passes per host-speed calibration, and the calibration kernel that
#: tracks each workload's work (see :mod:`calibrate`).
CALIBRATE_EVERY = 4
CALIBRATION = {"bulk-zone1": "vector", "bulk-fringe": "sort"}


def make_stream(workload: str, seed: int, quick: bool) -> gen.Stream:
    if workload == "bulk-fringe":
        return gen.fringe_stream(seed, tuples=50_000 if quick else gen.FRINGE_TUPLES)
    if quick:
        return gen.dataset_one(seed, cardinality=2000, implied=1000)
    return gen.dataset_one(seed)


def make_streams(workload: str, seed: int, quick: bool) -> list[gen.Stream]:
    """The run's inputs, seeded ``seed * INPUTS + index``."""
    return [
        make_stream(workload, seed * INPUTS + index, quick)
        for index in range(INPUTS)
    ]


def _conditions():
    from repro.core.conditions import ImplicationConditions

    return ImplicationConditions(**CONDITIONS)


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def child_setup(seed: int) -> None:
    import numpy as np

    from repro.core.estimator import ImplicationCountEstimator

    estimator = ImplicationCountEstimator(_conditions(), seed=seed)
    estimator.update_batch(np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64))
    print("ready", flush=True)


def child_measure(workload: str, seed: int, seconds: float, quick: bool, spans: str | None) -> None:
    tracer = None
    if spans:
        # Installed before the imports below, so they bind the wrappers.
        tracer = tracing.Tracer()
        tracer.install(tracing.ENGINE_TARGETS)
    from repro.core.estimator import ImplicationCountEstimator
    from repro.core.serialize import estimator_state_digest
    from repro.engine.sharded import ShardedIngestor
    from repro.observability import metrics as obs

    stream = make_stream(workload, seed, quick)
    conditions = _conditions()

    def one_pass():
        template = ImplicationCountEstimator(conditions, seed=seed)
        start = time.monotonic_ns()
        merged = ShardedIngestor(template).ingest(stream.lhs, stream.rhs)
        return merged, (start, time.monotonic_ns())

    for _ in range(WARMUP_PASSES):
        one_pass()
    obs.reset_registry()
    windows, digests, kernel = [], [], []
    deadline = time.monotonic() + seconds
    while len(windows) < MIN_PASSES or time.monotonic() < deadline:
        if len(windows) % CALIBRATE_EVERY == 0:
            kernel.append(calibrate.kernel_seconds(CALIBRATION[workload]))
        merged, window = one_pass()
        windows.append(window)
        digests.append(estimator_state_digest(merged))
    snapshot = obs.get_registry().snapshot()
    print(
        json.dumps(
            {
                "sha256": stream.sha256(),
                "windows": windows,
                "digests": digests,
                "readout": merged.implication_count(),
                "kernel_s": statistics.median(kernel),
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
                "rss_mb": _vm_hwm_mb(),
            }
        ),
        flush=True,
    )
    if tracer is not None:
        tracer.dump(spans)


def _truth(stream: gen.Stream) -> dict:
    """Exact counts: by construction for Dataset One, else the exact counter."""
    if stream.truth is not None:
        return {
            "supported": stream.truth.supported,
            "nonimplication": stream.truth.violated,
            "implication": stream.truth.satisfied,
        }
    from repro.baselines.exact import ExactImplicationCounter

    exact = ExactImplicationCounter(_conditions())
    exact.update_batch(stream.lhs, stream.rhs)
    return {
        "supported": exact.supported_distinct_count(),
        "nonimplication": exact.nonimplication_count(),
        "implication": exact.implication_count(),
    }


def _spawn(ctx, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "bulk.py"), *args],
        stdout=subprocess.PIPE, env=ctx.env, cwd=ctx.root, text=True,
    )


def _finish(child: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = child.communicate(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode:
        raise RuntimeError(f"bulk child exited {child.returncode}")
    return out


def _setup_time(ctx, seed: int) -> tuple[float, float]:
    """(raw, host-scaled) seconds from spawn to a 1-tuple ``update_batch``."""
    host = calibrate.spawn_seconds(ctx.env, ctx.root)
    started = time.monotonic()
    child = _spawn(ctx, "setup", "-", str(seed))
    line = child.stdout.readline()
    elapsed = time.monotonic() - started
    _finish(child, 60)
    if line.strip() != "ready":
        raise RuntimeError("bulk set-up child did not report ready")
    return elapsed, elapsed * calibrate.SPAWN_REFERENCE_S / host


def _measure(ctx, workload: str, streams: list[gen.Stream], seconds: float, quick: bool, setups: int, spans: Path | None) -> tuple[list[dict], list[tuple[float, float]]]:
    """Run the children one after another, with the ``setups`` timed set-up
    processes spread between them; returns the reports and set-up times."""
    parts, times = [], []
    _setup_time(ctx, streams[0].seed)  # discarded: warms the page and kernel caches
    for index in range(PROCESSES):
        if index < setups:
            times.append(_setup_time(ctx, streams[0].seed))
        stream = streams[index % len(streams)]
        args = ["measure", workload, str(stream.seed), str(seconds / PROCESSES), "1" if quick else "0"]
        if spans is not None:
            args.append(f"{spans}.{index}")
        part = json.loads(_finish(_spawn(ctx, *args), 170).strip().splitlines()[-1])
        part["tuples"] = len(stream)
        part["stream"] = stream
        parts.append(part)
    return parts, times


def _e2e(workload: str, parts: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics at the reference host speed, raw ones beside them."""
    reference = calibrate.KERNEL_REFERENCE_S[CALIBRATION[workload]]
    raw_ms, scaled_ms, scaled_rates = [], [], []
    for part in parts:
        scale = reference / part["kernel_s"]
        for start, end in part["windows"]:
            seconds = (end - start) / 1e9
            raw_ms.append(seconds * 1e3)
            scaled_ms.append(seconds * scale * 1e3)
            scaled_rates.append(part["tuples"] / (seconds * scale))
    p50 = percentile(scaled_ms, 0.5)
    tput = percentile(scaled_rates, 0.5)
    raw50, raw95 = percentile(raw_ms, 0.5), percentile(raw_ms, 0.95)
    setup = percentile([scaled for _, scaled in setups], 0.5).value
    setup_raw = percentile([raw for raw, _ in setups], 0.5).value
    kernel = percentile([part["kernel_s"] for part in parts], 0.5).value
    rss = max(part["rss_mb"] for part in parts)
    e2e = {"setup_s": setup, "tput_tps": tput.value, "lat_p50_ms": p50.value, "rss_mb": rss}
    named = {
        "setup_raw_s": (setup_raw, "s", len(setups), None),
        "bulk_tps": (tput.value, "tuples/s", tput.count, tput.beyond),
        "bulk_raw_tps": (parts[0]["tuples"] / (raw50.value / 1e3), "tuples/s", raw50.count, None),
        "pass_raw_p50_ms": (raw50.value, "ms", raw50.count, raw50.beyond),
        "pass_raw_p95_ms": (raw95.value, "ms", raw95.count, raw95.beyond),
        "host_kernel_ms": (kernel * 1e3, "ms", len(parts), None),
        "error_rate": (0.0, "ratio", len(raw_ms), None),
    }
    return e2e, named


def _layers(parts: list[dict], spans: Path) -> tuple[dict, dict]:
    """Self-time rows over the measured passes of every traced child."""
    pooled: list[dict] = []
    rows: dict[str, int] = {}
    counters: dict[str, float] = {}
    wall = covered = 0
    for index, part in enumerate(parts):
        loaded = tracing.load(f"{spans}.{index}")
        for window in part["windows"]:
            wall += window[1] - window[0]
            covered += tracing.covered_ns(loaded, tuple(window))
            for name, value in tracing.self_time_rows(loaded, tuple(window)).items():
                rows[name] = rows.get(name, 0) + value
        # Span ids are per process: keep them apart before pooling.
        for span in loaded:
            span["id"] += index << 40
            span["parent"] += (index << 40) if span["parent"] else 0
        pooled += loaded
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
    rows["(unexplained)"] = max(wall - covered, 0)
    layers = tracing.engine_layers(pooled, counters, parts[-1]["gauges"])
    layers["unexplained_frac"] = max(wall - covered, 0) / wall
    return layers, {"wall_ns": wall, "rows": rows}


def _gate(parts: list[dict], truths: dict[str, dict]) -> list[str]:
    failures = []
    for part in parts:
        stream = part["stream"]
        truth = truths[stream.label]
        found = []
        if part["sha256"] != stream.sha256():
            found.append("the child ingested a different input than the parent generated")
        found += gates.passes_identical(part["digests"])
        found += gates.within_envelope(part["readout"], truth, NUM_BITMAPS)
        failures += [f"{stream.label}: {failure}" for failure in found]
    return failures


def run_workload(ctx, workload: str, streams: list[gen.Stream], seconds: float, setups: int, quick: bool, trace: bool) -> dict:
    parts, times = _measure(ctx, workload, streams, seconds, quick, setups, None)
    e2e, named = _e2e(workload, parts, times)
    truths = {stream.label: _truth(stream) for stream in streams}
    result = {
        "e2e": e2e,
        "named": named,
        "evidence": [
            {
                "input": part["stream"].label,
                "readout": part["readout"],
                "truth": truths[part["stream"].label],
                "digests": part["digests"],
            }
            for part in parts
        ],
        "failures": _gate(parts, truths),
        "attempted": sum(len(part["windows"]) for part in parts),
        "failed": 0,
    }
    if trace:
        spans = ctx.workdir / f"{workload}-spans.jsonl"
        traced, traced_times = _measure(ctx, workload, streams, seconds, quick, 1, spans)
        for part, untraced in zip(traced, parts):
            part["digests"] += untraced["digests"]
        result["failures"] += _gate(traced, truths)
        result["traced_e2e"], _ = _e2e(workload, traced, traced_times)
        result["attempted"] += sum(len(part["windows"]) for part in traced)
        result["layers"], result["table"] = _layers(traced, spans)
    return result


if __name__ == "__main__":
    mode, name, seed_arg = sys.argv[1:4]
    if mode == "setup":
        child_setup(int(seed_arg))
    else:
        seconds_arg, quick_arg = sys.argv[4:6]
        child_measure(
            name, int(seed_arg), float(seconds_arg), quick_arg == "1",
            sys.argv[6] if len(sys.argv) > 6 else None,
        )
