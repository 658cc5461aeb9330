"""End-to-end benchmark of the write path, reads under ingest and the engine.

Usage (from any directory; paths resolve against this checkout)::

    python benchmarks/e2e/run.py --seed N [--workload W ...] [--seconds S]
                                 [--trace [0|1]] [--json out.json] [--quick]

Workloads (see README.md for why each exists):

* ``push-5p``     closed-loop push of Dataset One into 5 durable profiles
* ``push-1p``     the same stream into one volatile profile
* ``mixed``       open-loop writer plus a capped closed-loop reader
* ``bulk-zone1``  in-process ``ShardedIngestor.ingest`` passes, Dataset One
* ``bulk-fringe`` the same on a heavy-hitter stream (every tuple live)

Every end-to-end metric is printed by name with its unit; the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  The exit code is
non-zero when a correctness gate fails.  All scratch files live in
``.bench_work/`` at the checkout root and are removed at exit, except the
compiled-kernel cache there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bulk
import gen
import serving

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("push-5p", "push-1p", "mixed", "bulk-zone1", "bulk-fringe")
#: Launches (or fresh processes) whose median is ``setup_s``.
SETUPS = 9

#: End-to-end metrics, reported by every workload (``--trace 0``).
E2E_UNITS = {
    "setup_s": "s",
    "tput_tps": "tuples/s",
    "lat_p50_ms": "ms",
    "rss_mb": "MB",
}
#: Per-layer metrics of a traced run (``--trace 1``); a layer a workload
#: never enters reads 0.
LAYER_UNITS = {
    "serving.http.ingest_self_ms": "ms",
    "serving.http.read_self_p50_ms": "ms",
    "serving.http.read_self_p95_ms": "ms",
    "serving.http.transport_p50_ms": "ms",
    "serving.http.transport_p95_ms": "ms",
    "serving.sources.push_ms": "ms",
    "serving.sources.wait_ms": "ms",
    "serving.sources.wait_share": "frac",
    "serving.sources.rejects_per_mtuple": "count",
    "serving.sources.backlog_max": "tuples",
    "serving.service.step_self_ms": "ms",
    "serving.service.commit_p50_ms": "ms",
    "serving.service.commit_p95_ms": "ms",
    "serving.service.publish_swap_ms": "ms",
    "engine.ingest_payloads_ms": "ms",
    "core.update_batch_ms": "ms",
    "core.merge_ms": "ms",
    "core.readout_ms": "ms",
    "core.serialize.to_bytes_ms": "ms",
    "core.serialize.from_bytes_ms": "ms",
    "core.serialize.digest_ms": "ms",
    "core.serialize.payload_bytes": "bytes",
    "core.live_row_frac": "frac",
    "core.groups_per_mtuple": "count",
    "core.fringe_floats_per_mtuple": "count",
    "kernels.fallbacks": "count",
    "kernels.compiled": "count",
    "recovery.save_p50_ms": "ms",
    "recovery.save_p95_ms": "ms",
    "recovery.bytes_per_batch": "bytes",
    "gen.late_p99_ms": "ms",
    "unexplained_frac": "frac",
    **{f"trace.overhead.{name}": "frac" for name in E2E_UNITS},
}


class Context:
    """Where a run builds, writes scratch files, and how children start."""

    def __init__(self) -> None:
        self.root = ROOT
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        # The program caches its compiled kernel here instead of $HOME, and
        # the compiler and tempfile write here instead of /tmp.
        os.environ["REPRO_KERNEL_CACHE"] = str(work / "kernels")
        (work / "tmp").mkdir(exist_ok=True)
        os.environ["TMPDIR"] = str(work / "tmp")
        source = str(ROOT / "src")
        if source not in sys.path:
            sys.path.insert(0, source)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [source, os.environ.get("PYTHONPATH")])
            ),
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def host() -> dict:
    import numpy

    from repro.kernels.backend import available_backends

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": available_backends()[-1],
    }


def run_one(ctx: Context, workload: str, args) -> dict:
    started = time.monotonic()
    setups = 2 if args.quick else SETUPS
    if workload.startswith("bulk"):
        streams = bulk.make_streams(workload, args.seed, args.quick)
        result = bulk.run_workload(
            ctx, workload, streams, args.seconds, setups, args.quick, bool(args.trace)
        )
    else:
        if args.quick:
            streams = [gen.dataset_one(args.seed, cardinality=2000, implied=1000)]
        else:
            streams = [gen.dataset_one(args.seed)]
        result = serving.run_workload(
            ctx, workload, streams[0], args.seed, args.seconds, setups, bool(args.trace)
        )
    inputs = {s.label: {"tuples": len(s), "sha256": s.sha256()} for s in streams}
    for label, meta in inputs.items():
        pinned = gen.PINNED_SHA256.get(label)
        if pinned and not args.quick and meta["sha256"] != pinned:
            result["failures"].append(f"{label} input sha256 {meta['sha256']} != pinned {pinned}")
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "inputs": inputs,
        "metrics": {
            name: {"value": result["e2e"][name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        },
        "named": {
            name: {"value": value, "unit": unit, "samples": count, "beyond": beyond}
            for name, (value, unit, count, beyond) in result["named"].items()
        },
        "gates": result["failures"],
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "evidence": result["evidence"],
    }
    if args.trace:
        layers = dict.fromkeys(LAYER_UNITS, 0.0)
        layers.update(result["layers"])
        for name, untraced in result["e2e"].items():
            layers[f"trace.overhead.{name}"] = (result["traced_e2e"][name] - untraced) / untraced
        record["per_layer"] = {
            name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()
        }
        record["traced_metrics"] = result["traced_e2e"]
        record["table"] = result["table"]
    record["elapsed_s"] = time.monotonic() - started
    return record


def report(record: dict) -> None:
    """Human-readable rows: every metric by name with its unit."""
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}")
    for label, meta in record["inputs"].items():
        print(f"  input {label} ({meta['tuples']} tuples) sha256={meta['sha256']}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<16} {entry['value']:>16.6f} {entry['unit']}")
    print("  -- workload metrics (exact percentiles: n = samples, beyond = samples above)")
    for metric, entry in record["named"].items():
        extra = f"n={entry['samples']}"
        if entry["beyond"] is not None:
            extra += f" beyond={entry['beyond']}"
        print(f"  {metric:<16} {entry['value']:>16.6f} {entry['unit']:<9} {extra}")
    if "per_layer" in record:
        table = record["table"]
        wall = table["wall_ns"]
        print(f"  -- self time by layer over {wall / 1e6:.1f} ms of measured wall time")
        for layer, spent in sorted(table["rows"].items(), key=lambda row: -row[1]):
            print(f"  {layer:<28} {spent / 1e6:>12.3f} ms {spent / wall:>8.2%}")
        print("  -- per-layer metrics (trace.overhead.* = traced minus untraced, as a share)")
        for metric, entry in record["per_layer"].items():
            print(f"  {metric:<36} {entry['value']:>14.6f} {entry['unit']}")
        live = record["per_layer"]["core.live_row_frac"]["value"]
        print(
            f"  cost model: {1 - live:.3f} of tuples on the O(1) Zone-1 path, "
            f"{live:.3f} on the O(K log K) fringe path"
        )
    status = "PASS" if record["correct"] else "FAIL"
    print(f"  gates: {status}  attempted={record['attempted']} failed={record['failed']}")
    for failure in record["gates"]:
        print(f"    {failure}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", help="write the full records here")
    parser.add_argument("--quick", action="store_true", help="small inputs, 2 set-up launches")
    return parser.parse_args(argv)


def summary(records: list[dict], trace: int) -> dict:
    key = "per_layer" if trace else "metrics"
    if len(records) == 1:
        metrics = records[0][key]
    else:
        metrics = {
            f"{record['workload']}.{name}": entry
            for record in records
            for name, entry in record[key].items()
        }
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    ctx = Context()
    records = []
    try:
        machine = host()
        for workload in args.workload:
            try:
                record = run_one(ctx, workload, args)
            except Exception:
                traceback.print_exc()
                print(f"error: workload {workload} did not complete", file=sys.stderr)
                return 1
            record["host"] = machine
            records.append(record)
            report(record)
    finally:
        ctx.close()
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=1) + "\n")
    result = summary(records, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
