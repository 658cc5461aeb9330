"""Serving load harness: sustained mixed-query QPS against active ingest.

Five legs, one process tree:

1. **Load** — start the serve CLI as a subprocess (checkpointed), point
   ``--clients`` concurrent keep-alive HTTP clients at it with a mixed
   query set (per-profile ``/query`` stats, ``/top`` point lookups, an
   occasional ``/metrics`` and ``/health``), measure sustained QPS and
   p50/p99 latency **while ingest is active**, then SIGTERM it mid-stream.
2. **Resume** — restart against the same checkpoint dir with
   ``--exit-when-drained``; assert it resumed (not restarted) and run the
   stream to completion.
3. **Verify** — recompute the drained state in-process with
   :func:`repro.serving.service.offline_reference` and assert the resumed
   digest is bit-for-bit the uninterrupted one; also assert every
   ``(profile, cursor)`` pair observed under load mapped to exactly one
   digest (answers are internally consistent, never torn).
4. **Sweep** (skippable) — the front-end comparison: the threaded server
   at ``--clients`` versus the asyncio server at **2×** ``--clients``,
   same mixed query set, recorded side by side — the asyncio front-end
   must sustain double the connection count at no worse p99.
5. **Push** (skippable) — the write path end to end: a client POSTs the
   reference stream to a ``--source push`` service in binary chunks
   (handling 429 backpressure), SIGTERM lands mid-push, the service
   resumes, the client replays the stream from the beginning (the source
   swallows the committed prefix), and the drained digest must equal the
   pull-source reference bit-for-bit.

Latencies are recorded into per-client bucketed histograms
(:class:`repro.observability.metrics.MetricsRegistry`) and folded with
``merge_snapshot`` — the same validated fold a restore uses for
checkpointed telemetry — so p50/p99 come from :meth:`Histogram.quantile`.

Writes a schema-v2 ``BENCH_serving.json`` (host metadata: core count,
python/numpy versions — read the 1-core caveat in EXPERIMENTS.md before
comparing absolute numbers across hosts).

Not collected by tier-1 pytest (``testpaths = tests``); run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --tuples 100000 --clients 50 --json BENCH_serving.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_ROOT))

from repro.experiments.ablations import write_throughput_artifact  # noqa: E402
from repro.observability.metrics import MetricsRegistry  # noqa: E402

PROFILES = ("support-only", "noisy-confidence")
STATS = ("implication", "nonimplication", "supported")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--clients", type=int, default=50)
    parser.add_argument("--num-bitmaps", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--source", default="profile:skewed")
    parser.add_argument(
        "--load-seconds", type=float, default=8.0,
        help="minimum measured load window before the SIGTERM",
    )
    parser.add_argument(
        "--pace-tps", type=float, default=None,
        help="stream arrival rate for the load leg (default: sized so the "
        "stream outlives the load window; unpaced ingest drains a bounded "
        "stream in under a second and nothing would be concurrent)",
    )
    parser.add_argument(
        "--frontend", choices=("threaded", "asyncio"), default="threaded",
        help="front-end for the load/resume/push legs (the sweep leg "
        "always runs both)",
    )
    parser.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the threaded-vs-asyncio client-count sweep leg",
    )
    parser.add_argument(
        "--skip-push", action="store_true",
        help="skip the push-ingest interrupt/replay leg",
    )
    parser.add_argument(
        "--push-capacity", type=int, default=64,
        help="push-source backlog capacity in batches for the push leg",
    )
    parser.add_argument("--json", default=None, help="artifact output path")
    parser.add_argument(
        "--assert-qps", type=float, default=None,
        help="fail if sustained mixed QPS under load drops below this",
    )
    parser.add_argument(
        "--assert-p99-ms", type=float, default=None,
        help="fail if p99 latency exceeds this many milliseconds",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="default: a fresh directory next to the artifact",
    )
    return parser.parse_args(argv)


def spawn_service(
    args,
    ckdir: Path,
    extra: list[str],
    *,
    source: str | None = None,
    bounded: bool = True,
) -> tuple[subprocess.Popen, dict]:
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--source", source if source is not None else args.source,
        "--batch-size", str(args.batch_size),
        "--num-bitmaps", str(args.num_bitmaps),
        "--seed", str(args.seed),
        "--checkpoint-dir", str(ckdir),
        "--profiles", ",".join(PROFILES),
        "--frontend", args.frontend,
        *extra,
    ]
    if bounded:  # push sources are bounded by close(), never by --tuples
        command += ["--tuples", str(args.tuples)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    listening = json.loads(proc.stdout.readline())
    assert listening["event"] == "listening", listening
    return proc, listening


class Client(threading.Thread):
    """One keep-alive HTTP client issuing the mixed query set in a loop."""

    def __init__(self, port: int, stop: threading.Event, index: int) -> None:
        super().__init__(daemon=True, name=f"load-client-{index}")
        self.port = port
        self.stop = stop
        self.index = index
        self.registry = MetricsRegistry()
        self.latency = self.registry.histogram("latency_seconds")
        self.requests = 0
        self.failures: list[str] = []
        #: ``(profile, cursor) -> digest`` — consistency evidence.
        self.digests: dict[tuple[str, int], str] = {}
        self.conflicts: list[str] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        paths = self._mixed_paths()
        step = 0
        while not self.stop.is_set():
            path = paths[step % len(paths)]
            step += 1
            started = time.perf_counter()
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
            except Exception as error:  # noqa: BLE001 - scored, not raised
                self.failures.append(f"{path}: {error!r}")
                conn.close()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=30
                )
                continue
            self.latency.observe(time.perf_counter() - started)
            self.requests += 1
            if response.status != 200:
                self.failures.append(f"{path}: HTTP {response.status} {body[:80]!r}")
            elif path.startswith("/query"):
                answer = json.loads(body)
                key = (answer["profile"], answer["cursor"])
                digest = answer["digest"]
                if self.digests.setdefault(key, digest) != digest:
                    self.conflicts.append(
                        f"{key}: {self.digests[key][:12]} vs {digest[:12]}"
                    )
        conn.close()

    def _mixed_paths(self) -> list[str]:
        paths = []
        for profile in PROFILES:
            for stat in STATS:
                paths.append(f"/query?profile={profile}&stat={stat}")
            paths.append(f"/top?profile={profile}&itemset={17 + self.index}")
        paths.append("/query?min_support=4")  # by-conditions routing
        paths.append("/health")
        paths.append("/metrics")
        return paths


def run_load_leg(args, ckdir: Path) -> dict:
    # Pace the load leg so ingest stays active for the whole measurement
    # window plus slack for the mid-stream SIGTERM (the resume leg runs
    # the remainder unpaced).
    pace = args.pace_tps or args.tuples / (3.0 * args.load_seconds)
    proc, listening = spawn_service(args, ckdir, ["--pace-tps", str(pace)])
    port = listening["port"]
    stop = threading.Event()
    clients = [Client(port, stop, index) for index in range(args.clients)]

    def cursor_now() -> int:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/health")
            return json.loads(conn.getresponse().read())["cursor"]
        finally:
            conn.close()

    # Let ingest actually start before opening the measurement window.
    while cursor_now() == 0:
        time.sleep(0.05)
    for client in clients:
        client.start()
    window_start = time.perf_counter()
    # Hold the load window while ingest is active; SIGTERM mid-stream.
    halfway = args.tuples // 2
    while True:
        time.sleep(0.2)
        cursor = cursor_now()
        elapsed = time.perf_counter() - window_start
        if cursor >= args.tuples:
            raise SystemExit(
                "service drained the stream before the load window closed; "
                "raise --tuples or shrink --load-seconds"
            )
        if elapsed >= args.load_seconds and cursor >= halfway:
            break
    window = time.perf_counter() - window_start
    stop.set()
    for client in clients:
        client.join(timeout=60)
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    stopped = json.loads(out.strip().splitlines()[-1])
    assert stopped["status"] == "stopped", stopped
    assert "resource_tracker" not in err, err

    # Fold per-client histograms through the validated snapshot merge.
    folded = MetricsRegistry()
    for client in clients:
        assert folded.merge_snapshot(client.registry.snapshot()), (
            "client telemetry snapshot failed validation"
        )
    latency = folded.histogram("latency_seconds")
    failures = [failure for client in clients for failure in client.failures]
    conflicts = [conflict for client in clients for conflict in client.conflicts]
    requests = sum(client.requests for client in clients)
    # Digest-consistency across *clients* too: one digest per (profile, cursor).
    merged_digests: dict[tuple[str, int], str] = {}
    for client in clients:
        for key, digest in client.digests.items():
            if merged_digests.setdefault(key, digest) != digest:
                conflicts.append(f"cross-client {key}")
    if failures:
        raise SystemExit(
            f"{len(failures)} failed requests under load, first: {failures[0]}"
        )
    if conflicts:
        raise SystemExit(
            f"served answers were not digest-consistent: {conflicts[:3]}"
        )
    return {
        "stopped": stopped,
        "window_seconds": window,
        "requests": requests,
        "qps": requests / window,
        "p50_ms": latency.quantile(0.5) * 1000.0,
        "p99_ms": latency.quantile(0.99) * 1000.0,
        "mean_ms": latency.mean * 1000.0,
        "distinct_answer_points": len(merged_digests),
    }


def run_resume_leg(args, ckdir: Path, stopped: dict) -> dict:
    proc, listening = spawn_service(args, ckdir, ["--exit-when-drained"])
    assert listening["resumed_generation"] is not None, (
        "second run did not resume from the checkpoint"
    )
    assert listening["cursor"] == stopped["cursor"], (listening, stopped)
    out, err = proc.communicate(timeout=600)
    assert "resource_tracker" not in err, err
    final = json.loads(out.strip().splitlines()[-1])
    assert final["cursor"] == args.tuples, final
    return final


def load_stream(args):
    """Materialize the reference stream the service ingests (in order)."""
    from repro.serving.sources import make_source

    source = make_source(
        args.source, seed=args.seed, batch_size=args.batch_size,
        tuples=args.tuples,
    )
    lhs_parts, rhs_parts, cursor = [], [], 0
    while (batch := source.batch(cursor)) is not None:
        lhs_parts.append(batch[0])
        rhs_parts.append(batch[1])
        cursor += len(batch[0])
    import numpy as np

    return np.concatenate(lhs_parts), np.concatenate(rhs_parts)


def reference_digest(args, lhs, rhs) -> str:
    from repro.core.estimator import ImplicationCountEstimator
    from repro.core.serialize import estimator_state_digest
    from repro.serving.service import default_profiles, offline_reference

    conditions = default_profiles()[PROFILES[0]]
    template = ImplicationCountEstimator(
        conditions, num_bitmaps=args.num_bitmaps, seed=args.seed
    )
    return estimator_state_digest(offline_reference(template, lhs, rhs))


def run_verify_leg(args, final: dict) -> bool:
    lhs, rhs = load_stream(args)
    return reference_digest(args, lhs, rhs) == final["digest"]


def measure_frontend(args, frontend: str, clients: int) -> dict:
    """One short load window against ``frontend`` with ``clients`` readers."""
    import tempfile

    ckdir = Path(tempfile.mkdtemp(prefix=f"bench-sweep-{frontend}-"))
    pace = args.pace_tps or args.tuples / (3.0 * args.load_seconds)
    proc, listening = spawn_service(
        args, ckdir, ["--pace-tps", str(pace), "--frontend", frontend]
    )
    port = listening["port"]
    stop = threading.Event()
    pool = [Client(port, stop, index) for index in range(clients)]
    try:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("GET", "/health")
                if json.loads(conn.getresponse().read())["cursor"] > 0:
                    break
            finally:
                conn.close()
            time.sleep(0.05)
        for client in pool:
            client.start()
        window_start = time.perf_counter()
        time.sleep(args.load_seconds)
        window = time.perf_counter() - window_start
        stop.set()
        for client in pool:
            client.join(timeout=60)
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    assert "resource_tracker" not in err, err
    folded = MetricsRegistry()
    for client in pool:
        assert folded.merge_snapshot(client.registry.snapshot())
    failures = [failure for client in pool for failure in client.failures]
    if failures:
        raise SystemExit(
            f"sweep[{frontend} x{clients}]: {len(failures)} failed "
            f"requests, first: {failures[0]}"
        )
    latency = folded.histogram("latency_seconds")
    requests = sum(client.requests for client in pool)
    return {
        "frontend": frontend,
        "clients": clients,
        "qps": requests / window,
        "p50_ms": latency.quantile(0.5) * 1000.0,
        "p99_ms": latency.quantile(0.99) * 1000.0,
    }


def run_sweep_leg(args) -> dict:
    """Threaded at C clients vs asyncio at 2C — same queries, same host."""
    threaded = measure_frontend(args, "threaded", args.clients)
    doubled = measure_frontend(args, "asyncio", 2 * args.clients)
    return {"threaded": threaded, "asyncio": doubled}


def run_push_leg(args) -> dict:
    """Interrupt + replay over ``POST /ingest``, digest-checked."""
    import tempfile

    lhs, rhs = load_stream(args)
    ckdir = Path(tempfile.mkdtemp(prefix="bench-serving-push-"))
    spec = f"push:capacity={args.push_capacity}"
    chunk = args.batch_size

    def push_range(conn, start, stop_at):
        """POST [start, stop_at) in binary chunks; returns (offset, rejects)."""
        offset, rejects = start, 0
        while offset < stop_at:
            size = min(chunk, stop_at - offset)
            blob = (
                lhs[offset : offset + size].astype("<u8").tobytes()
                + rhs[offset : offset + size].astype("<u8").tobytes()
            )
            conn.request(
                "POST", "/ingest", body=blob,
                headers={"Content-Type": "application/octet-stream"},
            )
            response = conn.getresponse()
            response.read()
            if response.status == 429:
                rejects += 1
                time.sleep(
                    min(float(response.headers.get("Retry-After", 1)), 0.2)
                )
                continue
            assert response.status == 200, response.status
            offset += size
        return offset, rejects

    # Leg A: push ~60% of the stream, SIGTERM lands mid-push.
    proc, listening = spawn_service(args, ckdir, [], source=spec, bounded=False)
    port = listening["port"]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    target = (int(len(lhs) * 0.6) // chunk) * chunk
    _, rejects_before = push_range(conn, 0, target)
    conn.close()
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    stopped = json.loads(out.strip().splitlines()[-1])
    assert stopped["status"] == "stopped", stopped
    assert 0 < stopped["cursor"] <= target, stopped
    assert "resource_tracker" not in err, err

    # Leg B: resume, replay the *whole* stream from the start (the source
    # swallows the committed prefix), close, drain.
    proc, listening = spawn_service(
        args, ckdir, ["--exit-when-drained"], source=spec, bounded=False
    )
    assert listening["resumed_generation"] is not None, listening
    assert listening["cursor"] == stopped["cursor"], (listening, stopped)
    port = listening["port"]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    replay_start = time.perf_counter()
    _, rejects_after = push_range(conn, 0, len(lhs))
    conn.request(
        "POST", "/ingest?close=1", body=b"",
        headers={"Content-Type": "application/octet-stream"},
    )
    response = conn.getresponse()
    assert response.status == 200, response.status
    assert json.loads(response.read())["closed"] is True
    conn.close()
    out, err = proc.communicate(timeout=600)
    replay_seconds = time.perf_counter() - replay_start
    final = json.loads(out.strip().splitlines()[-1])
    assert final["cursor"] == len(lhs), final
    assert "resource_tracker" not in err, err

    digest_match = reference_digest(args, lhs, rhs) == final["digest"]
    return {
        "tuples": len(lhs),
        "interrupted_cursor": stopped["cursor"],
        "rejects": rejects_before + rejects_after,
        "replay_seconds": replay_seconds,
        "push_tps": len(lhs) / replay_seconds,
        "digest_match": digest_match,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    artifact = Path(args.json) if args.json else REPO_ROOT / "BENCH_serving.json"
    if args.checkpoint_dir:
        ckdir = Path(args.checkpoint_dir)
    else:
        import tempfile

        ckdir = Path(tempfile.mkdtemp(prefix="bench-serving-ckpt-"))

    load = run_load_leg(args, ckdir)
    print(
        f"load: {load['requests']} requests over {load['window_seconds']:.1f}s "
        f"with {args.clients} clients -> {load['qps']:.0f} QPS, "
        f"p50 {load['p50_ms']:.2f}ms, p99 {load['p99_ms']:.2f}ms "
        f"({load['distinct_answer_points']} distinct digest-consistent answer points)"
    )
    final = run_resume_leg(args, ckdir, load["stopped"])
    print(
        f"resume: cursor {load['stopped']['cursor']} -> {final['cursor']} "
        f"(generation {final['generation']})"
    )
    digest_match = run_verify_leg(args, final)
    print(f"verify: resumed digest == uninterrupted single pass: {digest_match}")

    sweep = None
    if not args.skip_sweep:
        sweep = run_sweep_leg(args)
        for leg in (sweep["threaded"], sweep["asyncio"]):
            print(
                f"sweep: {leg['frontend']} x{leg['clients']} clients -> "
                f"{leg['qps']:.0f} QPS, p50 {leg['p50_ms']:.2f}ms, "
                f"p99 {leg['p99_ms']:.2f}ms"
            )

    push = None
    if not args.skip_push:
        push = run_push_leg(args)
        print(
            f"push: {push['tuples']} tuples replayed in "
            f"{push['replay_seconds']:.1f}s ({push['push_tps']:.0f} tuples/s, "
            f"{push['rejects']} backpressure 429s, interrupted at cursor "
            f"{push['interrupted_cursor']}) -> digest match: "
            f"{push['digest_match']}"
        )

    entries = {
        "serving_qps": round(load["qps"], 2),
        "serving_p50_ms": round(load["p50_ms"], 3),
        "serving_p99_ms": round(load["p99_ms"], 3),
        "serving_mean_ms": round(load["mean_ms"], 3),
        "serving_requests": float(load["requests"]),
        "serving_clients": float(args.clients),
        "serving_window_seconds": round(load["window_seconds"], 2),
        "serving_tuples": float(args.tuples),
        "serving_batch_size": float(args.batch_size),
        "serving_pace_tps": round(
            args.pace_tps or args.tuples / (3.0 * args.load_seconds), 2
        ),
        "serving_answer_points": float(load["distinct_answer_points"]),
        "resume_digest_match": float(digest_match),
        "serving_frontend_asyncio": float(args.frontend == "asyncio"),
    }
    if sweep is not None:
        for leg in (sweep["threaded"], sweep["asyncio"]):
            prefix = f"sweep_{leg['frontend']}"
            entries[f"{prefix}_clients"] = float(leg["clients"])
            entries[f"{prefix}_qps"] = round(leg["qps"], 2)
            entries[f"{prefix}_p50_ms"] = round(leg["p50_ms"], 3)
            entries[f"{prefix}_p99_ms"] = round(leg["p99_ms"], 3)
        entries["sweep_client_ratio"] = round(
            sweep["asyncio"]["clients"] / sweep["threaded"]["clients"], 2
        )
        entries["sweep_p99_ratio"] = round(
            sweep["asyncio"]["p99_ms"] / sweep["threaded"]["p99_ms"], 4
        )
    if push is not None:
        entries["push_tuples"] = float(push["tuples"])
        entries["push_tps"] = round(push["push_tps"], 2)
        entries["push_replay_seconds"] = round(push["replay_seconds"], 2)
        entries["push_backpressure_429s"] = float(push["rejects"])
        entries["push_interrupted_cursor"] = float(push["interrupted_cursor"])
        entries["push_digest_match"] = float(push["digest_match"])
    write_throughput_artifact(artifact, entries)
    print(f"wrote {artifact}")

    failed = []
    if not digest_match:
        failed.append("resumed digest diverged from the uninterrupted pass")
    if push is not None and not push["digest_match"]:
        failed.append("push replay digest diverged from the pull reference")
    if args.assert_qps is not None and load["qps"] < args.assert_qps:
        failed.append(f"QPS {load['qps']:.0f} < required {args.assert_qps:.0f}")
    if args.assert_p99_ms is not None and load["p99_ms"] > args.assert_p99_ms:
        failed.append(
            f"p99 {load['p99_ms']:.2f}ms > allowed {args.assert_p99_ms:.2f}ms"
        )
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
