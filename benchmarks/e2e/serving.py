"""Serving workloads: ``push-5p``, ``push-1p`` and ``mixed``.

The server is the program's own ``serve`` CLI in a child process; the
load generator is this process, with at most two threads and two
keep-alive connections (sized for a 2-core host).  Only the documented
routes are used: ``/ingest``, ``/query``, ``/top``, ``/snapshot``,
``/health`` and ``/metrics``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import gates
import tracing
from stats import percentile

HERE = Path(__file__).resolve().parent

#: Tuples per POST for the push workloads (one server batch each).
PUSH_CHUNK = 4096
#: Open-loop writer of ``mixed``: 1024-tuple chunks every 100 ms
#: (10,240 tuples/s).  Four pushes make one 4096-tuple batch, so the
#: source's re-chunk path carves every batch out of four pushes.  The rate
#: keeps one keep-alive connection below half busy on the threaded
#: front-end, whose responses take ~44 ms each.
MIXED_CHUNK = 1024
MIXED_PERIOD_S = 0.1
#: The reader sends at most one request per 10 ms slot (100 req/s cap).
READ_SLOT_S = 0.01
#: A 429 is retried after this pause (flow control, not a failure).
RETRY_S = 0.005
STATS = ("implication", "nonimplication", "supported")


@dataclass(frozen=True)
class Spec:
    profiles: str | None  # None serves all five default profiles
    durable: bool
    mixed: bool = False


SPECS = {
    "push-5p": Spec(profiles=None, durable=True),
    "push-1p": Spec(profiles="support-only", durable=False),
    "mixed": Spec(profiles=None, durable=True, mixed=True),
}


class Server:
    """One ``serve`` process, launched and timed to its first /health 200."""

    def __init__(self, ctx, spec: Spec, seed: int, spans: Path | None = None):
        # A fresh directory per launch: a reused checkpoint dir would resume.
        home = Path(tempfile.mkdtemp(prefix="server-", dir=ctx.workdir))
        args = [
            "--source", "push", "--seed", str(seed), "--batch-size", "4096",
            "--num-bitmaps", "16", "--port", "0",
        ]
        if spec.profiles:
            args += ["--profiles", spec.profiles]
        if spec.durable:
            args += ["--checkpoint-dir", str(home / "checkpoints")]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), "--spans", str(spans), *args]
        self.stderr_path = home / "stderr"
        self._stderr = open(self.stderr_path, "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=ctx.env, cwd=ctx.root, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before listening:\n{self.stderr_tail()}")
            self.info = json.loads(line)
            self.port = self.info["port"]
            probe = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                probe.request("GET", "/health")
                response = probe.getresponse()
                response.read()
            finally:
                probe.close()
            if response.status != 200:
                raise RuntimeError(f"/health answered {response.status}")
            self.setup_s = time.monotonic() - started
        except BaseException:
            self.kill()
            raise

    @property
    def profiles(self) -> list[str]:
        return self.info["profiles"]

    def stderr_tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM and wait for the graceful stop (which writes any trace)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=120)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}:\n{self.stderr_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._stderr.close()


class Client:
    """One keep-alive connection; records client spans when traced."""

    _rids = itertools.count(1)

    def __init__(self, port: int, spans: list | None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.spans = spans

    def request(self, method: str, path: str, body: bytes | None = None):
        if self.spans is not None:
            rid = next(self._rids)
            path += ("&" if "?" in path else "?") + f"rid={rid}"
        headers = {"Content-Type": "application/octet-stream"} if method == "POST" else {}
        start = time.monotonic_ns()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if self.spans is not None:
            self.spans.append((rid, start, time.monotonic_ns()))
        return response.status, response.headers, data

    def close(self) -> None:
        self.conn.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rejects: int = 0
    backlog_max: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _encode(lhs: np.ndarray, rhs: np.ndarray) -> bytes:
    return lhs.astype("<u8").tobytes() + rhs.astype("<u8").tobytes()


def push_chunk(client: Client, body: bytes, tally: Tally) -> bool:
    """POST one chunk, retrying 429s; False if the server refused it."""
    while True:
        status, _, data = client.request("POST", "/ingest", body)
        if status == 429:
            tally.rejects += 1
            time.sleep(RETRY_S)
            continue
        tally.attempted += 1
        if status != 200:
            tally.fail(f"POST /ingest -> {status}: {data[:200]!r}")
            return False
        tally.backlog_max = max(tally.backlog_max, json.loads(data)["pending"])
        return True


def close_and_drain(client: Client, server: Server, pushed: int, tally: Tally) -> int:
    """Close the stream; return the monotonic ns when ``pushed`` is published."""
    status, _, data = client.request("POST", "/ingest?close=1", b"")
    tally.attempted += 1
    if status != 200:
        tally.fail(f"close -> {status}: {data[:200]!r}")
    deadline = time.monotonic() + 120
    query = f"/query?profile={server.profiles[0]}&stat=tuples"
    while time.monotonic() < deadline:
        status, _, data = client.request("GET", query)
        if status == 200 and json.loads(data)["cursor"] >= pushed:
            return time.monotonic_ns()
        time.sleep(0.002)
    raise RuntimeError(f"published cursor never reached {pushed}")


def served_digests(client: Client, server: Server, pushed: int, tally: Tally) -> dict:
    digests = {}
    for profile in server.profiles:
        status, headers, _ = client.request("GET", f"/snapshot?profile={profile}")
        tally.attempted += 1
        if status != 200 or int(headers["X-Repro-Cursor"]) != pushed:
            tally.fail(f"/snapshot {profile} -> {status} at {headers.get('X-Repro-Cursor')}")
        digests[profile] = headers.get("X-Repro-Digest")
    return digests


def registry(client: Client) -> dict:
    status, _, data = client.request("GET", "/metrics")
    return json.loads(data) if status == 200 else {"counters": {}, "gauges": {}}


def reference_digests(profiles: list[str], seed: int, lhs, rhs) -> dict:
    """``estimator_state_digest(offline_reference(...))`` per served profile."""
    from repro.core.estimator import ImplicationCountEstimator
    from repro.core.serialize import estimator_state_digest
    from repro.serving.service import default_profiles, offline_reference

    conditions = default_profiles()
    return {
        name: estimator_state_digest(
            offline_reference(
                ImplicationCountEstimator(conditions[name], num_bitmaps=16, seed=seed),
                lhs, rhs, batch_size=4096,
            )
        )
        for name in profiles
    }


def _drive_push(server: Server, stream, seconds: float, client_spans, tally: Tally):
    client = Client(server.port, client_spans)
    latencies = []
    pushed = 0
    try:
        first = time.monotonic_ns()
        deadline = time.monotonic() + seconds
        for start in range(0, len(stream), PUSH_CHUNK):
            if time.monotonic() >= deadline:
                break
            body = _encode(stream.lhs[start : start + PUSH_CHUNK], stream.rhs[start : start + PUSH_CHUNK])
            sent = time.monotonic_ns()
            if not push_chunk(client, body, tally):
                break
            latencies.append(time.monotonic_ns() - sent)
            pushed += len(body) // 16
        published = close_and_drain(client, server, pushed, tally)
        return {
            "pushed": pushed,
            "window": (first, published),
            "latencies": latencies,
            "digests": served_digests(client, server, pushed, tally),
            "registry": registry(client),
        }
    finally:
        client.close()


def _drive_mixed(server: Server, stream, seconds: float, seed: int, client_spans, tally: Tally):
    writer_client = Client(server.port, client_spans)
    reader_client = Client(server.port, client_spans)
    origin = time.monotonic() + 0.05
    chunks = min(int(seconds / MIXED_PERIOD_S), len(stream) // MIXED_CHUNK)
    write = {"latencies": [], "late": [], "pushed": 0}
    write_tally = Tally()  # the writer thread's own; folded in after join
    done = threading.Event()
    crashed: list[BaseException] = []

    def writer() -> None:
        try:
            for index in range(chunks):
                due = origin + index * MIXED_PERIOD_S
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sent = time.monotonic()
                start = index * MIXED_CHUNK
                body = _encode(stream.lhs[start : start + MIXED_CHUNK], stream.rhs[start : start + MIXED_CHUNK])
                if not push_chunk(writer_client, body, write_tally):
                    return
                write["late"].append(sent - due)
                write["latencies"].append(time.monotonic() - due)
                write["pushed"] += MIXED_CHUNK
        except BaseException as error:
            crashed.append(error)
        finally:
            done.set()

    rng = np.random.default_rng(seed)
    itemsets = rng.choice(stream.lhs[: chunks * MIXED_CHUNK], size=64).tolist()
    queries = [
        f"/query?profile={profile}&stat={stat}"
        for profile in server.profiles
        for stat in STATS
    ]
    reads, observations, fresh = [], [], []
    newest = 0
    thread = threading.Thread(target=writer, name="mixed-writer")
    thread.start()
    try:
        for index in itertools.count():
            if done.is_set():
                break
            kind = index % 3
            if kind == 0:
                path = queries[(index // 3) % len(queries)]
            elif kind == 1:
                profile = server.profiles[(index // 3) % len(server.profiles)]
                path = f"/top?profile={profile}&itemset={itemsets[(index // 3) % len(itemsets)]}"
            else:
                path = "/query?min_support=4"
            slot = time.monotonic()
            status, _, data = reader_client.request("GET", path)
            received = time.monotonic()
            tally.attempted += 1
            if status != 200:
                tally.fail(f"GET {path} -> {status}")
                continue
            reads.append(received - slot)
            body = json.loads(data)
            cursor = body["cursor"]
            observations.append((body["profile"], cursor, body["digest"]))
            if cursor > newest:
                newest = cursor
                due = origin + ((cursor - 1) // MIXED_CHUNK) * MIXED_PERIOD_S
                fresh.append(received - due)
            pause = slot + READ_SLOT_S - time.monotonic()
            if pause > 0:
                time.sleep(pause)
    finally:
        thread.join()
        writer_client.close()
    if crashed:
        raise RuntimeError("mixed writer failed") from crashed[0]
    tally.attempted += write_tally.attempted
    tally.failed += write_tally.failed
    tally.rejects += write_tally.rejects
    tally.backlog_max = write_tally.backlog_max
    tally.errors += write_tally.errors
    try:
        pushed = write["pushed"]
        published = close_and_drain(reader_client, server, pushed, tally)
        return {
            "pushed": pushed,
            "window": (int(origin * 1e9), published),
            "write_latencies": write["latencies"],
            "late": write["late"],
            "reads": reads,
            "fresh": fresh,
            "observations": observations,
            "digests": served_digests(reader_client, server, pushed, tally),
            "registry": registry(reader_client),
        }
    finally:
        reader_client.close()


def _phase(ctx, spec: Spec, stream, seed: int, seconds: float, setups: int, spans: Path | None):
    """Drive the workload on one timed launch, with ``setups - 1`` more
    launches timed half before and half after it, so that set-up samples
    straddle the run instead of one moment of the shared host."""
    tally = Tally()
    raw, scaled = [], []

    def timed_launch() -> Server:
        host = calibrate.spawn_seconds(ctx.env, ctx.root)
        server = Server(ctx, spec, seed, spans)
        raw.append(server.setup_s)
        scaled.append(server.setup_s * calibrate.SPAWN_REFERENCE_S / host)
        return server

    def launch_idle(count: int) -> None:
        for _ in range(count):
            timed_launch().kill()

    Server(ctx, spec, seed).kill()  # warms the page and kernel caches
    launch_idle((setups - 1) // 2)
    server = timed_launch()
    client_spans = [] if spans else None
    try:
        if spec.mixed:
            run = _drive_mixed(server, stream, seconds, seed, client_spans, tally)
        else:
            run = _drive_push(server, stream, seconds, client_spans, tally)
        run["rss_mb"] = server.peak_rss_mb()
        server.stop()
    except BaseException:
        server.kill()
        raise
    launch_idle(setups - 1 - (setups - 1) // 2)
    run.update(setup_times=scaled, setup_raw=raw, tally=tally, profiles=server.profiles, client_spans=client_spans)
    return run


def _e2e(run: dict, spec: Spec) -> tuple[dict, dict]:
    """The contract metrics plus the workload's own named metrics."""
    begin, end = run["window"]
    tput = run["pushed"] / ((end - begin) / 1e9)
    setup = percentile(run["setup_times"], 0.5).value
    if spec.mixed:
        latency = [value * 1e3 for value in run["reads"]]
    else:
        latency = [value / 1e6 for value in run["latencies"]]
    p50, p95 = percentile(latency, 0.5), percentile(latency, 0.95)
    e2e = {
        "setup_s": setup,
        "tput_tps": tput,
        "lat_p50_ms": p50.value,
        "rss_mb": run["rss_mb"],
    }
    named = {
        "setup_raw_s": (percentile(run["setup_raw"], 0.5).value, "s", len(run["setup_raw"]), None),
    }
    if spec.mixed:
        pushes = [value * 1e3 for value in run["write_latencies"]]
        fresh = [value * 1e3 for value in run["fresh"]]
        late = [value * 1e3 for value in run["late"]]
        for name, samples, q in (
            ("push_p50_ms", pushes, 0.5),
            ("query_p50_ms", latency, 0.5),
            ("query_p95_ms", latency, 0.95),
            ("fresh_p50_ms", fresh, 0.5),
            ("fresh_p95_ms", fresh, 0.95),
            ("gen.late_p99_ms", late, 0.99),
        ):
            if samples:
                point = percentile(samples, q)
                named[name] = (point.value, "ms", point.count, point.beyond)
        named["publish_tps"] = (tput, "tuples/s", run["pushed"], None)
    else:
        named["push_tps"] = (tput, "tuples/s", run["pushed"], None)
        named["post_p50_ms"] = (p50.value, "ms", p50.count, p50.beyond)
        named["post_p95_ms"] = (p95.value, "ms", p95.count, p95.beyond)
    tally = run["tally"]
    named["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted, None)
    return e2e, named


def _layers(run: dict, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics and the ingest-thread self-time table of a traced run."""
    spans = tracing.load(str(spans_path))
    window = run["window"]
    steps = [span for span in spans if span["name"] == "service.step"]
    ingest_thread = max(
        {span["thread"] for span in steps},
        key=lambda thread: sum(1 for span in steps if span["thread"] == thread),
    ) if steps else None
    dispatch = {
        span["attrs"]["rid"]: span
        for span in spans
        if span["name"] == "http.dispatch" and span["attrs"] and span["attrs"]["rid"]
    }
    transport = [
        (end - start) - dispatch[str(rid)]["dur"]
        for rid, start, end in run["client_spans"]
        if str(rid) in dispatch
    ]
    posts = [span for span in dispatch.values() if span["attrs"]["method"] == "POST"]
    gets = [span["self"] for span in dispatch.values() if span["attrs"]["method"] == "GET"]
    waits = [span for span in spans if span["name"] == "sources.wait"]
    worked = {
        span["parent"] for span in spans if span["name"] == "engine.ingest_payloads"
    }
    commits = [span["dur"] for span in spans if span["name"] == "service.commit"]
    saves = [span for span in spans if span["name"] == "recovery.save"]
    wall = window[1] - window[0]
    rows = tracing.self_time_rows(spans, window, ingest_thread)
    covered = tracing.covered_ns(spans, window, ingest_thread)
    tally = run["tally"]
    layers = {
        "serving.http.ingest_self_ms": tracing.quantile_ms([span["self"] for span in posts], 0.5),
        "serving.http.read_self_p50_ms": tracing.quantile_ms(gets, 0.5),
        "serving.http.read_self_p95_ms": tracing.quantile_ms(gets, 0.95),
        "serving.http.transport_p50_ms": tracing.quantile_ms(transport, 0.5),
        "serving.http.transport_p95_ms": tracing.quantile_ms(transport, 0.95),
        "serving.sources.push_ms": tracing.quantile_ms(
            [span["dur"] for span in spans if span["name"] == "sources.push"], 0.5
        ),
        "serving.sources.wait_ms": tracing.quantile_ms([span["dur"] for span in waits], 0.5),
        "serving.sources.wait_share": rows.get("sources.wait", 0) / wall,
        "serving.sources.rejects_per_mtuple": tally.rejects * 1e6 / max(run["pushed"], 1),
        "serving.sources.backlog_max": float(tally.backlog_max),
        "serving.service.step_self_ms": tracing.quantile_ms(
            [span["self"] for span in steps if span["id"] in worked], 0.5
        ),
        "serving.service.commit_p50_ms": tracing.quantile_ms(commits, 0.5),
        "serving.service.commit_p95_ms": tracing.quantile_ms(commits, 0.95),
        "serving.service.publish_swap_ms": tracing.quantile_ms(
            [span["dur"] for span in spans if span["name"] == "service.publish_swap"], 0.5
        ),
        "recovery.save_p50_ms": tracing.quantile_ms([span["dur"] for span in saves], 0.5),
        "recovery.save_p95_ms": tracing.quantile_ms([span["dur"] for span in saves], 0.95),
        "recovery.bytes_per_batch": float(
            percentile([span["attrs"]["bytes"] for span in saves], 0.5).value
        ) if saves else 0.0,
        "gen.late_p99_ms": percentile(run["late"], 0.99).value * 1e3 if run.get("late") else 0.0,
        "unexplained_frac": max(wall - covered, 0) / wall,
    }
    metrics = run["registry"]
    layers.update(tracing.engine_layers(spans, metrics.get("counters", {}), metrics.get("gauges", {})))
    rows["(unexplained)"] = max(wall - covered, 0)
    return layers, {"wall_ns": wall, "rows": rows}


def run_workload(ctx, workload: str, stream, seed: int, seconds: float, setups: int, trace: bool) -> dict:
    spec = SPECS[workload]
    run = _phase(ctx, spec, stream, seed, seconds, setups, None)
    e2e, named = _e2e(run, spec)
    pushed = run["pushed"]
    expected = reference_digests(run["profiles"], seed, stream.lhs[:pushed], stream.rhs[:pushed])
    evidence = {"served": run["digests"], "expected": expected}
    failures = gates.digests_match(run["digests"], expected)
    if not pushed:
        failures.append("no tuples were accepted")
    if spec.mixed:
        evidence["observations"] = run["observations"]
        failures += gates.one_digest_per_cursor(run["observations"])
    tally = run["tally"]
    failures += tally.errors
    result = {
        "e2e": e2e,
        "named": named,
        "evidence": evidence,
        "failures": failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    if trace:
        spans_path = ctx.workdir / f"{workload}-spans.jsonl"
        traced = _phase(ctx, spec, stream, seed, seconds, 1, spans_path)
        traced_e2e, _ = _e2e(traced, spec)
        tpushed = traced["pushed"]
        texpected = reference_digests(traced["profiles"], seed, stream.lhs[:tpushed], stream.rhs[:tpushed])
        result["failures"] += gates.digests_match(traced["digests"], texpected)
        result["failures"] += traced["tally"].errors
        result["attempted"] += traced["tally"].attempted
        result["failed"] += traced["tally"].failed
        result["layers"], result["table"] = _layers(traced, spans_path)
        result["traced_e2e"] = traced_e2e
    return result
