"""HTTP layer over :class:`~repro.serving.service.ImplicationService`.

The module owns two things:

* :class:`Router` — the transport-agnostic route table.  Every endpoint
  is a pure function ``(method, path, params, body) -> Response``; the
  threaded front-end below and the asyncio front-end
  (:mod:`repro.serving.aio`) both dispatch through the *same* router, so
  the two front-ends cannot drift apart endpoint by endpoint.
* :class:`ServingHTTPServer` — the stdlib ``ThreadingHTTPServer``
  front-end: one thread per connection, handlers reading only
  *published* :class:`~repro.serving.service.ServedSnapshot` objects
  (immutable after the store swap), so any number of concurrent requests
  proceed without ever taking a lock the ingest loop holds.

Endpoints (JSON unless noted):

========================  =====================================================
``GET /health``           liveness + status/cursor/generation/profile names
``GET /metrics``          full :class:`MetricsRegistry` snapshot
``GET /profiles``         every published snapshot's summary (``describe()``)
``GET /query``            implication-count readouts — by ``profile=NAME`` or
                          by raw conditions (``min_support``,
                          ``max_multiplicity``, ``top_c``, ``theta``), plus
                          optional ``stat=`` selector and ``window=1`` to
                          read the sliding-window view instead of landmark
                          totals (400 unless the service runs ``--window``)
``GET /top``              per-itemset lookup: ``profile=NAME&itemset=INT`` →
                          routing, zone, support, status, top confidence
``GET /snapshot``         raw estimator wire payload
                          (``application/octet-stream``) with
                          ``X-Repro-Digest``/``-Cursor``/``-Generation``
                          headers — a client can ``from_bytes`` it and verify
                          the digest independently; ``window=1`` serves the
                          merged sliding-window payload instead (with
                          ``X-Repro-Window-*`` headers)
``POST /ingest``          the write path: push one ``(lhs, rhs)`` chunk into
                          the service's :class:`PushSource` queue.  JSON body
                          ``{"lhs": [...], "rhs": [...]}`` or binary
                          ``application/octet-stream`` (both columns as
                          little-endian uint64, lhs column then rhs column —
                          the shared-memory transport's layout).  Chunks are
                          validated *fully* before any state is touched.
                          Queue at capacity → ``429`` + ``Retry-After``
                          (backpressure is explicit, never unbounded
                          buffering); ``?close=1`` marks end-of-stream after
                          the chunk is accepted.
========================  =====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..core.conditions import ImplicationConditions
from ..observability import metrics as obs
from .service import ImplicationService, itemset_summary
from .sources import PushBacklogFull, PushSource

__all__ = ["Response", "Router", "ServingHTTPServer", "build_server"]

#: Hard cap on a single ``POST /ingest`` body.  The push queue bounds
#: *buffered* tuples; this bounds the transient allocation of one request
#: before validation can see it.  2**21 tuples (32 MiB binary) is far
#: above any sane chunk and far below trouble.
MAX_INGEST_BODY = 32 * 1024 * 1024

_TRUTHY = ("", "1", "true", "yes", "on")
_FALSEY = ("0", "false", "no", "off")


@dataclass(frozen=True)
class Response:
    """One route's answer, transport-agnostic.

    ``headers`` carries route-specific extras (``X-Repro-*``,
    ``Retry-After``); the transport adds ``Content-Type``/``-Length`` and
    connection plumbing itself.
    """

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = field(default=())


def _json_response(
    payload: dict, status: int = 200, headers: tuple = ()
) -> Response:
    return Response(
        status=status,
        body=json.dumps(payload).encode("utf-8"),
        headers=tuple(headers),
    )


def _error(status: int, message: str) -> Response:
    return _json_response({"error": message}, status=status)


def _content_length(raw: str | None) -> int:
    """A request's body length from its raw ``Content-Length`` header.

    A missing or empty header is 0.  Anything but ASCII digits raises
    ``ValueError``, negative values included: a read of ``-1`` bytes
    would wait for the client to close, and any other negative length
    makes the read itself raise.  Both front-ends answer the error with
    ``400 malformed Content-Length`` and close the connection.
    """
    value = (raw or "").strip()
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"malformed Content-Length {raw!r}")
    return int(value)


def _parse_conditions(params: dict[str, list[str]]) -> ImplicationConditions | None:
    """Conditions from raw query params, or ``None`` if none were given."""
    keys = ("min_support", "max_multiplicity", "top_c", "theta")
    if not any(key in params for key in keys):
        return None
    kwargs = {}
    if "min_support" in params:
        kwargs["min_support"] = int(params["min_support"][0])
    if "max_multiplicity" in params:
        kwargs["max_multiplicity"] = int(params["max_multiplicity"][0])
    if "top_c" in params:
        kwargs["top_c"] = int(params["top_c"][0])
    if "theta" in params:
        kwargs["min_top_confidence"] = float(params["theta"][0])
    return ImplicationConditions(**kwargs)


def _parse_flag(params, name: str, default: bool = False) -> bool:
    """A boolean query param, accepting the truthy and falsey spellings
    symmetrically: bare ``name``/``1``/``true``/``yes``/``on`` select it,
    ``0``/``false``/``no``/``off`` decline it — so ``window=0`` reads the
    landmark view instead of 400ing."""
    raw = params.get(name, [None])[0]
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSEY:
        return False
    raise ValueError(
        f"{name}={raw!r} not understood; pass {name}=1 or {name}=0 "
        f"(or true/false, yes/no, on/off)"
    )


def _decode_ingest_body(
    body: bytes, content_type: str
) -> tuple[np.ndarray, np.ndarray]:
    """Decode and *fully validate* one pushed chunk before any state moves.

    JSON bodies carry ``{"lhs": [...], "rhs": [...]}`` with plain
    non-negative integers below 2**64; binary bodies are the two columns
    as little-endian uint64, lhs column then rhs column.  Anything
    malformed raises ``ValueError`` — nothing partial ever reaches the
    queue.
    """
    if not body:
        return (
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.uint64),
        )
    kind = content_type.partition(";")[0].strip().lower()
    if kind == "application/octet-stream":
        if len(body) % 16:
            raise ValueError(
                f"binary ingest body must be 16 bytes per tuple (two "
                f"little-endian uint64 columns, lhs then rhs); got "
                f"{len(body)} bytes"
            )
        half = len(body) // 2
        lhs = np.frombuffer(body[:half], dtype="<u8").astype(np.uint64)
        rhs = np.frombuffer(body[half:], dtype="<u8").astype(np.uint64)
        return lhs, rhs
    if kind in ("application/json", ""):
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise ValueError(f"ingest body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("ingest body must be a JSON object")
        unknown = set(payload) - {"lhs", "rhs"}
        if unknown:
            raise ValueError(f"unknown ingest fields {sorted(unknown)}")
        columns = []
        for key in ("lhs", "rhs"):
            values = payload.get(key)
            if not isinstance(values, list):
                raise ValueError(f"ingest field {key!r} must be a list")
            for value in values:
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or not 0 <= value < 2**64
                ):
                    raise ValueError(
                        f"ingest field {key!r} must hold integers in "
                        f"[0, 2**64), got {value!r}"
                    )
            columns.append(np.asarray(values, dtype=np.uint64))
        lhs, rhs = columns
        if len(lhs) != len(rhs):
            raise ValueError(
                f"lhs and rhs must have equal lengths, got "
                f"{len(lhs)} vs {len(rhs)}"
            )
        return lhs, rhs
    raise ValueError(
        f"unsupported ingest content type {content_type!r}; send "
        f"application/json or application/octet-stream"
    )


class Router:
    """The shared route table both front-ends dispatch through.

    Routes only ever touch *published* snapshots (plus the push queue's
    own lock for ``/ingest``), so calling them from an event loop is as
    safe as from a handler thread — nothing here blocks on ingest.
    """

    def __init__(self, service: ImplicationService) -> None:
        self.service = service
        self._routes = {
            "/health": self._route_health,
            "/metrics": self._route_metrics,
            "/profiles": self._route_profiles,
            "/query": self._route_query,
            "/top": self._route_top,
            "/snapshot": self._route_snapshot,
        }

    def dispatch(
        self,
        method: str,
        path: str,
        params: dict[str, list[str]],
        body: bytes = b"",
        content_type: str = "",
    ) -> Response:
        registry = obs.get_registry()
        registry.counter("serving.http.requests").add(1)
        try:
            if method == "POST":
                if path != "/ingest":
                    registry.counter("serving.http.not_found").add(1)
                    return _error(404, f"unknown POST path {path!r}")
                return self._route_ingest(params, body, content_type)
            if method != "GET":
                return _error(405, f"method {method} not allowed")
            if path == "/ingest":
                return _error(405, "use POST for /ingest")
            route = self._routes.get(path)
            if route is None:
                registry.counter("serving.http.not_found").add(1)
                return _error(404, f"unknown path {path!r}")
            return route(params)
        except (ValueError, KeyError, IndexError) as error:
            registry.counter("serving.http.bad_requests").add(1)
            return _error(400, str(error))

    # ------------------------------------------------------------------ #
    # Read routes
    # ------------------------------------------------------------------ #

    def _route_health(self, params) -> Response:
        service = self.service
        return _json_response(
            {
                "status": service.store.status,
                "cursor": service.cursor,
                "generation": service.generation,
                "resumed_generation": service.restored_generation,
                "profiles": list(service.profiles),
            }
        )

    def _route_metrics(self, params) -> Response:
        # snapshot() iterates the registry's dicts; a concurrently created
        # metric can (rarely) resize them mid-iteration.  Retry rather than
        # surface a 500 — the snapshot is advisory, a beat-late view is fine.
        for _ in range(8):
            try:
                snapshot = obs.get_registry().snapshot()
                break
            except RuntimeError:
                continue
        else:  # pragma: no cover - needs pathological metric churn
            snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        return _json_response(snapshot)

    def _route_profiles(self, params) -> Response:
        snapshots = self.service.store.all()
        return _json_response(
            {name: snapshot.describe() for name, snapshot in snapshots.items()}
        )

    def _pick_snapshot(self, params):
        store = self.service.store
        if "profile" in params:
            name = params["profile"][0]
            snapshot = store.get(name)
            if snapshot is None:
                raise LookupError(f"unknown profile {name!r}")
            return snapshot
        conditions = _parse_conditions(params)
        if conditions is None:
            raise ValueError(
                "pass profile=NAME or conditions "
                "(min_support/max_multiplicity/top_c/theta)"
            )
        snapshot = store.find_by_conditions(conditions)
        if snapshot is None:
            raise LookupError(f"no served profile matches {conditions.describe()}")
        return snapshot

    @staticmethod
    def _wants_window(params) -> bool:
        return _parse_flag(params, "window")

    def _route_query(self, params) -> Response:
        try:
            snapshot = self._pick_snapshot(params)
        except LookupError as error:
            return _error(404, str(error))
        windowed = self._wants_window(params)
        if windowed and snapshot.window is None:
            raise ValueError(
                f"profile {snapshot.name!r} serves no window — restart the "
                f"service with --window to enable windowed readouts"
            )
        stats = snapshot.window["stats"] if windowed else snapshot.stats
        stat = params.get("stat", [None])[0]
        if stat is not None and stat not in stats:
            raise ValueError(
                f"unknown stat {stat!r}; known: {', '.join(stats)}"
            )
        body = snapshot.describe()
        if windowed:
            body["windowed"] = True
            body["stats"] = stats
        if stat is not None:
            body["stat"] = stat
            body["value"] = stats[stat]
        return _json_response(body)

    def _route_top(self, params) -> Response:
        try:
            snapshot = self._pick_snapshot(params)
        except LookupError as error:
            return _error(404, str(error))
        if "itemset" not in params:
            raise ValueError("pass itemset=INT")
        itemset = int(params["itemset"][0])
        windowed = self._wants_window(params)
        if windowed and snapshot.window_estimator is None:
            raise ValueError(
                f"profile {snapshot.name!r} serves no window — restart the "
                f"service with --window to enable windowed readouts"
            )
        estimator = (
            snapshot.window_estimator if windowed else snapshot.estimator
        )
        body = {
            "profile": snapshot.name,
            "cursor": snapshot.cursor,
            "digest": snapshot.digest,
            "lookup": itemset_summary(estimator, itemset),
        }
        if windowed:
            body["windowed"] = True
            body["window_digest"] = snapshot.window["digest"]
        return _json_response(body)

    def _route_snapshot(self, params) -> Response:
        try:
            snapshot = self._pick_snapshot(params)
        except LookupError as error:
            return _error(404, str(error))
        headers = [
            ("X-Repro-Profile", snapshot.name),
            ("X-Repro-Cursor", str(snapshot.cursor)),
            ("X-Repro-Generation", str(snapshot.generation)),
        ]
        if self._wants_window(params):
            # A client asking for windowed bytes must never silently get
            # the landmark payload under a landmark digest — serve the
            # merged sliding-window payload, or refuse explicitly.
            if snapshot.window is None or snapshot.window_payload is None:
                raise ValueError(
                    f"profile {snapshot.name!r} serves no window — restart "
                    f"the service with --window to enable windowed snapshots"
                )
            payload = snapshot.window_payload
            headers += [
                ("X-Repro-Digest", snapshot.window["merged_digest"]),
                ("X-Repro-Window-Digest", snapshot.window["digest"]),
                ("X-Repro-Window", str(snapshot.window["window"])),
                ("X-Repro-Window-Start", str(snapshot.window["start"])),
                ("X-Repro-Window-Covered", str(snapshot.window["covered"])),
            ]
        else:
            payload = snapshot.payload
            headers.append(("X-Repro-Digest", snapshot.digest))
        return Response(
            status=200,
            body=payload,
            content_type="application/octet-stream",
            headers=tuple(headers),
        )

    # ------------------------------------------------------------------ #
    # Write route
    # ------------------------------------------------------------------ #

    def _route_ingest(self, params, body: bytes, content_type: str) -> Response:
        registry = obs.get_registry()
        registry.counter("serving.push.requests").add(1)
        source = self.service.source
        if not isinstance(source, PushSource):
            return _error(
                409,
                f"the service ingests from a "
                f"{source.describe().get('kind', 'pull')} source — start it "
                f"with --source push to enable POST /ingest",
            )
        close = _parse_flag(params, "close")
        # Full validation happens here, before the queue sees anything: a
        # malformed chunk 400s without buffering a single tuple (and
        # without closing the stream, even with close=1).
        lhs, rhs = _decode_ingest_body(body, content_type)
        accepted = 0
        if len(lhs):
            try:
                accepted = source.push(lhs, rhs)
            except PushBacklogFull as error:
                registry.counter("serving.push.rejected").add(1)
                return _json_response(
                    {
                        "error": str(error),
                        "pending": error.pending_tuples,
                        "capacity": error.capacity_tuples,
                    },
                    status=429,
                    headers=(("Retry-After", str(error.retry_after)),),
                )
        if close:
            source.close()
        registry.counter("serving.push.accepted_tuples").add(accepted)
        return _json_response(
            {
                "accepted": accepted,
                "pending": source.pending_tuples,
                "pushed": source.pushed_tuples,
                "skipped": source.skipped_tuples,
                "closed": source.closed,
                "cursor": self.service.cursor,
            }
        )


class ServingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ImplicationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: ImplicationService):
        super().__init__(address, _Handler)
        self.service = service
        self.router = Router(service)


def build_server(
    service: ImplicationService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind (port 0 = ephemeral; read ``server_address`` for the real one)."""
    return ServingHTTPServer((host, port), service)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServingHTTPServer

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr chatter; /metrics carries the counts."""

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        self._handle("POST")

    def _handle(self, method: str) -> None:
        """Read, dispatch, deliver — client aborts counted, never raised.

        A client can vanish at any point (reset mid-request-body, reset
        mid-response, stalled socket timing out a write).  All of those
        surface as the ``ConnectionError`` family or ``TimeoutError``
        from socket I/O; letting any of them escape would dump a
        traceback per dropped client under load, so they are swallowed
        into the ``serving.http.client_disconnects`` counter (mirrored by
        the asyncio front-end).
        """
        try:
            parsed = urlparse(self.path)
            # keep_blank_values so the bare-flag spellings (?close, ?window)
            # reach _parse_flag as "" instead of vanishing from the params.
            params = parse_qs(parsed.query, keep_blank_values=True)
            body = b""
            if method == "POST":
                try:
                    length = _content_length(self.headers.get("Content-Length"))
                except ValueError:
                    self._deliver(_error(400, "malformed Content-Length"))
                    self.close_connection = True
                    return
                if length > MAX_INGEST_BODY:
                    self._deliver(
                        _error(
                            413,
                            f"request body of {length} bytes exceeds the "
                            f"{MAX_INGEST_BODY}-byte ingest cap — push "
                            f"smaller chunks",
                        )
                    )
                    self.close_connection = True
                    return
                body = self.rfile.read(length)
            response = self.server.router.dispatch(
                method,
                parsed.path,
                params,
                body=body,
                content_type=self.headers.get("Content-Type", "") or "",
            )
            self._deliver(response)
        except (ConnectionError, TimeoutError):  # client went away mid-I/O
            obs.get_registry().counter("serving.http.client_disconnects").add(1)
            self.close_connection = True

    def _deliver(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)
