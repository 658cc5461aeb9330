"""Asyncio HTTP front-end — the high-connection-count serving vehicle.

The threaded front-end (:mod:`repro.serving.http`) spends one OS thread
per connection; under the GIL that tops out long before an event loop
does on the same host — every idle keep-alive client still costs a stack
and a scheduler entry.  This module serves the *identical* endpoint
table from a single event-loop thread: ``asyncio.start_server`` plus a
minimal HTTP/1.1 layer (request line, headers, ``Content-Length``
bodies, keep-alive), no new dependencies.

Both front-ends dispatch through the one shared
:class:`~repro.serving.http.Router`, so they cannot drift: a route added
or fixed once is added or fixed for both (the front-end-parametrized
suite in ``tests/test_serving.py`` holds them to it).  Dispatch runs
directly on the loop — routes only read immutable published snapshots
or take the push queue's lock for microseconds, so there is nothing to
offload to a thread pool.

:class:`AsyncServingServer` deliberately mirrors the
``ThreadingHTTPServer`` surface the CLI drives (``server_address``,
blocking ``serve_forever()``, thread-safe ``shutdown()``,
``server_close()``): ``repro-experiments serve --frontend asyncio`` is
the only difference a caller sees.  The listening socket is bound
synchronously in the constructor so the ephemeral port is known before
the loop thread starts, exactly like the stdlib server.

Client aborts (reset mid-request, reset mid-response, stalled writes)
are swallowed into the ``serving.http.client_disconnects`` counter, the
same contract as the threaded handler — a dropped client must never
dump a traceback or kill the loop.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from http.client import responses as _REASONS
from urllib.parse import parse_qs, urlparse

from ..observability import metrics as obs
from .http import MAX_INGEST_BODY, Response, Router, _content_length, _error
from .service import ImplicationService

__all__ = ["AsyncServingServer", "build_async_server"]


class AsyncServingServer:
    """Event-loop HTTP server bound to one :class:`ImplicationService`.

    Run :meth:`serve_forever` in a dedicated thread (it owns the event
    loop); call :meth:`shutdown` from any thread to stop it.  The
    listening socket exists from construction, so ``server_address`` is
    valid immediately — port 0 binds an ephemeral port.
    """

    def __init__(
        self,
        service: ImplicationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.router = Router(service)
        self._socket = socket.create_server((host, port), backlog=256)
        self._socket.setblocking(False)
        self.server_address = self._socket.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._finished = threading.Event()
        self._shutdown_requested = threading.Event()
        #: Open connections (handler task -> its writer), loop-thread only.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle (ThreadingHTTPServer-shaped)
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        try:
            asyncio.run(self._main())
        finally:
            self._finished.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._shutdown_requested.is_set():  # shutdown() won the race
            self._stop.set()
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket
        )
        async with server:
            await self._stop.wait()
            server.close()  # accept nothing new while open ones close
            await self._close_connections()

    async def _close_connections(self) -> None:
        """Close every open connection so each handler returns by itself.

        Idle keep-alive handlers park in ``readline``; closing their
        transport feeds EOF and they exit normally.  Leaving them for
        ``asyncio.run`` to cancel instead makes Python 3.11's
        ``start_server`` done-callback call ``exception()`` on a cancelled
        task, which prints a ``CancelledError`` traceback.  A handler
        still stuck after the grace period (a peer not reading its
        response) is aborted.
        """
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            _, stuck = await asyncio.wait(list(self._connections), timeout=5.0)
            for task in stuck:
                self._connections[task].transport.abort()
            if stuck:
                await asyncio.wait(stuck, timeout=5.0)

    def shutdown(self) -> None:
        """Stop the loop from any thread; blocks until it has exited."""
        self._shutdown_requested.set()
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop closed between check and call
                pass
            self._finished.wait(timeout=30.0)

    def server_close(self) -> None:
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - double close
            pass

    # ------------------------------------------------------------------ #
    # The minimal HTTP/1.1 layer
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                keep_alive = await self._handle_request(reader, writer)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            TimeoutError,
            asyncio.IncompleteReadError,
        ):  # client went away mid-I/O — counted, never raised
            obs.get_registry().counter(
                "serving.http.client_disconnects"
            ).add(1)
        except ValueError:
            # Oversized/unsplittable header line (StreamReader limit):
            # not worth a traceback either, the peer is misbehaving.
            obs.get_registry().counter("serving.http.bad_requests").add(1)
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """One request/response exchange; returns keep-alive."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        parts = request_line.split()
        if len(parts) != 3:
            await self._write_response(
                writer, _error(400, "malformed request line"), close=True
            )
            return False
        method, target, version = (part.decode("latin-1") for part in parts)
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = _content_length(headers.get("content-length"))
        except ValueError:
            await self._write_response(
                writer, _error(400, "malformed Content-Length"), close=True
            )
            return False
        if length > MAX_INGEST_BODY:
            # Refuse without reading: draining an oversized body would be
            # the unbounded buffering the write path exists to avoid.
            await self._write_response(
                writer,
                _error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_INGEST_BODY}-byte ingest cap — push smaller "
                    f"chunks",
                ),
                close=True,
            )
            return False
        body = await reader.readexactly(length) if length else b""
        parsed = urlparse(target)
        response = self.router.dispatch(
            method,
            parsed.path,
            # keep_blank_values so bare flags (?close, ?window) survive —
            # mirrors the threaded front-end's parse.
            parse_qs(parsed.query, keep_blank_values=True),
            body=body,
            content_type=headers.get("content-type", ""),
        )
        wants_close = (
            headers.get("connection", "").lower() == "close"
            or version != "HTTP/1.1"
        )
        await self._write_response(writer, response, close=wants_close)
        return not wants_close

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        close: bool = False,
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [f"HTTP/1.1 {response.status} {reason}"]
        head.append(f"Content-Type: {response.content_type}")
        head.append(f"Content-Length: {len(response.body)}")
        for name, value in response.headers:
            head.append(f"{name}: {value}")
        if close:
            head.append("Connection: close")
        writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body
        )
        await writer.drain()


def build_async_server(
    service: ImplicationService, host: str = "127.0.0.1", port: int = 0
) -> AsyncServingServer:
    """Bind (port 0 = ephemeral; read ``server_address`` for the real one)."""
    return AsyncServingServer(service, host=host, port=port)
