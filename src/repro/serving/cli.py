"""``repro-experiments serve`` — run the resident serving process.

Wires the three long-lived pieces together in one process:

* the ingest loop (:meth:`ImplicationService.run`) in a daemon thread,
* the HTTP front-end (:class:`ServingHTTPServer.serve_forever`) in a
  daemon thread,
* the main thread parked on a stop event that SIGTERM/SIGINT set.

Shutdown is graceful by construction: the signal only sets the event, the
ingest loop finishes its in-flight batch, commits a final checkpoint
generation at the batch boundary, flips status to ``stopped``, and only
then is the listener closed.  Because the checkpointed state is a single
pass over the stream prefix and sources are addressed by tuple cursor, a
service restarted against the same ``--checkpoint-dir`` resumes to the
bit-for-bit digest of an uninterrupted run (asserted end-to-end by
``benchmarks/bench_serving.py`` and the CI serving smoke).

Two machine-readable JSON lines frame every run on stdout — ``listening``
(with the actual bound port, for ``--port 0``) and ``stopped`` (with the
final cursor/digest) — so harnesses can drive the process without
scraping logs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from ..observability import metrics as obs
from .http import build_server
from .service import ImplicationService, ServeConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Resident serving process: continuous ingest from a stream "
            "source plus concurrent HTTP reads over published snapshots."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--frontend",
        choices=("threaded", "asyncio"),
        default="threaded",
        help="HTTP front-end: one thread per connection (threaded) or a "
        "single event loop (asyncio — higher connection counts, same "
        "endpoint table)",
    )
    parser.add_argument(
        "--source",
        default="profile:uniform",
        help="'profile:NAME', 'dataset-one[:cardinality=..,implied=..,c=..]' "
        "or 'push[:capacity=N]' (POST /ingest write path)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tuples",
        type=int,
        default=None,
        help="bound the stream (default: infinite for profile sources)",
    )
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument(
        "--publish-every",
        type=int,
        default=1,
        help="commit/publish cadence in batches",
    )
    parser.add_argument("--num-bitmaps", type=int, default=16)
    parser.add_argument(
        "--profiles",
        default=None,
        help="comma-separated condition profile names (default: all)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="enable durability (resume happens automatically)",
    )
    parser.add_argument("--keep", type=int, default=3)
    parser.add_argument(
        "--kernels", default=None, choices=("python", "compiled", "auto")
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help="serve a sliding-window view over the trailing N tuples "
        "(readable via /query?window=1; default: landmark only)",
    )
    parser.add_argument(
        "--window-generations",
        type=int,
        default=4,
        help="bitmap generations per window (must divide --window)",
    )
    parser.add_argument(
        "--pace-tps",
        type=float,
        default=None,
        help="throttle ingest to this many tuples/second "
        "(models the stream's arrival rate; default: flat out)",
    )
    parser.add_argument(
        "--exit-when-drained",
        action="store_true",
        help="exit once a bounded source is fully ingested "
        "(default: keep serving reads until signalled)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    profiles = tuple(
        name.strip() for name in args.profiles.split(",") if name.strip()
    ) if args.profiles else ()
    config = ServeConfig(
        source=args.source,
        seed=args.seed,
        tuples=args.tuples,
        batch_size=args.batch_size,
        publish_every=args.publish_every,
        num_bitmaps=args.num_bitmaps,
        profiles=profiles,
        keep=args.keep,
        kernels=args.kernels,
        pace_tps=args.pace_tps,
        window=args.window,
        window_generations=args.window_generations,
    )
    service = ImplicationService(config, checkpoint_dir=args.checkpoint_dir)
    if args.frontend == "asyncio":
        from .aio import build_async_server

        httpd = build_async_server(service, host=args.host, port=args.port)
    else:
        httpd = build_server(service, host=args.host, port=args.port)

    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    # Signal handlers must live in the main thread.
    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    ingest = threading.Thread(
        target=service.run, args=(stop,), name="serving-ingest", daemon=True
    )
    serve = threading.Thread(
        target=httpd.serve_forever, name="serving-http", daemon=True
    )
    ingest.start()
    serve.start()

    print(
        json.dumps(
            {
                "event": "listening",
                "host": httpd.server_address[0],
                "port": httpd.server_address[1],
                "frontend": args.frontend,
                "pid": os.getpid(),
                "profiles": list(service.profiles),
                "resumed_generation": service.restored_generation,
                "cursor": service.cursor,
            }
        ),
        flush=True,
    )

    try:
        while not stop.is_set():
            if not ingest.is_alive() and (
                args.exit_when_drained or service.store.status == "stopped"
            ):
                break
            stop.wait(0.1)
    finally:
        stop.set()
        # Drain order matters: the ingest loop first (it commits the final
        # generation at its batch boundary), then stop accepting reads.
        ingest.join(timeout=60.0)
        httpd.shutdown()
        httpd.server_close()

    snapshot = service.store.get(service.primary)
    print(
        json.dumps(
            {
                "event": "stopped",
                "status": service.store.status,
                "cursor": service.cursor,
                "generation": service.generation,
                "digest": snapshot.digest if snapshot else None,
                "window_digest": (
                    snapshot.window["digest"]
                    if snapshot and snapshot.window
                    else None
                ),
                "requests": obs.get_registry()
                .counter("serving.http.requests")
                .value,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
