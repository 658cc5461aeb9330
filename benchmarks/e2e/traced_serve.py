"""Launch the serve CLI with the benchmark's span tracer installed.

Usage: ``python benchmarks/e2e/traced_serve.py --spans OUT.jsonl <serve args>``

Everything after ``--spans OUT`` is handed unchanged to
``repro.serving.cli.main``.  Spans are written to ``OUT`` when the server
exits (after SIGTERM), so only a graceful stop yields a trace.
"""

from __future__ import annotations

import sys

from tracing import SERVING_TARGETS, Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans OUT.jsonl <serve args>", file=sys.stderr)
        return 2
    out, serve_args = argv[1], argv[2:]
    from repro.serving import cli

    tracer = Tracer()
    tracer.install(SERVING_TARGETS)
    try:
        return cli.main(serve_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
