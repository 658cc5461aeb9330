"""``repro-experiments checkpoint`` / ``resume`` — durable ingest from the CLI.

Two subcommands over the same deterministic run machinery
(:mod:`repro.recovery.runner`):

* ``checkpoint`` — start a **fresh** checkpointed ingest into
  ``--checkpoint-dir``, committing a generation every ``--every`` chunks.
  Refuses a directory that already holds generations (that is what
  ``resume`` is for).
* ``resume`` — restore the latest valid generation from
  ``--checkpoint-dir`` (falling back past torn/corrupt ones) and replay
  only the stream suffix.  An empty directory is not an error: resume
  then degrades to a full fresh run, which is always correct, just slower.

Both print one JSON report to stdout — final state digest, restored
generation/cursor, skipped generations, generations on disk — which is
the machine interface the crash-injection harness asserts on::

    repro-experiments checkpoint --checkpoint-dir /tmp/ckpt --tuples 100000 \\
        --chunk-size 8192 --every 2
    # ... SIGKILL anywhere ...
    repro-experiments resume --checkpoint-dir /tmp/ckpt --tuples 100000 \\
        --chunk-size 8192 --every 2
"""

from __future__ import annotations

import argparse
import json
import sys

from ..observability import metrics as obs
from ..verify.streams import profile_names
from .checkpoint import CheckpointManager
from .runner import RunConfig, run_checkpointed

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments checkpoint|resume",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "mode", choices=["checkpoint", "resume"], help="fresh run vs restore-and-continue"
    )
    parser.add_argument(
        "--checkpoint-dir",
        required=True,
        metavar="DIR",
        help="directory for checkpoint generations (created if missing)",
    )
    parser.add_argument(
        "--every",
        type=int,
        default=1,
        help="checkpoint every N chunks (default: 1)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        help="tuples per ingest chunk (default: 4096)",
    )
    parser.add_argument(
        "--tuples",
        type=int,
        default=20_000,
        help="stream length (default: 20000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="stream/hash seed")
    parser.add_argument(
        "--profile",
        choices=profile_names(),
        default="uniform",
        help="stream profile (default: uniform)",
    )
    parser.add_argument(
        "--min-support", type=int, default=2, help="minimum support (default: 2)"
    )
    parser.add_argument(
        "--theta",
        type=float,
        default=0.0,
        help="minimum top-1 confidence (default: 0.0)",
    )
    parser.add_argument(
        "--max-multiplicity",
        type=int,
        default=None,
        help="multiplicity cap K (default: unbounded)",
    )
    parser.add_argument(
        "--num-bitmaps",
        type=int,
        default=16,
        help="estimator bitmaps m (default: 16)",
    )
    parser.add_argument(
        "--keep",
        type=int,
        default=3,
        help="checkpoint generations to retain (default: 3, minimum 2)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write run observability metrics (checkpoint latency/bytes, "
        "recovery fallbacks, chunks ingested) as JSON to PATH",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    for flag, value, minimum in (
        ("--tuples", args.tuples, 1),
        ("--chunk-size", args.chunk_size, 1),
        ("--every", args.every, 1),
        ("--keep", args.keep, 2),
    ):
        if value < minimum:
            print(
                f"{flag} must be >= {minimum}, got {value}", file=sys.stderr
            )
            return 2
    config = RunConfig(
        tuples=args.tuples,
        chunk_size=args.chunk_size,
        every=args.every,
        seed=args.seed,
        profile=args.profile,
        min_support=args.min_support,
        theta=args.theta,
        max_multiplicity=args.max_multiplicity,
        num_bitmaps=args.num_bitmaps,
        keep=args.keep,
    )
    if args.mode == "checkpoint":
        existing = CheckpointManager(args.checkpoint_dir, keep=args.keep).generations()
        if existing:
            print(
                f"checkpoint: {args.checkpoint_dir} already holds generations "
                f"{existing}; use 'resume' to continue or point at a fresh "
                f"directory",
                file=sys.stderr,
            )
            return 2
    report = run_checkpointed(config, args.checkpoint_dir)
    report["mode"] = args.mode
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            handle.write(obs.get_registry().to_json())
            handle.write("\n")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
