"""``repro-experiments`` — run any paper artifact from the command line.

Examples::

    repro-experiments figure4            # Dataset One, c=1
    repro-experiments figure7 --workload A
    repro-experiments table4
    repro-experiments ablation-fringe
    repro-experiments verify --seed 7 --iterations 50
    repro-experiments verify --replay batch-scalar-replay-seed7.json
    repro-experiments checkpoint --checkpoint-dir ckpt --every 2
    repro-experiments resume --checkpoint-dir ckpt --every 2
    repro-experiments serve --source profile:uniform --port 8080
    REPRO_SCALE=medium repro-experiments figure5

Every command prints the same table its pytest bench prints; sizing comes
from ``REPRO_SCALE`` / ``REPRO_TRIALS`` (see DESIGN.md §5).
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis.experiments import scale_settings
from .analysis.reporting import banner
from .observability import metrics as obs
from .experiments import (
    format_figure,
    format_table4,
    format_workload_errors,
    run_dataset_one_figure,
    run_epsdelta_ablation,
    run_fringe_ablation,
    run_aggregate_ablation,
    run_hash_family_ablation,
    run_heavy_hitter_ablation,
    run_sketch_comparison,
    run_table4,
    run_throughput,
    run_workload,
    write_throughput_artifact,
)
from .kernels.backend import resolve as resolve_kernels

__all__ = ["main"]

_FIGURE_C = {"figure4": 1, "figure5": 2, "figure6": 4}


def _run_figure(name: str) -> str:
    settings = scale_settings()
    points = run_dataset_one_figure(_FIGURE_C[name], settings)
    return format_figure(points, name.capitalize())


def _run_table4() -> str:
    settings = scale_settings()
    runs = run_table4(settings.olap_tuples)
    return format_table4(runs, settings.olap_tuples)


def _run_figure7(workload: str) -> str:
    settings = scale_settings()
    runs = []
    for min_support in (5, 50):
        for theta in (0.6, 0.8):
            runs.append(
                run_workload(
                    workload,
                    settings.olap_tuples,
                    min_support=min_support,
                    min_top_confidence=theta,
                )
            )
    return format_workload_errors(runs)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "verify":
        # The verify subcommand owns its flag namespace (--seed, --replay,
        # --mutate ...); dispatch before the experiment parser sees it.
        from .verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] in ("checkpoint", "resume"):
        # Likewise for the durable-ingest subcommands (--checkpoint-dir,
        # --every, ...); the mode itself is the first positional.
        from .recovery.cli import main as recovery_main

        return recovery_main(argv)
    if argv and argv[0] == "serve":
        # The resident serving process (--source, --port, ...).
        from .serving.cli import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=[
            "figure4",
            "figure5",
            "figure6",
            "table4",
            "figure7",
            "ablation-fringe",
            "ablation-sketches",
            "ablation-epsdelta",
            "ablation-heavyhitters",
            "ablation-hashes",
            "ablation-aggregates",
            "throughput",
            "all",
        ],
        help=(
            "which paper artifact (or ablation) to regenerate; "
            "'verify' runs the differential harness and 'checkpoint'/"
            "'resume' run durable checkpointed ingests (see "
            "'repro-experiments verify --help' / "
            "'repro-experiments checkpoint --help')"
        ),
    )
    parser.add_argument(
        "--workload",
        choices=["A", "B"],
        default="A",
        help="OLAP workload for figure7 (default: A)",
    )
    parser.add_argument(
        "--bench-json",
        metavar="PATH",
        default=None,
        help=(
            "also write the throughput results as JSON to PATH "
            "(schema v2: entries + host metadata)"
        ),
    )
    parser.add_argument(
        "--kernels",
        choices=["auto", "python", "compiled"],
        default="auto",
        help=(
            "batch-ingest kernel backend for the throughput paths "
            "(default: auto — compiled when it builds, python otherwise)"
        ),
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help=(
            "write the observability metrics collected during the "
            "throughput run (ingest/serialize counters) as JSON to PATH"
        ),
    )
    args = parser.parse_args(argv)
    for option in ("bench_json", "metrics_json"):
        target = getattr(args, option)
        if target:
            # Catch an unwritable target up front, not after timing runs.
            directory = os.path.dirname(os.path.abspath(target))
            if not os.path.isdir(directory):
                flag = "--" + option.replace("_", "-")
                parser.error(f"{flag}: no such directory: {directory}")

    def _run_throughput() -> str:
        if args.metrics_json:
            # A fresh registry scopes the export to this run alone.
            obs.reset_registry()
        result, table = run_throughput(kernels=args.kernels)
        if args.bench_json:
            write_throughput_artifact(
                args.bench_json,
                result.as_dict(),
                resolve_kernels(args.kernels).name,
            )
        if args.metrics_json:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                handle.write(obs.get_registry().to_json())
                handle.write("\n")
            table += "\n\n" + obs.get_registry().render()
        return table

    commands = {
        "figure4": lambda: _run_figure("figure4"),
        "figure5": lambda: _run_figure("figure5"),
        "figure6": lambda: _run_figure("figure6"),
        "table4": _run_table4,
        "figure7": lambda: _run_figure7(args.workload),
        "ablation-fringe": run_fringe_ablation,
        "ablation-sketches": run_sketch_comparison,
        "ablation-epsdelta": run_epsdelta_ablation,
        "ablation-heavyhitters": run_heavy_hitter_ablation,
        "ablation-hashes": run_hash_family_ablation,
        "ablation-aggregates": run_aggregate_ablation,
        "throughput": _run_throughput,
    }
    names = list(commands) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(banner(name))
        print(commands[name]())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
