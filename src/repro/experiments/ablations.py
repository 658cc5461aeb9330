"""Ablation experiments (DESIGN.md E-X1 … E-X7).

These go beyond the paper's figures to exercise the design choices its text
argues for:

* **Fringe sizing** (§4.3.2-4.3.3): error of small non-implication counts
  under fringe sizes 2/4/8 — demonstrating the ``2**-F * F0`` clamping floor
  and Lemma 2's sizing rule.
* **Sketch substrates** (§4.1): FM/PCSA vs LogLog vs HyperLogLog vs KMV on
  plain distinct counting — why the bitmap (not a max-register) is the
  structure that can host a floating fringe, and what accuracy each gives.
* **(eps, delta) boosting** (§4.7): median-of-groups vs a single estimator.
* **Throughput** (§4.6): scalar vs vectorized ingest rates.
* **Hash families** (E-X5), **heavy hitters** (E-X6) and **sampled
  aggregates** (E-X7): see the individual docstrings.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..analysis.errors import relative_error, summarize_errors
from ..analysis.reporting import format_table
from ..baselines.exact import ExactImplicationCounter
from ..core.approximation import MedianOfEstimators, minimum_estimable_count
from ..core.estimator import ImplicationCountEstimator
from ..datasets.synthetic import generate_dataset_one
from ..sketch.fm import PCSA
from ..sketch.kmv import KMinimumValues
from ..sketch.linear_counting import LinearCounter
from ..sketch.loglog import HyperLogLog, LogLog

__all__ = [
    "run_fringe_ablation",
    "run_sketch_comparison",
    "run_epsdelta_ablation",
    "run_throughput",
    "run_kernel_speedup",
    "bench_host_metadata",
    "write_throughput_artifact",
    "read_throughput_artifact",
    "run_heavy_hitter_ablation",
    "run_hash_family_ablation",
    "run_aggregate_ablation",
]


def run_aggregate_ablation(
    num_itemsets: int = 5000,
    budgets: tuple[int, ...] = (256, 1024, 4096),
    trials: int = 3,
    seed: int = 0,
) -> str:
    """Sampled population aggregates vs the memory budget (E-X7).

    Builds a population whose satisfied itemsets have known average
    multiplicity and support, then measures how well the distinct-sampling
    aggregate layer recovers the averages as its budget shrinks (the level
    rises and fewer itemsets back each estimate).
    """
    from ..core.aggregates import SampledImplicationAggregates
    from ..core.conditions import ImplicationConditions

    conditions = ImplicationConditions(max_multiplicity=3, min_support=4, top_c=3)
    # Satisfied itemsets alternate multiplicity 1 / 2 (mean 1.5), support 4
    # tuples per partner (mean support 6).
    true_mean_multiplicity = 1.5
    rows = []
    for budget in budgets:
        mult_errors: list[float] = []
        count_errors: list[float] = []
        effective_n = 0
        for index in range(trials):
            sampled = SampledImplicationAggregates(
                conditions,
                sample_budget=budget,
                per_value_bound=8,
                seed=seed + 31 * index,
            )
            rng = np.random.default_rng(seed + index)
            order = rng.permutation(num_itemsets)
            for itemset in order:
                partners = 1 + int(itemset) % 2
                for p in range(partners):
                    for __ in range(4 // partners + 2):
                        sampled.update(int(itemset), (int(itemset), p))
            mult_errors.append(
                relative_error(
                    true_mean_multiplicity,
                    sampled.average_multiplicity("satisfied"),
                )
            )
            count_errors.append(
                relative_error(
                    num_itemsets, sampled.population_count("satisfied")
                )
            )
            effective_n = sampled.sample_size("satisfied")
        rows.append(
            (
                budget,
                effective_n,
                f"{summarize_errors(mult_errors).mean:.4f}",
                f"{summarize_errors(count_errors).mean:.4f}",
            )
        )
    return format_table(
        ("budget (counters)", "sampled itemsets", "avg-mult err", "count err"),
        rows,
        title=(
            "Aggregate ablation: sampled population statistics vs memory "
            "budget"
        ),
    )


def run_fringe_ablation(
    cardinality: int = 2000,
    fractions: tuple[float, ...] = (0.02, 0.05, 0.2, 0.5, 0.9),
    fringe_sizes: tuple[int, ...] = (2, 4, 8),
    trials: int = 5,
    seed: int = 0,
) -> str:
    """Non-implication-count error vs fringe size.

    Small fractions put the *non*-implication count below the
    ``2**-F * F0`` floor for small ``F`` — the clamping regime of §4.3.3
    where only a larger fringe stays accurate.
    """
    rows = []
    for fraction in fractions:
        # Large implied fraction => small non-implication count, and vice
        # versa: S-bar = 2/3 of the non-implied mass by construction.
        implied = max(1, int(cardinality * (1.0 - fraction)))
        per_fringe: dict[int, list[float]] = {size: [] for size in fringe_sizes}
        truth_ratio = 0.0
        for index in range(trials):
            data = generate_dataset_one(
                cardinality, implied, c=1, seed=seed + 7919 * index
            )
            actual = float(data.truth.violated)
            truth_ratio = actual / data.truth.supported
            for size in fringe_sizes:
                estimator = ImplicationCountEstimator(
                    data.conditions, fringe_size=size, seed=seed + index
                )
                estimator.update_batch(data.lhs, data.rhs)
                per_fringe[size].append(
                    relative_error(actual, estimator.nonimplication_count())
                )
        cells = [f"{truth_ratio:.3f}"]
        for size in fringe_sizes:
            summary = summarize_errors(per_fringe[size])
            floor = minimum_estimable_count(size, float(cardinality))
            clamped = truth_ratio * cardinality < floor
            cells.append(f"{summary.mean:.3f}{'*' if clamped else ''}")
        rows.append(tuple(cells))
    return format_table(
        ("S-bar / F0",) + tuple(f"F={size}" for size in fringe_sizes),
        rows,
        title=(
            "Fringe-size ablation: non-implication relative error "
            "(* = count below the 2**-F floor, clamping expected; §4.3.3)"
        ),
    )


def run_sketch_comparison(
    distinct: int = 50_000, trials: int = 5, seed: int = 0
) -> str:
    """Distinct-count accuracy of the four F0 substrates at equal m/k."""
    makers = {
        "FM/PCSA m=64": lambda s: PCSA(num_bitmaps=64, seed=s),
        "LogLog m=64": lambda s: LogLog(num_registers=64, seed=s),
        "HyperLogLog m=64": lambda s: HyperLogLog(num_registers=64, seed=s),
        "KMV k=64": lambda s: KMinimumValues(k=64, seed=s),
        # Paper reference [26]: accurate but needs O(n) bits, which is the
        # trade the FM-based design avoids.
        "LinearCounting m=64k": lambda s: LinearCounter(num_bits=1 << 16, seed=s),
    }
    errors: dict[str, list[float]] = {name: [] for name in makers}
    for index in range(trials):
        rng = np.random.default_rng(seed + index)
        items = rng.integers(0, 1 << 62, size=distinct, dtype=np.uint64)
        for name, make in makers.items():
            sketch = make(seed + 31 * index)
            sketch.add_encoded_array(items)
            errors[name].append(relative_error(distinct, sketch.estimate()))
    rows = [
        (name, f"{summarize_errors(errs).mean:.4f}")
        for name, errs in errors.items()
    ]
    return format_table(
        ("sketch", "mean rel error"),
        rows,
        title=f"F0 sketch comparison on {distinct:,} distinct items",
    )


def run_epsdelta_ablation(
    cardinality: int = 1000,
    fraction: float = 0.5,
    groups: int = 9,
    trials: int = 9,
    seed: int = 0,
) -> str:
    """Median-of-groups boosting vs a single estimator (§4.7).

    Reports worst-case (max) error across trials — the quantity the median
    trick is designed to control.
    """
    implied = int(cardinality * fraction)
    single_errors: list[float] = []
    median_errors: list[float] = []
    for index in range(trials):
        data = generate_dataset_one(cardinality, implied, c=1, seed=seed + index)
        actual = float(data.truth.satisfied)
        single = ImplicationCountEstimator(data.conditions, seed=seed + index)
        single.update_batch(data.lhs, data.rhs)
        single_errors.append(relative_error(actual, single.implication_count()))
        boosted = MedianOfEstimators(
            data.conditions, groups=groups, seed=seed + index
        )
        boosted.update_batch(data.lhs, data.rhs)
        median_errors.append(relative_error(actual, boosted.implication_count()))
    single_summary = summarize_errors(single_errors)
    median_summary = summarize_errors(median_errors)
    rows = [
        ("single estimator", f"{single_summary.mean:.4f}", f"{single_summary.maximum:.4f}"),
        (
            f"median of {groups}",
            f"{median_summary.mean:.4f}",
            f"{median_summary.maximum:.4f}",
        ),
    ]
    return format_table(
        ("configuration", "mean err", "max err"),
        rows,
        title="(eps, delta) boosting: median over independent groups",
    )


def run_heavy_hitter_ablation(
    cardinality: int = 2000,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75),
    k: int = 128,
    trials: int = 3,
    seed: int = 0,
) -> str:
    """Heavy hitters vs NIPS/CI on long-tail implications (Section 1 claim).

    Dataset One implications each hold for ~54 tuples of a much longer
    stream — none is individually frequent, so a top-k summary misses
    almost all of them while NIPS/CI captures their cumulative count.
    """
    from ..baselines.heavy_hitters import HeavyHitterImplicationCounter

    rows = []
    for fraction in fractions:
        implied = max(1, int(cardinality * fraction))
        heavy_errors: list[float] = []
        nips_errors: list[float] = []
        coverage: list[float] = []
        for index in range(trials):
            data = generate_dataset_one(
                cardinality, implied, c=1, seed=seed + 104_729 * index
            )
            actual = float(data.truth.satisfied)
            heavy = HeavyHitterImplicationCounter(data.conditions, k=k)
            heavy.update_batch(data.lhs, data.rhs)
            heavy_errors.append(relative_error(actual, heavy.implication_count()))
            coverage.append(heavy.implication_count() / actual)
            nips = ImplicationCountEstimator(data.conditions, seed=seed + index)
            nips.update_batch(data.lhs, data.rhs)
            nips_errors.append(relative_error(actual, nips.implication_count()))
        rows.append(
            (
                implied,
                f"{summarize_errors(nips_errors).mean:.3f}",
                f"{summarize_errors(heavy_errors).mean:.3f}",
                f"{summarize_errors(coverage).mean:.1%}",
            )
        )
    return format_table(
        ("implication count", "NIPS/CI err", f"top-{k} HH err", "HH coverage"),
        rows,
        title=(
            "Heavy-hitter ablation: long-tail implications are invisible to "
            "a frequency summary (Section 1)"
        ),
    )


def run_hash_family_ablation(
    cardinality: int = 1000,
    fraction: float = 0.5,
    trials: int = 6,
    seed: int = 0,
) -> str:
    """NIPS/CI accuracy under each hash family (splitmix default).

    The estimator assumes a uniform hash; this quantifies how much the
    cheaper 2-universal multiply-shift scheme costs in practice versus the
    full-avalanche and higher-independence families.
    """
    from ..sketch.hashing import HashFamily

    implied = int(cardinality * fraction)
    rows = []
    for kind in ("splitmix", "multiply-shift", "polynomial", "tabulation"):
        errors: list[float] = []
        for index in range(trials):
            data = generate_dataset_one(
                cardinality, implied, c=1, seed=seed + 31 * index
            )
            estimator = ImplicationCountEstimator(
                data.conditions,
                hash_function=HashFamily(kind, seed=seed + 977 * index).one(),
            )
            estimator.update_batch(data.lhs, data.rhs)
            errors.append(
                relative_error(
                    float(data.truth.satisfied), estimator.implication_count()
                )
            )
        summary = summarize_errors(errors)
        rows.append((kind, f"{summary.mean:.4f}", f"{summary.maximum:.4f}"))
    return format_table(
        ("hash family", "mean err", "max err"),
        rows,
        title="Hash-family ablation: NIPS/CI implication-count error",
    )


@dataclass(frozen=True)
class ThroughputResult:
    """Tuples/second of every ingest path (see :func:`run_throughput`)."""

    scalar_tps: float
    batch_tps: float
    exact_tps: float

    def as_dict(self) -> dict[str, float]:
        """Flat machine-readable form (the BENCH_throughput.json schema)."""
        return {
            "scalar": self.scalar_tps,
            "batch": self.batch_tps,
            "exact": self.exact_tps,
        }


def run_throughput(
    cardinality: int = 2000,
    seed: int = 0,
    repeats: int = 3,
    kernels: str | None = None,
) -> tuple[ThroughputResult, str]:
    """Tuples/second of every ingest path on the Dataset-1 workload.

    Paths: the scalar per-tuple loop, the vectorized batch path
    (:meth:`~ImplicationCountEstimator.update_batch`) and the exact
    hash-table counter.  Every path reports its best of ``repeats`` runs
    (each run on a fresh estimator), which filters scheduler noise and
    one-time numpy warmup.

    ``kernels`` selects the batch-ingest backend for every estimator path
    (see :mod:`repro.kernels.backend`); the scalar loop and the exact
    counter are backend-independent.
    """
    data = generate_dataset_one(cardinality, cardinality // 2, c=2, seed=seed)
    tuples = len(data.lhs)

    def best_tps(ingest) -> float:
        elapsed = min(
            _timed(ingest) for _ in range(max(repeats, 1))
        )
        return tuples / elapsed

    def _timed(ingest) -> float:
        started = time.perf_counter()
        ingest()
        return time.perf_counter() - started

    pairs = list(zip(data.lhs.tolist(), data.rhs.tolist()))

    def scalar_ingest():
        estimator = ImplicationCountEstimator(data.conditions, seed=seed)
        for a, b in pairs:
            estimator.update(a, b)

    scalar_tps = best_tps(scalar_ingest)

    batch_tps = best_tps(
        lambda: ImplicationCountEstimator(
            data.conditions, seed=seed, kernels=kernels
        ).update_batch(data.lhs, data.rhs)
    )

    exact_tps = best_tps(
        lambda: ExactImplicationCounter(data.conditions).update_batch(
            data.lhs, data.rhs
        )
    )

    result = ThroughputResult(scalar_tps, batch_tps, exact_tps)
    rows = [
        ("NIPS/CI scalar", f"{scalar_tps:,.0f}"),
        ("NIPS/CI batch", f"{batch_tps:,.0f}"),
        ("exact hash tables", f"{exact_tps:,.0f}"),
    ]
    table = format_table(
        ("path", "tuples/s"),
        rows,
        title=f"Ingest throughput on {len(data.lhs):,} tuples",
    )
    return result, table


def run_kernel_speedup(
    cardinality: int = 2000, seed: int = 0, repeats: int = 3
) -> dict[str, float]:
    """Batch-engine tuples/second per kernel backend, same stream, same run.

    Times ``update_batch`` once per available backend over the identical
    Dataset-1 workload — the
    single-run relative comparison the CI throughput smoke asserts on
    (compiled >= 2x python), which holds on any host class, unlike an
    absolute tuples/s floor.  The ``compiled`` key is absent on hosts
    where that backend cannot build.
    """
    from ..kernels.backend import available_backends

    data = generate_dataset_one(cardinality, cardinality // 2, c=2, seed=seed)
    tuples = len(data.lhs)
    speeds: dict[str, float] = {}
    for backend in available_backends():
        elapsed = []
        for _ in range(max(repeats, 1)):
            estimator = ImplicationCountEstimator(
                data.conditions, seed=seed, kernels=backend
            )
            started = time.perf_counter()
            estimator.update_batch(data.lhs, data.rhs)
            elapsed.append(time.perf_counter() - started)
        speeds[backend] = tuples / min(elapsed)
    return speeds


# --------------------------------------------------------------------- #
# BENCH_throughput.json (schema v2: entries + host metadata)
# --------------------------------------------------------------------- #

#: Current on-disk schema of ``BENCH_throughput.json``.
BENCH_SCHEMA_VERSION = 2


def bench_host_metadata(kernel_backend: str | None = None) -> dict:
    """Host descriptor attached to every benchmark artifact (schema v2).

    Labels *where* a number came from, so a number measured on a small or
    shared host (one schedulable core, say) reads as what it is instead of
    as a regression.  The hostname
    ships as a short SHA-256 so artifacts stay comparable across runs of
    one machine without leaking machine names into the repo.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            cores = len(getaffinity(0))
        except OSError:  # pragma: no cover - exotic kernels
            cores = os.cpu_count() or 1
    else:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    if kernel_backend is None:
        from ..kernels.backend import available_backends

        kernel_backend = available_backends()[-1]
    return {
        "cores": cores,
        "hostname_sha256": hashlib.sha256(
            socket.gethostname().encode("utf-8")
        ).hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernel_backend,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_throughput_artifact(
    path: str | Path,
    entries: dict[str, float],
    kernel_backend: str | None = None,
) -> dict:
    """Write a schema-v2 ``BENCH_throughput.json`` and return the payload."""
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "host": bench_host_metadata(kernel_backend),
        "entries": dict(sorted(entries.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def read_throughput_artifact(source: str | Path | dict) -> dict:
    """Read a throughput artifact, shimming schema v1 into the v2 shape.

    v1 artifacts were a flat ``{path_name: tuples_per_second}`` mapping
    with no metadata; they come back as ``schema == 1`` with an empty
    ``host`` so readers can treat every artifact uniformly (and see at a
    glance that a number is unlabeled).
    """
    if isinstance(source, dict):
        raw = source
    else:
        raw = json.loads(Path(source).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"malformed throughput artifact: {type(raw).__name__}")
    if raw.get("schema") == BENCH_SCHEMA_VERSION:
        if not isinstance(raw.get("entries"), dict):
            raise ValueError("schema-2 artifact is missing its entries map")
        return raw
    # v1: the whole document is the entries map.
    return {"schema": 1, "host": {}, "entries": raw}
