"""NIPS/CI with stochastic averaging — the paper's production estimator.

A single NIPS bitmap estimates counts only up to a factor-of-two grid, so the
paper runs ``m`` bitmaps (64 in every experiment) and *stochastically
averages* them: the low ``log2(m)`` bits of the itemset hash pick a bitmap,
the remaining bits drive cell placement.  Expected relative error is about
``0.78 / sqrt(m)`` — just under 10% for ``m = 64``, matching the error
envelope of Figures 4–7.

:class:`ImplicationCountEstimator` is the class downstream code should use.
It exposes three estimates off the same state (Section 4.4):

* :meth:`implication_count` — ``S``, the headline statistic;
* :meth:`nonimplication_count` — ``S-bar`` (the complement query of
  Section 4.3, itself a first-class statistic: Table 2's "Complement
  Implication" row);
* :meth:`supported_distinct_count` — ``F0_sup``, distinct LHS itemsets that
  meet minimum support.

Updates come in two flavours: :meth:`update` for arbitrary hashable itemsets
(tuples, strings, ints) and :meth:`update_batch` for integer-encoded numpy
columns, which vectorizes the hash/route/placement work and only drops into
Python for the small fraction of tuples that land in a fringe zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from ..kernels.backend import Kernels
from ..kernels.backend import resolve as resolve_kernels
from ..observability import metrics as obs
from ..sketch.bitops import HASH_BITS, least_significant_bit, least_significant_bit_array
from ..sketch.fm import pcsa_scale
from ..sketch.hashing import HashFamily, HashFunction, coerce_columns
from .conditions import ImplicationConditions
from .nips import DEFAULT_CAPACITY_SLACK, DEFAULT_FRINGE_SIZE, NIPSBitmap

__all__ = ["ImplicationCountEstimator", "MemoryProfile"]


@dataclass(frozen=True)
class MemoryProfile:
    """Snapshot of the estimator's memory footprint (Section 4.6 accounting)."""

    num_bitmaps: int
    stored_itemsets: int
    live_counters: int
    itemset_budget: int

    @property
    def utilization(self) -> float:
        """Fraction of the itemset budget currently in use."""
        if self.itemset_budget == 0:
            return 0.0
        return self.stored_itemsets / self.itemset_budget


class ImplicationCountEstimator:
    """Estimate implication counts with ``m``-way stochastic averaging.

    Parameters
    ----------
    conditions:
        The implication conditions ``(K, tau, c, theta)`` of Section 3.1.1.
    num_bitmaps:
        ``m`` — must be a power of two.  The paper uses 64 throughout.
    fringe_size:
        Fringe width ``F`` per bitmap (4 in the paper), or ``None`` for the
        unbounded-fringe reference estimator of Figures 4–6.
    length:
        Cells per bitmap; the default leaves the full hash width after
        routing bits are consumed.
    capacity_slack:
        Overflow slack per fringe cell (Section 4.3.2 "double the memory").
    seed:
        Seeds the shared placement hash; two estimators with equal seeds and
        geometry are bit-for-bit reproducible.
    bias_correction:
        Apply the Flajolet–Martin ``phi`` correction (DESIGN.md D1).  With
        ``False`` the verbatim Algorithm 2 arithmetic is used.
    kernels:
        Batch-ingest backend: ``"python"``, ``"compiled"``, or ``None`` /
        ``"auto"`` to prefer compiled with silent fallback (DESIGN.md §11),
        or an already-resolved :class:`~repro.kernels.Kernels`.  Resolved
        once at construction; the scalar API is unaffected.

    State is *landmark*: it covers the whole stream since construction.
    Sliding-window counts are
    :class:`repro.windowed.WindowedImplicationEstimator` (DESIGN.md §13).
    """

    def __init__(
        self,
        conditions: ImplicationConditions,
        num_bitmaps: int = 64,
        fringe_size: int | None = DEFAULT_FRINGE_SIZE,
        length: int | None = None,
        capacity_slack: int = DEFAULT_CAPACITY_SLACK,
        seed: int = 0,
        hash_function: HashFunction | None = None,
        bias_correction: bool = True,
        kernels: str | Kernels | None = None,
    ) -> None:
        if num_bitmaps < 1 or num_bitmaps & (num_bitmaps - 1):
            raise ValueError(f"num_bitmaps must be a power of two, got {num_bitmaps}")
        self.conditions = conditions
        self.num_bitmaps = num_bitmaps
        self.route_bits = num_bitmaps.bit_length() - 1
        self.length = length if length is not None else HASH_BITS - self.route_bits
        if not 1 <= self.length <= HASH_BITS:
            raise ValueError(f"length must be in [1, {HASH_BITS}], got {self.length}")
        self.fringe_size = fringe_size
        self.bias_correction = bias_correction
        self.hash_function = hash_function or HashFamily("splitmix", seed).one()
        self.bitmaps = [
            NIPSBitmap(
                conditions,
                length=self.length,
                fringe_size=fringe_size,
                capacity_slack=capacity_slack,
                hash_function=self.hash_function,
            )
            for _ in range(num_bitmaps)
        ]
        self.tuples_seen = 0
        self.kernels = resolve_kernels(kernels)

    #: Sub-chunk size for the dispatch stage of :meth:`update_batch`;
    #: small enough that fringe floats propagate into the Zone-1 filter
    #: quickly, large enough that the vector ops amortize.
    _BATCH_CHUNK = 8192

    #: First stream-block size of :meth:`update_batch` (blocks grow 64x
    #: from here).  Early in a stream the fringe geometry races rightward,
    #: so small blocks re-arm the Zone-1 filter every few hundred rows;
    #: once geometry settles, blocks are large and each costs one
    #: vectorized filter pass.
    _BATCH_BLOCK_MIN = 512

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def update(self, itemset: Hashable, partner: Hashable, weight: int = 1) -> None:
        """Process one stream tuple projected to ``(a, b)``."""
        hashed = self.hash_function(itemset)
        index = hashed & (self.num_bitmaps - 1)
        position = min(
            least_significant_bit(hashed >> self.route_bits), self.length - 1
        )
        self.bitmaps[index].update_at(position, itemset, partner, weight)
        self.tuples_seen += weight

    def update_many(
        self,
        pairs: Iterable[tuple[Hashable, Hashable]],
        weights: Iterable[int] | None = None,
    ) -> None:
        """Process an iterable of ``(a, b)`` pairs (scalar path).

        ``weights`` optionally supplies one weight per pair (matching the
        ``weight=`` parameter of :meth:`update` / :meth:`update_at`), so
        run-length-encoded streams can flow through without expansion.
        """
        if weights is None:
            for itemset, partner in pairs:
                self.update(itemset, partner)
        else:
            for (itemset, partner), weight in zip(pairs, weights, strict=True):
                self.update(itemset, partner, weight)

    def update_batch(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        """Vectorized update for integer-encoded columns.

        ``lhs[i]`` and ``rhs[i]`` are the encoded LHS/RHS itemsets of tuple
        ``i`` (``uint64``; see :func:`repro.sketch.hashing.combine_encoded`
        for compound attributes).  On the python backend, hashing, routing
        and cell placement are done in numpy; only tuples whose cell is at
        or beyond their bitmap's fringe start — the ones that can change
        state — are handed to :meth:`NIPSBitmap.update_at`, one call per
        row in stream order.  Tuples that land in Zone-1 (the vast majority
        on a long stream) cost a few vector ops in aggregate.  The compiled
        backend replays the same blocks in C and, under the default
        :class:`~repro.sketch.hashing.SplitMix64Hash`, hashes and places
        each row there too (DESIGN.md §11).

        The result is bit-for-bit the scalar loop (one :meth:`update` per
        tuple) on every stream and condition profile: the Zone-1 filter
        only drops rows the scalar loop would also drop, and every
        surviving row — floats, violations and overflows included — runs
        at its exact stream position.  Sticky violations make a tuple's
        effect depend on where it falls in the stream, so no reordering or
        coalescing of rows is safe.
        """
        lhs, rhs = coerce_columns(lhs, rhs)
        self.tuples_seen += len(lhs)
        if len(lhs) == 0:
            return
        # Metrics at batch granularity: a handful of counter adds per call,
        # invisible next to the vector work (the <= 5% overhead bound).
        registry = obs.get_registry()
        registry.counter("ingest.batches").add(1)
        registry.counter("ingest.tuples").add(len(lhs))
        registry.gauge("kernels.backend").set(
            1.0 if self.kernels.is_compiled else 0.0
        )
        if self.kernels.is_compiled and self._run_compiled(lhs, rhs, registry):
            return
        live_counter = registry.counter("batch.live_rows")
        block_counter = registry.counter("batch.blocks")
        hashed = self.hash_function.hash_array(lhs)
        routed = hashed >> np.uint64(self.route_bits)
        all_indexes = hashed & np.uint64(self.num_bitmaps - 1)
        # Fused least-significant-bit: isolate the lowest set bit, subtract
        # one, popcount.  ``routed == 0`` wraps to all-ones -> 64, which the
        # clamp to ``length - 1`` maps to the top cell, matching
        # :func:`least_significant_bit_array`'s default without a dedicated
        # zero-fix pass.  Positions live in ``uint8`` (cells number < 256)
        # so the filter below compares byte-sized temporaries.
        isolated = routed & (np.uint64(0) - routed)
        isolated -= np.uint64(1)
        all_positions = np.bitwise_count(isolated)
        np.minimum(all_positions, np.uint8(self.length - 1), out=all_positions)
        bitmaps = self.bitmaps
        # Process the stream in contiguous blocks that grow geometrically
        # from _BATCH_BLOCK_MIN.  Each block snapshots the per-bitmap
        # fringe starts, drops its Zone-1 rows and dispatches the rest —
        # so while the geometry is still racing rightward (a cold sketch,
        # the head of a stream) the filter re-arms every few hundred rows,
        # and once it settles the big blocks are filtered in one cheap
        # vectorized pass each.  Starts only ever advance, so every
        # snapshot is conservative: a kept row whose bitmap floats or
        # fixates later is re-checked (and skipped) by update_at, in
        # stream order.  A dropped row is Zone-1 at its own stream
        # position too, where update_at would only count it.  Geometry is
        # never settled upfront from batch maxima — a cell that overflows
        # under the transient narrower window in scalar order must not
        # ride out the overflow under the final wider one.
        offset = 0
        block_size = self._BATCH_BLOCK_MIN
        while offset < len(lhs):
            block = slice(offset, offset + block_size)
            offset += block_size
            block_size *= 64
            indexes = all_indexes[block]
            positions = all_positions[block]
            starts = np.array(
                [bitmap.fringe_start for bitmap in bitmaps], dtype=np.uint8
            )
            block_counter.add(1)
            keep = positions >= starts[indexes]
            live = np.nonzero(keep)[0]
            if live.size < positions.size:
                # Zone-1 rows never reach update_at, but the scalar loop
                # counts them (update_at increments tuples_seen before its
                # Zone-1 early-return) — credit the skipped rows here so
                # per-bitmap accounting stays bit-identical.
                self._credit_skipped(indexes[~keep])
            if live.size == 0:
                continue
            live_counter.add(int(live.size))
            block_lhs = lhs[block]
            block_rhs = rhs[block]
            if live.size < positions.size:
                indexes = indexes[live]
                positions = positions[live]
                block_lhs = block_lhs[live]
                block_rhs = block_rhs[live]
            self._dispatch_block(indexes, positions, block_lhs, block_rhs)

    def _run_compiled(
        self, lhs: np.ndarray, rhs: np.ndarray, registry
    ) -> bool:
        """Replay one batch through the C kernel; ``False`` means fall back.

        A ``False`` return leaves the estimator untouched (the kernel
        refuses states its flat encoding cannot represent — e.g. cells
        keyed by the scalar API's arbitrary hashables — before mutating
        anything), so the caller simply continues into the Python path.
        The counter adds below mirror the Python path's creation rules so
        metric snapshots stay identical across backends.
        """
        from ..kernels import compiled

        try:
            counters = compiled.run_update_batch(self, lhs, rhs)
        except compiled.KernelBuildError:
            counters = None
        if counters is None:
            registry.counter("kernels.fallbacks").add(1)
            return False
        registry.gauge("kernels.jit_compile_ms").set(
            compiled.compile_milliseconds()
        )
        registry.counter("batch.live_rows").add(counters["live_rows"])
        registry.counter("batch.blocks").add(counters["blocks"])
        if counters["floats"]:
            registry.counter("nips.fringe_floats").add(counters["floats"])
        return True

    def _credit_skipped(self, indexes: np.ndarray) -> None:
        """Add filtered-out rows to their bitmaps' ``tuples_seen``.

        The Zone-1 filters drop rows before :meth:`NIPSBitmap.update_at`
        can count them; the scalar loop counts every routed tuple, so the
        batch path must too for the two to stay state-identical.
        """
        counts = np.bincount(indexes.astype(np.int64), minlength=self.num_bitmaps)
        for index in np.flatnonzero(counts):
            self.bitmaps[index].tuples_seen += int(counts[index])

    def _dispatch_block(
        self,
        all_indexes: np.ndarray,
        all_positions: np.ndarray,
        lhs: np.ndarray,
        rhs: np.ndarray,
    ) -> None:
        """Replay one filtered block through ``update_at`` in sub-chunks.

        Each sub-chunk after the first re-snapshots the fringe starts to
        drop rows whose cell a violation fixated earlier in the block.
        """
        bitmaps = self.bitmaps
        for offset in range(0, len(lhs), self._BATCH_CHUNK):
            chunk = slice(offset, offset + self._BATCH_CHUNK)
            indexes = all_indexes[chunk]
            positions = all_positions[chunk]
            chunk_lhs = lhs[chunk]
            chunk_rhs = rhs[chunk]
            if offset:
                starts = np.array(
                    [bitmap.fringe_start for bitmap in bitmaps], dtype=np.uint8
                )
                keep = positions >= starts[indexes]
                alive = np.nonzero(keep)[0]
                if alive.size < positions.size:
                    # Same accounting as the block-level filter: a dropped
                    # row still counts toward its bitmap's tuples_seen.
                    self._credit_skipped(indexes[~keep])
                    if alive.size == 0:
                        continue
                    indexes = indexes[alive]
                    positions = positions[alive]
                    chunk_lhs = chunk_lhs[alive]
                    chunk_rhs = chunk_rhs[alive]
            for index, position, itemset, partner in zip(
                indexes.tolist(),
                positions.tolist(),
                chunk_lhs.tolist(),
                chunk_rhs.tolist(),
            ):
                bitmaps[index].update_at(position, itemset, partner)

    # ------------------------------------------------------------------ #
    # Estimates (Algorithm 2 across m bitmaps)
    # ------------------------------------------------------------------ #

    def _scaled(self, mean_position: float) -> float:
        return pcsa_scale(
            self.num_bitmaps,
            mean_position,
            correct_bias=self.bias_correction,
            small_range_correction=self.bias_correction,
        )

    def nonimplication_count(self) -> float:
        """Estimate of ``S-bar`` — itemsets with support that fail a condition."""
        mean_position = sum(
            bitmap.leftmost_zero_nonimplication() for bitmap in self.bitmaps
        ) / self.num_bitmaps
        return self._scaled(mean_position)

    def supported_distinct_count(self) -> float:
        """Estimate of ``F0_sup`` — distinct itemsets meeting minimum support."""
        mean_position = sum(
            bitmap.leftmost_zero_supported() for bitmap in self.bitmaps
        ) / self.num_bitmaps
        return self._scaled(mean_position)

    def implication_count(self) -> float:
        """Estimate of ``S = F0_sup - S-bar`` (Section 4.4), clamped at 0."""
        return max(self.supported_distinct_count() - self.nonimplication_count(), 0.0)

    def expected_relative_error(self) -> float:
        """The ``~0.78 / sqrt(m)`` standard-error figure for PCSA."""
        return 0.78 / math.sqrt(self.num_bitmaps)

    def minimum_estimable_nonimplication(self, distinct_estimate: float) -> float:
        """Floor ``2**-F * F0`` below which fixation clamps ``S-bar`` (§4.3.3)."""
        if self.fringe_size is None:
            return 0.0
        return distinct_estimate / float(2 ** self.fringe_size)

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #

    def memory_profile(self) -> MemoryProfile:
        """Current footprint against the §4.6 budget ``(2**F - 1)*slack*m``."""
        stored = sum(bitmap.stored_itemsets() for bitmap in self.bitmaps)
        counters = sum(bitmap.counter_count() for bitmap in self.bitmaps)
        if self.fringe_size is None:
            budget = 0
        else:
            budget = (
                (2 ** self.fringe_size - 1)
                * self.bitmaps[0].capacity_slack
                * self.num_bitmaps
            )
        return MemoryProfile(
            num_bitmaps=self.num_bitmaps,
            stored_itemsets=stored,
            live_counters=counters,
            itemset_budget=budget,
        )

    def is_compatible(self, other: "ImplicationCountEstimator") -> bool:
        """Whether ``other`` can be merged into this estimator.

        Merge-compatibility means identical geometry (bitmap count, cell
        count, fringe width), identical conditions, and the same placement
        hash — the invariants a :class:`repro.distributed.Coordinator`
        checks before accepting a remote snapshot.
        """
        return (
            self.num_bitmaps == other.num_bitmaps
            and self.length == other.length
            and self.fringe_size == other.fringe_size
            and self.conditions == other.conditions
            and repr(self.hash_function) == repr(other.hash_function)
        )

    def merge(self, other: "ImplicationCountEstimator") -> "ImplicationCountEstimator":
        """Fold another node's estimator into this one (distributed setting).

        Both estimators must share geometry, conditions and the placement
        hash (build the remote one with :meth:`spawn_sibling`, or from the
        same seed).  After merging, this estimator summarizes the union of
        both sub-streams; see :meth:`NIPSBitmap.merge` for semantics.
        """
        if not self.is_compatible(other):
            raise ValueError("cannot merge incompatible estimators")
        for mine, theirs in zip(self.bitmaps, other.bitmaps):
            mine.merge(theirs)
        self.tuples_seen += other.tuples_seen
        return self

    def spawn_sibling(self) -> "ImplicationCountEstimator":
        """A fresh, empty estimator with identical geometry and hash.

        Sliding-window generations (Section 3.2, :mod:`repro.windowed`)
        are siblings; sharing the hash keeps them mergeable.  The sibling
        keeps this estimator's kernel backend, so an explicit ``kernels=``
        choice survives the spawn.
        """
        return ImplicationCountEstimator(
            self.conditions,
            num_bitmaps=self.num_bitmaps,
            fringe_size=self.fringe_size,
            length=self.length,
            capacity_slack=self.bitmaps[0].capacity_slack,
            hash_function=self.hash_function,
            bias_correction=self.bias_correction,
            kernels=self.kernels,
        )

    # ------------------------------------------------------------------ #
    # Wire format (distributed aggregation)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize full state for shipping to an aggregator.

        See :mod:`repro.core.serialize` for the format (versioned,
        compressed, no pickle).
        """
        from .serialize import estimator_to_bytes

        return estimator_to_bytes(self)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ImplicationCountEstimator":
        """Rebuild an estimator serialized with :meth:`to_bytes`."""
        from .serialize import estimator_from_bytes

        return estimator_from_bytes(payload)

    def __repr__(self) -> str:
        return (
            f"ImplicationCountEstimator(m={self.num_bitmaps}, "
            f"fringe={self.fringe_size}, tuples={self.tuples_seen}, "
            f"S~{self.implication_count():.0f})"
        )
