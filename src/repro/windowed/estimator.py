"""Sliding-window NIPS maintenance via rotating bitmap generations.

Every estimator in :mod:`repro.core` is *landmark*: state only ever grows,
and the sticky-violation rule of Section 3.1.1 makes VIOLATED an absorbing
status.  The paper's motivating workloads (network monitoring, OLAP
refresh) instead ask "how many implications held over the **last W
tuples**" — a question landmark state cannot answer, because evidence
older than W must stop counting.

:class:`WindowedImplicationEstimator` answers it with **generations**: the
window of ``W`` tuples is cut into ``G`` panes of ``W // G`` tuples on an
absolute tuple-count grid, and each pane gets its own full
:class:`~repro.core.estimator.ImplicationCountEstimator` (same geometry,
same placement hash — a :meth:`spawn_sibling` family).  Only the newest
generation ingests; crossing a pane boundary *rotates* (a fresh generation
is appended) and a pane whose entire span has aged past ``clock - W`` is
*retired* wholesale.  Reads merge the live generations — oldest first,
through the stock :meth:`ImplicationCountEstimator.merge` — into a fresh
sibling, so the readout covers the suffix ``[window_start, clock)`` with
``W <= clock - window_start < W + W/G`` (window honoured at pane
granularity, like every rotation scheme).

**Re-derived sticky semantics.**  Within the window, violations keep the
landmark rule: each generation latches them permanently *in its own
state*, and :meth:`ItemsetState.merge` re-proves violations whose evidence
is split across live panes at read time.  Across the window boundary the
rule deliberately diverges from landmark stickiness: a latched violation
whose last supporting evidence lives in a retired pane simply disappears
from the merged readout — expiry **un-latches**.  There is no explicit
un-latch code path; it falls out structurally because retirement drops the
only state that remembered the violation.  DESIGN.md §13 works an example.

Two registry contracts pin this module (``verify/contracts.py``):

* ``windowed-vs-offline-replay`` — the windowed state at any cursor is a
  pure function of the covered suffix: a fresh windowed run over *only*
  those tuples lands on the same :func:`windowed_state_digest`, for every
  condition profile (and bit-for-bit against a plain landmark single pass
  under the theta=0 / unbounded-fringe scope where merge is exact).
* ``generation-rotation-determinism`` — scalar, whole-batch and chunked
  batch drives that land rotations on the same tuple boundaries produce
  identical digests.

Serialization reuses the existing wire format *per generation*
(:meth:`ImplicationCountEstimator.to_bytes`); the serving layer ships the
generation set as named checkpoint attachments and
:meth:`load_generations` restores it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Hashable, Iterable

import numpy as np

from ..core.conditions import ImplicationConditions
from ..core.estimator import ImplicationCountEstimator, MemoryProfile
from ..core.nips import DEFAULT_CAPACITY_SLACK, DEFAULT_FRINGE_SIZE
from ..core.serialize import estimator_state_digest
from ..sketch.hashing import HashFunction, coerce_columns

__all__ = [
    "WindowedImplicationEstimator",
    "offline_window_reference",
    "windowed_state_digest",
]


class WindowedImplicationEstimator:
    """Implication counts over the last ``window`` tuples via G rotating
    bitmap generations.

    Parameters mirror :class:`~repro.core.estimator.ImplicationCountEstimator`
    positionally, plus:

    window:
        ``W`` — the sliding window, in tuples.  Must be a positive multiple
        of ``generations`` so pane boundaries sit on an exact grid.
    generations:
        ``G`` — panes per window.  More panes track the window edge more
        tightly (staleness < ``W/G`` tuples) at ``G``× the idle-state
        memory; 4 matches the paper's Section 3.2 rotation sketch.

    A *weighted* update (``weight=k``) is one instant: its whole weight
    lands in the pane of its arrival position and expires with that pane,
    matching :meth:`ImplicationCountEstimator.update_many` weight
    semantics.
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
        kernels: str | None = None,
        *,
        window: int,
        generations: int = 4,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if window % generations:
            raise ValueError(
                f"window ({window}) must be a multiple of generations "
                f"({generations}) so pane boundaries sit on an exact "
                f"tuple-count grid"
            )
        self.window = window
        self.generations = generations
        self.step = window // generations
        # The template is never updated: it anchors the shared geometry and
        # placement hash, and is the merge-compatibility oracle for
        # restored generation payloads.
        self._template = ImplicationCountEstimator(
            conditions,
            num_bitmaps=num_bitmaps,
            fringe_size=fringe_size,
            length=length,
            capacity_slack=capacity_slack,
            seed=seed,
            hash_function=hash_function,
            bias_correction=bias_correction,
            kernels=kernels,
        )
        self.conditions = conditions
        self.num_bitmaps = self._template.num_bitmaps
        self.fringe_size = self._template.fringe_size
        self.hash_function = self._template.hash_function
        self.kernels = self._template.kernels
        #: Total tuples ever ingested (the absolute stream cursor).
        self.clock = 0
        #: Live panes, oldest first: ``(origin, estimator)`` where the pane
        #: covers stream positions ``[origin, origin + step)``.  Panes that
        #: received no tuples are never materialized.
        self._panes: deque[tuple[int, ImplicationCountEstimator]] = deque()
        self._merged_cache: ImplicationCountEstimator | None = None

    # ------------------------------------------------------------------ #
    # Rotation machinery
    # ------------------------------------------------------------------ #

    def _ensure_current(self) -> None:
        """Rotate: the pane owning stream position ``clock`` must be newest."""
        due = self.clock - (self.clock % self.step)
        if not self._panes or self._panes[-1][0] != due:
            self._panes.append((due, self._template.spawn_sibling()))
            self._merged_cache = None

    def _retire(self) -> None:
        """Drop panes whose whole span left the window — the expiry
        un-latch: any violation only those panes remembered is gone."""
        expiry = self.clock - self.window
        while self._panes and self._panes[0][0] + self.step <= expiry:
            self._panes.popleft()
            self._merged_cache = None

    # ------------------------------------------------------------------ #
    # Updates (mirror the ImplicationCountEstimator ingest surface)
    # ------------------------------------------------------------------ #

    def update(self, itemset: Hashable, partner: Hashable, weight: int = 1) -> None:
        """Process one stream tuple projected to ``(a, b)``."""
        self._ensure_current()
        self._panes[-1][1].update(itemset, partner, weight)
        self.clock += weight
        self._merged_cache = None
        self._retire()

    def update_many(
        self,
        pairs: Iterable[tuple[Hashable, Hashable]],
        weights: Iterable[int] | None = None,
    ) -> None:
        """Scalar-path iterable ingest (weights per pair optional)."""
        if weights is None:
            for itemset, partner in pairs:
                self.update(itemset, partner)
        else:
            for (itemset, partner), weight in zip(pairs, weights, strict=True):
                self.update(itemset, partner, weight)

    def update_batch(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        """Vectorized ingest, split at pane boundaries.

        The split is on the *absolute* tuple grid, so any sequence of
        ``update_batch`` calls covering the same stream lands every
        rotation on the same boundary — the property
        ``generation-rotation-determinism`` pins.
        """
        lhs, rhs = coerce_columns(lhs, rhs)
        total = len(lhs)
        offset = 0
        while offset < total:
            self._ensure_current()
            origin = self._panes[-1][0]
            take = min(origin + self.step - self.clock, total - offset)
            self._panes[-1][1].update_batch(
                lhs[offset : offset + take],
                rhs[offset : offset + take],
            )
            self.clock += take
            offset += take
            self._merged_cache = None
            self._retire()

    # ------------------------------------------------------------------ #
    # Readouts (merge-on-read)
    # ------------------------------------------------------------------ #

    @property
    def window_start(self) -> int:
        """First stream position the readout covers (oldest live origin)."""
        if not self._panes:
            return self.clock
        return self._panes[0][0]

    @property
    def tuples_seen(self) -> int:
        """Total tuples ever ingested (the landmark-compatible name)."""
        return self.clock

    @property
    def tuples_in_window(self) -> int:
        """Tuples the merged readout currently covers."""
        return self.clock - self.window_start

    def live_origins(self) -> list[int]:
        return [origin for origin, _ in self._panes]

    def merged(self) -> ImplicationCountEstimator:
        """The window readout: live generations merged oldest-first into a
        fresh sibling.  Cached until the next update; the returned
        estimator is never mutated afterwards, so it is safe to publish to
        concurrent readers (the serving layer does exactly that)."""
        if self._merged_cache is None:
            merged = self._template.spawn_sibling()
            for _, pane in self._panes:
                merged.merge(pane)
            self._merged_cache = merged
        return self._merged_cache

    def implication_count(self) -> float:
        """``S`` over (at least) the last ``window`` tuples."""
        return self.merged().implication_count()

    def nonimplication_count(self) -> float:
        """``S-bar`` over the window — this is the readout that *decreases*
        when violating evidence rotates out (the landmark one cannot)."""
        return self.merged().nonimplication_count()

    def supported_distinct_count(self) -> float:
        """``F0_sup`` over the window."""
        return self.merged().supported_distinct_count()

    def expected_relative_error(self) -> float:
        return self._template.expected_relative_error()

    def memory_profile(self) -> MemoryProfile:
        """Aggregate footprint across live generations (G× the landmark
        budget — the price of expiry, Section 3.2's trade)."""
        profiles = [pane.memory_profile() for _, pane in self._panes]
        return MemoryProfile(
            num_bitmaps=self.num_bitmaps,
            stored_itemsets=sum(p.stored_itemsets for p in profiles),
            live_counters=sum(p.live_counters for p in profiles),
            itemset_budget=sum(p.itemset_budget for p in profiles),
        )

    def spawn_like(self) -> "WindowedImplicationEstimator":
        """A fresh, empty windowed estimator with identical configuration
        and the *same* placement hash (the windowed spawn_sibling)."""
        return WindowedImplicationEstimator(
            self.conditions,
            num_bitmaps=self.num_bitmaps,
            fringe_size=self.fringe_size,
            length=self._template.length,
            capacity_slack=self._template.bitmaps[0].capacity_slack,
            hash_function=self.hash_function,
            bias_correction=self._template.bias_correction,
            kernels=self.kernels,
            window=self.window,
            generations=self.generations,
        )

    # ------------------------------------------------------------------ #
    # Serialization (per-generation wire payloads)
    # ------------------------------------------------------------------ #

    def generation_payloads(self) -> list[tuple[int, bytes]]:
        """Live generations as ``(origin, wire_payload)``, oldest first.

        Each payload is the stock :meth:`ImplicationCountEstimator.to_bytes`
        format — the same bytes a checkpoint or a ``/snapshot`` response
        carries — so windowed durability reuses every existing validation
        path (checksums, :class:`SketchFormatError`, coordinator wire
        checks).
        """
        return [(origin, pane.to_bytes()) for origin, pane in self._panes]

    def load_generations(
        self, clock: int, payloads: Iterable[tuple[int, bytes]]
    ) -> None:
        """Restore the live generation set (checkpoint resume).

        Validates the pane grid (aligned, ascending, inside the window) and
        merge-compatibility with this estimator's geometry; on success the
        estimator is bit-for-bit the one that produced the payloads, so
        continued ingest lands on the uninterrupted run's digests.
        """
        if clock < 0:
            raise ValueError(f"clock must be >= 0, got {clock}")
        panes: deque[tuple[int, ImplicationCountEstimator]] = deque()
        previous: int | None = None
        for origin, blob in payloads:
            origin = int(origin)
            if origin % self.step:
                raise ValueError(
                    f"generation origin {origin} is off the {self.step}-tuple "
                    f"pane grid"
                )
            if previous is not None and origin <= previous:
                raise ValueError(
                    f"generation origins must ascend, got {origin} after "
                    f"{previous}"
                )
            if not 0 <= origin <= clock:
                raise ValueError(
                    f"generation origin {origin} is outside [0, {clock}]"
                )
            if origin + self.step <= clock - self.window:
                raise ValueError(
                    f"generation at origin {origin} is already expired at "
                    f"clock {clock} (window {self.window})"
                )
            pane = ImplicationCountEstimator.from_bytes(blob)
            if not self._template.is_compatible(pane):
                raise ValueError(
                    f"generation payload at origin {origin} has incompatible "
                    f"geometry/conditions for this windowed estimator"
                )
            # Restored panes keep ingesting: give them this estimator's
            # backend, not the one decoding resolves from the environment.
            pane.kernels = self.kernels
            panes.append((origin, pane))
            previous = origin
        self.clock = int(clock)
        self._panes = panes
        self._merged_cache = None

    def state_digest(self) -> str:
        """Canonical digest of the full windowed logical state."""
        return windowed_state_digest(self)

    def __repr__(self) -> str:
        return (
            f"WindowedImplicationEstimator(window={self.window}, "
            f"generations={self.generations}, clock={self.clock}, "
            f"live={len(self._panes)}, covered={self.tuples_in_window})"
        )


def windowed_state_digest(windowed: WindowedImplicationEstimator) -> str:
    """SHA-256 over the windowed state, canonicalized to window-relative
    positions.

    Pane origins are recorded relative to :attr:`window_start`, so the
    digest is a pure function of *what the window covers* — two estimators
    whose live panes hold the same tuples in the same relative panes digest
    identically even if they started at different absolute stream
    positions.  That is exactly the equality ``windowed-vs-offline-replay``
    asserts (a fresh run over only the covered suffix), and what makes the
    digest meaningful across checkpoint/resume.
    """
    start = windowed.window_start
    body = {
        "format": "repro-windowed",
        "version": 1,
        "window": windowed.window,
        "generations": windowed.generations,
        "covered": windowed.clock - start,
        "panes": [
            [origin - start, estimator_state_digest(pane)]
            for origin, pane in windowed._panes
        ],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def offline_window_reference(
    windowed: WindowedImplicationEstimator,
    lhs: np.ndarray,
    rhs: np.ndarray,
) -> WindowedImplicationEstimator:
    """The offline leg of ``windowed-vs-offline-replay``: a fresh windowed
    run over *only* the given suffix (the tuples the live window covers).

    If ``windowed`` is honest — expired tuples left no trace, rotation
    landed on the grid — then feeding the covered suffix to a fresh
    sibling reproduces its :func:`windowed_state_digest` exactly, for
    every condition profile.  Any dependence on pre-window history (a
    stale pane retained, an off-grid rotation, merged state leaking
    between panes) breaks the equality.
    """
    fresh = windowed.spawn_like()
    if len(lhs):
        fresh.update_batch(np.asarray(lhs), np.asarray(rhs))
    return fresh
