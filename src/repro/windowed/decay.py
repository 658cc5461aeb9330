"""Exponential decay on fringe counters — the rotation-free windowed variant.

Generation rotation (:mod:`repro.windowed.estimator`) gives hard expiry at
``G``× the memory.  When a workload only needs *recency weighting* — old
evidence should fade, not vanish on a boundary — exponential decay on the
fringe counters is the cheaper alternative: one estimator, no panes, and
every ``half_life`` tuples the support and partner counters of every live
fringe cell are halved (floored), so a tuple's contribution to the
counters is ``~2**-(age / half_life)``.

Scope, stated honestly: decay reaches only the *counters* (supports and
partner counts — the state that drives minimum-support and confidence
decisions).  Violations already latched into bitmap value-1 cells keep
landmark stickiness — a value-1 cell stores nothing that could be decayed
back, by design (Section 4.3's memory bound).  A decayed itemset whose
support reaches zero is dropped from its cell entirely (and with it any
per-itemset ``violated`` latch), which is the counter-level analogue of
the generation scheme's expiry un-latch.  Workloads that need violations
themselves to age out want :class:`WindowedImplicationEstimator`;
DESIGN.md §13 tabulates the trade.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from ..core.conditions import ImplicationConditions
from ..core.estimator import ImplicationCountEstimator
from ..sketch.hashing import coerce_columns


__all__ = ["DecayingImplicationCounter", "decay_fringe_counters"]


def decay_fringe_counters(
    estimator: ImplicationCountEstimator, factor: float
) -> int:
    """Scale every fringe counter of ``estimator`` by ``factor`` in place.

    Supports and partner counts are floored after scaling; partners whose
    count reaches zero are forgotten, and itemsets whose support reaches
    zero are dropped from their cell (un-latching any per-itemset violated
    flag with them — the evidence is gone).  Bitmap value-1 cells and the
    fringe geometry are untouched.  Returns the number of itemsets dropped.
    """
    if not 0.0 <= factor < 1.0:
        raise ValueError(f"factor must be in [0, 1), got {factor}")
    dropped = 0
    for bitmap in estimator.bitmaps:
        for position in list(bitmap._cells):
            cell = bitmap._cells[position]
            for itemset in list(cell):
                state = cell[itemset]
                state.support = int(state.support * factor)
                if state.support == 0:
                    del cell[itemset]
                    dropped += 1
                    continue
                if state.partners is not None:
                    decayed = {
                        partner: scaled
                        for partner, count in state.partners.items()
                        if (scaled := int(count * factor)) > 0
                    }
                    state.partners = decayed
            if not cell:
                del bitmap._cells[position]
    return dropped


class DecayingImplicationCounter:
    """An :class:`ImplicationCountEstimator` whose fringe counters halve
    every ``half_life`` tuples.

    The decay tick runs on the absolute tuple grid (positions that are
    multiples of ``half_life``), so — like generation rotation — any
    sequence of calls covering the same stream decays at the same points
    and lands on the same state.
    """

    def __init__(
        self,
        conditions: ImplicationConditions,
        *,
        half_life: int,
        factor: float = 0.5,
        **estimator_kwargs,
    ) -> None:
        if half_life < 1:
            raise ValueError(f"half_life must be >= 1, got {half_life}")
        if not 0.0 <= factor < 1.0:
            raise ValueError(f"factor must be in [0, 1), got {factor}")
        self.half_life = half_life
        self.factor = factor
        self.estimator = ImplicationCountEstimator(
            conditions, **estimator_kwargs
        )
        self.conditions = conditions
        self.clock = 0
        self.decays = 0

    def _boundary_room(self) -> int:
        return self.half_life - (self.clock % self.half_life)

    def _advance(self, count: int) -> None:
        self.clock += count
        while self.clock - self.decays * self.half_life >= self.half_life:
            decay_fringe_counters(self.estimator, self.factor)
            self.decays += 1

    def update(self, itemset: Hashable, partner: Hashable, weight: int = 1) -> None:
        self.estimator.update(itemset, partner, weight)
        self._advance(weight)

    def update_many(
        self,
        pairs: Iterable[tuple[Hashable, Hashable]],
        weights: Iterable[int] | None = None,
    ) -> None:
        if weights is None:
            for itemset, partner in pairs:
                self.update(itemset, partner)
        else:
            for (itemset, partner), weight in zip(pairs, weights, strict=True):
                self.update(itemset, partner, weight)

    def update_batch(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        """Batch ingest, split at decay-tick boundaries on the absolute
        grid (mirrors the windowed estimator's rotation-aligned split)."""
        lhs, rhs = coerce_columns(lhs, rhs)
        total = len(lhs)
        offset = 0
        while offset < total:
            take = min(self._boundary_room(), total - offset)
            self.estimator.update_batch(
                lhs[offset : offset + take],
                rhs[offset : offset + take],
            )
            self._advance(take)
            offset += take

    # Readouts delegate to the (decayed) landmark estimator.

    def implication_count(self) -> float:
        return self.estimator.implication_count()

    def nonimplication_count(self) -> float:
        return self.estimator.nonimplication_count()

    def supported_distinct_count(self) -> float:
        return self.estimator.supported_distinct_count()

    @property
    def tuples_seen(self) -> int:
        return self.clock

    def __repr__(self) -> str:
        return (
            f"DecayingImplicationCounter(half_life={self.half_life}, "
            f"factor={self.factor}, clock={self.clock}, decays={self.decays})"
        )
