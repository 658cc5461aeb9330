"""Planted-mutation fixtures: deliberately broken estimator subclasses.

A verification harness that has never caught a bug proves nothing.  Each
mutation here injects one realistic defect class into
:class:`~repro.core.estimator.ImplicationCountEstimator`; the harness run
against a mutant must *detect* the defect (a contract fires), *shrink* the
stream to a small counterexample, and *replay* it from the bundle.  That
end-to-end loop is part of the test suite and of the CLI acceptance run
(``repro-experiments verify --mutate ...``).

Mutants override :meth:`spawn_sibling` so code that clones the template
(bulk ingest, the sub-stream siblings of ``shard-merge``, coordinators)
stays inside the mutant class — except for serialized payloads, which
always decode to the stock class, mirroring how a real single-process bug
behaves in a distributed deploy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.estimator import ImplicationCountEstimator

__all__ = ["Mutation", "MUTATIONS", "mutation_by_name", "mutation_names"]


class _MutantEstimator(ImplicationCountEstimator):
    """Base for mutants: keep the subclass through sibling spawning."""

    def spawn_sibling(self) -> "ImplicationCountEstimator":
        sibling = super().spawn_sibling()
        sibling.__class__ = type(self)
        return sibling


class BatchDropsRowsEstimator(_MutantEstimator):
    """Vectorized path silently drops a slice of the rows.

    The defect class of off-by-one chunking / bad mask arithmetic in a
    batch engine.  Scalar updates are untouched, so only the batch==scalar
    contracts can see it.
    """

    def update_batch(self, lhs, rhs) -> None:
        lhs = np.asarray(lhs, dtype=np.uint64)
        rhs = np.asarray(rhs, dtype=np.uint64)
        keep = lhs % np.uint64(5) != np.uint64(3)
        super().update_batch(lhs[keep], rhs[keep])


class WeightsIgnoredEstimator(_MutantEstimator):
    """Scalar update drops the weight and records every tuple once.

    The defect class of a parameter lost in a refactor.  Only weighted
    entry points diverge, so the update_many-weights contract is the
    detector.
    """

    def update(self, itemset, partner, weight: int = 1) -> None:
        super().update(itemset, partner, 1)


class MergeForgetsSupportEstimator(_MutantEstimator):
    """Merge caps every incoming itemset's support at one.

    The defect class of a union-instead-of-sum merge (FM-style bit OR
    applied to counters).  Single-pass ingestion is untouched; only the
    merge-of-sub-streams contract can see it — and only when one sub-stream
    observes an itemset at least twice, so the minimal counterexample needs
    a few tuples rather than one.
    """

    def merge(self, other: "ImplicationCountEstimator") -> "ImplicationCountEstimator":
        for bitmap in other.bitmaps:
            for cell in bitmap._cells.values():
                for state in cell.values():
                    state.support = min(state.support, 1)
        return super().merge(other)


@dataclass(frozen=True)
class Mutation:
    """A named planted defect with the contract expected to catch it."""

    name: str
    description: str
    factory: Callable[..., ImplicationCountEstimator]
    expected_contract: str


MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        name="batch-drops-rows",
        description="update_batch silently drops rows with lhs % 5 == 3",
        factory=BatchDropsRowsEstimator,
        expected_contract="batch-scalar-replay",
    ),
    Mutation(
        name="weights-ignored",
        description="update discards weight > 1",
        factory=WeightsIgnoredEstimator,
        expected_contract="update-many-weights",
    ),
    Mutation(
        name="merge-forgets-support",
        description="merge caps incoming supports at 1 (union instead of sum)",
        factory=MergeForgetsSupportEstimator,
        expected_contract="shard-merge",
    ),
)


def mutation_names() -> list[str]:
    return [mutation.name for mutation in MUTATIONS]


def mutation_by_name(name: str) -> Mutation:
    for mutation in MUTATIONS:
        if mutation.name == name:
            return mutation
    raise ValueError(
        f"unknown mutation {name!r}; known: {', '.join(mutation_names())}"
    )
