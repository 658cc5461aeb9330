"""Benchmark-owned input generators (numpy only).

Both streams are made here, from the benchmark's ``--seed``, so that no
change under ``src/`` can alter a workload: the program under test only
ever receives the generated ``(lhs, rhs)`` columns.

* :func:`dataset_one` is the Section 6.1 recipe (Dataset One): ``S``
  participating itemsets with ``u ~ U[1, c]`` main partners written 50
  times each plus four one-tuple noise partners; confidence violators
  with ``c`` mains plus ``8c`` noise partners; multiplicity violators with
  ``U[K+1, K+10]`` partners inside 50 tuples (``K = 10c``); and support
  violators written 40 times.  The stream is shuffled.  Ground truth is
  known by construction.
* :func:`fringe_stream` is a heavy-hitter stream: a handful of LHS
  itemsets, each with one fixed partner on 95% of its tuples and one of
  four random partners on the rest.  Every tuple lands in a fringe cell,
  so every tuple takes the paper's O(K log K) path.

Each input's sha256 is printed by ``run.py``; :data:`PINNED_SHA256`
holds the seed-0 hashes at full size, which ``run.py`` checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

TUPLES_PER_PAIR = 50
PARTICIPANT_NOISE = 4
SUPPORT_VIOLATOR_TUPLES = 40
MULTIPLICITY_CAP_FACTOR = 10

#: Fringe stream length: 250k tuples keep a pass near 30 ms, so a 10 s
#: run holds ~300 passes and its p95 has more than ten samples beyond it.
FRINGE_TUPLES = 250_000

#: sha256 of ``lhs || rhs`` (little-endian uint64) at seed 0, full size,
#: keyed by :meth:`Stream.label`.
PINNED_SHA256 = {
    "dataset-one@0": "8d910ab741724bdea136f8d345f3e8e2a22966e43729bd25f3ef4181cfaa0f2a",
    "fringe@0": "2bccdd2c930a709df118c1b6d92a8daf56e1f677b8a4c29aca14215e94894cbe",
}


@dataclass(frozen=True)
class Truth:
    """Exact composition of a generated stream."""

    satisfied: int
    violated: int

    @property
    def supported(self) -> int:
        return self.satisfied + self.violated


@dataclass(frozen=True)
class Stream:
    name: str
    seed: int
    lhs: np.ndarray
    rhs: np.ndarray
    truth: Truth | None

    def __len__(self) -> int:
        return len(self.lhs)

    @property
    def label(self) -> str:
        return f"{self.name}@{self.seed}"

    def sha256(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.lhs.astype("<u8").tobytes())
        digest.update(self.rhs.astype("<u8").tobytes())
        return digest.hexdigest()


def dataset_one(
    seed: int, cardinality: int = 20000, implied: int = 10000, c: int = 2
) -> Stream:
    """The Section 6.1 Dataset One stream with its ground truth."""
    rng = np.random.default_rng(seed)
    cap = MULTIPLICITY_CAP_FACTOR * c
    noise = cardinality - implied
    n_conf = noise // 3
    n_mult = noise // 3
    n_supp = noise - n_conf - n_mult
    lhs_parts: list[np.ndarray] = []
    rhs_parts: list[np.ndarray] = []
    counters = {"item": 0, "partner": 1 << 33}  # RHS ids disjoint from LHS ids

    def take(kind: str, count: int) -> np.ndarray:
        start = counters[kind]
        counters[kind] += count
        return np.arange(start, start + count, dtype=np.int64)

    def mains(owners: np.ndarray, per_owner: np.ndarray) -> None:
        pair_owner = np.repeat(owners, per_owner)
        lhs_parts.append(np.repeat(pair_owner, TUPLES_PER_PAIR))
        rhs_parts.append(np.repeat(take("partner", len(pair_owner)), TUPLES_PER_PAIR))

    def singletons(owners: np.ndarray, per_owner) -> None:
        repeated = np.repeat(owners, per_owner)
        lhs_parts.append(repeated)
        rhs_parts.append(take("partner", len(repeated)))

    participants = take("item", implied)
    mains(participants, rng.integers(1, c + 1, size=implied))
    singletons(participants, PARTICIPANT_NOISE)

    confidence = take("item", n_conf)
    mains(confidence, np.full(n_conf, c))
    singletons(confidence, 8 * c)

    multiplicity = take("item", n_mult)
    counts = rng.integers(cap + 1, cap + 11, size=n_mult)
    partners = take("partner", int(counts.sum()))
    lhs_parts.append(np.repeat(multiplicity, counts))
    rhs_parts.append(partners)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lhs_parts.append(np.repeat(multiplicity, TUPLES_PER_PAIR - counts))
    rhs_parts.append(np.repeat(partners[first], TUPLES_PER_PAIR - counts))

    support = take("item", n_supp)
    lhs_parts.append(np.repeat(support, SUPPORT_VIOLATOR_TUPLES))
    rhs_parts.append(np.repeat(take("partner", n_supp), SUPPORT_VIOLATOR_TUPLES))

    lhs = np.concatenate(lhs_parts).astype(np.uint64)
    rhs = np.concatenate(rhs_parts).astype(np.uint64)
    order = rng.permutation(len(lhs))
    return Stream(
        "dataset-one",
        seed,
        lhs[order],
        rhs[order],
        Truth(satisfied=implied, violated=n_conf + n_mult),
    )


def fringe_stream(seed: int, tuples: int = FRINGE_TUPLES, itemsets: int = 16) -> Stream:
    """Heavy-hitter stream: 95% fixed partner, 5% one of four random ones.

    The truth is not known by construction (sticky violations depend on
    order), so ``run.py`` derives it with the exact counter.
    """
    rng = np.random.default_rng(seed)
    items = rng.integers(1, 1 << 32, size=itemsets, dtype=np.uint64)
    fixed = rng.integers(1 << 40, 1 << 62, size=itemsets, dtype=np.uint64)
    noise = rng.integers(1 << 40, 1 << 62, size=(itemsets, 4), dtype=np.uint64)
    owner = rng.integers(0, itemsets, size=tuples)
    noisy = rng.random(tuples) < 0.05
    pick = rng.integers(0, 4, size=tuples)
    rhs = np.where(noisy, noise[owner, pick], fixed[owner])
    return Stream("fringe", seed, items[owner], rhs.astype(np.uint64), None)
