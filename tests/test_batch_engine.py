"""State-equivalence tests for the batch ingest engine.

The engine's two layers — the vectorized Zone-1 filter with per-row
replay (:meth:`ImplicationCountEstimator.update_batch`, on both kernel
backends) and sharded ingest-then-merge
(:class:`repro.engine.ShardedIngestor`) — are performance transformations
of the scalar per-tuple loop.  These tests pin them to the scalar
reference *bit for bit*: same fringe geometry, same per-cell
:class:`ItemsetState` counters, same readouts, across datasets, hash
families and stream permutations.

The one documented exception is the sticky-semantics order dependence
inherited from :meth:`ItemsetState.merge` (a confidence dip visible only
in one interleaving), which gets its own targeted tests at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.serialize import estimator_state_digest
from repro.core.tracker import ItemsetState
from repro.datasets.network import NetworkTrafficGenerator, ScenarioEvent
from repro.datasets.synthetic import generate_dataset_one
from repro.distributed.coordinator import Coordinator
from repro.engine import ShardedIngestor
from repro.engine.pool import ShardJob
from repro.kernels import available_backends
from repro.recovery import CheckpointManager, ingest_checkpointed
from repro.sketch.hashing import HashFamily, encode_items
from repro.verify.harness import CONDITION_PROFILES
from repro.verify.streams import generate_stream
from repro.windowed import DecayingImplicationCounter

FAMILIES = ["splitmix", "tabulation", "polynomial"]

#: Kernel backends runnable on this host ("python" always; "compiled"
#: where the C kernel builds).  The equivalence suites run under each.
BACKENDS = available_backends()


def canonical_state(estimator: ImplicationCountEstimator):
    """Full observable state of an estimator, in comparable form."""
    bitmaps = []
    for bitmap in estimator.bitmaps:
        cells = {}
        for position, cell in bitmap._cells.items():
            cells[position] = {
                itemset: (
                    state.support,
                    None if state.partners is None else dict(state.partners),
                    state.multiplicity_exceeded,
                    state.violated,
                )
                for itemset, state in cell.items()
            }
        bitmaps.append(
            (
                bitmap.fringe_start,
                bitmap.rightmost_hashed,
                frozenset(bitmap._value_one),
                cells,
            )
        )
    return (
        bitmaps,
        estimator.implication_count(),
        estimator.nonimplication_count(),
        estimator.supported_distinct_count(),
    )


def dataset_one_stream():
    data = generate_dataset_one(300, 150, c=2, seed=11)
    return data.conditions, data.lhs, data.rhs


def network_stream():
    """A Table-1-style router feed: does the destination imply the source?"""
    generator = NetworkTrafficGenerator(
        num_sources=150,
        num_destinations=60,
        events=[
            ScenarioEvent(
                "ddos", start=800, duration=600, intensity=0.7,
                target="D-hot", spread=4, pool=200,
            )
        ],
        seed=3,
    )
    rows = list(generator.tuples(4000))
    lhs = encode_items(row[1] for row in rows)  # destination
    rhs = encode_items(row[0] for row in rows)  # source
    conditions = ImplicationConditions(
        max_multiplicity=6, min_support=5, top_c=2, min_top_confidence=0.5
    )
    return conditions, lhs, rhs


STREAMS = {"dataset-one": dataset_one_stream, "network": network_stream}


def make_estimator(
    conditions, family: str, kernels: str | None = None
) -> ImplicationCountEstimator:
    return ImplicationCountEstimator(
        conditions,
        num_bitmaps=32,
        seed=9,
        hash_function=HashFamily(family, seed=9).one(),
        kernels=kernels,
    )


def scalar_reference(conditions, family, lhs, rhs) -> ImplicationCountEstimator:
    estimator = make_estimator(conditions, family)
    for a, b in zip(lhs.tolist(), rhs.tolist()):
        estimator.update(a, b)
    return estimator


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("stream_name", sorted(STREAMS))
class TestBatchEquivalence:
    """``update_batch`` vs the scalar loop, bit for bit.

    Parametrized over every runnable kernel backend: the compiled C
    engine must land on the identical state the python reference does
    (the test-suite face of the ``kernel-backend-equivalence`` contract).
    """

    @pytest.mark.parametrize("permutation_seed", [None, 0, 1])
    def test_batch_paths_match_scalar(
        self, stream_name, family, permutation_seed, backend
    ):
        conditions, lhs, rhs = STREAMS[stream_name]()
        if permutation_seed is not None:
            order = np.random.default_rng(permutation_seed).permutation(len(lhs))
            lhs, rhs = lhs[order], rhs[order]
        reference = canonical_state(
            scalar_reference(conditions, family, lhs, rhs)
        )
        estimator = make_estimator(conditions, family, kernels=backend)
        estimator.update_batch(lhs, rhs)
        assert canonical_state(estimator) == reference, backend

    def test_sharded_ingest_matches_scalar(self, stream_name, family, backend):
        conditions, lhs, rhs = STREAMS[stream_name]()
        reference = canonical_state(
            scalar_reference(conditions, family, lhs, rhs)
        )
        template = make_estimator(conditions, family)
        for workers in (1, 2):
            merged = ShardedIngestor(
                template, workers=workers, kernels=backend
            ).ingest(lhs, rhs)
            assert canonical_state(merged) == reference, (backend, workers)


class TestShardedEngine:
    def test_coordinator_wiring(self):
        """ingest_sharded registers one snapshot per shard, merge matches."""
        conditions, lhs, rhs = dataset_one_stream()
        template = make_estimator(conditions, "splitmix")
        coordinator = Coordinator(template)
        coordinator.ingest_sharded(lhs, rhs, workers=2)
        assert coordinator.node_count == 2
        direct = make_estimator(conditions, "splitmix")
        direct.update_batch(lhs, rhs)
        assert canonical_state(coordinator.merged_estimator()) == canonical_state(
            direct
        )

    def test_payload_names_are_stable(self):
        conditions, lhs, rhs = dataset_one_stream()
        template = make_estimator(conditions, "splitmix")
        payloads = ShardedIngestor(template, workers=2).ingest_payloads(lhs, rhs)
        assert [name for name, _ in payloads] == ["shard-0", "shard-1"]

    def test_worker_validation(self):
        conditions, _, _ = dataset_one_stream()
        template = make_estimator(conditions, "splitmix")
        with pytest.raises(ValueError):
            ShardedIngestor(template, workers=0)

    def test_more_workers_than_tuples(self):
        conditions, lhs, rhs = dataset_one_stream()
        template = make_estimator(conditions, "splitmix")
        merged = ShardedIngestor(template, workers=4).ingest(lhs[:3], rhs[:3])
        assert merged.tuples_seen == 3


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "profile, seed, size, condition",
    [
        ("float_trigger_dense", 0, 256, "noisy-confidence"),
        ("uniform", 18, 1024, "support-only"),
    ],
)
def test_order_sensitive_streams_match_scalar(
    profile, seed, size, condition, backend
):
    """Streams where a tuple's effect depends on its stream position.

    Cell-grouped replay and pair coalescing once ended these streams on
    a different state than the scalar loop (on the ``uniform`` one even
    at theta = 0, through overflow timing under the bounded fringe).  The
    default ``update_batch`` and a one-shard ``ShardedIngestor`` must land
    on the scalar digest.
    """
    lhs, rhs = generate_stream(profile, seed=seed, size=size)
    conditions = dict(CONDITION_PROFILES)[condition]
    scalar = ImplicationCountEstimator(conditions, num_bitmaps=4, seed=seed)
    for a, b in zip(lhs.tolist(), rhs.tolist()):
        scalar.update(a, b)
    want = estimator_state_digest(scalar)
    batch = ImplicationCountEstimator(
        conditions, num_bitmaps=4, seed=seed, kernels=backend
    )
    batch.update_batch(lhs, rhs)
    assert estimator_state_digest(batch) == want
    template = ImplicationCountEstimator(conditions, num_bitmaps=4, seed=seed)
    sharded = ShardedIngestor(template, kernels=backend).ingest(lhs, rhs)
    assert estimator_state_digest(sharded) == want


@pytest.mark.parametrize("flag", ["aggregate", "grouped"])
def test_removed_batch_flags_raise_type_error(flag, tmp_path):
    """No ingest entry point keeps a switch for the removed reductions."""
    conditions, lhs, rhs = dataset_one_stream()
    template = make_estimator(conditions, "splitmix")
    ingestor = ShardedIngestor(template)
    manager = CheckpointManager(str(tmp_path / "ckpt"))
    entry_points = [
        template.update_batch,
        ImplicationCountEstimator(conditions, window=64).update_batch,
        DecayingImplicationCounter(conditions, half_life=64).update_batch,
        ingestor.ingest,
        ingestor.ingest_payloads,
        lambda a, b, **flags: ingest_checkpointed(
            template, a, b, manager=manager, **flags
        ),
        Coordinator(template).ingest_sharded,
    ]
    for entry in entry_points:
        with pytest.raises(TypeError):
            entry(lhs[:8], rhs[:8], **{flag: False})
    with pytest.raises(TypeError):
        ShardJob(
            shard_index=0, attempt=0, digest="", template_payload=b"",
            offset=0, length=0, fail_injected=False, failure_hook=None,
            **{flag: False},
        )
    assert template.tuples_seen == 0


class TestTransientFringeGeometry:
    """Zone-0 floats must fire at their stream positions in batch replay.

    Settling a batch's final fringe geometry up front (or dispatching
    high cells first) lets a cell ride out an overflow the scalar order
    takes under the transient narrower window — the regression pinned
    here (review finding on the original geometry pre-pass).
    """

    # Overflow is the only decision driver: support never reaches tau.
    CONDITIONS = ImplicationConditions(min_support=10**6)

    @staticmethod
    def keys_hashing_to_cell(estimator, cell, count):
        """Encoded itemsets this estimator places in ``cell`` (bitmap 0)."""
        assert estimator.num_bitmaps == 1
        found = []
        raw = 1
        while len(found) < count:
            hashed = estimator.hash_function(raw)
            position = min(
                (hashed & -hashed).bit_length() - 1 if hashed else 64,
                estimator.length - 1,
            )
            if position == cell:
                found.append(raw)
            raw += 1
        return found

    def make(self, kernels=None):
        return ImplicationCountEstimator(
            self.CONDITIONS, num_bitmaps=1, seed=5, kernels=kernels
        )

    def run_all_paths(self, lhs, rhs):
        """Scalar-reference state and the assertion over batch replay
        under every runnable kernel backend (float timing is exactly where
        a compiled replay could drift)."""
        scalar = self.make()
        for a, b in zip(lhs.tolist(), rhs.tolist()):
            scalar.update(a, b)
        reference = canonical_state(scalar)
        for backend in BACKENDS:
            estimator = self.make(kernels=backend)
            estimator.update_batch(lhs, rhs)
            assert canonical_state(estimator) == reference, backend
        return scalar

    def test_overflow_under_transient_window_then_float(self):
        """Five distinct itemsets overflow cell 2 (capacity 4 while the
        fringe is [0, 3]); a later cell-5 row floats the fringe.  Scalar
        order overflows first, so the float fixates cell 2 and lands
        ``fringe_start == 3`` — the pre-pass used to widen the window
        first and keep cell 2 alive at ``fringe_start == 2``."""
        probe = self.make()
        low = self.keys_hashing_to_cell(probe, 2, 5)
        high = self.keys_hashing_to_cell(probe, 5, 1)
        lhs = np.array(low + high, dtype=np.uint64)
        rhs = np.arange(1, len(lhs) + 1, dtype=np.uint64)
        scalar = self.run_all_paths(lhs, rhs)
        assert scalar.bitmaps[0].fringe_start == 3  # the overflow latched

    def test_float_interleaved_with_cell_fill(self):
        """The mirror image: the float lands mid-fill (3 itemsets, float,
        2 more), so scalar order *widens* the window before the 5th
        distinct itemset and no overflow happens.  Batch replay must not
        run the cell-2 rows whole under the narrow window."""
        probe = self.make()
        low = self.keys_hashing_to_cell(probe, 2, 5)
        high = self.keys_hashing_to_cell(probe, 5, 1)
        lhs = np.array(low[:3] + high + low[3:], dtype=np.uint64)
        rhs = np.arange(1, len(lhs) + 1, dtype=np.uint64)
        scalar = self.run_all_paths(lhs, rhs)
        bitmap = scalar.bitmaps[0]
        assert bitmap.fringe_start == 2  # float only; no overflow latched
        assert len(bitmap._cells[2]) == 5  # all five itemsets survived


class TestMergeOrderDependence:
    """The documented caveat: sticky confidence dips are interleaving-bound."""

    CONDITIONS = ImplicationConditions(
        min_support=2, top_c=1, min_top_confidence=0.6
    )

    def test_state_merge_keeps_sub_stream_violation(self):
        """A dip inside one sub-stream latches, though the interleaved
        single-pass order never dips."""
        interleaved = ItemsetState()
        for partner in ("b1", "b1", "b2", "b1"):
            interleaved.observe(partner, self.CONDITIONS)
        assert not interleaved.violated  # confidence never fell below 0.6

        left = ItemsetState()
        for partner in ("b1", "b1"):
            left.observe(partner, self.CONDITIONS)
        right = ItemsetState()
        for partner in ("b2", "b1"):
            right.observe(partner, self.CONDITIONS)
        assert right.violated  # 1/2 < 0.6 at support 2, inside that shard

        left.merge(right, self.CONDITIONS)
        assert left.violated  # sticky across the merge

    def test_sharded_ingest_can_miss_interleaving_dip(self):
        """The mirror image: the single-pass order dips mid-stream, but each
        shard stays below minimum support (never evaluated) and every
        pairwise-merge prefix stays above theta, so the merged sketch keeps
        the cell the single pass wiped."""
        conditions = ImplicationConditions(
            min_support=3, top_c=1, min_top_confidence=0.65
        )
        # Stream for one itemset: partner counts dip to 3/5 = 0.6 < 0.65 at
        # support 5, then recover to 4/6.  Shards of two tuples each hold
        # support 2 < tau; the pairwise fold evaluates at 3/4 = 0.75 and
        # 4/6 = 0.667, both above theta.
        itemset = np.full(6, 7, dtype=np.uint64)
        partners = np.array([1, 1, 1, 2, 2, 1], dtype=np.uint64)

        def find_cell(estimator):
            for bitmap in estimator.bitmaps:
                for cell in bitmap._cells.values():
                    if 7 in cell:
                        return cell[7]
            return None

        single = ImplicationCountEstimator(conditions, num_bitmaps=4, seed=0)
        single.update_batch(itemset, partners)
        # The dip latched a violation; _assign_one wiped the cell.
        assert find_cell(single) is None

        template = ImplicationCountEstimator(conditions, num_bitmaps=4, seed=0)
        merged = ShardedIngestor(template, workers=3).ingest(itemset, partners)
        survivor = find_cell(merged)
        assert survivor is not None
        assert survivor.support == 6
        assert not survivor.violated
        assert canonical_state(merged) != canonical_state(single)
