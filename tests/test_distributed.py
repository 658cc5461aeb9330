"""Tests for the distributed aggregation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactImplicationCounter
from repro.core.estimator import ImplicationCountEstimator
from repro.datasets.synthetic import generate_dataset_one
from repro.distributed import AggregationTree, Coordinator, StreamNode


def make_setup(num_nodes: int = 4, seed: int = 5):
    data = generate_dataset_one(500, 250, c=1, seed=seed)
    template = ImplicationCountEstimator(data.conditions, seed=seed + 1)
    nodes = [StreamNode(f"node-{i}", template) for i in range(num_nodes)]
    # Shard by itemset so every itemset's history stays on one node.
    shard_of = (data.lhs % np.uint64(num_nodes)).astype(np.int64)
    for index, node in enumerate(nodes):
        mask = shard_of == index
        node.observe_batch(data.lhs[mask], data.rhs[mask])
    return data, template, nodes


class TestStreamNode:
    def test_nodes_share_placement_hash(self):
        __, template, nodes = make_setup()
        assert all(
            node.estimator.hash_function is template.hash_function
            for node in nodes
        )

    def test_snapshot_accounting(self):
        __, __t, nodes = make_setup()
        node = nodes[0]
        payload = node.snapshot()
        assert node.snapshots_sent == 1
        assert node.bytes_sent == len(payload)

    def test_local_count_is_partial(self):
        data, __, nodes = make_setup()
        local = sum(node.local_implication_count() for node in nodes)
        # Each node holds a quarter of the itemsets; summed locals should be
        # in the neighbourhood of the global truth.
        assert local == pytest.approx(data.truth.satisfied, rel=0.5)


class TestCoordinator:
    def test_merged_estimate_near_truth(self):
        data, template, nodes = make_setup()
        coordinator = Coordinator(template)
        coordinator.sync(nodes)
        assert coordinator.node_count == 4
        assert coordinator.implication_count() == pytest.approx(
            data.truth.satisfied, rel=0.4
        )

    def test_resent_snapshot_does_not_double_count(self):
        data, template, nodes = make_setup()
        coordinator = Coordinator(template)
        coordinator.sync(nodes)
        first = coordinator.implication_count()
        # The same node re-sends (e.g. after a retry): count must not move.
        coordinator.receive(nodes[0].name, nodes[0].snapshot())
        assert coordinator.implication_count() == first

    def test_incremental_node_arrival(self):
        data, template, nodes = make_setup()
        coordinator = Coordinator(template)
        coordinator.receive(nodes[0].name, nodes[0].snapshot())
        partial = coordinator.supported_distinct_count()
        coordinator.sync(nodes)
        assert coordinator.supported_distinct_count() > partial

    def test_bandwidth_accounting(self):
        __, template, nodes = make_setup()
        coordinator = Coordinator(template)
        coordinator.sync(nodes)
        assert coordinator.bytes_received == sum(n.bytes_sent for n in nodes)


class TestCoordinatorQuarantine:
    def test_corrupt_payload_rejected_and_counted(self):
        __, template, nodes = make_setup()
        coordinator = Coordinator(template)
        assert coordinator.receive("evil", b"NIPS\x01garbage") is False
        assert coordinator.node_count == 0
        assert coordinator.rejected_payloads == {"evil": 1}
        assert "corrupt payload" in coordinator.rejection_reasons["evil"]

    def test_truncated_payload_rejected(self):
        __, template, nodes = make_setup()
        coordinator = Coordinator(template)
        good = nodes[0].snapshot()
        assert coordinator.receive("node-0", good[: len(good) // 2]) is False
        assert coordinator.node_count == 0

    def test_geometry_incompatible_payload_rejected(self):
        data, template, nodes = make_setup()
        coordinator = Coordinator(template)
        alien = ImplicationCountEstimator(
            data.conditions, num_bitmaps=16, seed=99
        )
        assert coordinator.receive("alien", alien.to_bytes()) is False
        assert coordinator.rejected_payloads == {"alien": 1}
        assert "geometry-incompatible" in coordinator.rejection_reasons["alien"]

    def test_bad_snapshot_never_poisons_merged_estimator(self):
        """The acceptance property: quarantine leaves the merge untouched."""
        data, template, nodes = make_setup()
        coordinator = Coordinator(template)
        coordinator.sync(nodes)
        before_bytes = coordinator.bytes_received
        before = coordinator.merged_estimator().to_bytes()
        # A corrupt re-send from a known node and junk from a stranger.
        good = nodes[0].snapshot()
        mangled = good[:40] + bytes(reversed(good[40:80])) + good[80:]
        assert coordinator.receive(nodes[0].name, mangled) is False
        assert coordinator.receive("stranger", b"\x00" * 64) is False
        assert coordinator.merged_estimator().to_bytes() == before
        assert coordinator.bytes_received == before_bytes
        assert coordinator.node_count == 4

    def test_node_recovers_after_quarantine(self):
        """A later good snapshot from a quarantined node is accepted."""
        __, template, nodes = make_setup()
        coordinator = Coordinator(template)
        assert coordinator.receive(nodes[0].name, b"junk") is False
        assert coordinator.receive(nodes[0].name, nodes[0].snapshot()) is True
        assert coordinator.node_count == 1
        assert coordinator.rejected_payloads[nodes[0].name] == 1

    def test_rejection_bookkeeping_is_bounded(self):
        """Hostile node-name churn cannot grow the per-name dicts unboundedly."""
        __, template, nodes = make_setup()
        coordinator = Coordinator(template, max_tracked_rejections=8)
        for index in range(50):
            assert coordinator.receive(f"ghost-{index}", b"junk") is False
        assert len(coordinator.rejected_payloads) == 8
        assert len(coordinator.rejection_reasons) == 8
        assert coordinator.rejections_dropped == 42
        # The aggregate refusal count still reflects every rejection.
        assert sum(coordinator.rejected_payloads.values()) == 8
        # Already-tracked names keep updating even once the table is full.
        assert coordinator.receive("ghost-0", b"junk again") is False
        assert coordinator.rejected_payloads["ghost-0"] == 2
        assert coordinator.rejections_dropped == 42

    def test_max_tracked_rejections_validated(self):
        __, template, __ = make_setup()
        with pytest.raises(ValueError, match="max_tracked_rejections"):
            Coordinator(template, max_tracked_rejections=0)


class TestAggregationTree:
    def test_validation(self):
        __, template, nodes = make_setup()
        with pytest.raises(ValueError):
            AggregationTree(template, nodes, fanout=1)
        with pytest.raises(ValueError):
            AggregationTree(template, [], fanout=2)

    def test_root_matches_star_aggregation(self):
        data, template, nodes = make_setup(num_nodes=8)
        tree = AggregationTree(template, nodes, fanout=2)
        root = tree.sync()
        coordinator = Coordinator(template)
        coordinator.sync(nodes)
        # Merging is associative over the recorded events, so the tree and
        # the star must agree exactly.
        assert root.implication_count() == coordinator.implication_count()
        assert root.nonimplication_count() == coordinator.nonimplication_count()

    def test_depth(self):
        __, template, nodes = make_setup(num_nodes=8)
        assert AggregationTree(template, nodes, fanout=2).depth == 3
        assert AggregationTree(template, nodes, fanout=8).depth == 1

    def test_link_bytes_recorded_per_level(self):
        __, template, nodes = make_setup(num_nodes=8)
        tree = AggregationTree(template, nodes, fanout=2)
        tree.sync()
        assert len(tree.link_bytes) == tree.depth + 1
        assert all(level > 0 for level in tree.link_bytes)

    def test_small_contributions_survive_aggregation(self):
        """The paper's DDoS point: per-leaf counts too small to flag
        locally accumulate into a clear signal at the root."""
        from repro.core.conditions import ImplicationConditions

        conditions = ImplicationConditions(max_multiplicity=3, min_support=1)
        # Unbounded fringe: each leaf's true non-implication count is zero,
        # and without fixation noise the local estimates reflect that.
        template = ImplicationCountEstimator(conditions, fringe_size=None, seed=2)
        nodes = [StreamNode(f"edge-{i}", template) for i in range(8)]
        # 200 victims; each edge router sees only one connection per victim
        # per source — far below any local threshold.
        for victim in range(200):
            for source in range(8):
                nodes[source].observe(("victim", victim), ("src", source, victim))
        locally_flagged = sum(
            node.estimator.nonimplication_count() for node in nodes
        )
        root = AggregationTree(template, nodes, fanout=4).sync()
        globally_flagged = root.nonimplication_count()
        assert locally_flagged < globally_flagged
        assert globally_flagged == pytest.approx(200, rel=0.5)
