"""Aggregation of node sketches: a coordinator and a router hierarchy.

Two aggregation shapes:

* :class:`Coordinator` — a star: every node ships its snapshot to one
  aggregator, which rebuilds the merged estimate from the *latest* snapshot
  per node (idempotent; a re-sent or reordered snapshot cannot
  double-count).
* :class:`AggregationTree` — a k-ary hierarchy (leaf routers to core
  routers): each interior node merges its children's sketches and ships a
  single sketch upward, so per-link bandwidth is one sketch regardless of
  the subtree's traffic — the paper's "first hop … last hop" DDoS
  observation works precisely because small per-leaf contributions survive
  aggregation (Section 1).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.estimator import ImplicationCountEstimator
from ..core.serialize import SketchFormatError
from ..observability import metrics as obs
from .node import StreamNode

__all__ = ["Coordinator", "AggregationTree"]


class Coordinator:
    """Star-topology aggregator over the latest snapshot per node.

    Incoming snapshots are **quarantined before they are stored**:
    :meth:`receive` fully decodes every payload (magic/version header,
    structural validation, geometry bounds — see
    :mod:`repro.core.serialize`) and checks merge compatibility against the
    coordinator's template.  A corrupt or geometry-incompatible snapshot is
    rejected — counted in :attr:`rejected_payloads`, reason kept in
    :attr:`rejection_reasons` — and the node's previous good snapshot (if
    any) stays in force, so one bad message can never poison
    :meth:`merged_estimator`.
    """

    #: Default cap on distinct node names tracked in the quarantine
    #: bookkeeping dicts.  A misbehaving (or adversarial) sender that
    #: invents a fresh node name per bad payload would otherwise grow
    #: coordinator memory without bound; beyond the cap, rejections are
    #: still refused and *counted* (:attr:`rejections_dropped`), just not
    #: tracked per-name.
    DEFAULT_MAX_TRACKED_REJECTIONS = 1024

    def __init__(
        self,
        template: ImplicationCountEstimator,
        *,
        max_tracked_rejections: int = DEFAULT_MAX_TRACKED_REJECTIONS,
    ) -> None:
        if max_tracked_rejections < 1:
            raise ValueError(
                f"max_tracked_rejections must be >= 1, got {max_tracked_rejections}"
            )
        self.template = template
        self.max_tracked_rejections = max_tracked_rejections
        self._latest: dict[str, bytes] = {}
        self.bytes_received = 0
        #: Rejected payload count per node name (quarantine accounting,
        #: capped at :attr:`max_tracked_rejections` distinct names).
        self.rejected_payloads: dict[str, int] = {}
        #: Most recent rejection reason per node name (same cap).
        self.rejection_reasons: dict[str, str] = {}
        #: Rejections from node names beyond the tracking cap — counted
        #: here in aggregate instead of per-name.
        self.rejections_dropped = 0

    def receive(self, node_name: str, payload: bytes) -> bool:
        """Validate and store a node's latest snapshot.

        Returns ``True`` if the snapshot was accepted (replacing any
        earlier one from the same node), ``False`` if it was quarantined.
        """
        registry = obs.get_registry()
        try:
            decoded = ImplicationCountEstimator.from_bytes(payload)
        except SketchFormatError as error:
            return self._reject(node_name, f"corrupt payload: {error}")
        if not self.template.is_compatible(decoded):
            return self._reject(
                node_name,
                "geometry-incompatible sketch: "
                f"{decoded.num_bitmaps} bitmaps x {decoded.length} cells, "
                f"fringe {decoded.fringe_size}, vs template "
                f"{self.template.num_bitmaps} x {self.template.length}, "
                f"fringe {self.template.fringe_size}",
            )
        self._latest[node_name] = payload
        self.bytes_received += len(payload)
        registry.counter("coordinator.payloads_accepted").add(1)
        registry.counter("coordinator.bytes_received").add(len(payload))
        return True

    def _reject(self, node_name: str, reason: str) -> bool:
        """Quarantine one payload: count it, keep the reason, store nothing.

        Per-name bookkeeping is bounded: a name already tracked always
        updates, but once :attr:`max_tracked_rejections` distinct names are
        on file, rejections from *new* names only bump
        :attr:`rejections_dropped` (and the aggregate counters) — the
        payload is refused either way.
        """
        registry = obs.get_registry()
        if (
            node_name in self.rejected_payloads
            or len(self.rejected_payloads) < self.max_tracked_rejections
        ):
            self.rejected_payloads[node_name] = (
                self.rejected_payloads.get(node_name, 0) + 1
            )
            self.rejection_reasons[node_name] = reason
        else:
            self.rejections_dropped += 1
            registry.counter("coordinator.rejections_dropped").add(1)
        registry.counter("coordinator.payloads_rejected").add(1)
        return False

    def sync(self, nodes: Iterable[StreamNode]) -> None:
        """Pull a fresh snapshot from every node (convenience for sims)."""
        for node in nodes:
            self.receive(node.name, node.snapshot())

    def checkpoint(self, manager, *, cursor: int = 0, extra: dict | None = None):
        """Commit the coordinator's full state as one checkpoint generation.

        The merged estimator is the generation's payload; every node's
        latest accepted snapshot rides along as a checksummed attachment,
        and the manifest's ``extra`` records the byte accounting and
        quarantine bookkeeping — everything :meth:`restore` needs to
        rebuild this coordinator after a crash, including the ability to
        keep folding in *new* node snapshots (which a merged-only
        checkpoint could not support).
        """
        merged = self.merged_estimator()
        payload_extra = {
            "kind": "coordinator",
            "bytes_received": self.bytes_received,
            "rejected_payloads": dict(self.rejected_payloads),
            "rejection_reasons": dict(self.rejection_reasons),
            "rejections_dropped": self.rejections_dropped,
        }
        payload_extra.update(extra or {})
        return manager.save(
            merged,
            cursor=cursor,
            extra=payload_extra,
            attachments=dict(self._latest),
        )

    def restore(self, manager) -> bool:
        """Rebuild coordinator state from the latest valid checkpoint.

        Returns ``True`` when a generation was restored, ``False`` when
        the directory held nothing restorable (the coordinator is left
        untouched).  Node snapshots re-enter through :meth:`receive`, so
        an attachment that was corrupted *after* commit in a way the
        checksums catch is rejected by the loader, and one that decodes
        but no longer merges is quarantined exactly like a live bad
        message — restore can degrade a node, never poison the merge.
        Manifest fields this version does not read, such as the
        ``ingest_epoch`` older coordinators recorded, are ignored.
        """
        restored = manager.load_latest(template=self.template)
        if restored is None:
            return False
        extra = restored.manifest["extra"]
        self._latest = {}
        self.rejected_payloads = {}
        self.rejection_reasons = {}
        for node_name, payload in restored.attachments.items():
            self.receive(node_name, payload)
        # receive() re-accumulated byte counts; the manifest's figures are
        # the authoritative pre-crash totals.
        self.bytes_received = int(extra.get("bytes_received", self.bytes_received))
        recorded_rejections = extra.get("rejected_payloads", {})
        if isinstance(recorded_rejections, dict):
            for node_name, count in recorded_rejections.items():
                self.rejected_payloads[node_name] = (
                    self.rejected_payloads.get(node_name, 0) + int(count)
                )
        recorded_reasons = extra.get("rejection_reasons", {})
        if isinstance(recorded_reasons, dict):
            for node_name, reason in recorded_reasons.items():
                self.rejection_reasons.setdefault(node_name, str(reason))
        self.rejections_dropped = int(extra.get("rejections_dropped", 0))
        obs.get_registry().counter("coordinator.restores").add(1)
        return True

    def merged_estimator(self) -> ImplicationCountEstimator:
        """Rebuild the union estimator from the latest snapshots."""
        merged = self.template.spawn_sibling()
        for payload in self._latest.values():
            merged.merge(ImplicationCountEstimator.from_bytes(payload))
        obs.get_registry().counter("coordinator.merges").add(len(self._latest))
        return merged

    def implication_count(self) -> float:
        return self.merged_estimator().implication_count()

    def nonimplication_count(self) -> float:
        return self.merged_estimator().nonimplication_count()

    def supported_distinct_count(self) -> float:
        return self.merged_estimator().supported_distinct_count()

    @property
    def node_count(self) -> int:
        return len(self._latest)

    def __repr__(self) -> str:
        return (
            f"Coordinator(nodes={self.node_count}, "
            f"received={self.bytes_received:,} bytes)"
        )


class AggregationTree:
    """A k-ary aggregation hierarchy over a set of leaf nodes.

    Leaves are :class:`StreamNode` instances; interior levels are pure
    merge points.  :meth:`sync` performs one bottom-up aggregation round
    and returns the root estimator; :attr:`link_bytes` records the traffic
    each level shipped upward, demonstrating the O(sketch)-per-link
    bandwidth that makes in-network aggregation viable.
    """

    def __init__(
        self,
        template: ImplicationCountEstimator,
        leaves: Sequence[StreamNode],
        fanout: int = 4,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if not leaves:
            raise ValueError("an aggregation tree needs at least one leaf")
        self.template = template
        self.leaves = list(leaves)
        self.fanout = fanout
        #: bytes shipped upward per level during the last sync, leaf level
        #: first.
        self.link_bytes: list[int] = []

    def sync(self) -> ImplicationCountEstimator:
        """One aggregation round: merge sketches level by level to the root."""
        self.link_bytes = []
        payloads = [leaf.snapshot() for leaf in self.leaves]
        self.link_bytes.append(sum(len(p) for p in payloads))
        while len(payloads) > 1:
            next_level: list[bytes] = []
            for start in range(0, len(payloads), self.fanout):
                group = payloads[start : start + self.fanout]
                merged = self.template.spawn_sibling()
                for payload in group:
                    merged.merge(ImplicationCountEstimator.from_bytes(payload))
                next_level.append(merged.to_bytes())
            self.link_bytes.append(sum(len(p) for p in next_level))
            payloads = next_level
        root = ImplicationCountEstimator.from_bytes(payloads[0])
        return root

    @property
    def depth(self) -> int:
        """Number of aggregation levels above the leaves."""
        levels = 0
        width = len(self.leaves)
        while width > 1:
            width = -(-width // self.fanout)
            levels += 1
        return levels

    def __repr__(self) -> str:
        return (
            f"AggregationTree(leaves={len(self.leaves)}, fanout={self.fanout}, "
            f"depth={self.depth})"
        )
