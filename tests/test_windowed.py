"""Windowed tier: generation rotation, expiry un-latch, decay, serving.

Pins the :mod:`repro.windowed` subsystem (DESIGN.md §13) from every angle
the two registry contracts assert in the large:

* rotation-boundary equivalence — windowed state is a pure function of
  the covered suffix, across all five condition profiles and the scalar,
  batch and ``update_many`` ingest paths;
* the re-derived sticky rule — a latched violation un-latches when its
  last supporting pane rotates out (and the landmark estimator, by
  contrast, stays latched forever);
* both kernel backends, including the compiled decline-and-fallback path;
* ``stream.windows`` edge behavior at ``size=1`` and exact step
  multiples, and the ``windowed_counts`` driver's cadence;
* the serving layer: windowed snapshot readouts, ``/query?window=``, and
  bit-for-bit windowed checkpoint/resume (in-process and SIGTERM
  subprocess).

Heavy seeded sweeps carry ``@pytest.mark.windowed`` (nightly runs them;
the PR tier keeps the quick versions).
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.serialize import estimator_state_digest
from repro.kernels import available_backends
from repro.observability import MetricsRegistry, set_registry
from repro.serving.http import build_server
from repro.serving.service import ImplicationService, ServeConfig, itemset_summary
from repro.stream.windows import (
    sliding_counts,
    tumbling,
    window_index,
    windowed_counts,
)
from repro.verify.harness import CONDITION_PROFILES
from repro.verify.streams import generate_stream
from repro.windowed import (
    DecayingImplicationCounter,
    WindowedImplicationEstimator,
    decay_fringe_counters,
    offline_window_reference,
    windowed_state_digest,
)

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

COMPILED_AVAILABLE = "compiled" in available_backends()
needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled kernel backend unavailable"
)

CONDITIONS = dict(CONDITION_PROFILES)
PROFILE_NAMES = list(CONDITIONS)

#: A one-to-one profile whose violations are easy to stage by hand.
STRICT = ImplicationConditions(max_multiplicity=1, min_support=1)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_windowed(
    conditions=STRICT, window=64, generations=4, seed=0, **kwargs
) -> WindowedImplicationEstimator:
    return WindowedImplicationEstimator(
        conditions,
        num_bitmaps=8,
        seed=seed,
        window=window,
        generations=generations,
        **kwargs,
    )


def drive(windowed, lhs, rhs) -> None:
    for itemset, partner in zip(lhs.tolist(), rhs.tolist()):
        windowed.update(itemset, partner)


# --------------------------------------------------------------------- #
# Construction and dispatch
# --------------------------------------------------------------------- #


class TestConstruction:
    def test_window_kwarg_dispatches_from_estimator_constructor(self):
        built = ImplicationCountEstimator(
            STRICT, num_bitmaps=8, seed=3, window=64, window_generations=2
        )
        assert isinstance(built, WindowedImplicationEstimator)
        assert built.window == 64
        assert built.generations == 2
        assert built.num_bitmaps == 8
        # Same placement family as a directly-built windowed estimator.
        direct = make_windowed(window=64, generations=2, seed=3)
        assert repr(built.hash_function) == repr(direct.hash_function)

    def test_without_window_constructor_stays_landmark(self):
        built = ImplicationCountEstimator(STRICT, num_bitmaps=8)
        assert type(built) is ImplicationCountEstimator

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            make_windowed(window=0)

    def test_generations_must_divide_window(self):
        with pytest.raises(ValueError, match="multiple of generations"):
            make_windowed(window=10, generations=4)
        with pytest.raises(ValueError, match="generations"):
            make_windowed(window=8, generations=0)

    def test_spawn_like_shares_placement_hash(self):
        windowed = make_windowed()
        twin = windowed.spawn_like()
        assert twin.window == windowed.window
        assert twin.generations == windowed.generations
        assert twin.clock == 0
        assert repr(twin.hash_function) == repr(windowed.hash_function)


# --------------------------------------------------------------------- #
# Rotation and retirement bookkeeping
# --------------------------------------------------------------------- #


class TestRotation:
    def test_rotation_lands_on_absolute_grid(self):
        windowed = make_windowed(window=16, generations=4)  # step 4
        lhs = np.arange(10, dtype=np.int64)
        drive(windowed, lhs, lhs)
        assert windowed.live_origins() == [0, 4, 8]
        assert windowed.clock == 10

    def test_retirement_drops_expired_panes(self):
        windowed = make_windowed(window=16, generations=4)
        lhs = np.arange(21, dtype=np.int64)
        drive(windowed, lhs, lhs)
        # clock 21: pane [0,4) has origin+step=4 <= 21-16=5, retired.
        assert windowed.live_origins() == [4, 8, 12, 16, 20]
        assert windowed.window_start == 4
        assert 16 <= windowed.tuples_in_window < 16 + 4

    def test_coverage_exact_at_step_multiples(self):
        windowed = make_windowed(window=16, generations=4)
        lhs = np.arange(24, dtype=np.int64)
        drive(windowed, lhs, lhs)
        assert windowed.clock == 24
        assert windowed.tuples_in_window == 16
        assert windowed.live_origins() == [8, 12, 16, 20]

    def test_fresh_estimator_reads_zero(self):
        windowed = make_windowed()
        assert windowed.implication_count() == 0.0
        assert windowed.nonimplication_count() == 0.0
        assert windowed.window_start == windowed.clock == 0
        assert windowed.live_origins() == []

    def test_weighted_update_is_one_instant(self):
        windowed = make_windowed(window=16, generations=4)
        windowed.update(1, 2, weight=6)  # spans past pane [0,4) by weight
        assert windowed.clock == 6
        assert windowed.live_origins() == [0]  # whole weight in arrival pane
        windowed.update(3, 4)
        assert windowed.live_origins() == [0, 4]

    def test_merged_readout_cached_until_update(self):
        windowed = make_windowed()
        windowed.update(1, 2)
        first = windowed.merged()
        assert windowed.merged() is first
        windowed.update(3, 4)
        assert windowed.merged() is not first

    def test_batch_splits_at_pane_boundaries(self):
        windowed = make_windowed(window=16, generations=4)
        lhs = np.arange(11, dtype=np.int64)
        windowed.update_batch(lhs, lhs)
        assert windowed.live_origins() == [0, 4, 8]
        assert windowed.clock == 11

    def test_batch_shape_mismatch_rejected(self):
        windowed = make_windowed()
        with pytest.raises(ValueError, match="align"):
            windowed.update_batch(np.arange(3), np.arange(4))


# --------------------------------------------------------------------- #
# Rotation-boundary equivalence, all condition profiles x ingest paths
# --------------------------------------------------------------------- #


class TestEquivalence:
    """The contract assertions, re-run per profile as focused tests."""

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_scalar_drive_is_pure_function_of_suffix(self, profile):
        lhs, rhs = generate_stream("skewed", 11, 160)
        windowed = make_windowed(CONDITIONS[profile], window=64, generations=4)
        drive(windowed, lhs, rhs)
        start = windowed.window_start
        replay = offline_window_reference(windowed, lhs[start:], rhs[start:])
        assert windowed_state_digest(replay) == windowed_state_digest(windowed)

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_batch_drive_matches_scalar_digest(self, profile):
        lhs, rhs = generate_stream("bursty", 12, 160)
        scalar = make_windowed(CONDITIONS[profile], window=64, generations=4)
        drive(scalar, lhs, rhs)
        batched = scalar.spawn_like()
        for begin in range(0, len(lhs), 13):  # deliberately off the grid
            batched.update_batch(lhs[begin : begin + 13], rhs[begin : begin + 13])
        assert batched.live_origins() == scalar.live_origins()
        assert windowed_state_digest(batched) == windowed_state_digest(scalar)

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_grouped_drive_matches_scalar_under_unbounded_fringe(self, profile):
        # Historical name: this leg once ran cell-grouped dispatch, exact
        # only under an unbounded fringe.  Batch ingest is now exact
        # replay everywhere; the leg keeps its stream, fringe and chunking.
        lhs, rhs = generate_stream("uniform", 13, 160)
        scalar = make_windowed(
            CONDITIONS[profile], window=64, generations=4, fringe_size=None
        )
        drive(scalar, lhs, rhs)
        batched = scalar.spawn_like()
        for begin in range(0, len(lhs), 32):
            batched.update_batch(lhs[begin : begin + 32], rhs[begin : begin + 32])
        assert windowed_state_digest(batched) == windowed_state_digest(scalar)

    def test_update_many_matches_scalar(self):
        lhs, rhs = generate_stream("skewed", 14, 120)
        scalar = make_windowed(window=32, generations=4)
        drive(scalar, lhs, rhs)
        many = scalar.spawn_like()
        many.update_many(zip(lhs.tolist(), rhs.tolist()))
        assert windowed_state_digest(many) == windowed_state_digest(scalar)

    def test_theta_zero_merged_equals_landmark_over_suffix(self):
        # The literal "landmark estimator over only the last W tuples",
        # bit-for-bit, in the scope where merge is exact.
        lhs, rhs = generate_stream("skewed", 15, 160)
        windowed = make_windowed(
            CONDITIONS["support-only"],
            window=64,
            generations=4,
            fringe_size=None,
        )
        drive(windowed, lhs, rhs)
        start = windowed.window_start
        landmark = ImplicationCountEstimator(
            CONDITIONS["support-only"],
            num_bitmaps=8,
            fringe_size=None,
            hash_function=windowed.hash_function,
        )
        for itemset, partner in zip(lhs[start:].tolist(), rhs[start:].tolist()):
            landmark.update(itemset, partner)
        assert estimator_state_digest(windowed.merged()) == (
            estimator_state_digest(landmark)
        )

    @pytest.mark.windowed
    @pytest.mark.parametrize("stream_profile", ["uniform", "skewed", "bursty"])
    def test_seeded_sweep_boundary_purity(self, stream_profile):
        """Offline-replay purity at *every* rotation boundary, several
        seeds per stream profile — the nightly-widened version of the
        contract's single-seed pass."""
        for seed in range(4):
            lhs, rhs = generate_stream(stream_profile, 100 + seed, 192)
            for profile in PROFILE_NAMES:
                windowed = make_windowed(
                    CONDITIONS[profile], window=64, generations=4, seed=seed
                )
                pairs = list(zip(lhs.tolist(), rhs.tolist()))
                for index, (itemset, partner) in enumerate(pairs, start=1):
                    windowed.update(itemset, partner)
                    if index % windowed.step and index != len(pairs):
                        continue
                    start = windowed.window_start
                    replay = offline_window_reference(
                        windowed, lhs[start:index], rhs[start:index]
                    )
                    assert windowed_state_digest(replay) == (
                        windowed_state_digest(windowed)
                    ), (stream_profile, profile, seed, index)


# --------------------------------------------------------------------- #
# Re-derived sticky semantics: expiry un-latches
# --------------------------------------------------------------------- #


class TestExpiryUnlatch:
    """A multiplicity breach latches by absorbing the itemset's cell into
    the Zone-1 bits (the Section 4.3 memory bound: a value-1 cell stores
    nothing that could be un-latched).  These tests read the latch through
    ``itemset_summary``'s ``zone`` field and the non-implication count,
    with an unbounded fringe so capacity absorption cannot fake either
    signal."""

    WINDOW = 16  # step 4 with 4 generations

    def _fresh(self):
        return make_windowed(
            STRICT, window=self.WINDOW, generations=4, fringe_size=None
        )

    def _expire_first_pane(self, windowed):
        filler = iter(range(1000, 2000))
        while windowed.window_start < 4:
            windowed.update(next(filler), 0)

    def test_violation_unlatches_when_evidence_rotates_out(self):
        windowed = self._fresh()
        windowed.update(7, 1)
        windowed.update(7, 2)  # two partners, multiplicity 1: latched
        assert itemset_summary(windowed.merged(), 7)["zone"] == "zone1"
        assert windowed.nonimplication_count() > 0
        self._expire_first_pane(windowed)
        summary = itemset_summary(windowed.merged(), 7)
        assert summary["zone"] == "fringe"  # the latch retired with its pane
        assert summary["tracked"] is False  # and no evidence remains
        assert windowed.nonimplication_count() == 0.0

    def test_landmark_estimator_stays_latched_forever(self):
        landmark = ImplicationCountEstimator(
            STRICT, num_bitmaps=8, fringe_size=None
        )
        landmark.update(7, 1)
        landmark.update(7, 2)
        elevated = landmark.nonimplication_count()
        for filler in range(1000, 1100):
            landmark.update(filler, 0)
        assert itemset_summary(landmark, 7)["zone"] == "zone1"
        assert landmark.nonimplication_count() >= elevated

    def test_cross_pane_violation_reproved_at_merge(self):
        windowed = self._fresh()
        windowed.update(7, 1)  # pane [0, 4)
        for filler in range(100, 103):
            windowed.update(filler, 0)
        windowed.update(7, 2)  # pane [4, 8): second partner, other pane
        # Neither pane alone saw both partners; the merge must re-prove.
        assert itemset_summary(windowed.merged(), 7)["zone"] == "zone1"
        assert windowed.nonimplication_count() > 0
        # Once the first partner's pane retires, only partner 2 remains in
        # the window — the itemset is clean (and tracked) again.
        self._expire_first_pane(windowed)
        summary = itemset_summary(windowed.merged(), 7)
        assert summary["tracked"] is True
        assert summary["violated"] is False
        assert summary["support"] == 1
        assert windowed.nonimplication_count() == 0.0

    def test_windowed_nonimplication_count_can_fall(self):
        windowed = self._fresh()
        windowed.update(7, 1)
        windowed.update(7, 2)
        elevated = windowed.nonimplication_count()
        assert elevated > 0
        self._expire_first_pane(windowed)
        assert windowed.nonimplication_count() < elevated


# --------------------------------------------------------------------- #
# Serialization: generation payloads and digests
# --------------------------------------------------------------------- #


class TestSerialization:
    def _loaded_stream(self):
        lhs, rhs = generate_stream("skewed", 21, 100)
        windowed = make_windowed(window=32, generations=4)
        drive(windowed, lhs, rhs)
        return windowed, lhs, rhs

    def test_generation_payload_roundtrip_is_bit_for_bit(self):
        windowed, lhs, rhs = self._loaded_stream()
        restored = windowed.spawn_like()
        restored.load_generations(windowed.clock, windowed.generation_payloads())
        assert restored.clock == windowed.clock
        assert restored.live_origins() == windowed.live_origins()
        assert restored.state_digest() == windowed.state_digest()
        # Continued ingest stays on the uninterrupted trajectory.
        more_lhs, more_rhs = generate_stream("skewed", 22, 40)
        drive(windowed, more_lhs, more_rhs)
        drive(restored, more_lhs, more_rhs)
        assert restored.state_digest() == windowed.state_digest()

    def test_load_generations_rejects_off_grid_origin(self):
        windowed, _, _ = self._loaded_stream()
        payloads = windowed.generation_payloads()
        bad = [(origin + 1, blob) for origin, blob in payloads]
        with pytest.raises(ValueError, match="pane grid"):
            windowed.spawn_like().load_generations(windowed.clock, bad)

    def test_load_generations_rejects_non_ascending_origins(self):
        windowed, _, _ = self._loaded_stream()
        payloads = windowed.generation_payloads()
        with pytest.raises(ValueError, match="ascend"):
            windowed.spawn_like().load_generations(
                windowed.clock, list(reversed(payloads))
            )

    def test_load_generations_rejects_expired_pane(self):
        windowed, _, _ = self._loaded_stream()
        payloads = windowed.generation_payloads()
        with pytest.raises(ValueError, match="expired"):
            windowed.spawn_like().load_generations(
                windowed.clock + windowed.window + windowed.step, payloads
            )

    def test_load_generations_rejects_incompatible_geometry(self):
        windowed, _, _ = self._loaded_stream()
        other = WindowedImplicationEstimator(
            STRICT, num_bitmaps=16, seed=9, window=32, generations=4
        )
        with pytest.raises(ValueError, match="incompatible"):
            other.load_generations(
                windowed.clock, windowed.generation_payloads()
            )

    def test_digest_is_window_relative(self):
        # Same covered content at different absolute positions digests
        # identically — the purity property the offline-replay contract
        # leans on.
        lhs, rhs = generate_stream("uniform", 23, 96)
        late = make_windowed(window=32, generations=4)
        drive(late, lhs, rhs)
        start = late.window_start
        early = late.spawn_like()
        drive(early, lhs[start:], rhs[start:])
        assert early.window_start == 0 and late.window_start == start
        assert early.state_digest() == late.state_digest()


# --------------------------------------------------------------------- #
# Exponential decay variant
# --------------------------------------------------------------------- #


class TestDecay:
    def test_factor_validation(self):
        estimator = ImplicationCountEstimator(STRICT, num_bitmaps=8)
        with pytest.raises(ValueError, match="factor"):
            decay_fringe_counters(estimator, 1.0)
        with pytest.raises(ValueError, match="factor"):
            decay_fringe_counters(estimator, -0.1)

    def test_half_life_validation(self):
        with pytest.raises(ValueError, match="half_life"):
            DecayingImplicationCounter(STRICT, half_life=0, num_bitmaps=8)

    def test_decay_halves_supports_and_drops_zeroes(self):
        conditions = ImplicationConditions(min_support=1)
        estimator = ImplicationCountEstimator(conditions, num_bitmaps=8)
        for _ in range(8):
            estimator.update(7, 1)
        estimator.update(9, 1)  # support 1: one halving drops it

        def support_of(itemset):
            summary = itemset_summary(estimator, itemset)
            return summary["support"] if summary["tracked"] else None

        before_seven = support_of(7)
        if before_seven is None:
            pytest.skip("itemset 7 landed outside the fringe for this seed")
        dropped = decay_fringe_counters(estimator, 0.5)
        assert support_of(7) == before_seven // 2
        if support_of(9) is None:
            assert dropped >= 1

    def test_decaying_counter_ticks_on_absolute_grid(self):
        counter = DecayingImplicationCounter(
            STRICT, half_life=50, num_bitmaps=8
        )
        lhs, rhs = generate_stream("uniform", 31, 300)
        counter.update_batch(lhs, rhs)
        assert counter.clock == 300
        assert counter.decays == 6

    def test_decaying_counter_batch_matches_scalar(self):
        lhs, rhs = generate_stream("skewed", 32, 260)
        scalar = DecayingImplicationCounter(STRICT, half_life=50, num_bitmaps=8)
        for itemset, partner in zip(lhs.tolist(), rhs.tolist()):
            scalar.update(itemset, partner)
        batched = DecayingImplicationCounter(
            STRICT, half_life=50, num_bitmaps=8
        )
        for begin in range(0, len(lhs), 37):  # off the half-life grid
            batched.update_batch(lhs[begin : begin + 37], rhs[begin : begin + 37])
        assert batched.decays == scalar.decays
        assert estimator_state_digest(batched.estimator) == (
            estimator_state_digest(scalar.estimator)
        )

    def test_decayed_count_fades_instead_of_expiring(self):
        counter = DecayingImplicationCounter(
            ImplicationConditions(min_support=4),
            half_life=64,
            num_bitmaps=8,
        )
        for _ in range(16):
            counter.update(7, 1)
        strong = itemset_summary(counter.estimator, 7)
        if not strong["tracked"]:
            pytest.skip("itemset 7 landed outside the fringe for this seed")
        for filler in range(1000, 1000 + 3 * 64):
            counter.update(filler, 0)
        faded = itemset_summary(counter.estimator, 7)
        if faded["tracked"]:
            assert faded["support"] < strong["support"]
        assert counter.decays == (16 + 3 * 64) // 64


# --------------------------------------------------------------------- #
# Kernel backends
# --------------------------------------------------------------------- #


class TestKernelBackends:
    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param("compiled", marks=needs_compiled),
        ],
    )
    def test_backend_parity_with_python_digest(self, backend):
        lhs, rhs = generate_stream("skewed", 41, 160)
        reference = make_windowed(window=64, generations=4, kernels="python")
        under_test = make_windowed(window=64, generations=4, kernels=backend)
        for windowed in (reference, under_test):
            for begin in range(0, len(lhs), 24):
                windowed.update_batch(
                    lhs[begin : begin + 24], rhs[begin : begin + 24]
                )
        assert under_test.state_digest() == reference.state_digest()

    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param("compiled", marks=needs_compiled),
        ],
    )
    def test_env_selected_backend_parity(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        lhs, rhs = generate_stream("bursty", 42, 120)
        windowed = make_windowed(window=32, generations=4)  # kernels=None: env
        windowed.update_batch(lhs, rhs)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
        reference = make_windowed(window=32, generations=4)
        reference.update_batch(lhs, rhs)
        assert windowed.state_digest() == reference.state_digest()

    @needs_compiled
    def test_compiled_decline_falls_back_to_python_digest(self, registry):
        """String itemsets cannot ride the flat C encoding; the windowed
        batch path after them must silently take the python path — same
        digest as a pure-python twin, fallback counter bumped."""
        lhs, rhs = generate_stream("uniform", 43, 96)
        compiled = make_windowed(window=32, generations=4, kernels="compiled")
        python = make_windowed(window=32, generations=4, kernels="python")
        for windowed in (compiled, python):
            windowed.update("itemset-a", "partner-1")
            windowed.update("itemset-a", "partner-1")
            windowed.update_batch(lhs, rhs)
        assert compiled.state_digest() == python.state_digest()
        assert registry.counter("kernels.fallbacks").value >= 1

    def test_generations_inherit_pinned_backend(self):
        windowed = make_windowed(window=16, generations=4, kernels="python")
        lhs = np.arange(10, dtype=np.int64)
        drive(windowed, lhs, lhs)
        assert all(
            pane.kernels.name == "python" for _, pane in windowed._panes
        )
        assert windowed.merged().kernels.name == "python"


# --------------------------------------------------------------------- #
# stream.windows edges and the windowed_counts driver
# --------------------------------------------------------------------- #


class TestStreamWindowEdges:
    def test_tumbling_size_one(self):
        assert list(tumbling([1, 2, 3], 1)) == [[1], [2], [3]]

    def test_tumbling_exact_multiple_has_no_short_tail(self):
        windows = list(tumbling(range(6), 3))
        assert windows == [[0, 1, 2], [3, 4, 5]]

    def test_tumbling_emits_short_tail(self):
        assert list(tumbling(range(5), 3)) == [[0, 1, 2], [3, 4]]

    def test_window_index_edges(self):
        assert window_index(0, 1) == 0
        assert window_index(5, 1) == 5
        assert window_index(5, 5) == 1
        assert window_index(4, 5) == 0
        with pytest.raises(ValueError):
            window_index(-1, 5)
        with pytest.raises(ValueError):
            window_index(0, 0)

    def test_sliding_counts_size_one_step_one(self):
        got = list(sliding_counts([10, 20, 30], 1, 1, lambda w: w[0]))
        assert got == [(1, 10), (2, 20), (3, 30)]  # tail not re-emitted

    def test_sliding_counts_exact_step_multiple_no_duplicate_tail(self):
        got = list(sliding_counts(range(8), 4, 2, tuple))
        assert [position for position, _ in got] == [4, 6, 8]
        assert got[-1] == (8, (4, 5, 6, 7))

    def test_sliding_counts_emits_final_partial_step(self):
        got = list(sliding_counts(range(7), 4, 2, tuple))
        assert [position for position, _ in got] == [4, 6, 7]

    def test_sliding_counts_short_stream_yields_nothing(self):
        assert list(sliding_counts(range(3), 4, 2, tuple)) == []

    def test_windowed_counts_matches_sliding_cadence(self):
        lhs, rhs = generate_stream("uniform", 51, 70)
        pairs = list(zip(lhs.tolist(), rhs.tolist()))
        windowed = make_windowed(window=16, generations=4)
        estimate_positions = [
            position
            for position, _ in windowed_counts(
                iter(pairs), windowed, 4, lambda w: w.clock
            )
        ]
        exact_positions = [
            position for position, _ in sliding_counts(pairs, 16, 4, len)
        ]
        assert estimate_positions == exact_positions

    def test_windowed_counts_validation_and_empty_stream(self):
        windowed = make_windowed(window=16, generations=4)
        with pytest.raises(ValueError, match="step"):
            list(windowed_counts(iter([]), windowed, 0, lambda w: 0))
        with pytest.raises(ValueError, match="warmup"):
            list(windowed_counts(iter([]), windowed, 1, lambda w: 0, warmup=-1))
        assert list(windowed_counts(iter([]), windowed, 1, lambda w: 0)) == []


# --------------------------------------------------------------------- #
# Serving: windowed snapshots, HTTP, checkpoint/resume
# --------------------------------------------------------------------- #


def _serve_config(**overrides) -> ServeConfig:
    base = dict(
        source="profile:skewed",
        tuples=6000,
        batch_size=512,
        num_bitmaps=8,
        profiles=("support-only", "noisy-confidence"),
        publish_every=2,
        window=2048,
        window_generations=4,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestServingWindowed:
    def test_serve_config_validates_window(self):
        with pytest.raises(ValueError, match="window"):
            _serve_config(window=2049)  # not a multiple of 4 generations
        with pytest.raises(ValueError, match="window"):
            _serve_config(window=0)

    def test_snapshot_carries_window_readout(self):
        service = ImplicationService(_serve_config())
        while service.ingest_step():
            pass
        snapshot = service.store.get("support-only")
        assert snapshot.window is not None
        assert snapshot.window["window"] == 2048
        assert snapshot.window["generations"] == 4
        assert 2048 <= snapshot.window["covered"] < 2048 + 512
        assert snapshot.window["clock"] == 6000
        stats = snapshot.window["stats"]
        assert stats["tuples"] == snapshot.window["covered"]
        assert stats["implication"] == (
            snapshot.window_estimator.implication_count()
        )
        # The windowed view diverges from the landmark totals.
        assert stats["implication"] != snapshot.stats["implication"]
        assert snapshot.describe()["window"]["digest"] == (
            snapshot.window["digest"]
        )

    def test_landmark_service_serves_no_window(self):
        service = ImplicationService(_serve_config(window=None, tuples=1024))
        service.ingest_step()
        snapshot = service.store.get("support-only")
        assert snapshot.window is None
        assert snapshot.window_estimator is None
        assert "window" not in snapshot.describe()

    def test_http_query_window_readout_and_errors(self):
        service = ImplicationService(_serve_config(tuples=4096))
        while service.ingest_step():
            pass
        httpd = build_server(service)
        try:
            import threading

            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            port = httpd.server_address[1]

            def get(path):
                connection = HTTPConnection("127.0.0.1", port, timeout=10)
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                connection.close()
                return response.status, json.loads(body)

            status, body = get(
                "/query?profile=support-only&window=1&stat=implication"
            )
            assert status == 200
            assert body["windowed"] is True
            assert body["value"] == body["window"]["stats"]["implication"]
            # The top-level stats block must BE the windowed one — serving
            # landmark numbers beside windowed=True would be misleading.
            assert body["stats"] == body["window"]["stats"]
            status, plain = get("/query?profile=support-only&stat=implication")
            assert plain["value"] != body["value"]
            status, error = get("/query?profile=support-only&window=maybe")
            assert status == 400 and "window" in error["error"]
            status, top = get("/top?profile=support-only&itemset=3&window=1")
            assert status == 200 and top["windowed"] is True
            assert top["window_digest"] == body["window"]["digest"]
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_http_window_param_rejected_without_window(self):
        service = ImplicationService(_serve_config(window=None, tuples=1024))
        service.ingest_step()
        httpd = build_server(service)
        try:
            import threading

            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            port = httpd.server_address[1]
            connection = HTTPConnection("127.0.0.1", port, timeout=10)
            connection.request("GET", "/query?profile=support-only&window=1")
            response = connection.getresponse()
            body = json.loads(response.read())
            connection.close()
            assert response.status == 400
            assert "--window" in body["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_stop_resume_lands_on_uninterrupted_windowed_digest(self, tmp_path):
        reference = ImplicationService(_serve_config())
        while reference.ingest_step():
            pass
        want = {
            name: snapshot.window["digest"]
            for name, snapshot in reference.store.all().items()
        }

        interrupted = ImplicationService(
            _serve_config(), checkpoint_dir=str(tmp_path)
        )
        for _ in range(5):
            interrupted.ingest_step()
        interrupted.commit()

        resumed = ImplicationService(
            _serve_config(), checkpoint_dir=str(tmp_path)
        )
        assert resumed.restored_generation is not None
        assert resumed.cursor == interrupted.cursor
        for name, windowed in resumed.windowed.items():
            assert windowed.state_digest() == (
                interrupted.windowed[name].state_digest()
            )
        while resumed.ingest_step():
            pass
        got = {
            name: snapshot.window["digest"]
            for name, snapshot in resumed.store.all().items()
        }
        assert got == want

    def test_resume_refuses_window_shape_change(self, tmp_path):
        durable = ImplicationService(
            _serve_config(), checkpoint_dir=str(tmp_path)
        )
        durable.ingest_step()
        durable.commit()
        with pytest.raises(ValueError, match="shaped"):
            ImplicationService(
                _serve_config(window=None), checkpoint_dir=str(tmp_path)
            )
        with pytest.raises(ValueError, match="shaped"):
            ImplicationService(
                _serve_config(window=1024), checkpoint_dir=str(tmp_path)
            )


@pytest.mark.slow
class TestServeSubprocessWindowed:
    """The serve CLI end to end with --window: SIGTERM, resume, digest."""

    def _spawn(self, ckdir: Path, extra: list[str]):
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--source", "profile:skewed", "--tuples", "30000",
            "--batch-size", "2048", "--num-bitmaps", "8",
            "--checkpoint-dir", str(ckdir),
            "--profiles", "support-only,noisy-confidence",
            "--window", "8192", "--window-generations", "4", *extra,
        ]
        env = {"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"}
        import os

        env.update({k: v for k, v in os.environ.items() if k not in env})
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        listening = json.loads(proc.stdout.readline())
        assert listening["event"] == "listening", listening
        return proc, listening

    def _health(self, port: int) -> dict:
        connection = HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("GET", "/health")
        response = connection.getresponse()
        body = json.loads(response.read())
        connection.close()
        return body

    def test_sigterm_resume_reaches_uninterrupted_window_digest(self, tmp_path):
        proc, listening = self._spawn(tmp_path, [])
        port = listening["port"]
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                health = self._health(port)
                if health["cursor"] >= 10000:
                    break
                time.sleep(0.05)
            assert health["cursor"] >= 10000, "service never made progress"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        stopped = json.loads(out.strip().splitlines()[-1])
        assert stopped["status"] == "stopped"
        assert 0 < stopped["cursor"] < 30000
        assert stopped["window_digest"] is not None

        proc, listening = self._spawn(tmp_path, ["--exit-when-drained"])
        try:
            assert listening["resumed_generation"] is not None
            assert listening["cursor"] == stopped["cursor"]
            out, err = proc.communicate(timeout=240)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        final = json.loads(out.strip().splitlines()[-1])
        assert final["cursor"] == 30000

        # The resumed windowed digest must equal an uninterrupted run's.
        config = ServeConfig(
            source="profile:skewed", tuples=30000, batch_size=2048,
            num_bitmaps=8,
            profiles=("support-only", "noisy-confidence"),
            window=8192, window_generations=4,
        )
        reference = ImplicationService(config)
        while reference.ingest_step():
            pass
        want = reference.store.get("support-only").window["digest"]
        assert final["window_digest"] == want
        assert final["digest"] == reference.store.get("support-only").digest
