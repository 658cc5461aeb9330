"""Crash-injection proof: SIGKILL mid-ingest, resume, digest equality.

The acceptance bar for the durability subsystem is operational: a real
subprocess killed with SIGKILL at >= 10 fuzzed protocol windows —
including mid-payload-write and mid-rename, where a torn file is
physically possible — must, after ``resume``, land on exactly the
``estimator_state_digest`` of an uninterrupted run, and a corrupted
latest checkpoint must fall back to the previous generation.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.recovery import CrashInjectionHarness, RunConfig
from repro.recovery.crash import CRASH_ENV, armed_point, maybe_crash


def workdir_for(tmp_path, name: str) -> str:
    """Keep artifacts under ``REPRO_CRASH_WORKDIR`` when CI sets it.

    CI points this at a path it uploads on failure, so a red run leaves
    the surviving checkpoint directories behind for post-mortem; local
    runs default to pytest's tmp tree.
    """
    base = os.environ.get("REPRO_CRASH_WORKDIR")
    if base:
        return os.path.join(base, name)
    return str(tmp_path / name)


SMALL = RunConfig(tuples=1500, chunk_size=250, num_bitmaps=8)


class TestCrashPoints:
    def test_disarmed_by_default(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        assert armed_point() is None
        maybe_crash("gen0:payload-mid-write")  # no-op, must not raise

    def test_non_matching_point_is_a_noop(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "gen7:mid-rename")
        assert armed_point() == "gen7:mid-rename"
        maybe_crash("gen0:mid-rename")
        maybe_crash("chunk:7")

    def test_candidate_space_covers_chunks_and_generations(self, tmp_path):
        harness = CrashInjectionHarness(SMALL, workdir_for(tmp_path, "cand"))
        candidates = harness.candidate_kill_points()
        # 6 chunks -> 5 interior chunk boundaries; 6 generations with
        # every save stage except the final post-commit.
        assert [p for p in candidates if p.startswith("chunk:")] == [
            f"chunk:{i}" for i in range(5)
        ]
        assert "gen0:payload-mid-write" in candidates
        assert "gen5:mid-rename" in candidates
        assert "gen5:post-commit" not in candidates
        assert "gen4:post-commit" in candidates

    def test_fuzzed_sample_always_forces_torn_windows(self, tmp_path):
        harness = CrashInjectionHarness(SMALL, workdir_for(tmp_path, "fuzz"))
        for seed in range(5):
            sample = harness.fuzz_kill_points(6, seed=seed)
            assert len(sample) == 6
            assert len(set(sample)) == 6
            assert any(p.endswith("payload-mid-write") for p in sample)
            assert any(p.endswith("mid-rename") for p in sample)

    def test_sample_capped_at_candidate_space(self, tmp_path):
        harness = CrashInjectionHarness(SMALL, workdir_for(tmp_path, "cap"))
        candidates = harness.candidate_kill_points()
        sample = harness.fuzz_kill_points(10_000, seed=0)
        assert sorted(sample) == sorted(candidates)


class TestCrashInjection:
    """The acceptance-criterion run: >= 10 fuzzed SIGKILLs + corruption."""

    def test_ten_fuzzed_kill_points_resume_bit_for_bit(self, tmp_path):
        harness = CrashInjectionHarness(SMALL, workdir_for(tmp_path, "sweep"))
        report = harness.run(points=10, seed=0)
        # 10 fuzzed kill/resume cycles plus the corruption-fallback
        # scenario, every one landing on the uninterrupted digest.
        assert len(report.outcomes) == 11
        kills = [o for o in report.outcomes if o.kill_point.startswith(("chunk", "gen"))]
        assert len(kills) == 10
        assert all(o.returncode == -signal.SIGKILL for o in kills)
        covered = {o.kill_point.split(":")[-1] for o in kills}
        assert "payload-mid-write" in covered
        assert "mid-rename" in covered
        assert report.ok, harness.describe(report)

    def test_corruption_fallback_restores_previous_generation(self, tmp_path):
        harness = CrashInjectionHarness(SMALL, workdir_for(tmp_path, "corrupt"))
        outcome = harness.run_corruption_fallback()
        latest = int(outcome.kill_point.removeprefix("corrupt-gen"))
        assert outcome.restored_generation == latest - 1
        assert outcome.skipped_generations[0]["generation"] == latest
        assert outcome.resume_digest == harness.reference_digest()
        assert outcome.matches(harness.reference_digest())

    def test_unarmed_subprocess_is_not_reported_killed(self, tmp_path):
        harness = CrashInjectionHarness(SMALL, workdir_for(tmp_path, "vacuous"))
        # A crash point the run never reaches: the subprocess exits 0 and
        # the harness must flag the experiment vacuous, not pass it.
        outcome = harness.run_point("chunk:9999")
        assert not outcome.killed
        assert outcome.returncode == 0
        assert not outcome.matches(harness.reference_digest())


@pytest.mark.fuzz
class TestCrashFuzzTier:
    """Wider nightly sweep: more points, saves skipped, second seed band."""

    def test_exhaustive_kill_point_sweep(self, tmp_path):
        config = RunConfig(tuples=2400, chunk_size=300, num_bitmaps=8, every=2)
        harness = CrashInjectionHarness(
            config, workdir_for(tmp_path, "nightly-every2")
        )
        candidates = harness.candidate_kill_points()
        report = harness.run(points=len(candidates), seed=1)
        assert len(report.outcomes) == len(candidates) + 1
        assert report.ok, harness.describe(report)

    def test_skewed_profile_second_seed(self, tmp_path):
        config = RunConfig(
            tuples=2000,
            chunk_size=250,
            num_bitmaps=8,
            seed=11,
            profile="skewed",
            theta=0.6,
        )
        harness = CrashInjectionHarness(
            config, workdir_for(tmp_path, "nightly-skewed")
        )
        report = harness.run(points=12, seed=2)
        assert report.ok, harness.describe(report)
