"""Crash-injection harness: SIGKILL a real ingest, resume it, prove equality.

The checkpoint protocol's claims are operational, so the proof is
operational too:

1. **Reference leg** — run the configured ingest uninterrupted, in
   process, and record its :func:`estimator_state_digest`.
2. **Kill leg** — launch the *same* run as a subprocess
   (``python -m repro.cli checkpoint ...``) with one crash point armed via
   ``REPRO_CRASH_POINT`` (:mod:`repro.recovery.crash`).  The child
   SIGKILLs itself at that exact protocol window — mid-payload-write,
   between the payload and manifest renames, right after a chunk ingest —
   with no cleanup of any kind.  The harness asserts the child really
   died by SIGKILL (a point that silently never fired would make the
   whole experiment vacuous).
3. **Resume leg** — re-run the same configuration over the surviving
   checkpoint directory (in process; resume after SIGKILL is a fresh
   process by construction) and compare the final digest against the
   reference.  Equality here is the whole durability story: the kill
   cost wall-clock, never state.

Kill points are *fuzzed*: the candidate space is every chunk boundary
crossed with every save-protocol stage of every generation the reference
run commits, and the harness samples from it with a seeded RNG — always
forcing the two nastiest windows (``payload-mid-write`` and
``mid-rename``) into the sample.  A final scenario corrupts the latest
committed generation on disk and checks the resume falls back to the
previous generation instead of failing or silently re-ingesting from
zero.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field

from ..core.serialize import estimator_state_digest
from . import crash
from .checkpoint import CheckpointManager
from .runner import RunConfig, run_checkpointed

__all__ = ["CrashOutcome", "CrashReport", "CrashInjectionHarness"]

#: Stages forced into every fuzzed sample — the windows where a torn
#: write is physically possible.
_MANDATORY_STAGES = ("payload-mid-write", "mid-rename")


@dataclass
class CrashOutcome:
    """One kill-point experiment, end to end."""

    kill_point: str
    killed: bool
    returncode: int
    resume_digest: str | None
    restored_generation: int | None
    restored_cursor: int | None
    skipped_generations: list[dict] = field(default_factory=list)

    def matches(self, reference_digest: str) -> bool:
        return self.killed and self.resume_digest == reference_digest


@dataclass
class CrashReport:
    """A full harness run: reference digest plus every outcome."""

    reference_digest: str
    outcomes: list[CrashOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(
            outcome.matches(self.reference_digest) for outcome in self.outcomes
        )

    def failures(self) -> list[CrashOutcome]:
        return [
            outcome
            for outcome in self.outcomes
            if not outcome.matches(self.reference_digest)
        ]


class CrashInjectionHarness:
    """Drive kill/resume cycles for one :class:`RunConfig`.

    ``workdir`` hosts one subdirectory per experiment; directories of
    failed experiments are left in place (CI uploads them as artifacts),
    successful ones are cheap enough to leave too — the caller owns the
    tree's lifetime.
    """

    def __init__(
        self,
        config: RunConfig,
        workdir: str,
        *,
        python: str | None = None,
        subprocess_timeout: float = 120.0,
    ) -> None:
        self.config = config
        self.workdir = os.path.abspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.python = python or sys.executable
        self.subprocess_timeout = subprocess_timeout
        self._reference_digest: str | None = None

    # ------------------------------------------------------------------ #
    # Legs
    # ------------------------------------------------------------------ #

    def reference_digest(self) -> str:
        """Digest of the uninterrupted run (computed once, in process)."""
        if self._reference_digest is None:
            report = run_checkpointed(
                self.config, os.path.join(self.workdir, "reference")
            )
            self._reference_digest = report["digest"]
        return self._reference_digest

    def candidate_kill_points(self) -> list[str]:
        """Every reachable crash point of the configured run.

        Chunk points exist for every chunk except the last (a kill after
        the final chunk's ingest *but before its checkpoint* still loses no
        committed state — but the subprocess would exit 0 on the very last
        ``post-commit``-adjacent windows; to keep the killed-by-SIGKILL
        assertion crisp, only points that fire strictly before the run's
        final instruction are candidates).  Save-stage points exist for
        every generation the run commits except the last generation's
        ``post-commit``.
        """
        chunks = self.config.chunk_count
        saves = [
            index
            for index in range(chunks)
            if (index + 1) % self.config.every == 0 or index == chunks - 1
        ]
        points = [f"chunk:{index}" for index in range(chunks - 1)]
        for generation, _ in enumerate(saves):
            for stage in crash.SAVE_STAGES:
                if generation == len(saves) - 1 and stage == "post-commit":
                    continue
                points.append(f"gen{generation}:{stage}")
        return points

    def fuzz_kill_points(self, count: int, seed: int = 0) -> list[str]:
        """Sample ``count`` kill points, always covering the torn windows."""
        candidates = self.candidate_kill_points()
        if count > len(candidates):
            count = len(candidates)
        rng = random.Random(seed)
        mandatory = []
        for stage in _MANDATORY_STAGES:
            staged = [point for point in candidates if point.endswith(stage)]
            if staged:
                mandatory.append(rng.choice(staged))
        remaining = [point for point in candidates if point not in mandatory]
        sampled = rng.sample(remaining, max(count - len(mandatory), 0))
        return mandatory + sampled

    def run_killed(self, kill_point: str, checkpoint_dir: str) -> int:
        """Launch the run as a subprocess armed to die at ``kill_point``."""
        env = dict(os.environ)
        env[crash.CRASH_ENV] = kill_point
        env["PYTHONPATH"] = os.pathsep.join(
            path
            for path in (
                os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                env.get("PYTHONPATH", ""),
            )
            if path
        )
        completed = subprocess.run(
            [self.python, "-m", "repro.cli"]
            + self.config.to_argv("checkpoint", checkpoint_dir),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=self.subprocess_timeout,
        )
        return completed.returncode

    def resume(self, checkpoint_dir: str) -> dict:
        """Resume the surviving directory in process; returns the report."""
        return run_checkpointed(self.config, checkpoint_dir)

    # ------------------------------------------------------------------ #
    # Experiments
    # ------------------------------------------------------------------ #

    def run_point(self, kill_point: str) -> CrashOutcome:
        """One kill/resume cycle at a named crash point."""
        safe = kill_point.replace(":", "_")
        checkpoint_dir = os.path.join(self.workdir, f"kill-{safe}")
        returncode = self.run_killed(kill_point, checkpoint_dir)
        killed = returncode == -signal.SIGKILL
        if not killed:
            return CrashOutcome(
                kill_point=kill_point,
                killed=False,
                returncode=returncode,
                resume_digest=None,
                restored_generation=None,
                restored_cursor=None,
            )
        report = self.resume(checkpoint_dir)
        return CrashOutcome(
            kill_point=kill_point,
            killed=True,
            returncode=returncode,
            resume_digest=report["digest"],
            restored_generation=report["restored_generation"],
            restored_cursor=report["restored_cursor"],
            skipped_generations=report["skipped_generations"],
        )

    def run_corruption_fallback(self) -> CrashOutcome:
        """Corrupt the latest committed generation; resume must fall back.

        A full healthy run is taken first, then the newest generation's
        payload gets flipped bytes *without* touching its manifest — the
        recorded SHA-256 no longer matches, the loader must skip that
        generation, restore the previous one, and the replay must still
        land on the reference digest.
        """
        checkpoint_dir = os.path.join(self.workdir, "corrupt-latest")
        run_checkpointed(self.config, checkpoint_dir)
        manager = CheckpointManager(checkpoint_dir, keep=self.config.keep)
        generations = manager.generations()
        latest = generations[-1]
        payload_path = os.path.join(checkpoint_dir, f"ckpt-{latest:06d}.payload")
        with open(payload_path, "r+b") as handle:
            blob = bytearray(handle.read())
            for index in range(0, len(blob), max(len(blob) // 16, 1)):
                blob[index] ^= 0xFF
            handle.seek(0)
            handle.write(blob)
        report = self.resume(checkpoint_dir)
        fell_back = (
            report["restored_generation"] is not None
            and report["restored_generation"] < latest
            and any(
                entry["generation"] == latest
                for entry in report["skipped_generations"]
            )
        )
        return CrashOutcome(
            kill_point=f"corrupt-gen{latest}",
            killed=fell_back,  # "killed" here: the scenario executed as designed
            returncode=0,
            resume_digest=report["digest"],
            restored_generation=report["restored_generation"],
            restored_cursor=report["restored_cursor"],
            skipped_generations=report["skipped_generations"],
        )

    def run(self, *, points: int = 10, seed: int = 0) -> CrashReport:
        """The full experiment: fuzzed kills + the corruption scenario."""
        report = CrashReport(reference_digest=self.reference_digest())
        for kill_point in self.fuzz_kill_points(points, seed=seed):
            report.outcomes.append(self.run_point(kill_point))
        report.outcomes.append(self.run_corruption_fallback())
        return report

    def describe(self, report: CrashReport) -> str:
        lines = [
            f"reference digest {report.reference_digest}",
            f"{len(report.outcomes)} scenario(s), "
            f"{len(report.failures())} failure(s)",
        ]
        for outcome in report.outcomes:
            status = "ok" if outcome.matches(report.reference_digest) else "FAIL"
            lines.append(
                f"  [{status}] {outcome.kill_point}: killed={outcome.killed} "
                f"rc={outcome.returncode} restored_gen="
                f"{outcome.restored_generation} cursor={outcome.restored_cursor} "
                f"digest_match={outcome.resume_digest == report.reference_digest}"
            )
        return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin CLI
    """Tiny driver: ``python -m repro.recovery.harness [points] [seed]``."""
    args = list(sys.argv[1:] if argv is None else argv)
    points = int(args[0]) if args else 10
    seed = int(args[1]) if len(args) > 1 else 0
    config = RunConfig(tuples=4000, chunk_size=500, num_bitmaps=8)
    harness = CrashInjectionHarness(config, workdir="crash-artifacts")
    report = harness.run(points=points, seed=seed)
    print(harness.describe(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
