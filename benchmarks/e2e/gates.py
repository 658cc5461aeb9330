"""Correctness gates.  Each returns a list of failure messages (empty = pass).

They are pure functions of what a run observed, so the smoke test can
feed them tampered evidence and check that they fail.
"""

from __future__ import annotations

import math

#: Allowance in units of the PCSA standard error 0.78/sqrt(m), plus an
#: additive floor of m for the small-range regime — the same envelope the
#: program's ``estimator-error-envelope`` contract uses.
ENVELOPE_SIGMA = 6.0


def digests_match(served: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Every served profile's digest equals the offline reference's."""
    failures = []
    for profile, want in expected.items():
        got = served.get(profile)
        if got != want:
            failures.append(f"{profile}: served digest {got} != reference {want}")
    return failures


def one_digest_per_cursor(observations) -> list[str]:
    """Each observed (profile, cursor) maps to exactly one digest."""
    seen: dict[tuple[str, int], str] = {}
    failures = []
    for profile, cursor, digest in observations:
        first = seen.setdefault((profile, cursor), digest)
        if first != digest:
            failures.append(
                f"{profile}@{cursor}: digests {first[:12]} and {digest[:12]}"
            )
    return failures


def passes_identical(digests: list[str]) -> list[str]:
    """Every bulk pass over the same input ends in the same state."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"{len(distinct)} distinct digests across {len(digests)} passes"]
    return []


def within_envelope(readout: float, truth: dict, num_bitmaps: int) -> list[str]:
    """The implication count S = F0_sup - S-bar lies within 6 sigma + m.

    Each term carries the PCSA error 0.78/sqrt(m), so sigma of S is
    ``0.78/sqrt(m) * hypot(F0_sup, S-bar)`` over the exact counts.  S is
    checked rather than its two terms: under the bounded fringe (F = 4)
    fixated cells read as set in both F0_sup and S-bar (the paper's
    Section 4.3.3 limitation), which inflates each term on Dataset One by
    up to 2x while their difference stays unbiased.
    """
    sigma = 0.78 / math.sqrt(num_bitmaps) * math.hypot(
        truth["supported"], truth["nonimplication"]
    )
    allowance = ENVELOPE_SIGMA * sigma + num_bitmaps
    if abs(readout - truth["implication"]) > allowance:
        return [
            f"implication count {readout:.1f} outside "
            f"{truth['implication']} +/- {allowance:.1f}"
        ]
    return []
