"""Host-speed calibration for the CPU-bound metrics.

The benchmark shares its host with other tenants, and the host's speed
drifts: over four minutes on the 2-core host a bulk Zone-1 pass went
from 28 ms to 36 ms while its ratio to :func:`kernel_seconds` stayed
within 2%, and a server launch moved 13% while its ratio to
:func:`spawn_seconds` stayed within 4%.  ``setup_s`` and the bulk metrics
are therefore reported at a reference host speed: each raw time is
scaled by ``REFERENCE / calibration`` measured beside it in the same run.
A change to the program moves the raw time but not the calibration, so
it shows in full; a slower or faster host moves both.  The raw values
are printed and recorded next to the scaled ones.

Neither calibration touches the program under test.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: ``python -c "import numpy"`` on the quiet 2-core host, seconds.
SPAWN_REFERENCE_S = 0.1
#: :func:`kernel_seconds` of each kind on the same host, seconds.
KERNEL_REFERENCE_S = {"vector": 0.01, "sort": 0.013}

_KEYS = np.random.default_rng(0).integers(0, 1 << 63, size=1 << 20, dtype=np.uint64)


def spawn_seconds(env: dict, cwd) -> float:
    """Wall time to start an interpreter and import numpy."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True)
    return time.monotonic() - started


def _vector() -> None:
    mixed = _KEYS * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(31)
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    lowest = mixed & (np.uint64(0) - mixed)
    positions = np.bitwise_count(lowest - np.uint64(1))
    live = np.nonzero(positions > 3)[0]
    np.bincount((mixed[live] & np.uint64(63)).astype(np.int64), minlength=64)


def _sort() -> None:
    np.argsort(_KEYS[: 1 << 19])


_KERNELS = {"vector": _vector, "sort": _sort}


def kernel_seconds(kind: str) -> float:
    """Best of three runs of a fixed kernel.

    ``vector`` is a hash, route and filter over 1M keys, the streaming work
    of a Zone-1 pass; ``sort`` is an argsort of 512k keys, branchy and
    cache-bound like the per-row fringe path.  Measured beside each other
    for five minutes, a Zone-1 pass kept within 3% of a fixed multiple of
    ``vector`` and a fringe pass within 2% of a fixed multiple of ``sort``,
    while the raw passes moved by 25%.
    """
    kernel = _KERNELS[kind]
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best
