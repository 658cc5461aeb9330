"""Build, load and drive the compiled batch kernel.

The kernel is plain C compiled at first use with the system C compiler and
loaded through :mod:`ctypes` — see DESIGN.md §11 for why this vehicle was
chosen over numba/Cython (neither is importable here, and the library's
no-new-dependency rule rules out adding them).  The shared object is cached
under a directory keyed by the SHA-256 of the C source, so a code change
can never pick up a stale binary, and the build is atomic (compile to a
temp name, ``os.replace`` into place) so concurrent processes race safely.

:func:`run_update_batch` is the single entry point the estimator calls: it
exports the estimator's dict-shaped state into flat arrays, replays the
batch in C, and imports the resulting state back.  Under the default
:class:`SplitMix64Hash` the kernel also hashes, routes and places every
row itself; other hash families hand it a column hashed by their numpy
``hash_array``.  Any state the flat encoding cannot represent (non-integer
itemset keys from the scalar API, out-of-range counters) makes it return
``None`` *before any mutation*, and the caller falls back to the Python
reference path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from ..sketch.hashing import SplitMix64Hash
from ._csource import CSOURCE

__all__ = [
    "KernelBuildError",
    "load_library",
    "compile_milliseconds",
    "run_update_batch",
    "poly_hash_array",
]

#: Supports, weights and masses must convert to float64 exactly for the
#: confidence division to match Python's arbitrary-precision ``int / int``.
_EXACT_FLOAT = 1 << 53
_UINT64_MAX = (1 << 64) - 1

_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)


class KernelBuildError(RuntimeError):
    """The compiled backend could not be built or loaded on this host."""


def _source_digest() -> str:
    return hashlib.sha256(CSOURCE.encode("utf-8")).hexdigest()


def _cache_dir() -> Path:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return Path(configured)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


_lib: ctypes.CDLL | None = None
_load_error: Exception | None = None
_compile_ms: float = 0.0


def compile_milliseconds() -> float:
    """Milliseconds the last in-process build took (0.0 on a cache hit)."""
    return _compile_ms


def _build_and_load() -> ctypes.CDLL:
    global _compile_ms
    digest = _source_digest()
    cache = _cache_dir() / digest[:16]
    so_path = cache / "repro_kernels.so"
    if not so_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            raise KernelBuildError("no C compiler (cc/gcc/clang) on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            c_file = Path(workdir) / "repro_kernels.c"
            c_file.write_text(CSOURCE, encoding="utf-8")
            tmp_so = Path(workdir) / "repro_kernels.so"
            result = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp_so),
                 str(c_file)],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                raise KernelBuildError(
                    f"{compiler} failed ({result.returncode}): "
                    f"{result.stderr.strip()[:500]}"
                )
            os.replace(tmp_so, so_path)
        _compile_ms = (time.perf_counter() - started) * 1000.0
    lib = ctypes.CDLL(str(so_path))
    lib.repro_engine_new.restype = ctypes.c_void_p
    lib.repro_engine_new.argtypes = [_I64] * 9 + [ctypes.c_double]
    lib.repro_engine_free.argtypes = [ctypes.c_void_p]
    lib.repro_engine_load_bitmaps.restype = ctypes.c_int
    lib.repro_engine_load_bitmaps.argtypes = [
        ctypes.c_void_p, _P_I64, _P_I64, _P_I64, _P_U64
    ]
    lib.repro_engine_load_items.restype = ctypes.c_int
    lib.repro_engine_load_items.argtypes = [
        ctypes.c_void_p, _I64, _P_I32, _P_I32, _P_U64, _P_I64, _P_U8,
        _P_I64, _P_U64, _P_I64,
    ]
    lib.repro_engine_run_batch.restype = ctypes.c_int
    lib.repro_engine_run_batch.argtypes = [
        ctypes.c_void_p, _I64, _P_U64, _U64, _P_U64, _P_U64,
    ]
    lib.repro_engine_counters.argtypes = [ctypes.c_void_p, _P_I64]
    lib.repro_engine_export_bitmaps.argtypes = [
        ctypes.c_void_p, _P_I64, _P_I64, _P_I64, _P_U64
    ]
    lib.repro_engine_export_counts.argtypes = [ctypes.c_void_p, _P_I64, _P_I64]
    lib.repro_engine_export_items.argtypes = [
        ctypes.c_void_p, _P_I32, _P_I32, _P_U64, _P_I64, _P_U8,
        _P_I64, _P_U64, _P_I64,
    ]
    lib.repro_poly_hash.argtypes = [
        _I64, _P_U64, _P_U64, _I64, _P_U64, _U64
    ]
    return lib


def load_library() -> ctypes.CDLL:
    """The process-wide kernel library; builds on first call, then caches.

    A failed build is cached too (as :class:`KernelBuildError`), so a host
    without a compiler pays the discovery cost once, not per call.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise KernelBuildError(str(_load_error)) from _load_error
    try:
        _lib = _build_and_load()
    except Exception as error:  # noqa: BLE001 - cache any build failure
        _load_error = error
        raise KernelBuildError(str(error)) from error
    return _lib


def _ptr(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctype)


def _usable_key(key) -> bool:
    # ``type`` (not isinstance): booleans serialize with a different type
    # tag than ints, so exporting True as 1 would corrupt the digest.
    return type(key) is int and 0 <= key <= _UINT64_MAX


def _export_state(estimator):
    """Flatten the estimator's dict state, or ``None`` if unrepresentable."""
    bitmaps = estimator.bitmaps
    m = len(bitmaps)
    fs = np.empty(m, dtype=np.int64)
    rm = np.empty(m, dtype=np.int64)
    ts = np.empty(m, dtype=np.int64)
    vo = np.empty(m, dtype=np.uint64)
    items: list[tuple[int, int, int, int, int]] = []
    part_keys: list[int] = []
    part_weights: list[int] = []
    part_start: list[int] = [0]
    for b, bitmap in enumerate(bitmaps):
        fs[b] = bitmap.fringe_start
        rm[b] = bitmap.rightmost_hashed
        ts[b] = bitmap.tuples_seen
        mask = 0
        for position in bitmap._value_one:
            mask |= 1 << position
        vo[b] = mask
        for position, cell in bitmap._cells.items():
            for key, state in cell.items():
                if not _usable_key(key):
                    return None
                if state.violated or not 0 <= state.support < _EXACT_FLOAT:
                    return None
                flags = 0
                if state.multiplicity_exceeded:
                    flags |= 1
                partners = state.partners
                if partners is None:
                    flags |= 2
                else:
                    for pkey, weight in partners.items():
                        if not _usable_key(pkey):
                            return None
                        if not 1 <= weight < _EXACT_FLOAT:
                            return None
                        part_keys.append(pkey)
                        part_weights.append(weight)
                items.append((b, position, key, state.support, flags))
                part_start.append(len(part_keys))
    n = len(items)
    item_bmp = np.fromiter((i[0] for i in items), dtype=np.int32, count=n)
    item_pos = np.fromiter((i[1] for i in items), dtype=np.int32, count=n)
    item_key = np.fromiter((i[2] for i in items), dtype=np.uint64, count=n)
    item_support = np.fromiter((i[3] for i in items), dtype=np.int64, count=n)
    item_flags = np.fromiter((i[4] for i in items), dtype=np.uint8, count=n)
    starts = np.array(part_start, dtype=np.int64)
    pkeys = np.array(part_keys, dtype=np.uint64)
    pweights = np.array(part_weights, dtype=np.int64)
    return (fs, rm, ts, vo, item_bmp, item_pos, item_key, item_support,
            item_flags, starts, pkeys, pweights)


def _import_state(lib, engine, estimator) -> None:
    """Rebuild the estimator's dicts from the kernel's post-batch state."""
    from ..core.tracker import ItemsetState

    bitmaps = estimator.bitmaps
    m = len(bitmaps)
    fs = np.empty(m, dtype=np.int64)
    rm = np.empty(m, dtype=np.int64)
    ts = np.empty(m, dtype=np.int64)
    vo = np.empty(m, dtype=np.uint64)
    lib.repro_engine_export_bitmaps(
        engine, _ptr(fs, _P_I64), _ptr(rm, _P_I64), _ptr(ts, _P_I64),
        _ptr(vo, _P_U64)
    )
    n_items = _I64()
    n_partners = _I64()
    lib.repro_engine_export_counts(
        engine, ctypes.byref(n_items), ctypes.byref(n_partners)
    )
    n, np_total = n_items.value, n_partners.value
    item_bmp = np.empty(n, dtype=np.int32)
    item_pos = np.empty(n, dtype=np.int32)
    item_key = np.empty(n, dtype=np.uint64)
    item_support = np.empty(n, dtype=np.int64)
    item_flags = np.empty(n, dtype=np.uint8)
    starts = np.empty(n + 1, dtype=np.int64)
    pkeys = np.empty(np_total, dtype=np.uint64)
    pweights = np.empty(np_total, dtype=np.int64)
    lib.repro_engine_export_items(
        engine, _ptr(item_bmp, _P_I32), _ptr(item_pos, _P_I32),
        _ptr(item_key, _P_U64), _ptr(item_support, _P_I64),
        _ptr(item_flags, _P_U8), _ptr(starts, _P_I64),
        _ptr(pkeys, _P_U64), _ptr(pweights, _P_I64),
    )
    cells_per_bitmap: list[dict] = [dict() for _ in range(m)]
    bmp_list = item_bmp.tolist()
    pos_list = item_pos.tolist()
    key_list = item_key.tolist()
    support_list = item_support.tolist()
    flags_list = item_flags.tolist()
    starts_list = starts.tolist()
    pkey_list = pkeys.tolist()
    pweight_list = pweights.tolist()
    for i in range(n):
        state = ItemsetState()
        state.support = support_list[i]
        flags = flags_list[i]
        if flags & 1:
            state.multiplicity_exceeded = True
        if flags & 2:
            state.partners = None
        else:
            begin, end = starts_list[i], starts_list[i + 1]
            state.partners = dict(
                zip(pkey_list[begin:end], pweight_list[begin:end])
            )
        cells = cells_per_bitmap[bmp_list[i]]
        cell = cells.get(pos_list[i])
        if cell is None:
            cell = cells[pos_list[i]] = {}
        cell[key_list[i]] = state
    fs_list = fs.tolist()
    rm_list = rm.tolist()
    ts_list = ts.tolist()
    vo_list = vo.tolist()
    for b, bitmap in enumerate(bitmaps):
        bitmap.fringe_start = fs_list[b]
        bitmap.rightmost_hashed = rm_list[b]
        bitmap.tuples_seen = ts_list[b]
        mask = vo_list[b]
        value_one = set()
        position = 0
        while mask:
            if mask & 1:
                value_one.add(position)
            mask >>= 1
            position += 1
        bitmap._value_one = value_one
        bitmap._cells = cells_per_bitmap[b]


def run_update_batch(estimator, lhs, rhs):
    """Replay one batch in C.  Returns the counter dict, or ``None``.

    ``None`` means "this state can't ride the flat encoding" (or the C
    engine refused the geometry / ran out of memory): the caller must run
    the Python path instead.  The estimator is never mutated on ``None``.

    When the estimator's hash is exactly :class:`SplitMix64Hash` (the
    default everywhere) no hashed column is built: the kernel mixes each
    row with the hash's ``gamma`` inside its block loop.  Any other hash —
    including a subclass that overrides ``mix`` — is applied here through
    its ``hash_array`` and handed in as a column.
    """
    lib = load_library()
    exported = _export_state(estimator)
    if exported is None:
        return None
    conditions = estimator.conditions
    engine = lib.repro_engine_new(
        estimator.num_bitmaps,
        estimator.length,
        estimator.route_bits,
        -1 if estimator.fringe_size is None else estimator.fringe_size,
        estimator.bitmaps[0].capacity_slack,
        conditions.min_support,
        -1 if conditions.partner_bound is None else conditions.partner_bound,
        -1 if conditions.max_multiplicity is None
        else conditions.max_multiplicity,
        conditions.top_c,
        conditions.min_top_confidence,
    )
    if not engine:
        return None
    try:
        (fs, rm, ts, vo, item_bmp, item_pos, item_key, item_support,
         item_flags, starts, pkeys, pweights) = exported
        lib.repro_engine_load_bitmaps(
            engine, _ptr(fs, _P_I64), _ptr(rm, _P_I64), _ptr(ts, _P_I64),
            _ptr(vo, _P_U64)
        )
        if lib.repro_engine_load_items(
            engine, len(item_bmp), _ptr(item_bmp, _P_I32),
            _ptr(item_pos, _P_I32), _ptr(item_key, _P_U64),
            _ptr(item_support, _P_I64), _ptr(item_flags, _P_U8),
            _ptr(starts, _P_I64), _ptr(pkeys, _P_U64),
            _ptr(pweights, _P_I64),
        ):
            return None
        hash_function = estimator.hash_function
        if type(hash_function) is SplitMix64Hash:
            hashed, gamma = None, hash_function.gamma
        else:
            hashed = np.ascontiguousarray(
                hash_function.hash_array(lhs), dtype=np.uint64
            )
            gamma = 0
        lhs = np.ascontiguousarray(lhs, dtype=np.uint64)
        rhs = np.ascontiguousarray(rhs, dtype=np.uint64)
        if lib.repro_engine_run_batch(
            engine, len(lhs),
            None if hashed is None else _ptr(hashed, _P_U64), _U64(gamma),
            _ptr(lhs, _P_U64), _ptr(rhs, _P_U64),
        ):
            return None
        counters = np.empty(3, dtype=np.int64)
        lib.repro_engine_counters(engine, _ptr(counters, _P_I64))
        _import_state(lib, engine, estimator)
    finally:
        lib.repro_engine_free(engine)
    blocks, live_rows, floats = counters.tolist()
    return {"blocks": blocks, "live_rows": live_rows, "floats": floats}


def poly_hash_array(values: np.ndarray, coefficients, gamma: int) -> np.ndarray:
    """C Horner loop over GF(2**61-1); bit-identical to the numpy path."""
    lib = load_library()
    values = np.ascontiguousarray(values, dtype=np.uint64)
    out = np.empty(len(values), dtype=np.uint64)
    coeffs = np.array(list(reversed(coefficients)), dtype=np.uint64)
    lib.repro_poly_hash(
        len(values), _ptr(values, _P_U64), _ptr(out, _P_U64),
        len(coeffs), _ptr(coeffs, _P_U64), _U64(gamma),
    )
    return out
