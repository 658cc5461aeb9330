"""Kernel-layer tests: backend selection, fallback, and bit-for-bit parity.

The compiled backend is a C replay of the python reference (DESIGN.md
§11).  These tests pin the selection machinery (argument > environment >
auto), the fallback paths (no compiler, unrepresentable state), the
dtype-coercion contract of ``hash_array``, the C polynomial-hash parity,
and the schema-v2 benchmark artifact reader/writer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.estimator import ImplicationCountEstimator
from repro.core.serialize import estimator_state_digest
from repro.datasets.synthetic import generate_dataset_one
from repro.experiments import (
    bench_host_metadata,
    read_throughput_artifact,
    write_throughput_artifact,
)
from repro.kernels import compiled as compiled_module
from repro.kernels import (
    KernelUnavailableError,
    available_backends,
    resolve,
)
from repro.observability import MetricsRegistry, set_registry
from repro.sketch.hashing import HashFamily, coerce_encoded
from repro.verify.harness import DifferentialHarness
from repro.windowed import WindowedImplicationEstimator

COMPILED_AVAILABLE = "compiled" in available_backends()

needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled kernel backend unavailable"
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def small_stream():
    data = generate_dataset_one(200, 100, c=2, seed=7)
    return data.conditions, data.lhs, data.rhs


class TestBackendResolution:
    def test_python_always_available(self):
        assert available_backends()[0] == "python"
        assert resolve("python").name == "python"
        assert not resolve("python").is_compiled

    def test_auto_prefers_compiled_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        resolved = resolve(None)
        if COMPILED_AVAILABLE:
            assert resolved.name == "compiled"
        else:
            assert resolved.name == "python"

    def test_env_var_forces_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
        assert resolve(None).name == "python"
        estimator = ImplicationCountEstimator(ImplicationConditions())
        assert estimator.kernels.name == "python"

    def test_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
        if COMPILED_AVAILABLE:
            assert resolve("compiled").name == "compiled"

    def test_spawn_sibling_keeps_explicit_backend(self, monkeypatch):
        # The environment names the other backend: an explicit kernels=
        # must still win in every sibling, including windowed panes.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "compiled")
        estimator = ImplicationCountEstimator(
            ImplicationConditions(), kernels="python"
        )
        assert estimator.spawn_sibling().kernels.name == "python"
        windowed = WindowedImplicationEstimator(
            ImplicationConditions(), kernels="python", window=8
        )
        windowed.update_batch(np.arange(12), np.arange(12))
        assert {pane.kernels.name for _, pane in windowed._panes} == {"python"}
        if COMPILED_AVAILABLE:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
            estimator = ImplicationCountEstimator(
                ImplicationConditions(), kernels="compiled"
            )
            assert estimator.spawn_sibling().kernels.name == "compiled"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve("fortran")

    def test_explicit_compiled_raises_when_unbuildable(self, monkeypatch):
        def refuse():
            raise compiled_module.KernelBuildError("no compiler (test)")

        monkeypatch.setattr(compiled_module, "load_library", refuse)
        with pytest.raises(KernelUnavailableError):
            resolve("compiled")

    def test_auto_falls_back_when_unbuildable(self, monkeypatch, registry):
        def refuse():
            raise compiled_module.KernelBuildError("no compiler (test)")

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.setattr(compiled_module, "load_library", refuse)
        assert resolve(None).name == "python"
        assert registry.counter("kernels.fallbacks").value >= 1


class TestColdStartFallback:
    """A host without the compiled backend still verifies clean."""

    def test_verify_smoke_with_compiled_unbuildable(self, monkeypatch):
        def refuse():
            raise compiled_module.KernelBuildError("no compiler (test)")

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.setattr(compiled_module, "load_library", refuse)
        assert available_backends() == ("python",)
        report = DifferentialHarness(
            base_seed=3, iterations=6, stream_size=96
        ).run()
        assert report.ok, [v.describe() for v in report.violations]

    def test_verify_smoke_with_env_forced_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
        report = DifferentialHarness(
            base_seed=4, iterations=6, stream_size=96
        ).run()
        assert report.ok, [v.describe() for v in report.violations]


#: SplitMix64 is hashed inside the kernel's block loop; the other
#: families hand the kernel a column from their numpy ``hash_array``.
HASH_KINDS = ["splitmix", "multiply-shift", "polynomial", "tabulation"]


def splitmix_preimage(hash_function, target: int) -> int:
    """The encoded value ``v`` with ``hash_function.mix(v) == target``.

    Undoes the SplitMix64 finalizer step by step: each xorshift is undone
    by re-applying it until the high bits propagate down, each odd
    multiplier by its inverse mod 2**64, and the increment by subtraction.
    """
    mask = (1 << 64) - 1

    def unxorshift(value: int, shift: int) -> int:
        result = value
        for _ in range(64 // shift + 1):
            result = value ^ (result >> shift)
        return result

    z = unxorshift(target, 31)
    z = unxorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    value = (z - hash_function.gamma) & mask
    assert hash_function.mix(value) == target
    return value


@needs_compiled
class TestCompiledEquivalence:
    @pytest.mark.parametrize("kind", HASH_KINDS)
    def test_digest_matches_python_all_paths(self, kind):
        conditions, lhs, rhs = small_stream()
        states = {}
        for backend in ("python", "compiled"):
            estimator = ImplicationCountEstimator(
                conditions, num_bitmaps=16, kernels=backend,
                hash_function=HashFamily(kind, seed=3).one(),
            )
            estimator.update_batch(lhs, rhs)
            states[backend] = estimator_state_digest(estimator)
        assert states["python"] == states["compiled"]

    @pytest.mark.parametrize("kind", HASH_KINDS)
    def test_sequential_batches_round_trip_state(self, kind):
        """Multi-batch ingest exercises the C engine's state import."""
        conditions, lhs, rhs = small_stream()
        python = ImplicationCountEstimator(
            conditions, kernels="python",
            hash_function=HashFamily(kind, seed=1).one(),
        )
        compiled = ImplicationCountEstimator(
            conditions, kernels="compiled",
            hash_function=HashFamily(kind, seed=1).one(),
        )
        for begin, end in ((0, 400), (400, 1000), (1000, len(lhs))):
            python.update_batch(lhs[begin:end], rhs[begin:end])
            compiled.update_batch(lhs[begin:end], rhs[begin:end])
        assert estimator_state_digest(python) == estimator_state_digest(
            compiled
        )

    @pytest.mark.parametrize("length", [None, 10])
    def test_zero_route_rows_land_on_the_top_cell(self, length):
        """A hash whose route bits are all zero places at
        ``least_significant_bit(0) == 64``, clamped to ``length - 1`` —
        the kernel's guarded ctz must agree (ctz(0) is undefined)."""
        conditions, lhs, rhs = small_stream()
        num_bitmaps = 8

        def make(kernels):
            return ImplicationCountEstimator(
                conditions, num_bitmaps=num_bitmaps, length=length, seed=5,
                kernels=kernels,
            )

        probe = make("python")
        top = probe.length - 1
        hash_function = probe.hash_function
        # Ordinary rows that stay below the top cell, so only the
        # zero-route rows reach it (one per bitmap: no overflow).
        routed = hash_function.hash_array(lhs) >> np.uint64(probe.route_bits)
        below = np.array(
            [0 < r and (r & -r).bit_length() - 1 < top for r in routed.tolist()]
        )
        lhs, rhs = lhs[below], rhs[below]
        # hash == b: bitmap b, route bits all zero.
        zero_keys = [splitmix_preimage(hash_function, b) for b in range(num_bitmaps)]
        slots = np.linspace(0, len(lhs), num_bitmaps, dtype=np.int64)
        lhs = np.insert(lhs, slots, np.array(zero_keys, dtype=np.uint64))
        rhs = np.insert(rhs, slots, np.arange(num_bitmaps, dtype=np.uint64))
        scalar = make("python")
        for itemset, partner in zip(lhs.tolist(), rhs.tolist()):
            scalar.update(itemset, partner)
        python, compiled = make("python"), make("compiled")
        python.update_batch(lhs, rhs)
        compiled.update_batch(lhs, rhs)
        digest = estimator_state_digest(scalar)
        assert estimator_state_digest(python) == digest
        assert estimator_state_digest(compiled) == digest
        for estimator in (scalar, python, compiled):
            for b, key in enumerate(zero_keys):
                bitmap = estimator.bitmaps[b]
                assert bitmap.rightmost_hashed == top
                assert key in bitmap._cells[top]

    def test_unrepresentable_state_falls_back(self, registry):
        """Scalar-API string itemsets cannot ride the flat C encoding;
        the batch after them must silently take the python path — same
        digest as a pure-python twin, fallback counter bumped."""
        conditions, lhs, rhs = small_stream()
        compiled = ImplicationCountEstimator(
            conditions, seed=1, kernels="compiled"
        )
        python = ImplicationCountEstimator(conditions, seed=1, kernels="python")
        for estimator in (compiled, python):
            estimator.update("itemset-a", "partner-1")
            estimator.update("itemset-a", "partner-1")
        compiled.update_batch(lhs, rhs)
        python.update_batch(lhs, rhs)
        assert estimator_state_digest(compiled) == estimator_state_digest(
            python
        )
        assert registry.counter("kernels.fallbacks").value >= 1

    def test_backend_gauge_reported(self, registry):
        conditions, lhs, rhs = small_stream()
        estimator = ImplicationCountEstimator(
            conditions, seed=1, kernels="compiled"
        )
        estimator.update_batch(lhs, rhs)
        assert registry.gauge("kernels.backend").value == 1.0
        estimator = ImplicationCountEstimator(
            conditions, seed=1, kernels="python"
        )
        estimator.update_batch(lhs, rhs)
        assert registry.gauge("kernels.backend").value == 0.0

    def test_deep_fringe_capacity_saturates(self, registry):
        """With 64 bitmaps a cell can sit 57 places below the fringe end,
        where ``slack << depth`` is 2**63: past int64, so the kernel must
        saturate the capacity instead of shifting into the sign bit."""
        rng = np.random.default_rng(0)
        lhs = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
        rhs = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
        digests = {}
        for backend in ("python", "compiled"):
            estimator = ImplicationCountEstimator(
                ImplicationConditions(min_support=2), num_bitmaps=64,
                fringe_size=58, capacity_slack=64, seed=1, kernels=backend,
            )
            estimator.update_batch(lhs, rhs)
            digests[backend] = estimator_state_digest(estimator)
        assert digests["python"] == digests["compiled"]
        assert registry.counter("kernels.fallbacks").value == 0


def tracked_cells(estimator):
    """The (bitmap, position) pairs whose cell still holds counters."""
    return {
        (b, position)
        for b, bitmap in enumerate(estimator.bitmaps)
        for position in bitmap._cells
    }


@needs_compiled
class TestConfidenceCertificate:
    """Once a top-c scan passes with mass M at support S, the kernel skips
    the scan for every support L with ``M / L >= theta`` (DESIGN §11):
    every row must still reach the scalar loop's decision at its own row.

    Each case compares the compiled digest with the python-batch and scalar
    digests at named prefixes, feeding the batch paths whole and cut inside
    a certified run (a cut starts a fresh engine, whose certificates start
    empty)."""

    @pytest.fixture(autouse=True)
    def _no_fallback(self, registry):
        yield
        # A declined batch would run the python path and match trivially.
        assert registry.counter("kernels.fallbacks").value == 0

    def scalar_at(self, make, lhs, rhs, prefixes):
        """The scalar loop's digest and tracked cells per prefix."""
        scalar = make("python")
        found = {}
        for row, (itemset, partner) in enumerate(
            zip(lhs.tolist(), rhs.tolist()), start=1
        ):
            scalar.update(itemset, partner)
            if row in prefixes:
                found[row] = (
                    estimator_state_digest(scalar), tracked_cells(scalar)
                )
        return found

    def check(self, conditions, lhs, rhs, prefixes, cuts, **geometry):
        def make(kernels):
            return ImplicationCountEstimator(
                conditions, seed=3, kernels=kernels, **geometry
            )

        lhs = np.asarray(lhs, dtype=np.uint64)
        rhs = np.asarray(rhs, dtype=np.uint64)
        scalar = self.scalar_at(make, lhs, rhs, set(prefixes))
        for prefix in prefixes:
            for cut in [[]] + cuts:
                bounds = [0] + [c for c in cut if c < prefix] + [prefix]
                for kernels in ("python", "compiled"):
                    estimator = make(kernels)
                    for begin, end in zip(bounds, bounds[1:]):
                        estimator.update_batch(lhs[begin:end], rhs[begin:end])
                    assert estimator_state_digest(estimator) == scalar[prefix][0], (
                        kernels, prefix, cut
                    )
        return {prefix: scalar[prefix][1] for prefix in prefixes}

    def test_exact_boundary_violates_at_its_row(self):
        """100 rows of (a, A), then (a, B): the top-1 mass stays 100, and
        support 125 reads exactly 0.8 (must hold) while 126 must set the
        cell at that very row, though the scan at support 117 certified
        confidence up to 125."""
        lhs = [7] * 140
        rhs = [1] * 100 + [2] * 40
        cells = self.check(
            ImplicationConditions(min_support=1, top_c=1, min_top_confidence=0.8),
            lhs, rhs, prefixes=[100, 125, 126], cuts=[[113], [60, 120]],
            fringe_size=None,
        )
        assert len(cells[125]) == 1 and not cells[126]

    def test_theta_one_never_extends(self):
        """At theta = 1.0 the horizon is the support itself, so every row
        scans; the first foreign partner violates at its own row."""
        lhs = [7] * 80
        rhs = [1] * 60 + [2] * 20
        cells = self.check(
            ImplicationConditions(min_support=1, top_c=1, min_top_confidence=1.0),
            lhs, rhs, prefixes=[60, 61], cuts=[[30]], fringe_size=None,
        )
        assert len(cells[60]) == 1 and not cells[61]

    @pytest.mark.parametrize("theta", [1e-12, 5e-324])
    def test_tiny_theta_horizon_is_capped(self, theta):
        """``M / theta`` lies beyond any support (and is inf for the
        subnormal theta): the horizon is capped before it becomes an
        integer, and 200k rows of one itemset never violate."""
        rows = 200_000
        lhs = np.full(rows, 7, dtype=np.uint64)
        rhs = np.arange(rows, dtype=np.uint64) % np.uint64(3)
        cells = self.check(
            ImplicationConditions(
                min_support=1, top_c=1, min_top_confidence=theta
            ),
            lhs, rhs, prefixes=[rows], cuts=[[65_537]], fringe_size=None,
        )
        assert len(cells[rows]) == 1

    def test_top2_mass_across_more_partners_than_c(self):
        """c = 2: 40 rows each of A and B (pcount <= c, mass = support),
        then alternating C and D (pcount > c, the top-2 selection) hold
        the mass at 80, so support 107 (80/107 < 0.75) must violate."""
        lhs = [7] * 140
        rhs = [1, 2] * 40 + [3, 4] * 30
        cells = self.check(
            ImplicationConditions(min_support=1, top_c=2, min_top_confidence=0.75),
            lhs, rhs, prefixes=[80, 106, 107], cuts=[[90], [53, 99]],
            fringe_size=None,
        )
        assert len(cells[106]) == 1 and not cells[107]

    def test_extra_partner_latches_inside_a_certified_run(self):
        """K = 2: the scan at support 31 certifies confidence up to 62, but
        the third distinct partner at row 42 is a multiplicity violation
        and must set the cell at once, not when the certificate expires."""
        lhs = [7] * 70
        rhs = [1] * 40 + [2, 3] + [1] * 28
        cells = self.check(
            ImplicationConditions(
                max_multiplicity=2, min_support=1, top_c=1,
                min_top_confidence=0.5,
            ),
            lhs, rhs, prefixes=[41, 42], cuts=[[35], [20, 38]],
            fringe_size=None,
        )
        assert len(cells[41]) == 1 and not cells[42]


@needs_compiled
class TestPolynomialKernel:
    def test_matches_numpy_path(self, monkeypatch):
        hash_function = HashFamily("polynomial", seed=17).one()
        values = (
            np.arange(1, 5000, dtype=np.uint64)
            * np.uint64(0x9E3779B97F4A7C15)
        )
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        compiled_out = hash_function.hash_array(values)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
        numpy_out = hash_function.hash_array(values)
        assert np.array_equal(compiled_out, numpy_out)

    def test_matches_scalar_mix(self):
        hash_function = HashFamily("polynomial", seed=23).one()
        values = np.array([0, 1, 2**61 - 2, 2**61 - 1, 2**64 - 1], dtype=np.uint64)
        hashed = hash_function.hash_array(values)
        for value, output in zip(values.tolist(), hashed.tolist()):
            assert hash_function.mix(value) == output


class TestDtypeCoercion:
    """The ``hash_array`` dtype-width contract (satellite fix)."""

    def test_narrow_ints_upcast_like_scalar(self):
        hash_function = HashFamily("splitmix", seed=5).one()
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64, np.int32):
            values = np.array([0, 1, 100, 126], dtype=dtype)
            hashed = hash_function.hash_array(values)
            expected = [hash_function.mix(int(v) & (2**64 - 1)) for v in values.tolist()]
            assert hashed.tolist() == expected, dtype

    def test_negative_ints_match_scalar_wrap(self):
        hash_function = HashFamily("splitmix", seed=5).one()
        values = np.array([-1, -1000], dtype=np.int32)
        hashed = hash_function.hash_array(values)
        expected = [hash_function(-1), hash_function(-1000)]
        assert hashed.tolist() == expected

    @pytest.mark.parametrize("family", ["splitmix", "polynomial", "tabulation"])
    def test_float_input_rejected(self, family):
        hash_function = HashFamily(family, seed=5).one()
        with pytest.raises(TypeError, match="encode_items"):
            hash_function.hash_array(np.array([1.5, 2.0]))

    def test_bool_input_rejected(self):
        hash_function = HashFamily("splitmix", seed=5).one()
        with pytest.raises(TypeError, match="encode_items"):
            hash_function.hash_array(np.array([True, False]))

    def test_update_batch_rejects_floats(self):
        estimator = ImplicationCountEstimator(ImplicationConditions())
        with pytest.raises(TypeError, match="encode_items"):
            estimator.update_batch(
                np.array([1.0, 2.0]), np.array([1, 2], dtype=np.uint64)
            )

    def test_coerce_passthrough_is_zero_copy(self):
        values = np.array([1, 2, 3], dtype=np.uint64)
        assert coerce_encoded(values) is values


class TestBenchArtifactSchema:
    """Schema v2 (entries + host metadata) with the v1 reader shim."""

    def test_host_metadata_shape(self):
        host = bench_host_metadata()
        assert host["cores"] >= 1
        assert len(host["hostname_sha256"]) == 16
        assert host["kernel_backend"] in ("python", "compiled")
        assert host["timestamp"].endswith("Z")

    def test_write_then_read_round_trip(self, tmp_path):
        target = tmp_path / "bench.json"
        entries = {"batch": 123.0, "scalar": 45.0}
        payload = write_throughput_artifact(target, entries, "python")
        loaded = read_throughput_artifact(target)
        assert loaded == payload
        assert loaded["schema"] == 2
        assert loaded["entries"] == entries
        assert loaded["host"]["kernel_backend"] == "python"

    def test_v1_flat_artifact_shim(self, tmp_path):
        target = tmp_path / "bench.json"
        target.write_text('{"scalar": 674431.2, "batch": 3021510.4}\n')
        loaded = read_throughput_artifact(target)
        assert loaded["schema"] == 1
        assert loaded["host"] == {}
        assert loaded["entries"]["scalar"] == 674431.2

    def test_malformed_artifact_rejected(self, tmp_path):
        target = tmp_path / "bench.json"
        target.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="malformed"):
            read_throughput_artifact(target)


@needs_compiled
class TestBuildCache:
    def test_source_digest_keys_cache(self):
        digest = compiled_module._source_digest()
        assert len(digest) == 64
        cache = compiled_module._cache_dir() / digest[:16] / "repro_kernels.so"
        assert cache.exists()

    def test_engine_rejects_absurd_geometry(self):
        """The C engine refuses geometry outside its guards; the caller
        falls back to python rather than crashing."""
        lib = compiled_module.load_library()
        assert not lib.repro_engine_new(0, 64, 6, 4, 2, 1, -1, -1, 1, 0.0)
        assert not lib.repro_engine_new(8, 65, 3, 4, 2, 1, -1, -1, 1, 0.0)
        assert not lib.repro_engine_new(8, 64, 3, 4, 0, 1, -1, -1, 1, 0.0)
