"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

Outside the tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It runs every workload once, traced, at quick sizes (about 40 s on a
2-core host) and checks that the metric names and units match
``BENCHMARK.json``, that every correctness gate passes, and that the
gates fail on tampered evidence.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "records.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1",
         "--seed", "3", "--trace", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {record["workload"]: record for record in json.loads(out.read_text())}, last


def test_metric_names_and_units_match_benchmark_json(quick_run):
    records, last = quick_run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.LAYER_UNITS
    assert set(records) == set(run.WORKLOADS)
    for record in records.values():
        assert {k: v["unit"] for k, v in record["metrics"].items()} == e2e
        assert {k: v["unit"] for k, v in record["per_layer"].items()} == layers
        assert all(v["value"] > 0 for v in record["metrics"].values())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert len(last["metrics"]) == len(run.WORKLOADS) * len(layers)


def test_every_gate_passes(quick_run):
    records, last = quick_run
    assert last["correct"] and last["failed"] == 0
    for workload, record in records.items():
        assert record["correct"], (workload, record["gates"])
        assert record["failed"] == 0


def test_tampered_expected_digest_fails(quick_run):
    records, _ = quick_run
    for workload in ("push-5p", "push-1p", "mixed"):
        evidence = records[workload]["evidence"]
        assert gates.digests_match(evidence["served"], evidence["expected"]) == []
        profile = next(iter(evidence["expected"]))
        tampered = dict(evidence["expected"], **{profile: "0" * 64})
        assert gates.digests_match(evidence["served"], tampered)
    observations = records["mixed"]["evidence"]["observations"]
    profile, cursor, digest = observations[-1]
    assert gates.one_digest_per_cursor(observations + [[profile, cursor, "f" * 64]])


def test_perturbed_bulk_truth_fails(quick_run):
    records, _ = quick_run
    for workload in ("bulk-zone1", "bulk-fringe"):
        for part in records[workload]["evidence"]:
            truth = part["truth"]
            perturbed = dict(truth, implication=truth["implication"] * 3 + 1000)
            assert gates.within_envelope(part["readout"], truth, 64) == []
            assert gates.within_envelope(part["readout"], perturbed, 64)
            assert gates.passes_identical(part["digests"]) == []
            assert gates.passes_identical(part["digests"] + ["0" * 64])


def test_pinned_input_hashes():
    for stream in (gen.dataset_one(0), gen.fringe_stream(0)):
        assert stream.sha256() == gen.PINNED_SHA256[stream.label]


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "push-1p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
