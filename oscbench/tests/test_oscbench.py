"""Self-test of the benchmark on shrunken copies of its workloads.

    python3 -m pytest oscbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PRIMARY_LAYERS, WORKLOADS, workload_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", params=WORKLOADS)
def reports(request):
    w = request.param
    return w, run.measure(w, 3, 0.1, False, small=True), run.measure(w, 3, 0.1, True, small=True)


def test_end_to_end_metrics_emitted_with_units(reports):
    w, plain, _ = reports
    assert plain["failures"] == []
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert plain["setup_samples"] == run.SETUP_PROBES + plain["runs"]


def test_traced_run_reports_every_layer_metric(reports):
    w, _, traced = reports
    # includes the check that traced and untraced summary.json are identical
    assert traced["failures"] == []
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")


def test_primary_layers_record_spans(reports):
    w, _, traced = reports
    shares = traced["layer_shares"]
    for layer in PRIMARY_LAYERS[w] + ("serialize", "experiments"):
        assert shares[layer] > 0, layer
    if w != "lacunary":  # the lacunary sum is built without the corpus
        assert shares["corpus"] > 0


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_compare_flags_mismatches_and_skips_excluded_leaves():
    config = workload_config("spectral", 1)
    summary = {"scenarios": {
        "rho-slope-n1-supercritical": {"slope": 0.25, "expected": 0.25},
        "reproducing-pairing": {"right": "bump-wide", "rel_error": 1e-3, "support_ok": True},
        "bmo-norms": {"verdicts": {"small-radius": {"verdict": "VANISHING"}}, "n": 3},
    }}
    ref = {"rtol": 1e-6, "atol": 0.0, "values": check.leaves(summary, config)}
    assert "rho-slope-n1-supercritical/slope" not in ref["values"]
    assert "reproducing-pairing/right" not in ref["values"]
    assert check.compare(summary, config, ref) == (5, [])

    summary["scenarios"]["rho-slope-n1-supercritical"]["slope"] = 0.7
    summary["scenarios"]["reproducing-pairing"]["right"] = "gaussian"
    summary["scenarios"]["reproducing-pairing"]["rel_error"] = 1e-3 * (1 + 1e-7)
    assert check.compare(summary, config, ref)[1] == []

    summary["scenarios"]["bmo-norms"]["verdicts"]["small-radius"]["verdict"] = "INCONCLUSIVE"
    summary["scenarios"]["reproducing-pairing"]["support_ok"] = 1
    summary["scenarios"]["reproducing-pairing"]["rel_error"] = 2e-3
    del summary["scenarios"]["bmo-norms"]["n"]
    assert len(check.compare(summary, config, ref)[1]) == 4


def test_references_cover_every_workload():
    for w in WORKLOADS:
        ref = run.load_reference(w)
        assert ref["values"] and ref["rtol"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "lacunary", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
