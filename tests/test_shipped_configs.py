"""Every config the repository ships passes the config check: the files in
configs/ and the benchmark's workload configs, full and small.  The
benchmark's spectral workload also runs, and its summary passes the
benchmark's output check against the reference captured for it."""

import importlib.util
import json
from pathlib import Path

import pytest

from oscillab.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _workloads():
    spec = importlib.util.spec_from_file_location("oscbench_workloads", ROOT / "oscbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_is_valid(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(ExperimentConfig.from_dict(doc).scenarios) == len(doc["scenarios"])


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
def test_benchmark_workload_configs_are_valid(small):
    workloads = _workloads()
    for w in workloads.WORKLOADS:
        doc = workloads.workload_config(w, 1, small=small)
        assert len(ExperimentConfig.from_dict(doc).scenarios) == len(doc["scenarios"])


def test_the_shipped_configs_are_found():
    # an empty glob would make test_shipped_config_is_valid pass vacuously
    assert {"full.json", "lacunary.json", "pipeline-large.json", "quick.json"} <= {p.name for p in CONFIGS}


def test_quick_is_a_part_of_full():
    # the reachability probe runs full.json only, so quick.json must not
    # reach anything full.json does not
    quick, full = (json.loads((ROOT / "configs" / name).read_text(encoding="utf-8")) for name in ("quick.json", "full.json"))
    in_full = full.pop("scenarios")
    assert [s for s in quick.pop("scenarios") if s not in in_full] == []
    # the top-level keys agree, and those that quick leaves out hold their defaults in full
    assert {k: full[k] for k in quick if k in full} == quick
    extra = set(full) - set(quick)
    assert {k: full[k] for k in extra} == {k: getattr(ExperimentConfig(), k) for k in extra}


def _check_module():
    spec = importlib.util.spec_from_file_location("oscbench_check", ROOT / "oscbench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectral_workload_matches_the_benchmark_reference(tmp_path):
    # the benchmark's own output check, at its captured seed and tolerances
    from oscillab.experiments import run

    reference = json.loads((ROOT / "oscbench" / "reference" / "spectral.json").read_text(encoding="utf-8"))
    config = _workloads().workload_config("spectral", reference["captured_with_seed"])
    run(config, out_dir=str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    attempted, bad = _check_module().compare(summary, config, reference)
    assert attempted == len(reference["values"]) > 1000
    assert bad == []
