"""Every config the repository ships passes the config check: the files in
configs/ and the benchmark's workload configs, full and small.  No
scenario runs."""

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
