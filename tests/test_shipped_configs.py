"""Every config the repository ships passes the config check and builds
its plans: the files in configs/ and the benchmark's workload configs,
full and small.  A run builds each grid's family and operator once and
only reads them.  The benchmark's spectral workload also runs, and its
summary passes the benchmark's output check against the reference
captured for it."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oscillab.experiments import ExperimentConfig, plan_scenarios, run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _workloads():
    spec = importlib.util.spec_from_file_location("oscbench_workloads", ROOT / "oscbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the config check and every scenario's grid, family, operator and ladder,
# with nothing run


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_is_valid(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(plan_scenarios(doc)) == len(doc["scenarios"])


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
def test_benchmark_workload_configs_are_valid(small):
    workloads = _workloads()
    for w in workloads.WORKLOADS:
        doc = workloads.workload_config(w, 1, small=small)
        assert len(plan_scenarios(doc)) == len(doc["scenarios"])


@pytest.fixture
def builds(monkeypatch):
    """Calls of make_ball_family and discretize, under the names the package
    calls them by; each family and operator comes back read-only, so a
    write into a shared one raises."""
    from oscillab import corpus, experiments

    counts = Counter()

    def frozen(key, build):
        def counting(*args, **kwargs):
            counts[key] += 1
            out = build(*args, **kwargs)
            for value in vars(out).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            return out

        return counting

    monkeypatch.setattr(experiments, "make_ball_family", frozen("families", experiments.make_ball_family))
    monkeypatch.setattr(corpus, "discretize", frozen("operators", corpus.discretize))
    return counts


@pytest.mark.parametrize(
    "workload, small, families, operators",
    [("spectral", False, 1, 1), ("pipeline", False, 2, 0), ("lacunary", True, 1, 0), ("spectral", True, 1, 1)],
    ids=["spectral", "pipeline", "lacunary-small", "spectral-small"],
)
def test_a_run_builds_each_geometry_once_and_only_reads_it(workload, small, families, operators, builds, tmp_path):
    # spectral's eleven scenarios all sample the corpus grid; pipeline's two
    # approximation scenarios share one family
    run(_workloads().workload_config(workload, 1, small=small), out_dir=str(tmp_path))
    assert (builds["families"], builds["operators"]) == (families, operators)


def test_full_config_plans_four_families_and_one_operator(builds):
    # lacunary, the corpus grid's, pipeline-small's and averaging-pipeline's
    plan_scenarios(json.loads((ROOT / "configs" / "full.json").read_text(encoding="utf-8")))
    assert (builds["families"], builds["operators"]) == (4, 1)


def test_only_the_plan_builds_a_scenarios_geometry():
    # so the plan counts above are a whole run's
    from oscillab import experiments, reports

    builders = {"Grid", "make_ball_family", "corpus_operator", "discretize"}
    steps = [v for m in (reports, experiments) for k, v in vars(m).items()
             if (k.startswith(("exp_", "_run_")) or k == "_average_member") and v.__module__ == m.__name__]
    assert len(steps) > 10
    for fn in steps:
        assert not builders & set(fn.__code__.co_names), fn.__name__


def test_the_shipped_configs_are_found():
    # an empty glob would make test_shipped_config_is_valid pass vacuously
    assert {"full.json", "lacunary.json", "lacunary-wide.json", "pipeline-large.json", "quick.json"} <= {
        p.name for p in CONFIGS}


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
