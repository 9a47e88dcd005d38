"""The benchmark's tracer binds package names, argument names and
attributes (oscbench/tracing.py: _FUNCTIONS, _METHODS and their counters).
Run its small workloads under the tracer, so that deleting or renaming
anything it binds fails here and not only in the benchmark's own suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import oscillab

OSCBENCH = Path(__file__).resolve().parents[1] / "oscbench"

_PROBE = """
import json, sys
import oscillab.experiments as experiments
sys.path.insert(0, sys.argv[1])
import tracing
from workloads import WORKLOADS, workload_config

tracer = tracing.Tracer("t")
tracing.install(tracer)
counts = {}
for w in WORKLOADS:
    before, spans = dict(tracer.counts), len(tracer.spans)
    experiments.run(workload_config(w, 1, small=True), out_dir=f"{sys.argv[2]}/{w}")
    counts[w] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    counts[w]["scenario_spans"] = sum(s[0] == "experiments.scenario" for s in tracer.spans[spans:])
    counts[w]["scenarios"] = len(workload_config(w, 1, small=True)["scenarios"])
print(json.dumps(counts))
"""


def test_small_workloads_run_under_the_benchmark_tracer(tmp_path):
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(OSCBENCH), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert set(counts) == {"lacunary", "pipeline", "spectral"}
    every = ("oscillation.family_stats_calls", "grid.table_builds", "grid.ball_sum_calls", "family.balls")
    for w, c in counts.items():
        for name in every:
            assert c.get(name, 0) > 0, (w, name)
    for name in ("potential.rho_points", "potential.mass_evals"):
        assert counts["lacunary"][name] > 0 and counts["spectral"][name] > 0, name
    for name in ("approx.n_cubes", "approx.assigned_samples", "approx.adjacent_pairs"):
        assert counts["pipeline"][name] > 0, name
    for name in ("semigroup.discretize_calls", "semigroup.apply_calls", "tent.box_calls"):
        assert counts["spectral"][name] > 0, name
    # every prefix table is a SummedTable, the box scans' and the semigroup
    # oscillation's too, so the spectral tables outnumber its family scans
    assert counts["spectral"]["grid.table_builds"] > counts["spectral"]["oscillation.family_stats_calls"]
    # the family counters read the per-ball views centers and radii, which
    # the family builds from its blocks on read: a wrong view would move
    # these counts without any error
    families = {w: (c["family.balls"], c["family.distinct_centers"]) for w, c in counts.items()}
    assert families == {"lacunary": (3834, 511), "pipeline": (46048, 3581), "spectral": (141, 31)}
    # the tracer wraps the runners in experiments._SCENARIOS: a run that
    # stopped reading that table would only lose its glue time, silently
    spans = {w: (c["scenario_spans"], c["scenarios"]) for w, c in counts.items()}
    assert spans == {"lacunary": (1, 1), "pipeline": (3, 3), "spectral": (6, 6)}
