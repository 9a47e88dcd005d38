import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import oscillab
from oscillab.corpus import CORPUS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_corpus_norms_script_prints_every_member():
    proc = _run_script("corpus_norms.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["member", "bmo", "bmo_l", "size", "tilde", "tent", "ratio"]
    assert [r.split()[0] for r in rows] == [m.name for m in CORPUS]


def test_lacunary_modes_script_small_prints_every_mode():
    proc = _run_script("lacunary_modes.py", "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    heads = [ln.split(":")[0] for ln in lines if not ln.startswith(" ")]
    assert heads[:3] == ["far-and-supercritical", "far-from-origin", "small-radius"]
    assert lines[-1].startswith("far floor ") and lines[-1].endswith(" balls total")


def test_lacunary_modes_script_prints_missing_trend_as_na(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("lacunary_modes", SCRIPTS / "lacunary_modes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    exp = script.exp_lacunary
    monkeypatch.setattr(script, "exp_lacunary", lambda *a, **kw: replace(exp(*a, **kw), trend_exponent=None))
    monkeypatch.setattr(sys, "argv", ["lacunary_modes.py", "--small"])
    script.main()
    assert "trend exponent n/a," in capsys.readouterr().out.splitlines()[-1]


def test_pipeline_demo_script_reports_a_member():
    proc = _run_script("pipeline_demo.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("bump-narrow: MEMBER")
    assert lines[-1].lstrip().startswith("budgets:")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--osc-fraction", "0", "'osc_fraction' must be a positive finite number"),
        ("--spacing", "0.3", "'halfwidth' and 'spacing'"),
    ],
    ids=["osc-fraction-0", "spacing-0.3"],
)
def test_pipeline_demo_script_rejects_a_bad_flag_as_the_cli_does(flag, value, message):
    # the flags are checked as an approximation-pipeline scenario: exit 2
    # with the config error, before anything runs
    proc = _run_script("pipeline_demo.py", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_rho_asymptotics_script_fits_every_integrable_exponent():
    proc = _run_script("rho_asymptotics.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["n", "exponent", "fitted", "expected", "rel", "err"]
    assert len(rows) == 12
    # exponents at or below 2 - n are not locally integrable in dimension n
    skipped = [r.split()[:2] for r in rows if r.split()[-1] == "skipped"]
    assert skipped == [["1", "0.500"], ["1", "1.000"]]
    for r in rows:
        _, a, fitted, *rest = r.split()
        if rest[-1] != "skipped":
            assert abs(float(fitted) - (1.0 - float(a) / 2.0)) < 0.01


def test_bundle_digests_script_lists_and_compares_the_quick_bundle(tmp_path):
    import json

    from oscillab.experiments import run

    config = SCRIPTS.parent / "configs" / "quick.json"
    proc = _run_script("bundle_digests.py", str(config))
    assert proc.returncode == 0, proc.stderr
    lines = [ln.split("  ") for ln in proc.stdout.strip().splitlines()]
    assert [name for _, name in lines] == sorted(name for _, name in lines)
    assert "summary.json" in [name for _, name in lines]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in lines)
    # the config's bundle, run here, has the same digests; one changed byte shows
    bundle = tmp_path / "quick"
    run(json.loads(config.read_text()), out_dir=str(bundle))
    same = _run_script("bundle_digests.py", str(config), str(bundle))
    assert same.returncode == 0 and same.stdout.strip() == f"identical: {len(lines)} files", same.stdout
    (bundle / "summary.json").write_text((bundle / "summary.json").read_text() + " ")
    (bundle / "extra.csv").write_text("x\n")
    differ = _run_script("bundle_digests.py", str(bundle), str(config))
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == ["only in A  extra.csv", "differs  summary.json"]


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS.parent / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundle_digests_script_digests_a_benchmark_workload(tmp_path):
    # --workload runs the config oscbench/workloads.py writes: the digests
    # of the shrunken pipeline workload's config equal those of its bundle
    # run here, and the full pipeline workload runs from the command line
    script = _load_script("scripts/bundle_digests.py")
    workloads = _load_script("oscbench/workloads.py")
    from oscillab.experiments import run

    assert script.workload_config("pipeline", 7) == workloads.workload_config("pipeline", 7)
    config = workloads.workload_config("pipeline", 7, small=True)
    assert {s["id"] for s in config["scenarios"]} == {"approximation-pipeline", "averaging-pipeline"}
    bundle = tmp_path / "pipeline"
    run(config, out_dir=str(bundle))
    got = script.run_digests(config, "pipeline")
    assert got == script.digests(bundle) and "averaging-pipeline/assignment.csv" in got
    proc = _run_script("bundle_digests.py", "--workload", "pipeline", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    names = [line.split("  ")[1] for line in proc.stdout.strip().splitlines()]
    assert names == sorted(got)  # the same scenarios at the full geometry
    for argv in (["--workload", "pipeline"], ["--workload", "pipeline", "--seed", "7", str(bundle)],
                 ["--seed", "7", str(bundle)], ["--workload", "nope", "--seed", "7"]):
        assert _run_script("bundle_digests.py", *argv).returncode == 2, argv

def test_bundle_digests_compare_prints_each_changed_json_leaf(tmp_path, monkeypatch, capsys):
    # under a JSON file that differs, one line per changed leaf with both
    # values and, for two numbers, the relative change; a leaf on one side
    # reads absent, and a differing non-JSON file prints no leaves
    script = _load_script("scripts/bundle_digests.py")
    a, b = tmp_path / "a", tmp_path / "b"
    docs = (
        {"s": {"slope": -0.25283274836016884, "n": 8, "ok": True, "tag": "VANISHING"}, "xs": [1.0, 2.0], "z": 0, "e": {}},
        {"s": {"slope": -0.2528327483601687, "n": 9, "ok": 1, "tag": "NONVANISHING"}, "xs": [1.0], "z": 0.5, "e": {}},
    )
    for root, doc, csv in ((a, docs[0], "x\n1\n"), (b, docs[1], "x\n2\n")):
        (root / "scen").mkdir(parents=True)
        (root / "scen" / "summary.json").write_text(json.dumps(doc, indent=1))
        (root / "scen" / "rows.csv").write_text(csv)
        (root / "same.json").write_text("{}")
    monkeypatch.setattr(sys, "argv", ["bundle_digests.py", str(a), str(b)])
    assert script.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs  scen/rows.csv",
        "differs  scen/summary.json",
        "  /s/slope  -0.25283274836016884  -0.2528327483601687  rel +4.39e-16",
        "  /s/n  8  9  rel +0.125",
        "  /s/ok  True  1",
        "  /s/tag  'VANISHING'  'NONVANISHING'",
        "  /xs/1  2.0  absent",
        "  /z  0  0.5",
    ]
    assert script.compare(a, a) == 0 and capsys.readouterr().out == "identical: 3 files\n"


def test_bundle_digests_shipped_lists_every_config_and_workload(monkeypatch, capsys):
    # --shipped digests each configs/*.json and each workload at seed 1 in
    # one listing, every path under its bundle's label; run_digests is
    # stubbed, so no bundle is run
    script = _load_script("scripts/bundle_digests.py")
    seen = {}

    def stub(config, label):
        seen[label] = config
        return {"summary.json": label.ljust(64, "0"), "a/b.csv": "f" * 64}

    monkeypatch.setattr(script, "run_digests", stub)
    monkeypatch.setattr(sys, "argv", ["bundle_digests.py", "--shipped"])
    assert script.main() == 0
    configs = [p.stem for p in sorted((SCRIPTS.parent / "configs").glob("*.json"))]
    workloads = ["workload-lacunary", "workload-pipeline", "workload-spectral"]
    assert list(seen) == configs + workloads and {"quick", "full", "lacunary-wide"} <= set(configs)
    for name in ("lacunary", "pipeline", "spectral"):
        assert seen[f"workload-{name}"] == script.workload_config(name, 1)
    assert seen["quick"] == json.loads((SCRIPTS.parent / "configs" / "quick.json").read_text())
    lines = [ln.split("  ") for ln in capsys.readouterr().out.splitlines()]
    assert [name for _, name in lines] == [f"{label}/{f}" for label in seen for f in ("summary.json", "a/b.csv")]
    assert all(d == "f" * 64 or d == name.split("/")[0].ljust(64, "0") for d, name in lines)
    for argv in (["--shipped", "--seed", "1"], ["--shipped", "--workload", "pipeline"], ["--shipped", "configs/quick.json"]):
        monkeypatch.setattr(sys, "argv", ["bundle_digests.py", *argv])
        with pytest.raises(SystemExit, match="2"):
            script.main()
