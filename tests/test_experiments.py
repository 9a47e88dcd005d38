import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscillab
from oscillab import __version__
from oscillab.cli import _build_parser, _scenario_from_args, main
from oscillab.corpus import member_by_name
from oscillab.errors import ConfigError, CriterionFailure
from oscillab.experiments import _SCENARIO_TABLE, _SCENARIOS, ExperimentConfig, _arg_sup_ball, plan_scenarios, run
from oscillab.reports import (
    RHO_CONSTANT_UNIT,
    RHO_SLOPE_X_MAX,
    RHO_SLOPE_X_MIN,
    _bump_window,
    exp_extension_agreement,
    exp_lacunary,
    exp_pipeline,
    exp_rho_slope,
    exp_square_membership,
    lacunary_function,
    lacunary_k_max,
    line_slope,
)
from oscillab.family import BallFamily, FamilyPolicy, make_ball_family, supercritical_spans
from oscillab.grid import Ball, Grid, GridFunction, oscillation_of
from oscillab.oscillation import bmo_l_norm, family_stats
from oscillab.potential import _gauss_legendre, constant_potential, power_potential, solve_critical_radius
from oscillab.semigroup import DEFAULT_OP_CAP, discretize
import oracles
from oracles import dense_bmo_l_norm, dense_bucketed_sup, dense_values, mean_oscillation, rho_at_symmetric_centers, supercritical_mask


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _plan(**scenario):
    """The plan run() builds for one scenario."""
    (plan,) = plan_scenarios({"scenarios": [scenario]})
    return plan


# the cut-down geometry of scripts/lacunary_modes.py --small
_SMALL_LACUNARY = {"k_max": 6, "halfwidth": 1024.0, "spacing": 2.0**-6, "stride": 0.5, "radius_max": 512.0,
                   "distance_max": 512.0}


def _small_lacunary():
    plan = _plan(id="lacunary-separation", **_SMALL_LACUNARY)
    return exp_lacunary(plan.family, plan.params["k_max"])


def _pipeline_family(**geometry):
    """The family of an approximation-pipeline scenario of this geometry."""
    return _plan(id="approximation-pipeline", **geometry).family


SCENARIO_IDS = (
    "rho-slope",
    "lacunary-separation",
    "square-function-agreement",
    "extension-agreement",
    "approximation-pipeline",
    "bmo-norms",
    "tent-norms",
    "reproducing-pairing",
    "averaging-pipeline",
)


# ---------------------------------------------------------------------------
# lacunary construction


def test_lacunary_function_places_unit_bumps():
    g = Grid(halfwidth=8.0, spacing=2.0**-4)
    f = lacunary_function(g, k_max=1)
    h = g.spacing
    assert f.values.sum() * h == pytest.approx(1.0, abs=1e-9)
    win, koff = _bump_window(h)
    assert win.sum() * h == pytest.approx(1.0, abs=1e-9)
    i3 = int(g.coord_to_index(3.0))
    assert np.array_equal(f.values[i3 + koff], win)  # same sampled kernel
    assert f.values[g.half_cells] == 0.0
    assert int(np.argmax(f.values)) == i3
    # the window is the samples of B(0, 1), so the floor reference taken
    # from it is the single bump's oscillation over that ball, bit for bit
    phi = np.zeros(g.size)
    phi[g.half_cells + koff] = win
    assert oscillation_of(win) == mean_oscillation(GridFunction(g, phi), Ball((0.0,), 1.0))


def test_lacunary_function_validation():
    g = Grid(halfwidth=8.0, spacing=2.0**-4)
    with pytest.raises(ConfigError):
        lacunary_function(g, 0)
    with pytest.raises(ConfigError):
        lacunary_function(g, 2)  # outermost bump at 9 does not fit


def test_lacunary_k_max_is_the_last_bump_that_fits():
    # 3^k + 1 + 1 <= X, at equality for 5 and 11; the shipped boxes 2^14,
    # 2^18 and 2^26 hold 8, 11 and 16
    assert [lacunary_k_max(X) for X in (4.0, 5.0, 11.0, 2.0**14, 2.0**18, 2.0**26)] == [0, 1, 2, 8, 11, 16]


@pytest.mark.parametrize("e", range(14, 21))
def test_lacunary_separation_holds_as_the_box_grows(e, tmp_path):
    # with k_max left to its default, the last bump that fits, the three
    # verdicts and the far floor hold at every box, radius and distance
    # maxima X/4; a k_max fixed at 8 lost the far-from-origin verdict and
    # the floor (0.0000) from 2^15 on, once the ladder passed 3^8
    X = 2.0**e
    scenario = {"id": "lacunary-separation", "halfwidth": X, "radius_max": X / 4, "distance_max": X / 4}
    rep = run({"scenarios": [scenario]}, out_dir=str(tmp_path))["scenarios"]["lacunary-separation"]
    assert rep["k_max"] == lacunary_k_max(X)
    assert {mode: v["verdict"] for mode, v in rep["verdicts"].items()} == _SCENARIO_TABLE["lacunary-separation"].expected
    assert rep["floor_ok"] and rep["floor"] >= rep["floor_required"] > 0


@pytest.mark.parametrize("scenario", [
    {"id": "lacunary-separation", "k_max": 7},
    # the benchmark self-test's box, whose run asserts no verdict
    {"id": "lacunary-separation", "k_max": 3, "halfwidth": 128.0, "spacing": 0.0625, "stride": 0.5,
     "radius_max": 32.0, "distance_max": 32.0},
], ids=["default-box-k_max-7", "small-box-k_max-3"])
def test_asserted_lacunary_verdicts_need_the_distance_ladder_inside_the_bumps(scenario, tmp_path, capsys):
    # the bumps up to 3^k_max, fewer than the box holds, with the distance
    # ladder past the last one: the function scanned lies in CMO_L, so its
    # far-from-origin limit is 0 and the asserted NONVANISHING would be wrong
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [scenario]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: scenario 'lacunary-separation': 'k_max' and 'distance_max': " in err
    assert f"3^k_max = {3 ** scenario['k_max']}" in err
    assert not (tmp_path / "o").exists()
    # unasserted, any k_max whose bump fits the box plans
    (plan,) = plan_scenarios({"scenarios": [{**scenario, "assert_verdicts": False}]})
    assert plan.params["k_max"] == scenario["k_max"]


# ---------------------------------------------------------------------------
# critical-radius slope


def test_rho_slope_constant_potential_is_flat():
    rep = exp_rho_slope(constant_potential(4.0, 1), points=6)
    assert rep.expected == 0.0
    assert abs(rep.slope) < 1e-6
    assert not rep.small_range_warning


def test_rho_slope_power_potential_matches_asymptote():
    rep = exp_rho_slope(power_potential(1.5, 1), points=8)
    assert rep.expected == pytest.approx(0.25)
    assert abs(rep.slope - 0.25) < 0.0125
    assert rep.potential_kind == "power"
    assert len(rep.x) == len(rep.rho) == 8


@st.composite
def _near_lines(draw):
    """2 to 24 ascending x, 0.01 to 4 apart from an offset in [-40, 40],
    and y = a + b x (|b| in [0.05, 4]) with each y moved by at most 5% of
    |b| times the x range, so the slope is well conditioned."""
    n = draw(st.integers(2, 24))
    gaps = draw(st.lists(st.floats(0.01, 4.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-40.0, 40.0)) + np.cumsum([0.0, *gaps])
    b = draw(st.floats(0.05, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
    moves = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n)))
    return x, draw(st.floats(-40.0, 40.0)) + b * x + abs(b) * (x[-1] - x[0]) * moves


@settings(max_examples=200)
@given(_near_lines())
def test_line_slope_is_within_4_ulp_of_the_exact_slope(data):
    # the least-squares slope of the same floats in exact rationals; the
    # uncentred closed form n sum xy - sum x sum y over n sum x^2 - (sum x)^2
    # loses its leading digits to cancellation once the mean of x is far from 0
    x, y = data
    X, Y = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    exact = sum((a - mx) * (b - my) for a, b in zip(X, Y)) / sum((a - mx) ** 2 for a in X)
    assert abs(Fraction(line_slope(x, y)) - exact) <= 4 * Fraction(math.ulp(float(exact)))


def test_rho_slope_and_lacunary_trend_fit_without_lapack(monkeypatch):
    # both fits are two-parameter lines: with numpy's least-squares solve
    # refused, and the LAPACK gufunc that it and np.polyfit call, the rho
    # slope and the small geometry's trend exponent are still reported
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK least-squares solve ran")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg._umath_linalg, "lstsq", refuse)
    rep = exp_rho_slope(power_potential(1.5, 1), points=8)
    assert rep.slope == line_slope(np.log(np.array(rep.x)), np.log(np.array(rep.rho)))
    rep = _small_lacunary()
    fs = rep.curves["far-and-supercritical"]
    m = fs.present & (fs.ladder >= 16.0) & (fs.values > 0)
    assert np.count_nonzero(m) >= 3
    assert rep.trend_exponent == line_slope(np.log(fs.ladder[m]), np.log(fs.values[m]))


def test_radial_rho_slope_builds_its_quadrature_without_an_eigensolve(monkeypatch, tmp_path):
    # the n = 3 masses integrate with the 128-point Gauss-Legendre rule; with
    # numpy's symmetric eigensolve refused, and the LAPACK gufuncs that it
    # calls, the rule is built afresh and the scenario's checks still pass
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg._umath_linalg, "eigvalsh_lo", refuse)
    monkeypatch.setattr(np.linalg._umath_linalg, "eigvalsh_up", refuse)
    _gauss_legendre.cache_clear()
    scenario = {"id": "rho-slope", "name": "n3", "n": 3, "exponent": 0.5}
    summary = run({"scenarios": [scenario]}, out_dir=str(tmp_path))
    assert summary["scenarios"]["n3"]["slope"] == pytest.approx(0.75, abs=1e-3)


def test_rho_slope_validation():
    V = power_potential(1.5, 1)
    with pytest.raises(ConfigError):
        exp_rho_slope(constant_potential(0.0, 1))
    with pytest.raises(ConfigError):
        exp_rho_slope(V, jitter=0.1)  # jitter needs the run's rng
    with pytest.raises(ConfigError):
        exp_rho_slope(V, x_min=0.0)
    with pytest.raises(ConfigError):
        exp_rho_slope(V, points=1)


def test_drawing_scenarios_read_one_stream_in_config_order(tmp_path):
    # the run's one generator, seeded from the config: each jittered
    # rho-slope takes the next draws, and a scenario that draws nothing
    # between them takes none
    seed, jitter = 11, 0.05
    scenarios = [
        {"id": "rho-slope", "name": "first", "n": 1, "exponent": 1.5, "jitter": jitter},
        {"id": "bmo-norms", "member": "gaussian", "halfwidth": 8.0, "spacing": 2.0**-5},
        {"id": "rho-slope", "name": "second", "n": 3, "exponent": 0.5, "jitter": jitter},
    ]
    run({"seed": seed, "scenarios": scenarios}, out_dir=str(tmp_path))
    rng = random.Random(seed)
    for name in ("first", "second"):
        base = np.geomspace(RHO_SLOPE_X_MIN, RHO_SLOPE_X_MAX, 24)
        want = base * np.exp([rng.uniform(-jitter, jitter) for _ in range(24)])
        rows = (tmp_path / name / "rho.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == want.tolist(), name


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults():
    cfg = ExperimentConfig.from_dict({"scenarios": [{"id": "rho-slope", "exponent": 1.5}]})
    assert cfg.seed == 0
    assert cfg.op_cap == DEFAULT_OP_CAP
    assert cfg.interior_window == pytest.approx(1.0 / 3.0)
    assert not hasattr(cfg, "threads")


def test_config_accepts_every_scenario_id():
    # rho-slope needs its potential, here the power one through its exponent
    doc = {"scenarios": [{"id": s, **({"exponent": 1.5} if s == "rho-slope" else {})} for s in SCENARIO_IDS]}
    cfg = ExperimentConfig.from_dict(doc)
    assert len(cfg.scenarios) == len(SCENARIO_IDS)


@pytest.mark.parametrize(
    "doc",
    [
        {"bogus": 1},
        {"scenarios": "rho-slope"},
        {"scenarios": [{"id": "nope"}]},
        {"scenarios": [{"id": "rho-slope", "exponent": 1.5}] * 2},  # same default name
        {"scenarios": [], "seed": "x"},
        {"scenarios": [], "op_cap": 1},
        {"scenarios": [], "interior_window": 0},
        {"scenarios": [], "interior_window": 1.5},
        {"scenarios": [], "threads": 0},
        # BLAS reads its pool size only when numpy loads, so no config sets it
        {"scenarios": [], "threads": 2},
        # a bool is not an integer or a number, and a number is not a path
        {"scenarios": [], "seed": True},
        {"scenarios": [], "seed": -1},
        {"scenarios": [], "interior_window": True},
        {"scenarios": [], "out_dir": 5},
        {"scenarios": [{"id": ["rho-slope"]}]},
        # an asserted member that the scenario does not run asserted nothing
        {"scenarios": [{"id": "extension-agreement", "members": ["zero"], "assert_members": ["gausian", "bump-narrow"],
                        "halfwidth": 8.0, "spacing": 0.0625}]},
        # a member name was looked up only when its scenario ran
        {"scenarios": [{"id": "rho-slope", "n": 1, "exponent": 1.5}, {"id": "bmo-norms", "member": "gausian"}]},
        {"scenarios": [{"id": "square-function-agreement", "members": ["zero"], "assert_members": ["bump-narrow"]}]},
    ],
)
def test_config_validation_errors(doc):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)


def test_every_scenario_has_a_parameter_table():
    # one record per id, and run() reads the runner that the record declares
    assert list(_SCENARIO_TABLE) == list(SCENARIO_IDS)
    for sid, spec in _SCENARIO_TABLE.items():
        assert spec.kinds and callable(spec.runner), sid
        assert _SCENARIOS[sid] is spec.runner, sid


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_plan_holds_what_the_scenario_declares(sid):
    # the plan of the declaration's defaults; rho-slope has no default potential
    spec = _SCENARIO_TABLE[sid]
    plan = _plan(id=sid, **({"exponent": 1.5} if sid == "rho-slope" else {}))
    assert (plan.grid is not None) == ("halfwidth" in spec.kinds)
    assert (plan.family is not None) == (spec.family is not None)
    assert (plan.op is not None) == spec.operator
    # the default t-ladder goes to a box scan only; bmo-norms has an operator and no ladder
    assert (plan.ladder is not None) == (spec.boxes or spec.ladder is not None)
    # the plan takes out every key it reads itself; the runner reads the rest
    assert not {"halfwidth", "spacing", "stride", "radius_max", "distance_max", "family"} & set(plan.params)


def test_config_holds_checked_parameters_and_table_defaults():
    cfg = ExperimentConfig.from_dict(
        {"scenarios": [{"id": "tent-norms", "halfwidth": 8, "exponents": [1, "inf"]}, {"id": "lacunary-separation"}]}
    )
    (_, _, tent), (_, _, lac) = cfg.scenarios
    assert tent == {"halfwidth": 8.0, "spacing": 2.0**-6, "member": "bump-narrow", "exponents": (1.0, math.inf)}
    assert type(tent["halfwidth"]) is float
    # the geometry keys and the runner's own one take the table's defaults;
    # forwarded keys take the exp_* defaults, so they are not filled in
    assert lac == {"k_max": 8, "assert_verdicts": True, "halfwidth": 16384.0, "spacing": 2.0**-8, "stride": 0.25,
                   "radius_max": 4096.0, "distance_max": 4096.0, "exponent": 1.05, "amplitude": 0.002}


def test_integer_values_of_number_parameters_give_the_same_bundle(tmp_path):
    grid = {"halfwidth": 8.0, "spacing": 0.0625}
    ints = {"halfwidth": 8, "spacing": 0.0625, "tol_fraction": 0, "decay_factor": 4}
    for label, params in (("float", {**grid, "tol_fraction": 0.0, "decay_factor": 4.0}), ("int", ints)):
        run({"scenarios": [{"id": "bmo-norms", "name": "b", "member": "gaussian", **params}]}, str(tmp_path / label))
    assert (tmp_path / "float" / "b" / "curves.csv").read_bytes() == (tmp_path / "int" / "b" / "curves.csv").read_bytes()
    a, b = (json.loads((tmp_path / d / "summary.json").read_text()) for d in ("float", "int"))
    assert a["scenarios"] == b["scenarios"]


# ---------------------------------------------------------------------------
# runner


def test_run_bundles_are_deterministic(tmp_path):
    doc = {
        "scenarios": [{"id": "rho-slope", "name": "slope", "exponent": 1.5, "points": 6}],
        "seed": 3,
    }
    s1 = run(doc, out_dir=str(tmp_path / "a"))
    run(doc, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()
    assert (tmp_path / "a" / "slope" / "rho.csv").read_bytes() == (tmp_path / "b" / "slope" / "rho.csv").read_bytes()

    prov = s1["provenance"]
    assert prov["seed"] == 3
    assert prov["package_version"] == __version__
    assert prov["prng_stream"] == "oscillab-run"
    assert len(prov["config_sha256"]) == 64
    assert s1["scenarios"]["slope"]["id"] == "rho-slope"
    assert s1["failures"] == []


def test_run_failure_still_writes_bundle(tmp_path):
    doc = {
        "scenarios": [
            {
                "id": "reproducing-pairing",
                "left": "bump-narrow",
                "right": "bump-narrow",
                "halfwidth": 8.0,
                "spacing": 0.0625,
                "tolerance": 0.0,  # only an exact pairing passes: forces the failure path
            }
        ]
    }
    with pytest.raises(CriterionFailure):
        run(doc, out_dir=str(tmp_path / "f"))
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert summary["failures"]
    (frag,) = summary["scenarios"].values()
    assert frag["rel_error"] >= 0.0


def test_pairing_reports_default_right_member(tmp_path):
    doc = {"scenarios": [{"id": "reproducing-pairing", "halfwidth": 8.0, "spacing": 0.0625}]}
    frag = run(doc, out_dir=str(tmp_path))["scenarios"]["reproducing-pairing"]
    assert frag["left"] == "gaussian"
    assert frag["right"] == "gaussian"
    explicit = dict(doc["scenarios"][0], right="gaussian")
    again = run({"scenarios": [explicit]}, out_dir=str(tmp_path / "x"))
    assert again["scenarios"]["reproducing-pairing"]["direct"] == frag["direct"]


def test_arg_sup_ball_without_supercritical_part(tmp_path):
    # every radius lies below rho = 2^-1/2, so the size part is absent and
    # the reported ball is the one attaining the oscillation part
    grid = Grid(halfwidth=8.0, spacing=0.0625)
    f = member_by_name("gaussian").build(grid)
    fam = make_ball_family(grid, FamilyPolicy(center_stride=0.5, radii=(0.125, 0.25)))
    split = bmo_l_norm(family_stats(f, fam), RHO_CONSTANT_UNIT)
    assert not split.size_present
    ball = _arg_sup_ball(fam, split)
    assert ball == fam.ball(split.oscillation_arg)
    assert mean_oscillation(f, ball) == pytest.approx(split.oscillation_part, rel=1e-9)
    # a bmo-norms scenario on this family finds the two supercritical
    # curves without buckets INCONCLUSIVE and reports the oscillation-arg ball
    doc = {"scenarios": [{"id": "bmo-norms", "member": "gaussian", "halfwidth": 8.0,
                          "spacing": 0.0625, "family": {"center_stride": 0.5, "radii": [0.125, 0.25, 0.5]}}]}
    res = run(doc, str(tmp_path))["scenarios"]["bmo-norms"]
    verdicts = res["verdicts"]
    for mode in ("large-and-supercritical", "far-and-supercritical"):
        assert (verdicts[mode]["verdict"], verdicts[mode]["n_present"]) == ("INCONCLUSIVE", 0)
    fam3 = make_ball_family(grid, FamilyPolicy(center_stride=0.5, radii=(0.125, 0.25, 0.5)))
    split3 = bmo_l_norm(family_stats(f, fam3), RHO_CONSTANT_UNIT)
    want = fam3.ball(split3.oscillation_arg)
    assert res["arg_sup_ball"] == {"center": list(want.center), "radius": want.radius}


# ---------------------------------------------------------------------------
# one family scan per (function, family)


@pytest.fixture
def family_scans(monkeypatch):
    """Families scanned by oscillation.family_stats, wherever it is called."""
    from oscillab import experiments, oscillation, reports

    scanned = []
    original = oscillation.family_stats

    def counting(f, family):
        scanned.append(family)
        return original(f, family)

    monkeypatch.setattr(oscillation, "family_stats", counting)
    # the experiments and the runners call it under the names their modules imported
    monkeypatch.setattr(reports, "family_stats", counting)
    monkeypatch.setattr(experiments, "family_stats", counting)
    return scanned


def test_lacunary_scans_its_family_once(family_scans):
    rep = _small_lacunary()
    assert len(family_scans) == 1
    assert len(family_scans[0]) == rep.n_balls


def test_lacunary_builds_only_its_reported_curves(monkeypatch):
    from oscillab import reports

    modes = []
    original = reports.bucketed_sup

    def counting(metric, mode, rho=None):
        modes.append(mode)
        return original(metric, mode, rho)

    monkeypatch.setattr(reports, "bucketed_sup", counting)
    rep = _small_lacunary()
    assert sorted(modes) == sorted(rep.curves) == ["far-and-supercritical", "far-from-origin", "small-radius"]


def test_lacunary_distinct_centers_match_unique():
    # the family of the --small geometry of scripts/lacunary_modes.py: its
    # lattice is the distinct centers of its balls, which critical_reach reads
    grid = Grid(halfwidth=1024.0, spacing=2.0**-6)
    fam = make_ball_family(
        grid,
        FamilyPolicy(center_stride=0.5, radius_min=4 * grid.spacing, radius_max=512.0, distance_max=512.0),
    )
    assert len(fam.blocks) > 1
    assert np.array_equal(grid.coords(fam.lattice), np.unique(fam.centers[:, 0]))


def test_lacunary_reads_no_per_ball_center_or_radius(monkeypatch):
    # the --small geometry with the family's per-ball views refused: every
    # scan, norm and curve of the run reads the radius blocks
    def refuse(self):
        raise AssertionError("a per-ball center or radius array was built")

    monkeypatch.setattr(BallFamily, "centers", property(refuse))
    monkeypatch.setattr(BallFamily, "radii", property(refuse))
    rep = _small_lacunary()
    assert rep.n_balls > 0 and set(rep.curves) == {"small-radius", "far-from-origin", "far-and-supercritical"}


def test_lacunary_reach_masks_are_the_solve_at_each_center(monkeypatch):
    # configs/lacunary.json's geometry, all 19 radius blocks: the reaches
    # handed to bmo_l_norm keep, in every block, exactly the balls with
    # r >= rho(center) for rho solved at each center, and the norm and the
    # far-and-supercritical curve are those of that per-center solve
    from oscillab import reports

    seen = {}
    original = reports.bmo_l_norm

    def capture(stats, rho):
        seen["stats"], seen["reach"] = stats, rho
        return original(stats, rho)

    monkeypatch.setattr(reports, "bmo_l_norm", capture)
    plan = _plan(**json.loads((CONFIGS / "lacunary.json").read_text())["scenarios"][0])
    fam = plan.family
    rep = exp_lacunary(fam, plan.params["k_max"])
    assert len(fam.blocks) == 19 and seen["stats"].family is fam

    rho = rho_at_symmetric_centers(power_potential(1.05, 1, amplitude=0.002), fam.grid.coords(fam.lattice))
    partial = 0
    for b, a, z in supercritical_spans(fam, seen["reach"]):
        keep = np.zeros(b.count, dtype=bool)
        keep[a - b.start : z - b.start] = True
        o = fam.lattice.index(b.run.start)
        assert np.array_equal(keep, b.radius >= rho[o : o + b.count]), b
        partial += bool(0 < z - a < b.count)
    assert partial >= 5
    mask = supercritical_mask(fam, rho)
    assert original(seen["stats"], seen["reach"]) == dense_bmo_l_norm(seen["stats"], mask)
    assert rep.norm == dense_bmo_l_norm(seen["stats"], mask).value
    want = dense_bucketed_sup(dense_values(seen["stats"].size), fam, "far-and-supercritical", mask)
    got = rep.curves["far-and-supercritical"]
    assert np.array_equal(got.values, want.values, equal_nan=True) and np.array_equal(got.counts, want.counts)


@pytest.mark.parametrize("V", [power_potential(1.05, 1, amplitude=0.002), constant_potential(1.0, 1)])
@pytest.mark.parametrize("xs", [np.arange(-65535, 65536) * 0.25, np.array([-1.5, -0.5, 0.5, 1.5]), np.array([0.0])])
def test_rho_mirror_solves_the_nonnegative_half_only(monkeypatch, V, xs):
    # the per-center oracle of the lacunary reaches
    solved = []
    original = oracles.solve_critical_radius

    def counting(V, points):
        solved.append(points.shape[0])
        return original(V, points)

    monkeypatch.setattr(oracles, "solve_critical_radius", counting)
    got = rho_at_symmetric_centers(V, xs)
    assert solved == [int(np.count_nonzero(xs >= 0))]
    assert np.array_equal(got, original(V, xs).values)


@pytest.mark.parametrize("xs", [[-1.0, 0.0, 2.0], [0.0, 1.0], [1.0, 0.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
def test_rho_mirror_refuses_centers_that_are_not_symmetric(xs):
    with pytest.raises(ConfigError, match="symmetric"):
        rho_at_symmetric_centers(power_potential(1.5, 1), np.array(xs))


@pytest.mark.parametrize(
    "scenario",
    [
        {"id": "bmo-norms", "member": "gaussian"},
        {"id": "square-function-agreement", "members": ["gaussian"]},
        {"id": "extension-agreement", "members": ["gaussian"]},
        # the agreement runners build one family for all their members
        {"id": "square-function-agreement", "name": "square-function-agreement-three-members",
         "members": ["zero", "gaussian", "bump-narrow"]},
    ],
    ids=lambda s: s.get("name", s["id"]),
)
def test_scenario_scans_each_family_once(family_scans, scenario, tmp_path, monkeypatch):
    from oscillab import experiments

    built = []
    original = experiments.make_ball_family

    def counting(grid, policy):
        built.append(policy)
        return original(grid, policy)

    monkeypatch.setattr(experiments, "make_ball_family", counting)
    run({"scenarios": [scenario]}, out_dir=str(tmp_path))
    assert len(built) == 1
    # one scan per member, all of the one family
    assert len(family_scans) == len(scenario.get("members", [scenario.get("member")]))
    assert all(fam is family_scans[0] for fam in family_scans)


# ---------------------------------------------------------------------------
# scenario smoke runs


def _agreement_setup(halfwidth=16.0, spacing=2.0**-4):
    """The operator, default family and t-ladder of an agreement scenario's grid."""
    plan = _plan(id="square-function-agreement", halfwidth=halfwidth, spacing=spacing)
    return plan.op, plan.family, plan.ladder


def test_membership_agreement_on_zero_function():
    rep = exp_square_membership("zero", *_agreement_setup())
    assert rep.bmo_l == 0.0
    assert rep.norm == 0.0
    assert rep.ratio is None
    assert rep.vanishing("gamma") and rep.vanishing("eta") and rep.agree
    assert rep.to_dict()["t2_inf"] == 0.0


def test_membership_rejects_foreign_operator():
    # f is sampled on the operator's grid, so a family on another grid fails
    # the scan before any field is built
    op = discretize(constant_potential(1.0, 1), Grid(halfwidth=4.0, spacing=0.25))
    _, fam, ladder = _agreement_setup()
    with pytest.raises(ConfigError, match="different grids"):
        exp_square_membership("zero", op, fam, ladder)


def test_extension_agreement_on_zero_function():
    rep = exp_extension_agreement("zero", *_agreement_setup())
    assert rep.bmo_l == 0.0
    assert rep.norm == 0.0
    assert rep.vanishing("beta") and rep.vanishing("gamma") and rep.agree
    assert rep.to_dict()["hmo"] == 0.0


def test_pipeline_reports_member_with_gate_and_distances():
    grid = Grid(halfwidth=256.0, spacing=2.0**-6)
    f = member_by_name("bump-narrow").build(grid)
    fam = make_ball_family(
        grid,
        FamilyPolicy(center_stride=2.0, radius_min=4 * grid.spacing, radius_max=128.0),
    )
    norm = bmo_l_norm(family_stats(f, fam), RHO_CONSTANT_UNIT).value
    rep = exp_pipeline(
        "bump-narrow",
        _pipeline_family(halfwidth=256.0, spacing=2.0**-6),
        eps_fraction=0.55 / norm,
        osc_fraction=0.25,
    )
    assert rep.eps == pytest.approx(0.55, rel=1e-12)
    assert rep.verdict == "MEMBER"
    assert rep.p1_ok and rep.p2_ok and rep.size_ratio_ok
    assert rep.distance_averaged <= rep.corpus_bound
    assert rep.distance_full <= rep.corpus_bound
    assert rep.t_eps >= 4 * grid.spacing
    assert rep.to_dict()["fine_exponent"] == rep.thresholds.fine_exponent


def test_pipeline_reports_constant_as_nonmember():
    rep = exp_pipeline(
        "const-one",
        _pipeline_family(halfwidth=256.0, spacing=2.0**-6),
        eps_fraction=0.1,
        osc_fraction=0.25,
    )
    assert rep.verdict == "NONMEMBER"
    assert rep.thresholds is None
    assert rep.distance_full is None
    assert "core" in rep.exhausted_condition
    assert "fine_exponent" not in rep.to_dict()


def test_pipeline_outer_cutoff_beyond_the_box_is_a_nonmember_verdict():
    # the scan's smallest outer cutoff here is M = a - 2 = 4, which leaves
    # no room for 2^(M+3) in the box; assign_cubes used to raise "box
    # halfwidth 64.0 below 2^(M+3) = 256.0" as a config error
    fam = _pipeline_family(halfwidth=64.0, spacing=2**-5, stride=0.5)
    rep = exp_pipeline("bump-narrow", fam, osc_fraction=0.25, eps_fraction=0.5)
    assert rep.verdict == "NONMEMBER"
    assert rep.exhausted_condition.startswith("no outer cutoff M <= a - 3 = 3 ")


def _stage_peaks(monkeypatch, run):
    """(stage, traced peak over the memory live when it started) of every
    call of a pipeline stage that run makes: the member build, the family
    scans, the averaging steps, the window arithmetic and the mollifier."""
    from oscillab import reports
    from oscillab.corpus import CorpusMember

    peaks = []

    def traced(owner, name):
        fn = getattr(owner, name)

        def stage(*args, **kwargs):
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peaks.append((name, tracemalloc.get_traced_memory()[1] - live))
            return out

        monkeypatch.setattr(owner, name, stage)

    for name in ("family_stats", "choose_thresholds", "assign_cubes", "dyadic_average", "p1_p2_check", "mollify"):
        traced(reports, name)
    traced(CorpusMember, "build")
    traced(GridFunction, "__sub__")
    traced(GridFunction, "truncated")
    tracemalloc.start()
    try:
        out = run()
    finally:
        tracemalloc.stop()
    return out, peaks


def test_pipeline_stages_each_stay_below_one_sample_array(monkeypatch):
    # bump-narrow is non-zero on 255 of the 2^20 + 1 samples: every stage
    # works on windows, and nothing sample-sized is allocated
    fam = _pipeline_family(halfwidth=4096.0, spacing=2.0**-7)
    n = fam.grid.size
    rep, peaks = _stage_peaks(monkeypatch, lambda: exp_pipeline("bump-narrow", fam, eps_fraction=0.8))
    assert rep.verdict == "MEMBER" and n == 2**20 + 1
    stages = [name for name, _ in peaks]
    assert stages.count("family_stats") == 3 and {"build", "choose_thresholds", "assign_cubes", "dyadic_average",
                                                  "p1_p2_check", "mollify", "__sub__", "truncated"} <= set(stages)
    for name, peak in peaks:
        assert peak < 8 * n, (name, peak / (8 * n))


def test_lacunary_family_scan_stays_below_one_sample_array():
    # the bumps at 3, 9, ..., 2187 are 7 pieces whose hull is a quarter of
    # the box; the scan pays for the pieces, not for the hull
    plan = _plan(id="lacunary-separation", halfwidth=4096.0, spacing=2.0**-7, k_max=7, stride=1.0,
                 radius_max=1024.0, distance_max=1024.0)
    f = lacunary_function(plan.grid, 7)
    n = plan.grid.size
    samples = sum(v.size for _, v in f.pieces)
    assert n == 2**20 + 1 and f.hi - f.lo < n // 3 and (len(f.pieces), samples) == (7, 7 * 255)
    tracemalloc.start()
    try:
        st = family_stats(f, plan.family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table on the held samples, ten arrays of the steps (the balls
    # where a sum can change: their starts, centers, cell radii, reads and
    # the two buffers), and 64 KB for the Python objects
    steps = st.oscillation.starts.size
    assert steps < len(plan.family) // 100
    assert peak <= 8 * (samples + 1) + 80 * steps + (1 << 16), peak
    assert peak < 8 * n


# one `oscillab run` in a grandchild, whose peak RSS the small child
# reports: a child forked from the test process would count that
# process's resident pages in its own peak
_RUN_PROBE = """
import json, resource, subprocess, sys

code = subprocess.run([sys.executable, "-m", "oscillab", "run", "--config", sys.argv[1], "--out", sys.argv[2]]).returncode
print(json.dumps({"code": code, "peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


def test_lacunary_wide_separates_at_the_import_floor(tmp_path):
    # configs/lacunary-wide.json, three modes past the headline run: the
    # bumps at 3, ..., 3^11 on 134,217,729 samples and 47,185,899 balls.
    # Its asserted verdicts hold, and the run stays under 60 MB, what the
    # interpreter and the imports take (36.7 MB on 2 vCPUs), as
    # lacunary-deep's does: a value held per meeting ball (81 MB) or a scan
    # of the bumps' hull (702 MB) fails
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RUN_PROBE, str(CONFIGS / "lacunary-wide.json"), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0 and got["peak_mb"] < 60, got
    rep = json.loads((tmp_path / "out" / "summary.json").read_text())["scenarios"]["lacunary-separation"]
    assert rep["n_balls"] == 47_185_899 and rep["floor_ok"]
    assert {mode: v["verdict"] for mode, v in rep["verdicts"].items()} == _SCENARIO_TABLE["lacunary-separation"].expected


def test_lacunary_deep_separates_at_the_import_floor(tmp_path):
    # configs/lacunary-deep.json: the bumps at 3, ..., 3^16 on 2^35 + 1
    # samples and 16,374,562,787 balls.  Its asserted verdicts hold, and
    # the run stays under 60 MB, what the interpreter and the imports take
    # (37 MB on 2 vCPUs with numpy 2.4.6)
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RUN_PROBE, str(CONFIGS / "lacunary-deep.json"), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == 0 and got["peak_mb"] < 60, got
    rep = json.loads((tmp_path / "out" / "summary.json").read_text())["scenarios"]["lacunary-separation"]
    assert rep["n_balls"] == 16_374_562_787 and rep["floor_ok"]
    assert {mode: v["verdict"] for mode, v in rep["verdicts"].items()} == _SCENARIO_TABLE["lacunary-separation"].expected


@pytest.fixture(scope="module")
def criterion_10_family():
    """The family of criterion 10's geometry: bump-narrow at halfwidth
    2^16 and spacing 2^-8, 33,554,433 samples."""
    return _pipeline_family(halfwidth=float(2**16), spacing=2.0**-8)


@pytest.mark.parametrize("osc_fraction, cutoffs", [(0.25, (5, 11, 11)), (0.5, (4, 9, 9))])
def test_averaging_changes_f_at_criterion_10_geometry(osc_fraction, cutoffs, criterion_10_family):
    # criterion 10's own osc_fraction 0.125 picks I = 6: its core cubes
    # hold one sample each, so the average is f there and d_avg is 0.0.
    # These looser fractions put 2 and 4 samples in a core cube, so the
    # average moves f and both distances are measured against the paper's
    # case bound (20^(1/2)/4 + 2) eps
    rep = exp_pipeline("bump-narrow", criterion_10_family, eps_fraction=0.1, osc_fraction=osc_fraction)
    th = rep.thresholds
    assert rep.verdict == "MEMBER" and (th.fine_exponent, th.core_exponent, th.outer_exponent) == cutoffs
    assert 2 ** (8 - th.fine_exponent - 2) >= 2  # samples per core cube, 2^(p - I - 2)
    assert rep.case_bound == (math.sqrt(20.0) / 4.0 + 2.0) * rep.eps
    assert 0.0 < rep.distance_averaged <= rep.case_bound
    assert 0.0 < rep.distance_full <= rep.case_bound


def test_pipeline_eigenvector_member_needs_no_operator(tmp_path, capsys):
    # the member is closed-form: a grid with more samples than the default
    # operator cap (4097 > 4096) is fine for scenarios that build no operator
    rep = exp_pipeline("eigenvector", _pipeline_family(halfwidth=64.0, spacing=2.0**-5, stride=0.5))
    assert rep.verdict == "NONMEMBER"
    assert main(["uchiyama", "--member", "eigenvector", "--out", str(tmp_path)]) == 0
    assert "cap" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line


# the pipeline-demo geometry, as an approximation-pipeline scenario and as
# the averaging-pipeline scenario with the same grid, family and eps
_DEMO_GRID = {"halfwidth": 256.0, "spacing": 2.0**-6, "eps_fraction": 0.7, "osc_fraction": 0.25}
_DEMO_FAMILY = {"center_stride": 2.0, "radius_min": 4 * 2.0**-6, "radius_max": 128.0}


@pytest.fixture
def averaging_calls(monkeypatch):
    """(member values, result) of every call of the shared averaging steps."""
    from oscillab import experiments, reports

    calls = []
    original = reports._average_member

    def recording(f, *args, **kwargs):
        calls.append((f.values.copy(), original(f, *args, **kwargs)))
        return calls[-1][1]

    # exp_pipeline and the averaging runner call it under the names their modules imported
    monkeypatch.setattr(reports, "_average_member", recording)
    monkeypatch.setattr(experiments, "_average_member", recording)
    return calls


@pytest.mark.parametrize("member, expect", [("bump-narrow", "member"), ("const-one", "nonmember")])
def test_both_pipeline_scenarios_report_the_same_averaging(member, expect, averaging_calls, tmp_path):
    scenarios = [
        {"id": "approximation-pipeline", "member": member, "expect": expect, "stride": 2.0, **_DEMO_GRID},
        {"id": "averaging-pipeline", "member": member, "family": _DEMO_FAMILY, **_DEMO_GRID},
    ]
    doc = run({"scenarios": scenarios}, out_dir=str(tmp_path))["scenarios"]
    # each runner goes through the shared steps exactly once, on the same member
    assert len(averaging_calls) == 2
    assert np.array_equal(averaging_calls[0][0], averaging_calls[1][0])
    pipe, avg = doc["approximation-pipeline"], doc["averaging-pipeline"]
    for key in ("eps", "norm"):
        assert pipe[key] == avg[key], key
    averaging = averaging_calls[0][1][-1]
    if expect == "nonmember":
        assert pipe["verdict"] == avg["verdict"] == "NONMEMBER"
        assert pipe["exhausted_condition"] == avg["exhausted_condition"]
        assert isinstance(averaging, str) and "core cutoff" in averaging
        return
    for key in ("fine_exponent", "core_exponent", "outer_exponent"):
        assert pipe[key] == avg[key], key
    for key in ("p1_sup", "p1_ok", "p2_max", "p2_ok", "size_ratio_ok"):
        assert pipe[key] == avg["gate"][key], key
    asg, _, gate = averaging
    assert avg["n_cubes"] == asg.n_cubes and avg["gate"]["n_adjacent_pairs"] == gate.n_adjacent_pairs


@pytest.mark.parametrize(
    "scenario",
    [{"id": "approximation-pipeline", "member": "bump-narrow", "stride": 2.0, **_DEMO_GRID},
     {"id": "averaging-pipeline", "member": "bump-narrow", **_DEMO_GRID}],
    ids=lambda s: s["id"],
)
def test_pipeline_runners_call_the_shared_averaging_once(scenario, averaging_calls, tmp_path):
    from oscillab import experiments, reports

    run({"scenarios": [scenario]}, out_dir=str(tmp_path))
    assert len(averaging_calls) == 1
    # the averaging steps are reached only through the shared function
    steps = {"choose_thresholds", "assign_cubes", "dyadic_average", "p1_p2_check"}
    for runner in (reports.exp_pipeline, experiments._run_averaging):
        assert not steps & set(runner.__code__.co_names), runner.__name__


# outer exponent M as an offset from the box exponent a = 8: the scan's own
# choice, and the two above the largest it returns (a - 3), out to a - 1,
# where the truncation clips at the box
@pytest.mark.parametrize("outer_below_box", [None, 2, 1])
def test_pipeline_truncates_the_average_to_the_half_open_region(outer_below_box, monkeypatch):
    from oscillab import reports

    seen = {}
    assign, average, mollify = reports.assign_cubes, reports.dyadic_average, reports.mollify

    def widened(th, grid):
        # the assignment needs 2^(M+3) <= X, so tile with the scan's own M
        # and only then move the outer exponent out to the box
        asg = assign(th, grid)
        if outer_below_box is None:
            return asg
        a = round(math.log2(grid.halfwidth))
        return asg._replace(thresholds=th._replace(outer_exponent=a - outer_below_box))

    def shifted(f, asg):
        # nonzero and asymmetric out to the box faces, so every sample the
        # truncation keeps or zeroes shows
        vals = average(f, asg).values + 1.5 + f.grid.axis / f.grid.halfwidth
        seen.update(A=vals.copy(), outer=asg.thresholds.outer_exponent)
        return GridFunction(f.grid, vals)

    def capturing(f, t):
        seen["AX"] = f.values.copy()
        return mollify(f, t)

    monkeypatch.setattr(reports, "assign_cubes", widened)
    monkeypatch.setattr(reports, "dyadic_average", shifted)
    monkeypatch.setattr(reports, "mollify", capturing)
    plan = _plan(id="approximation-pipeline", stride=2.0, **_DEMO_GRID)
    exp_pipeline("bump-narrow", plan.family, eps_fraction=_DEMO_GRID["eps_fraction"], osc_fraction=_DEMO_GRID["osc_fraction"])
    if outer_below_box is not None:
        assert seen["outer"] == 8 - outer_below_box
    # the axis-mask rule: keep the samples of the half-open [-T, T)
    ax = Grid(halfwidth=_DEMO_GRID["halfwidth"], spacing=_DEMO_GRID["spacing"]).axis
    T = 2.0 ** (seen["outer"] + 2)
    assert np.array_equal(seen["AX"], np.where((ax >= -T) & (ax < T), seen["A"], 0.0))


def test_cli_run_ok(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [{"id": "rho-slope", "exponent": 1.5, "points": 6}]}))
    rc = main(
        [
            "run",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
            "--seed",
            "7",
            "--op-cap",
            "64",
            "--interior-window",
            "0.5",
        ]
    )
    assert rc == 0
    assert "ok: 1 scenario" in capsys.readouterr().out
    prov = json.loads((tmp_path / "out" / "summary.json").read_text())["provenance"]
    assert prov["seed"] == 7
    assert prov["op_cap"] == 64
    assert prov["interior_window"] == 0.5


def test_cli_criterion_failure_exit_code(tmp_path, capsys):
    rc = main(
        [
            "pairing",
            "--left",
            "bump-narrow",
            "--right",
            "bump-narrow",
            "--halfwidth",
            "8",
            "--spacing",
            "0.0625",
            "--tolerance",
            "0",
            "--out",
            str(tmp_path / "p"),
        ]
    )
    assert rc == 3
    assert "FAIL" in capsys.readouterr().err
    assert (tmp_path / "p" / "summary.json").exists()


def test_cli_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 2
    root = tmp_path / "list.json"
    root.write_text("[1]")
    assert main(["run", "--config", str(root)]) == 2
    unk = tmp_path / "unk.json"
    unk.write_text(json.dumps({"bogus": 1, "scenarios": []}))
    assert main(["run", "--config", str(unk)]) == 2
    par = tmp_path / "par.json"
    par.write_text(json.dumps({"scenarios": [{"id": "rho-slope", "bogus": 1}]}))
    assert main(["run", "--config", str(par)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 5
    # member names outside the corpus or the scenario's members exit 2
    # before any scenario runs: the first config exited 0 and asserted
    # nothing, the second wrote rho-slope/ and then exited 2
    cases = [
        ([{"id": "extension-agreement", "members": ["zero"], "assert_members": ["gausian", "bump-narrow"],
           "halfwidth": 8.0, "spacing": 0.0625}], "'assert_members'"),
        ([{"id": "rho-slope", "n": 1, "exponent": 1.5}, {"id": "bmo-norms", "member": "gausian"}], "'member'"),
    ]
    for scenarios, key in cases:
        cfg = tmp_path / "names.json"
        cfg.write_text(json.dumps({"scenarios": scenarios}))
        out = tmp_path / "names-out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "gausian" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "key, scenario",
    [
        ("assert_members", {"id": "square-function-agreement", "members": ["zero"], "assert_members": "zero"}),
        ("assert_members", {"id": "extension-agreement", "members": ["zero"], "assert_members": "zero"}),
        ("assert_verdicts", {"id": "lacunary-separation", "assert_verdicts": "no"}),
        ("n", {"id": "rho-slope", "exponent": 1.5, "n": 1.5}),
        ("per_decade", {"id": "reproducing-pairing", "per_decade": 2.5}),
        ("expect", {"id": "approximation-pipeline", "expect": 5}),
        ("exponents", {"id": "tent-norms", "exponents": "inf"}),
        # these crashed with a traceback (TypeError, ValueError, KeyError,
        # AttributeError) and exit 1
        ("k_max", {"id": "lacunary-separation", "k_max": 2.5}),
        ("points", {"id": "rho-slope", "exponent": 1.5, "points": 6.5}),
        ("exponent", {"id": "rho-slope", "exponent": "1.5"}),
        ("center_stride", {"id": "bmo-norms", "family": {"center_stride": "0.5"}}),
        ("stride", {"id": "approximation-pipeline", "stride": "2.0"}),
        ("radii", {"id": "bmo-norms", "family": {"center_stride": 0.5, "radii": "0.5"}}),
        ("exponent", {"id": "rho-slope", "potential": {"kind": "power"}}),
        ("potential", {"id": "rho-slope", "potential": "constant"}),
        ("center_stride", {"id": "tent-norms", "family": {"radii": [0.5]}}),
        ("kind", {"id": "rho-slope", "potential": {"kind": "tabulated"}}),
        # these ran with the key ignored (value 1.0, amplitude 1.0), iterated
        # by character, or coerced by float()
        ("valu", {"id": "rho-slope", "potential": {"kind": "constant", "valu": 2.0}}),
        ("amplitud", {"id": "rho-slope", "potential": {"kind": "power", "exponent": 1.5, "amplitud": 2.0}}),
        ("members", {"id": "square-function-agreement", "members": "zero"}),
        ("halfwidth", {"id": "bmo-norms", "halfwidth": "8"}),
        ("tol_fraction", {"id": "extension-agreement", "tol_fraction": "0.05"}),
        ("eps", {"id": "averaging-pipeline", "eps": "0.5"}),
        ("tolerance", {"id": "reproducing-pairing", "tolerance": "0.02"}),
        # Python's json parses NaN and +-Infinity; "tolerance": NaN switched
        # the pairing check off
        ("decay_factor", {"id": "bmo-norms", "decay_factor": math.nan}),
        ("radius_max", {"id": "bmo-norms", "family": {"center_stride": 0.5, "radius_max": math.inf}}),
        ("t_min", {"id": "reproducing-pairing", "t_min": -math.inf}),
        # an integer past the float range raised OverflowError, exit 1
        ("halfwidth", {"id": "tent-norms", "halfwidth": 10**400}),
        # family knobs that no config set; the ladders always double
        ("radius_ratio", {"id": "bmo-norms", "family": {"center_stride": 0.5, "radius_ratio": 2.0}}),
        ("distance_ratio", {"id": "tent-norms", "family": {"center_stride": 0.5, "distance_ratio": 2.0}}),
        ("distance_min", {"id": "averaging-pipeline", "family": {"center_stride": 0.5, "distance_min": 0.125}}),
    ],
    ids=lambda v: v if isinstance(v, str) else v["id"],
)
def test_cli_rejects_wrongly_typed_scenario_parameter(key, scenario, tmp_path, capsys):
    # each value used to be coerced (set("zero"), bool("no"), int(1.5)),
    # ignored, or to crash with a traceback and exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [scenario]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err
    assert not (tmp_path / "o").exists()


_BAD_RHO_SLOPE = {"id": "rho-slope", "name": "bad", "points": 6}
# radii h, 2h and 32h on the corpus grid (h = 2^-6): h has the one ladder
# scale t_1 = h at or below it, 2h has five
_ONE_SLICE_FAMILY = {"center_stride": 0.5, "radii": [0.015625, 0.03125, 0.5]}
_PAST_LADDER_FAMILY = {"center_stride": 0.5, "radius_min": 0.125, "radius_max": 8.0}


@pytest.mark.parametrize(
    "key, scenario",
    [
        ("exponents", {"id": "tent-norms", "exponents": [2.0, 0, "inf"]}),
        ("exponents", {"id": "tent-norms", "exponents": [2.0, -1.0, "inf"]}),
        ("potential", {**_BAD_RHO_SLOPE, "potential": {"kind": "zero"}}),
        ("potential", {**_BAD_RHO_SLOPE, "potential": {"kind": "constant", "value": 0}}),
        ("n", {**_BAD_RHO_SLOPE, "n": 4, "exponent": 1.5}),
        ("exponent", {**_BAD_RHO_SLOPE, "exponent": 0.5}),
        ("points", {**_BAD_RHO_SLOPE, "exponent": 1.5, "points": 1}),
        ("k_max", {"id": "lacunary-separation", "k_max": 0}),
        # each of these wrote its own directory before it failed
        ("per_decade", {"id": "reproducing-pairing", "per_decade": 1}),
        ("eps", {"id": "averaging-pipeline", "eps": -1.0}),
        ("spacing", {"id": "bmo-norms", "spacing": 0.3}),
        ("halfwidth", {"id": "tent-norms", "halfwidth": -4.0}),
        # against exp_lacunary's default halfwidth 16384
        ("spacing", {"id": "lacunary-separation", "spacing": 0.3}),
        ("stride", {"id": "approximation-pipeline", "stride": -1.0, "halfwidth": 256.0, "spacing": 0.015625}),
        ("stride", {"id": "lacunary-separation", "stride": 0.0}),
        # center strides off the h-lattice, given or default, wrote both
        # directories before they failed
        ("stride", {"id": "approximation-pipeline", "stride": 0.3, "halfwidth": 256.0, "spacing": 0.015625}),
        ("stride", {"id": "lacunary-separation", "stride": 0.3}),
        ("stride", {"id": "approximation-pipeline", "halfwidth": 3.0, "spacing": 1.5}),
        ("family", {"id": "bmo-norms", "family": {"center_stride": 0.3}}),
        # the default corpus family's stride max(0.5, 8h) at h = 0.03
        ("family", {"id": "tent-norms", "halfwidth": 3.0, "spacing": 0.03}),
        # a stride below h/2 rounded to 0 h, passed, and crashed allocating
        # 238 TiB of centers
        ("stride", {"id": "lacunary-separation", "stride": 1e-9}),
        ("radius_max", {"id": "lacunary-separation", "radius_max": -4096.0}),
        ("distance_max", {"id": "lacunary-separation", "distance_max": 0.0}),
        # an osc_fraction <= 0 ran and reported every member NONMEMBER
        ("osc_fraction", {"id": "averaging-pipeline", "osc_fraction": 0}),
        ("osc_fraction", {"id": "approximation-pipeline", "osc_fraction": -0.125}),
        # these wrote rho-slope/ and their own directory: 3^9 + 2 > 16384,
        # and an empty x range
        ("k_max", {"id": "lacunary-separation", "k_max": 9}),
        ("x_max", {**_BAD_RHO_SLOPE, "exponent": 1.5, "x_min": 10, "x_max": 5}),
    ],
    ids=["tent-exponent-0", "tent-exponent--1.0", "zero-kind", "constant-0", "n-4", "exponent-0.5-at-n-1",
         "points-1", "k_max-0", "per_decade-1", "eps--1.0", "spacing-0.3", "halfwidth--4.0",
         "lacunary-spacing-0.3", "pipeline-stride--1.0", "lacunary-stride-0", "pipeline-stride-0.3",
         "lacunary-stride-0.3", "pipeline-default-stride-at-spacing-1.5", "family-stride-0.3",
         "default-family-stride-at-spacing-0.03", "lacunary-stride-below-h", "radius_max--4096",
         "distance_max-0", "averaging-osc_fraction-0", "pipeline-osc_fraction--0.125", "lacunary-k_max-9",
         "rho-slope-x_min-above-x_max"],
)
def test_cli_rejects_a_bad_scenario_before_running(key, scenario, tmp_path, capsys):
    # each used to pass the config check, so the valid scenario before it
    # ran and wrote its directory; the bad one then stopped the run with exit 2
    cfg = tmp_path / "cfg.json"
    scenarios = [{"id": "rho-slope", "exponent": 1.5, "points": 6}, scenario]
    cfg.write_text(json.dumps({"scenarios": scenarios}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "keys, scenario",
    [
        (("family",), {"id": "bmo-norms", "family": {"center_stride": 0.5, "radius_max": 100.0}}),
        (("family",), {"id": "tent-norms", "family": {"center_stride": 0.5, "radius_min": 2.0, "radius_max": 1.0}}),
        # explicit radii with ladder bounds, which would go unread
        (("family",), {"id": "bmo-norms", "family": {"center_stride": 0.5, "radii": [0.25], "radius_min": 0.5,
                                                     "radius_max": 2.0}}),
        # passes make_ball_family's stride check (8 h within 1e-6), but the
        # centers drift off the lattice: the family's constructor rejects them
        (("stride",), {"id": "lacunary-separation", "halfwidth": 128.0, "spacing": 0.0625, "k_max": 3,
                       "radius_max": 32.0, "distance_max": 32.0, "stride": 0.5 * (1 + 1e-7)}),
        # 16,385 samples over the default op_cap
        (("halfwidth", "spacing", "op_cap"), {"id": "tent-norms", "halfwidth": 64.0, "spacing": 2.0**-7}),
        (("t_min", "t_max"), {"id": "reproducing-pairing", "t_min": 2.0, "t_max": 1.0}),
        (("t_min", "t_max"), {"id": "reproducing-pairing", "t_min": -1.0}),
        (("x_min", "x_max"), {**_BAD_RHO_SLOPE, "exponent": 1.5, "x_min": 10, "x_max": 5}),
        # boxes that are not 2^a at spacing 2^-p
        (("halfwidth", "spacing"), {"id": "approximation-pipeline", "halfwidth": 100.0, "spacing": 0.00390625}),
        (("halfwidth", "spacing"), {"id": "averaging-pipeline", "halfwidth": 96.0}),
        # family radii past the default t-ladder's top X/4 = 4 on a box scan
        *[(("family",), {"id": sid, "family": _PAST_LADDER_FAMILY})
          for sid in ("tent-norms", "square-function-agreement", "extension-agreement")],
        # a radius h on the corpus grid has the one scale t_1 = h under it:
        # a box scan's dt/t trapezoid has nothing to weigh
        *[(("family",), {"id": sid, "family": _ONE_SLICE_FAMILY})
          for sid in ("tent-norms", "square-function-agreement", "extension-agreement")],
    ],
    ids=["bmo-radius_max-100", "tent-empty-ladder", "bmo-radii-and-ladder", "lacunary-stride-off-lattice", "tent-over-op_cap",
         "pairing-t_min-above-t_max", "pairing-t_min--1", "rho-slope-x-range", "pipeline-box-not-dyadic",
         "averaging-box-not-dyadic",
         "tent-radius-past-ladder", "square-radius-past-ladder",
         "extension-radius-past-ladder", "tent-radius-one-slice", "square-radius-one-slice",
         "extension-radius-one-slice"],
)
def test_plan_error_names_scenario_and_keys_before_writing(keys, scenario, tmp_path, capsys):
    # each failed mid-run, after the valid scenario before it had written
    # its directory
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [{"id": "rho-slope", "exponent": 1.5, "points": 6}, scenario]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: scenario {scenario['id']!r}: " in err
    assert all(repr(k) in err for k in keys), err
    assert not (tmp_path / "o").exists()


_THIN_FAMILY = {"center_stride": 0.5, "radii": [0.25, 0.5]}


@pytest.mark.parametrize("scenario, code", [
    # k_max by default 4, the last bump that fits: the far-from-origin
    # verdict and the far floor hold, the other two asserted verdicts fail
    ({"id": "lacunary-separation", "halfwidth": 128.0, "spacing": 0.0625, "stride": 0.5,
      "radius_max": 32.0, "distance_max": 32.0}, 3),
    ({"id": "bmo-norms", "family": _THIN_FAMILY}, 0),
    ({"id": "square-function-agreement", "family": _THIN_FAMILY}, 0),
], ids=["lacunary", "bmo-norms", "square-function-agreement"])
def test_thin_family_writes_its_bundle_with_inconclusive_verdicts(scenario, code, tmp_path, capsys):
    # each exited 2 with only an empty scenario directory: a verdict on a
    # curve with fewer than 3 present buckets raised
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [scenario]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    frag = summary["scenarios"][scenario["id"]]
    verdicts = [v for rep in frag.get("members", {"": frag}).values()
                for key, side in rep.items() if key.endswith("verdicts") for v in side.values()]
    thin = [v for v in verdicts if v["n_present"] < 3]
    assert thin and all(v["verdict"] == "INCONCLUSIVE" for v in thin)
    assert all((v["terminal"] is None) == (v["n_present"] == 0) for v in verdicts)
    assert "config error" not in capsys.readouterr().err
    assert len(summary["failures"]) == (2 if code else 0)


def test_runner_error_names_its_scenario(tmp_path, capsys):
    # a zero member leaves averaging nothing to approximate: the error named
    # no scenario
    doc = {"scenarios": [{"id": "averaging-pipeline", "member": "zero"}]}
    with pytest.raises(ConfigError, match="^scenario 'averaging-pipeline': averaging needs eps > 0"):
        run(doc, out_dir=str(tmp_path / "r"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: scenario 'averaging-pipeline': averaging needs eps > 0" in capsys.readouterr().err
    assert (tmp_path / "o" / "averaging-pipeline").is_dir()


def test_bmo_norms_plans_no_ladder_and_keeps_every_radius():
    # the semigroup oscillation takes e^{-r sqrt(L)} at each radius and reads
    # no dt/t trapezoid, so bmo-norms plans no t-ladder: radius h, with one
    # default-ladder scale under it, and radii past the ladder's top X/4 = 4
    # stay
    for family, radii in ((_ONE_SLICE_FAMILY, [0.015625, 0.03125, 0.5]),
                          (_PAST_LADDER_FAMILY, [0.125 * 2**k for k in range(7)])):
        (plan,) = plan_scenarios({"scenarios": [{"id": "bmo-norms", "family": family}]})
        assert plan.ladder is None and plan.op is not None
        assert [b.radius for b in plan.family.blocks] == radii


def test_bmo_norms_runs_radii_past_the_default_ladder(tmp_path, capsys):
    # refused while the plan built the default t-ladder for bmo-norms, which
    # only the ladder's coverage check read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [{"id": "bmo-norms", "family": _PAST_LADDER_FAMILY}]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "config error" not in capsys.readouterr().err
    frag = json.loads((tmp_path / "o" / "summary.json").read_text())["scenarios"]["bmo-norms"]
    assert frag["tilde_bmo_l"] > 0 and math.isfinite(frag["tilde_bmo_l"])


# k_max by default 4, so the distance ladder ends by the last bump, at 81
_SMALL_LACUNARY_SCENARIO = {"id": "lacunary-separation", "halfwidth": 128.0, "spacing": 0.0625,
                            "radius_max": 32.0, "distance_max": 32.0, "stride": 0.5}


@pytest.mark.parametrize(
    "keys, scenario",
    [
        # the power potential that exp_lacunary builds at run time
        (("exponent", "amplitude"), {**_SMALL_LACUNARY_SCENARIO, "exponent": 0.5}),
        (("exponent", "amplitude"), {**_SMALL_LACUNARY_SCENARIO, "amplitude": -1.0}),
        (("exponent", "amplitude"), {**_SMALL_LACUNARY_SCENARIO, "amplitude": 0.0}),
        # a negative tolerance fails the run; a tolerance that can never pass
        (("tol_fraction",), {"id": "bmo-norms", "tol_fraction": -0.05}),
        (("tolerance",), {"id": "reproducing-pairing", "tolerance": -0.01}),
        (("tolerance",), {"id": "rho-slope", "exponent": 1.5, "tolerance": -0.01}),
        # a factor that passes every check it feeds
        (("decay_factor",), {"id": "bmo-norms", "decay_factor": -4.0}),
        (("decay_factor",), {"id": "extension-agreement", "members": ["zero"], "decay_factor": 0.0}),
        (("floor_factor",), {**_SMALL_LACUNARY_SCENARIO, "floor_factor": -0.3}),
        # a spacing too coarse for the unit bump that exp_lacunary samples
        (("spacing",), {**_SMALL_LACUNARY_SCENARIO, "spacing": 0.25}),
        # a potential whose critical radius falls below the solve's bracket
        # floor at the centers nearest the origin, or at the smallest x that
        # rho-slope's jitter can draw
        (("exponent", "amplitude"), {**_SMALL_LACUNARY_SCENARIO, "amplitude": 1e6}),
        (("exponent", "amplitude", "x_min"), {"id": "rho-slope", "exponent": 1.05, "amplitude": 1e12}),
        (("exponent", "amplitude", "x_min", "jitter"), {"id": "rho-slope", "exponent": 1.5, "amplitude": 4e6,
                                                        "x_min": 0.01, "jitter": 1.0}),
        (("corpus_factor",), {"id": "approximation-pipeline", "halfwidth": 512.0, "spacing": 2.0**-5,
                              "corpus_factor": 0.0}),
    ],
    ids=["lacunary-exponent-0.5", "lacunary-amplitude--1", "lacunary-amplitude-0", "bmo-tol_fraction--0.05",
         "pairing-tolerance--0.01", "rho-slope-tolerance--0.01", "bmo-decay_factor--4", "extension-decay_factor-0",
         "lacunary-floor_factor--0.3", "lacunary-spacing-0.25", "lacunary-amplitude-1e6", "rho-slope-amplitude-1e12",
         "rho-slope-jitter-1", "pipeline-corpus_factor-0"],
)
def test_cli_rejects_a_value_out_of_range_before_running(keys, scenario, tmp_path, capsys):
    # each passed the config check: it then stopped the run after the
    # valid scenario before it had written its directory, or ran to a
    # verdict it had made meaningless
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [{"id": "rho-slope", "name": "ok", "exponent": 1.5, "points": 6},
                                             scenario]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: scenario {scenario['id']!r}: " in err
    assert all(repr(k) in err for k in keys), err
    assert not (tmp_path / "o").exists()


def test_plan_rejects_centers_off_the_lattice():
    scenario = {"id": "lacunary-separation", "halfwidth": 128.0, "spacing": 0.0625, "k_max": 3,
                "radius_max": 32.0, "distance_max": 32.0, "stride": 0.5 * (1 + 1e-7)}
    with pytest.raises(ConfigError, match="family centers must sit on the grid lattice"):
        _plan(**scenario)


@pytest.mark.parametrize("scenario, builds", [({"id": "reproducing-pairing"}, 0), ({"id": "tent-norms"}, 1),
                                              ({"id": "bmo-norms"}, 0)])
def test_default_ladder_is_built_only_without_a_ladder_rule(monkeypatch, scenario, builds):
    # the pairing's record gives its own t-ladder, so the plan builds no
    # default ladder for it; tent-norms scans Carleson boxes and reads the
    # default one; bmo-norms scans none and has no ladder
    from oscillab import experiments

    calls, original = [], experiments.default_ladder
    monkeypatch.setattr(experiments, "default_ladder", lambda grid, *a: calls.append(grid) or original(grid, *a))
    (plan,) = plan_scenarios({"scenarios": [scenario]})
    assert len(calls) == builds and plan.op is not None
    assert (plan.ladder is None) == (scenario["id"] == "bmo-norms")


def test_plans_share_one_object_per_geometry():
    doc = {"scenarios": [
        {"id": "approximation-pipeline", "name": "a", "halfwidth": 512.0, "spacing": 2.0**-5},
        {"id": "approximation-pipeline", "name": "b", "member": "const-one", "halfwidth": 512.0, "spacing": 2.0**-5},
        {"id": "bmo-norms", "halfwidth": 8.0, "spacing": 0.0625},
        {"id": "tent-norms", "halfwidth": 8.0, "spacing": 0.0625},
        {"id": "reproducing-pairing", "halfwidth": 8.0, "spacing": 0.0625},
        {"id": "bmo-norms", "name": "other", "halfwidth": 8.0, "spacing": 0.0625,
         "family": {"center_stride": 0.5, "radii": [0.25]}},
    ]}
    a, b, bmo, tent, pairing, other = plan_scenarios(doc)
    assert a.family is b.family and a.op is None
    assert bmo.family is tent.family and bmo.family is not other.family
    assert bmo.op is tent.op is pairing.op is other.op
    assert pairing.family is None and len(pairing.ladder) > 1
    # the geometry keys are taken out; what the runner reads stays
    assert a.params == {"member": "bump-narrow", "expect": "MEMBER"}
    assert pairing.params == {"left": "gaussian", "right": "gaussian"}


def test_default_ladder_is_built_while_planning_only(monkeypatch, tmp_path):
    # every box-scanning scenario reads its t-ladder off its plan: one
    # ladder per grid, built next to the operator, and none while running;
    # bmo-norms builds none, on either grid
    from oscillab import experiments

    original_plan, original_ladder = experiments.plan_scenarios, experiments.default_ladder
    calls, planning = [], [False]

    def counted_ladder(grid, *args, **kwargs):
        calls.append((grid, planning[0]))
        return original_ladder(grid, *args, **kwargs)

    def flagged_plan(config):
        planning[0] = True
        try:
            return original_plan(config)
        finally:
            planning[0] = False

    monkeypatch.setattr(experiments, "default_ladder", counted_ladder)
    monkeypatch.setattr(experiments, "plan_scenarios", flagged_plan)
    geometry = {"halfwidth": 16.0, "spacing": 2.0**-4}
    members = {"members": ["zero", "gaussian"], "assert_members": ["zero"]}
    doc = {"scenarios": [
        {"id": "bmo-norms", "member": "gaussian", **geometry},
        {"id": "tent-norms", "member": "gaussian", **geometry},
        {"id": "reproducing-pairing", "left": "gaussian", "right": "gaussian", "tolerance": 0.5, **geometry},
        {"id": "square-function-agreement", **members, **geometry},
        {"id": "extension-agreement", **members, **geometry},
        {"id": "bmo-norms", "name": "bmo-norms-corpus-grid", "member": "eigenvector"},
        {"id": "tent-norms", "name": "tent-norms-corpus-grid", "member": "eigenvector"},
    ]}
    summary = run(doc, str(tmp_path))
    assert set(summary["scenarios"]) == {"bmo-norms", "tent-norms", "reproducing-pairing", "square-function-agreement",
                                         "extension-agreement", "bmo-norms-corpus-grid", "tent-norms-corpus-grid"}
    assert [planned for _, planned in calls] == [True, True]
    assert calls[0][0] == Grid(**geometry) and calls[1][0] != calls[0][0]


@pytest.mark.parametrize(
    "key, value", [("seed", True), ("interior_window", True), ("out_dir", 5)], ids=lambda v: str(v)
)
def test_cli_rejects_wrongly_typed_config_key(key, value, tmp_path, capsys, monkeypatch):
    # a bool was taken as a seed or as the window 1.0, and 5 as the path "5"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value, "scenarios": [{"id": "rho-slope", "exponent": 1.5, "points": 6}]}))
    monkeypatch.chdir(tmp_path)  # where a relative out_dir would land
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_bad_last_scenario_runs_nothing(tmp_path, capsys):
    # the whole config is checked before the first scenario runs
    cases = [
        ([{"id": "rho-slope", "name": "first", "exponent": 1.5, "points": 6},
          {"id": "tent-norms", "name": "last", "halfwidth": "8"}], "'halfwidth'"),
        # a rho-slope with no potential ran bmo-norms, left both directories
        # and only then exited 2
        ([{"id": "bmo-norms", "halfwidth": 8.0, "spacing": 0.0625}, {"id": "rho-slope", "n": 2}],
         "give 'potential' or 'exponent'"),
    ]
    for scenarios, err in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": scenarios}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert err in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("name", [5, "../escaped", "a/b", "a\\b", "a\x00b", ".", "..", ""], ids=repr)
def test_cli_scenario_name_is_one_path_component(name, tmp_path, capsys):
    # "../escaped" wrote the scenario beside the bundle, and 5 raised a
    # TypeError at base / name
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [{"id": "rho-slope", "name": name, "exponent": 1.5, "points": 6}]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out-n" / "inner")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'name'" in err
    assert not (tmp_path / "out-n").exists()


@pytest.mark.parametrize(
    "argv, scenario",
    [
        (["bmo"], {"id": "bmo-norms"}),
        (["tent", "--member", "zero", "--seed", "3"], {"id": "tent-norms", "member": "zero"}),
        (["pairing", "--spacing", "0.0625", "--out", "x"], {"id": "reproducing-pairing", "spacing": 0.0625}),
        (["uchiyama", "--eps", "0.5"], {"id": "averaging-pipeline", "eps": 0.5}),
        (["uchiyama", "--eps-fraction", "0.2", "--osc-fraction", "0.25"],
         {"id": "averaging-pipeline", "eps_fraction": 0.2, "osc_fraction": 0.25}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_shorthand_forwards_only_the_given_flags(argv, scenario):
    # the scenario's parameter table holds the defaults; the shorthand
    # restates none of them
    assert _scenario_from_args(_build_parser().parse_args(argv)) == scenario


def test_cli_honours_the_run_flags_before_the_subcommand(tmp_path, capsys, monkeypatch):
    # --help lists the run flags at the top level; given there, each is
    # honoured as it is after the subcommand, and the subcommand's wins
    config = str(Path(__file__).resolve().parents[1] / "configs" / "quick.json")
    monkeypatch.chdir(tmp_path)
    assert main(["--out", "D", "--seed", "5", "run", "--config", config]) == 0
    assert json.loads((tmp_path / "D" / "summary.json").read_text())["provenance"]["seed"] == 5
    assert not (tmp_path / "oscillab-out").exists()
    assert main(["--op-cap", "1", "run", "--config", config]) == 2
    assert "'op_cap' must be an integer >= 2" in capsys.readouterr().err
    args = _build_parser().parse_args(["--seed", "3", "--interior-window", "0.5", "bmo", "--seed", "4"])
    assert (args.seed, args.interior_window) == (4, 0.5) and "out" not in args and "op_cap" not in args


def test_cli_has_no_threads_flag(capsys):
    # no computation goes through BLAS; pin it through the environment
    with pytest.raises(SystemExit) as exc:
        main(["bmo", "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["rho-slope", {"n": 2, "exponent": 1.5, "potential": {"kind": "constant"}}], ("potential", "exponent")),
        (["rho-slope", {"n": 2, "amplitude": 2.0, "potential": {"kind": "constant"}}], ("potential", "amplitude")),
        (["uchiyama", "--eps", "0.55", "--eps-fraction", "0.9", "--halfwidth", "256"], ("eps", "eps_fraction")),
    ],
    ids=["rho-slope-exponent", "rho-slope-amplitude", "uchiyama"],
)
def test_cli_rejects_given_and_ignored_pair(argv, keys, tmp_path, capsys):
    # the first key made the runner ignore the second, and the run exited 0
    if argv[0] == "rho-slope":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": [{"id": "rho-slope", **argv[1]}]}))
        argv = ["run", "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(repr(k) in err for k in keys)
    assert not (tmp_path / "o").exists()


def test_cli_window_out_of_range(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": []}))
    assert main(["run", "--config", str(cfg), "--interior-window", "1.5"]) == 2


def test_cli_bmo_subcommand(tmp_path):
    rc = main(
        [
            "bmo",
            "--member",
            "zero",
            "--halfwidth",
            "16",
            "--spacing",
            "0.0625",
            "--out",
            str(tmp_path / "b"),
        ]
    )
    assert rc == 0
    (frag,) = json.loads((tmp_path / "b" / "summary.json").read_text())["scenarios"].values()
    assert frag["id"] == "bmo-norms"
    assert frag["bmo_l"] == 0.0
    assert frag["tilde_bmo_l"] == 0.0


def test_cli_tent_subcommand(tmp_path):
    rc = main(
        [
            "tent",
            "--member",
            "zero",
            "--halfwidth",
            "16",
            "--spacing",
            "0.0625",
            "--out",
            str(tmp_path / "t"),
        ]
    )
    assert rc == 0
    (frag,) = json.loads((tmp_path / "t" / "summary.json").read_text())["scenarios"].values()
    assert frag["norms"]["inf"]["value"] == 0.0
    assert frag["norms"]["2.0"]["value"] == 0.0


def test_cli_pairing_subcommand(tmp_path):
    rc = main(
        [
            "pairing",
            "--left",
            "bump-narrow",
            "--right",
            "bump-narrow",
            "--halfwidth",
            "8",
            "--spacing",
            "0.0625",
            "--out",
            str(tmp_path / "p"),
        ]
    )
    assert rc == 0
    (frag,) = json.loads((tmp_path / "p" / "summary.json").read_text())["scenarios"].values()
    assert frag["support_ok"] is True
    assert math.isfinite(frag["rel_error"])


def test_cli_averaging_subcommand(tmp_path):
    out = tmp_path / "u"
    rc = main(
        [
            "uchiyama",
            "--member",
            "bump-narrow",
            "--halfwidth",
            "256",
            "--spacing",
            "0.015625",
            "--eps",
            "0.55",
            "--osc-fraction",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    (name,) = doc["scenarios"]
    frag = doc["scenarios"][name]
    assert frag["gate"]["p1_ok"] and frag["gate"]["p2_ok"]
    assert (out / name / "assignment.csv").exists()
    assert (out / name / "averaged.json").exists()
    assert (out / name / "gate.json").exists()


def test_cli_averaging_core_below_grid_scale_is_a_nonmember_verdict(tmp_path, capsys):
    # the fine scan picks I = p - 1, so the core cubes 2^(-I-2) would fall
    # below the grid scale; that exhausts the scan instead of raising a
    # config error from the cube assignment
    scenario = {"id": "averaging-pipeline", "member": "gaussian", "halfwidth": 4096.0,
                "spacing": 0.125, "eps": 0.5, "osc_fraction": 0.125}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": [scenario]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "config error" not in capsys.readouterr().err
    frag = json.loads((tmp_path / "out" / "summary.json").read_text())["scenarios"]["averaging-pipeline"]
    assert frag["verdict"] == "NONMEMBER"
    assert frag["exhausted_condition"] == (
        "the fine cutoff 2^-2 puts the core cubes 2^-4 below the grid scale 2^-3"
    )


def test_cli_averaging_exhaustion_is_a_nonmember_verdict(tmp_path, capsys):
    # an exhausted threshold scan is reported like exp_pipeline reports it,
    # not as a config error, and no cube assignment is written
    out = tmp_path / "u"
    assert main(["uchiyama", "--member", "eigenvector", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "summary.json").read_text())
    assert doc["failures"] == []
    (name,) = doc["scenarios"]
    frag = doc["scenarios"][name]
    assert frag["verdict"] == "NONMEMBER"
    assert "core cutoff" in frag["exhausted_condition"]
    assert sorted(frag) == ["eps", "exhausted_condition", "id", "member", "norm", "verdict"]
    assert list((out / name).iterdir()) == []
