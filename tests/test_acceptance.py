"""End-to-end checks, one per declared acceptance criterion.

Each test records a [PASS]/[FAIL] line through the criterion fixture; the
collected lines are printed as a summary section after the run.  Configs
are pinned so the numbers are reproducible run to run.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oscillab
from oscillab.approx import mollify
from oscillab.corpus import CORPUS, member_by_name
from oscillab.experiments import plan_scenarios
from oscillab.reports import RHO_CONSTANT_UNIT, exp_extension_agreement, exp_lacunary, exp_rho_slope
from oscillab.family import FamilyPolicy, make_ball_family
from oscillab.grid import Grid, GridFunction
from oscillab.oscillation import bmo_l_norm, bmo_norm, family_stats
from oscillab.potential import constant_potential, power_potential, solve_critical_radius
from oscillab.semigroup import (
    HalfSpaceFunction,
    TLadder,
    default_ladder,
    discretize,
    interior_index_window,
    square_function_field,
)
from oscillab.tent import family_box_values, hmo_norm, reproducing_pairing_check
from oracles import (
    box_oscillation_ratio,
    carleson_box_strict_tent,
    constant,
    cylinder_box,
    heat,
    l2_norm,
    poisson,
    poisson_subordinated,
    prefix_weights,
)


def test_criterion_01_unit_potential_closed_forms(criterion):
    c = criterion(1, "critical radius closed forms for the unit potential")
    t0 = time.perf_counter()
    r1 = solve_critical_radius(constant_potential(1.0, 1), 0.0).values[0]
    r2 = solve_critical_radius(constant_potential(1.0, 2), 0.0).values[0]
    dt = time.perf_counter() - t0
    e1 = abs(r1 - 2.0**-0.5)
    e2 = abs(r2 - math.pi**-0.5)
    c.finish(
        e1 <= 1e-6 and e2 <= 1e-6 and dt < 1.0,
        f"n=1 err {e1:.1e}, n=2 err {e2:.1e}, {dt * 1000:.0f} ms",
    )


def test_criterion_02_power_potential_growth_exponents(criterion):
    c = criterion(2, "critical radius growth exponents for power potentials")
    t0 = time.perf_counter()
    rep3 = exp_rho_slope(power_potential(0.5, 3))
    rep1 = exp_rho_slope(power_potential(1.5, 1))
    dt = time.perf_counter() - t0
    d3 = abs(rep3.slope / 0.75 - 1.0)
    d1 = abs(rep1.slope / 0.25 - 1.0)
    c.finish(
        d3 <= 0.05 and d1 <= 0.05 and dt < 10.0,
        f"n=3 slope {rep3.slope:.4f} (off {d3:.2%}), n=1 slope {rep1.slope:.4f} (off {d1:.2%}), {dt:.2f} s",
    )


def test_criterion_03_subordination_and_semigroup_law(criterion, grid16):
    c = criterion(3, "poisson subordination and the heat semigroup law")
    t0 = time.perf_counter()
    op = discretize(constant_potential(1.0, 1), grid16)
    rng = np.random.default_rng(3)
    worst_sub = 0.0
    worst_law = 0.0
    for _ in range(5):
        vals = rng.standard_normal(grid16.size)
        vals[0] = vals[-1] = 0.0
        f = GridFunction(grid16, vals)
        f = GridFunction(grid16, vals / l2_norm(f))
        for t in (0.1, 0.5, 1.0):
            a = poisson(op, f, t)
            b = poisson_subordinated(op, f, t)
            worst_sub = max(worst_sub, float(np.max(np.abs(a.values - b.values))))
        two = heat(op, heat(op, f, 0.3), 0.7)
        one = heat(op, f, 1.0)
        worst_law = max(worst_law, float(np.max(np.abs(two.values - one.values))))
    dt = time.perf_counter() - t0
    c.finish(
        worst_sub <= 1e-8 and worst_law <= 1e-10 and dt < 30.0,
        f"subordination {worst_sub:.1e}, law {worst_law:.1e}, {dt:.1f} s at {op.interior_count} points",
    )


def test_criterion_04_poisson_of_one_decays_like_exp(criterion, grid16, op16):
    c = criterion(4, "poisson semigroup of the constant under the unit potential")
    ones = constant(grid16, 1.0)
    a, b = interior_index_window(grid16, 1.0 / 3.0)
    worst = 0.0
    for t in np.geomspace(0.1, 2.0, 12):
        u = poisson(op16, ones, float(t))
        worst = max(worst, float(np.max(np.abs(u.values[a:b] - math.exp(-t)))) / math.exp(-t))
    c.finish(worst <= 1e-3, f"worst interior relative deficit {worst:.1e} over t in [0.1, 2]")


def test_criterion_05_square_function_energy_bound(criterion, grid16, op16):
    c = criterion(5, "square-function ladder energy bound")
    lad = TLadder.geometric(1e-4, 16.0, per_decade=16)
    w = lad.log_weights
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        vals = rng.standard_normal(grid16.size)
        vals[0] = vals[-1] = 0.0
        f = GridFunction(grid16, vals)
        F = square_function_field(op16, f, lad)
        s = float(
            sum(w[j] * np.sum(F.values[j] ** 2) * grid16.spacing for j in range(len(lad)))
        )
        worst = max(worst, s / l2_norm(f) ** 2)
    c.finish(worst <= 0.25 * 1.02, f"worst energy ratio {worst:.6f} vs bound 0.255")


def test_criterion_06_reproducing_pairing_accuracy(criterion, grid16, op16):
    c = criterion(6, "reproducing-formula pairing accuracy")
    lad = TLadder.geometric(grid16.spacing / 4.0, 4.0, per_decade=16)
    fg = member_by_name("gaussian").build(grid16)
    fe = member_by_name("eigenvector").build(grid16)
    rg = reproducing_pairing_check(fg, fg, op16, lad)
    re = reproducing_pairing_check(fe, fe, op16, lad)
    c.finish(
        rg.rel_error <= 0.02 and re.rel_error <= 0.01,
        f"gaussian pair {rg.rel_error:.4%} (cap 2%), eigenvector pair {re.rel_error:.4%} (cap 1%)",
    )


def test_criterion_07_corpus_norm_ratios(criterion, grid16, op16, family16):
    c = criterion(7, "tent-norm to oscillation-norm ratios across the corpus")
    lad = TLadder.geometric(grid16.spacing, 4.0, per_decade=16)
    ratios = {}
    for m in CORPUS:
        if m.name == "zero":
            continue
        f = m.build(grid16)
        norm = bmo_l_norm(family_stats(f, family16), RHO_CONSTANT_UNIT).value
        t2 = hmo_norm(np.sqrt(family_box_values(square_function_field(op16, f, lad), family16)), family16).value
        ratios[m.name] = t2 / norm
    vals = list(ratios.values())
    span = max(vals) / min(vals)
    finite = all(math.isfinite(v) and v > 0 for v in vals)
    c.finish(
        finite and span < 100.0,
        f"{len(vals)} members (zero excluded), ratios in [{min(vals):.3f}, {max(vals):.3f}], span {span:.2f}x",
    )


def test_criterion_08_dilate_bound_stable_under_refinement(criterion):
    c = criterion(8, "cylinder-vs-dilate inequality stable under refinement")

    def sup_ratio(spacing):
        grid = Grid(halfwidth=16.0, spacing=spacing)
        op = discretize(constant_potential(1.0, 1), grid, cap=8192)
        f = member_by_name("gaussian").build(grid)
        fam = make_ball_family(
            grid, FamilyPolicy(center_stride=0.5, radius_min=0.125, radius_max=4.0)
        )
        picks = np.linspace(0, len(fam) - 1, 50).astype(int)
        hint = bmo_l_norm(family_stats(f, fam), RHO_CONSTANT_UNIT).value
        ladder = TLadder.geometric(grid.spacing, 4.0, per_decade=16)
        # one box scan of the square-function field serves every ball
        boxes = family_box_values(square_function_field(op, f, ladder), fam)
        best = max(
            box_oscillation_ratio(f, op, fam.ball(i), k_max=8, box=boxes[i], norm_hint=hint, clip=True).ratio
            for i in picks
        )
        return best, [fam.ball(i) for i in picks]

    coarse, balls = sup_ratio(2.0**-6)
    fine, fine_balls = sup_ratio(2.0**-7)
    # stride and radii are multiples of both spacings: the same 50 balls
    assert fine_balls == balls
    change = abs(coarse - fine) / max(coarse, fine)
    c.finish(
        change <= 0.20 and coarse < 10.0,
        f"sup ratio {coarse:.4f} vs {fine:.4f} over 50 balls, change {change:.2%}",
    )


def test_criterion_09_lacunary_sum_separates_regimes(criterion):
    c = criterion(9, "lacunary sum separates the oscillation regimes")
    (plan,) = plan_scenarios({"scenarios": [{"id": "lacunary-separation"}]})
    rep = exp_lacunary(plan.family, plan.params["k_max"])
    got = {m: v.verdict for m, v in rep.verdicts.items()}
    want = {
        "small-radius": "VANISHING",
        "far-from-origin": "NONVANISHING",
        "far-and-supercritical": "VANISHING",
    }
    c.finish(
        got == want and rep.floor_ok,
        f"verdicts {got}, far floor {rep.floor:.3f} >= {rep.floor_required:.3f}, "
        f"{rep.n_balls} balls",
    )


_PIPELINE_WORKER = """
import json
from oscillab.experiments import plan_scenarios
from oscillab.reports import exp_pipeline
scenario = {"id": "approximation-pipeline", "halfwidth": float(2**16), "spacing": 2.0**-8}
(plan,) = plan_scenarios({"scenarios": [scenario]})
kw = dict(eps_fraction=0.1, osc_fraction=0.125)
rep = exp_pipeline("bump-narrow", plan.family, **kw)
out = {
    "verdict": rep.verdict,
    "eps": rep.eps,
    "gates": bool(rep.p1_ok and rep.p2_ok and rep.size_ratio_ok),
    "d_avg": rep.distance_averaged,
    "d_full": rep.distance_full,
    "bound": rep.corpus_bound,
    "t_eps": rep.t_eps,
}
rep2 = exp_pipeline("const-one", plan.family, **kw)
out["const_verdict"] = rep2.verdict
out["const_reason"] = rep2.exhausted_condition or ""
print(json.dumps(out))
"""


def test_criterion_10_averaging_pipeline_budget(criterion):
    c = criterion(10, "dyadic averaging pipeline within the approximation budget")
    # the run takes about 8 s at 1.24 GB peak RSS (2 vCPUs); a worker
    # process keeps an OOM from taking down the whole suite and turns it
    # into a plain FAIL line instead
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PIPELINE_WORKER],
        capture_output=True,
        text=True,
        timeout=560,
        env=env,
    )
    if proc.returncode != 0:
        c.finish(False, f"worker exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = (
        out["verdict"] == "MEMBER"
        and out["gates"]
        and out["d_avg"] <= out["bound"]
        and out["d_full"] <= out["bound"]
        and out["t_eps"] == 2.0**-6
        and out["const_verdict"] == "NONMEMBER"
        and "core" in out["const_reason"]
    )
    c.finish(
        ok,
        f"distances {out['d_avg']:.2e}/{out['d_full']:.2e} vs 25*eps = {out['bound']:.3f}, "
        f"t_eps {out['t_eps']}, constant exhausts the scan",
    )


def test_criterion_11_mollifier_sweep_on_smooth_members(criterion, grid16):
    c = criterion(11, "mollifier sweep converges for smooth members")
    fam = make_ball_family(
        grid16,
        FamilyPolicy(center_stride=0.5, radius_min=0.125, radius_max=1.0, max_center_norm=14.0),
    )
    tees = (0.5, 0.25, 0.125, 0.0625)
    worst_ratio = 0.0
    all_decreasing = True
    n = 0
    for m in CORPUS:
        if not m.smooth:
            continue
        f = m.build(grid16)
        base = bmo_norm(family_stats(f, fam)).value
        ds = [bmo_norm(family_stats(f - mollify(f, t), fam)).value for t in tees]
        all_decreasing &= all(a > b for a, b in zip(ds, ds[1:]))
        worst_ratio = max(worst_ratio, ds[-1] / base)
        n += 1
    c.finish(
        all_decreasing and worst_ratio <= 0.05,
        f"{n} smooth members, distances strictly decreasing, "
        f"worst terminal/norm {worst_ratio:.4f} (cap 0.05)",
    )


def test_criterion_12_extension_verdicts_agree(criterion, op16, family16):
    c = criterion(12, "harmonic-extension and semigroup verdicts agree")
    status = {}
    ratios_finite = True
    ladder = default_ladder(op16.grid)
    for name in ("bump-narrow", "const-one", "zero"):
        rep = exp_extension_agreement(name, op16, family16, ladder)
        status[name] = rep.agree
        if rep.ratio is not None:
            ratios_finite &= math.isfinite(rep.ratio)
    c.finish(
        all(status.values()) and ratios_finite,
        f"agreement {status}, carleson/oscillation ratios finite",
    )


def test_criterion_13_box_quadrature_and_tent_monotonicity(criterion, grid16, family16):
    c = criterion(13, "carleson box quadrature and tent monotonicity")
    lad = TLadder.geometric(grid16.spacing, 4.0, per_decade=8)
    rng = np.random.default_rng(13)
    F = HalfSpaceFunction(grid16, lad, rng.normal(size=(len(lad),) + grid16.shape))

    Fpos = HalfSpaceFunction(grid16, lad, np.abs(F.values))
    # one box scan gives every ball's cylinder; |Fpos|^2 is |F|^2 to the
    # bit, so the quadrature check reads its balls off the same scan
    cylinders = family_box_values(Fpos, family16)
    worst_quad = 0.0
    for i in np.linspace(0, len(family16) - 1, 6).astype(int):
        ref = cylinder_box(F, family16.ball(i))
        worst_quad = max(worst_quad, abs(cylinders[i] - ref) / ref)

    monotone = all(
        cylinders[i] >= carleson_box_strict_tent(Fpos, family16.ball(i)) - 1e-12
        for i in range(len(family16))
    )

    cval = 1.5
    Fc = HalfSpaceFunction(grid16, lad, np.full((len(lad),) + grid16.shape, cval))
    b = family16.ball(0)
    m = int(round(b.radius / grid16.spacing))
    k = int(np.searchsorted(lad.values, b.radius, side="right"))
    closed = cval**2 * (2 * m - 1) * grid16.spacing / b.radius * float(
        np.sum(prefix_weights(lad.values[:k]))
    )
    triv_err = abs(family_box_values(Fc, family16)[0] - closed) / closed

    c.finish(
        worst_quad <= 1e-12 and monotone and triv_err <= 1e-12,
        f"quadrature err {worst_quad:.1e}, cylinder >= strict tent on {len(family16)} balls, "
        f"constant-field closed form err {triv_err:.1e}",
    )
