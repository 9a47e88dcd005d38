import math
import tracemalloc

import numpy as np
import pytest

from oscillab import grid, oscillation, semigroup
from oscillab.corpus import CORPUS, member_by_name
from oscillab.errors import ConfigError, OutOfDomainError
from oscillab.experiments import plan_scenarios
from oscillab.reports import RHO_CONSTANT_UNIT, lacunary_function
from oscillab.family import BallFamily, BallValues, FamilyPolicy, LimitCurve, make_ball_family
from oscillab.grid import Grid, GridFunction
from oscillab.oscillation import (
    FamilyStats,
    bmo_l_norm,
    bmo_norm,
    family_stats,
    oscillation_curves,
    semigroup_difference_values,
    semigroup_oscillation_curves,
    tilde_bmo_l_norm,
    vanishing_verdict,
)
from oscillab.potential import critical_reach, power_potential
from oscillab.semigroup import HalfSpaceFunction
from oracles import (
    ball_member_values,
    ball_sums,
    constant,
    dense_bmo_l_norm,
    dense_values,
    hand_family,
    mean_oscillation,
    naive_sup_reductions,
    prefix_table,
    reach_mask,
    supercritical_mask,
)


@pytest.fixture(scope="module")
def small_family():
    g = Grid(halfwidth=8.0, spacing=0.125)
    return make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(0.5, 2.0)))


def test_family_stats_sums_match_naive(small_family):
    # the prefix-table ball sums behind the sizes, against the member values
    g = small_family.grid
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=g.shape))
    st = family_stats(f, small_family)
    for i in range(len(small_family)):
        vals = ball_member_values(f, small_family.ball(i))
        assert dense_values(st.size)[i] ** 2 * vals.size == pytest.approx(float(np.sum(vals**2)), rel=1e-12)


def _masked_ball_sums(values, family):
    """Oracle: the per-radius mask scan over np.unique of the cell radii,
    with every center rounded to its sample and the table read at index
    arrays."""
    g = family.grid
    idx = g.coord_to_index(family.centers)[:, 0]
    cells = np.rint(family.radii / g.spacing).astype(np.int64)
    p = prefix_table(values)
    out = np.empty(len(family))
    for m in np.unique(cells):
        sel = cells == m
        out[sel] = ball_sums(p, idx[sel], int(m))
    return out


def _stats_oracle(values, family):
    """The oscillation and size from the mask oracle's sums, divided by
    per-ball sample counts 2m - 1 as one family-sized array."""
    counts = 2 * np.rint(family.radii / family.grid.spacing).astype(np.int64) - 1
    mean = _masked_ball_sums(values, family) / counts
    mean_sq = _masked_ball_sums(values**2, family) / counts
    return np.sqrt(np.maximum(0.0, mean_sq - mean**2)), np.sqrt(mean_sq)


def test_block_scan_equals_mask_oracle_at_pipeline_size():
    # the pipeline-small geometry: 2,097,153 samples, exp_pipeline's family;
    # family_stats divides the block-scan sums of f and f^2 by each block's
    # count and makes the oscillation and size in place, bit for bit as
    # from per-ball counts
    g = Grid(halfwidth=8192.0, spacing=2.0**-7)
    assert g.size == 2_097_153
    fam = make_ball_family(
        g, FamilyPolicy(center_stride=2.0, radius_min=4 * g.spacing, radius_max=g.halfwidth / 2.0)
    )
    assert len(fam.blocks) > 10
    v = np.random.default_rng(11).normal(size=g.shape)
    for values in (v, np.abs(v)):
        st = family_stats(GridFunction(g, values), fam)
        osc, size = _stats_oracle(values, fam)
        assert np.array_equal(dense_values(st.oscillation), osc)
        assert np.array_equal(dense_values(st.size), size)


def test_block_scan_equals_mask_oracle_at_lacunary_size():
    # configs/lacunary.json's geometry: 8,388,609 samples, 2,424,815 balls
    # in 19 radius blocks over 131,071 centers
    g = Grid(halfwidth=16384.0, spacing=2.0**-8)
    fam = make_ball_family(
        g, FamilyPolicy(center_stride=0.25, radius_min=4 * g.spacing, radius_max=4096.0, distance_max=4096.0)
    )
    assert len(fam) == 2_424_815 and len(fam.blocks) == 19 and len(fam.lattice) == 131_071
    values = np.random.default_rng(12).normal(size=g.shape)
    st = family_stats(GridFunction(g, values), fam)
    osc, size = _stats_oracle(values, fam)
    assert np.array_equal(dense_values(st.oscillation), osc)
    assert np.array_equal(dense_values(st.size), size)


def test_family_stats_memory_is_one_table_plus_per_ball_arrays():
    # 1,048,577 samples and 65,521 balls: one prefix table is 16 per-ball
    # arrays, so a second sample-sized buffer (f^2 or its own table) shows
    g = Grid(halfwidth=4096.0, spacing=2.0**-7)
    f = GridFunction.from_callable(g, lambda x: np.sin(x) + 0.01 * x)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radius_min=4 * g.spacing, radius_max=2048.0))
    tracemalloc.start()
    try:
        st = family_stats(f, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table, per_ball = (g.size + 1) * 8, len(fam) * 8
    assert table > 16 * per_ball
    # the table, then the two sums, each chunk of sites written and
    # divided in place, which then take the oscillation and the size, and
    # the starts once the table is freed: no third per-ball array beside it
    assert peak < table + 3 * per_ball, (peak - table) / per_ball
    # every ball of this f is a site, so there is a step per ball
    assert st.oscillation.values.size == st.size.values.size == len(fam)


def test_family_stats_match_per_ball(small_family):
    g = small_family.grid
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.normal(size=g.shape))
    st = family_stats(f, small_family)
    for i in range(len(small_family)):
        b = small_family.ball(i)
        assert ball_member_values(f, b).size == 2 * round(b.radius / g.spacing) - 1
        assert dense_values(st.oscillation)[i] == pytest.approx(mean_oscillation(f, b), abs=1e-12)


def test_shared_stats_give_identical_reports(small_family):
    f = GridFunction(small_family.grid, np.random.default_rng(5).normal(size=small_family.grid.shape))
    st = family_stats(f, small_family)
    assert st.family is small_family
    # the norms and curves are reductions of the scan they are given: two
    # scans of one pair give equal reports, a scan of 2f doubled ones
    again = family_stats(f, small_family)
    assert bmo_norm(st) == bmo_norm(again)
    assert bmo_l_norm(st, 1.0) == bmo_l_norm(again, 1.0)
    shared = oscillation_curves(st, 1.0)
    fresh = oscillation_curves(again, 1.0)
    assert shared.keys() == fresh.keys()
    for mode, c in fresh.items():
        assert np.array_equal(shared[mode].values, c.values, equal_nan=True)
        assert np.array_equal(shared[mode].counts, c.counts)
    doubled = family_stats(GridFunction(f.grid, 2.0 * f.values), small_family)
    assert bmo_norm(doubled).value == pytest.approx(2.0 * bmo_norm(st).value, rel=1e-12)


def test_family_rejects_offlattice_geometry():
    # a lattice is a range of sample indices at a positive step: centers,
    # an index array or a descending range are refused by type
    g = Grid(halfwidth=8.0, spacing=0.125)
    for lattice in ([0.05], np.array([64]), [64, 65], range(70, 60, -1)):
        with pytest.raises(ConfigError, match="lattice must be a range"):
            BallFamily(g, lattice, [(8, 0, 1)], [1.0], [1.0])
    assert BallFamily(g, range(64, 65), [(8, 0, 1)], [1.0], [1.0]).centers.tolist() == [[0.0]]


@pytest.fixture
def no_tables(monkeypatch):
    """Fail the test if a scan allocates a prefix table."""

    def refuse(*args, **kwargs):
        raise AssertionError("a prefix table was allocated")

    for mod in (grid, oscillation, semigroup):
        monkeypatch.setattr(mod, "SummedTable", refuse)


def _hand_family(g, centers, radii):
    """The family of the balls B(centers[i], radii[i]) in order: each run
    of equal radii is one block, over the distinct centers from its
    first center on."""
    centers, radii = np.asarray(centers, dtype=np.float64), np.asarray(radii, dtype=np.float64)
    xs = np.unique(centers)
    cuts = np.flatnonzero(np.diff(radii)) + 1
    blocks = [(round(r[0] / g.spacing), int(np.searchsorted(xs, c[0])), c.size)
              for c, r in zip(np.split(centers, cuts), np.split(radii, cuts))]
    fam = hand_family(g, xs, blocks, [1.0], [1.0])
    assert np.array_equal(fam.centers[:, 0], centers), "the blocks' centers are not runs of the distinct centers"
    return fam


@pytest.mark.parametrize(
    "centers, radii, match",
    [
        # centers on the lattice but not one index step apart
        ([0.0, 0.25, 0.75], [1.0, 1.0, 1.0], "arithmetic run"),
        # a second block off the first block's run: the distinct centers
        # are then no arithmetic run
        ([0.0, 1.0, 2.0, 0.5], [1.0, 1.0, 1.0, 2.0], "arithmetic run"),
        # a center between samples
        ([0.0, 0.0625], [1.0, 1.0], "lattice"),
        # radii of no cell: below half the spacing, and 0
        ([0.0, 0.125], [0.0625, 0.0625], "positive multiples"),
        ([0.0, 0.125], [0.0, 0.0], "positive multiples"),
    ],
)
def test_scans_refuse_a_family_off_the_run_plan_before_any_table(no_tables, centers, radii, match):
    # a family no scan could read is refused when it is built, so no scan
    # starts on it
    with pytest.raises(ConfigError, match=match):
        _hand_family(Grid(halfwidth=8.0, spacing=0.125), centers, radii)


@pytest.mark.parametrize(
    "xs, blocks, match",
    [
        # a block that runs past the centers, and an empty one
        ([0.0, 1.0, 2.0], [(8, 0, 3), (16, 2, 2)], "not a nonempty run"),
        ([0.0, 1.0, 2.0], [(8, 0, 3), (16, 1, 0)], "not a nonempty run"),
        # no block at all
        ([0.0], [], "empty ball family"),
    ],
)
def test_blocks_off_the_centers_are_refused_when_built(xs, blocks, match):
    with pytest.raises(ConfigError, match=match):
        hand_family(Grid(halfwidth=8.0, spacing=0.125), xs, blocks, [1.0], [1.0])


@pytest.mark.parametrize(
    "centers, radii",
    [
        # the last ball touches x = 8, the first touches x = -8
        ([6.0, 7.0], [1.0, 1.0]),
        ([-7.0, -6.0], [1.0, 1.0]),
        # one ball leaving the box
        ([7.5], [1.0]),
        # the last ball of the second block touches x = 8
        ([-2.0, 0.0, 2.0, 0.0, 2.0], [1.0, 1.0, 1.0, 6.0, 6.0]),
    ],
)
def test_scans_refuse_a_family_whose_end_ball_touches_the_box(no_tables, centers, radii):
    # the refusal of a box-touching ball that every family scan relies on,
    # made when the family is built, from the end balls of each block's run
    g = Grid(halfwidth=8.0, spacing=0.125)
    with pytest.raises(OutOfDomainError, match="touches or leaves the box"):
        _hand_family(g, centers, radii)
    # a ball one cell short of the faces is inside
    inside = _hand_family(g, [-6.875, 6.875], [1.0, 1.0])
    assert [b.run for b in inside.blocks] == [range(9, 120, 110)]


def test_a_single_center_is_a_run():
    g = Grid(halfwidth=8.0, spacing=0.125)
    f = GridFunction(g, np.random.default_rng(6).normal(size=g.shape))
    for c in (-3.0, 0.0, 2.5):
        fam = _hand_family(g, [c, c], [0.5, 1.0])
        ci = g.half_cells + round(c / g.spacing)
        assert [b.run for b in fam.blocks] == [range(ci, ci + 1)] * 2
        st = family_stats(f, fam)
        osc, size = dense_values(st.oscillation), dense_values(st.size)
        for j in range(len(fam)):
            vals = ball_member_values(f, fam.ball(j))
            assert osc[j] == pytest.approx(mean_oscillation(f, fam.ball(j)), abs=1e-12)
            assert size[j] ** 2 * vals.size == pytest.approx(float(np.sum(vals**2)), rel=1e-12, abs=1e-12)


def test_bmo_norm_linear_closed_form(small_family):
    # oscillation of f(x) = x over B(c, r = mh) is sqrt(r(r - h)/3),
    # independent of the center
    g = small_family.grid
    f = GridFunction.from_callable(g, lambda x: x)
    rep = bmo_norm(family_stats(f, small_family))
    want = math.sqrt(2.0 * (2.0 - g.spacing) / 3.0)
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert small_family.radii[rep.arg_index] == 2.0
    assert rep.n_balls == len(small_family)


def test_bmo_norm_constant_is_zero(small_family):
    f = constant(small_family.grid, 5.0)
    assert bmo_norm(family_stats(f, small_family)).value == 0.0


def test_split_norm_parts(small_family):
    # rho = 1 splits the family: r = 0.5 subcritical, r = 2 supercritical.
    # For f(x) = x: osc part sqrt(0.5(0.5-h)/3); size part
    # sqrt(c^2 + r(r-h)/3) maximised at the largest |c|
    g = small_family.grid
    h = g.spacing
    f = GridFunction.from_callable(g, lambda x: x)
    rep = bmo_l_norm(family_stats(f, small_family), 1.0)
    assert rep.oscillation_present and rep.size_present
    want_osc = math.sqrt(0.5 * (0.5 - h) / 3.0)
    big = small_family.radii == 2.0
    c_max = float(np.max(np.abs(small_family.centers[big, 0])))
    want_size = math.sqrt(c_max**2 + 2.0 * (2.0 - h) / 3.0)
    assert rep.oscillation_part == pytest.approx(want_osc, rel=1e-12)
    assert rep.size_part == pytest.approx(want_size, rel=1e-12)
    assert rep.value == pytest.approx(want_osc + want_size, rel=1e-12)
    assert small_family.radii[rep.oscillation_arg] == 0.5
    assert small_family.radii[rep.size_arg] == 2.0


def test_split_norm_infinite_rho_drops_size(small_family):
    f = GridFunction.from_callable(small_family.grid, lambda x: x)
    rep = bmo_l_norm(family_stats(f, small_family), np.inf)
    assert rep.oscillation_present and not rep.size_present
    assert rep.size_part == 0.0
    assert rep.value == rep.oscillation_part


def test_split_norm_all_supercritical(small_family):
    f = constant(small_family.grid, 1.0)
    rep = bmo_l_norm(family_stats(f, small_family), 0.25)
    assert not rep.oscillation_present and rep.size_present
    assert rep.value == pytest.approx(1.0)


def test_split_norm_matches_the_masked_sup_oracle():
    # values on a few levels, so the sup of each part ties across radius
    # blocks and the first attaining ball decides the argument; reaches
    # that tie a center's sample distance to the origin's, sit one sample
    # either side of it, or keep or drop a block whole, and scalar rho at,
    # between and beyond the radii
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0))
    rng = np.random.default_rng(11)
    mean, mean_sq = rng.integers(0, 2, len(fam)) * 0.5, rng.integers(1, 5, len(fam)) * 1.0
    osc, size = np.sqrt(np.maximum(0.0, mean_sq - mean**2)), np.sqrt(mean_sq)
    # the same values as steps of a few balls each, some across the end of
    # a block, so a part's cuts fall inside steps, and a step the cut
    # splits ties with the part's sup on both sides of the cut
    starts = np.unique(np.append(0, rng.integers(0, len(fam), size=len(fam) // 3)))
    stats_of = {
        "whole": FamilyStats(BallValues.whole(fam, osc), BallValues.whole(fam, size)),
        "steps": FamilyStats(BallValues(fam, starts, osc[starts]), BallValues(fam, starts, size[starts])),
    }
    assert not set(b.start for b in fam.blocks) <= set(starts.tolist())
    ties = np.array([16, 10, 4, 2])  # |c| = 4, 2.5, 1 and 0.5
    reaches = [ties, ties + 1, ties - 1, np.array([g.size, 0, g.size, 0])]
    for stats in stats_of.values():
        for rho in (*reaches, 0.0, 1.0, 3.0, 4.0, 8.0, 9.0, np.inf):
            mask = reach_mask(fam, rho) if np.ndim(rho) else supercritical_mask(fam, rho)
            got = bmo_l_norm(stats, rho)
            assert got == dense_bmo_l_norm(stats, mask)
            assert got.oscillation_present or got.size_present


def test_semigroup_difference_eigenvector_closed_form(op16, family16):
    # for an eigenvector, f - e^{-r sqrt(L)} f = (1 - e^{-r s}) f ball by ball
    g = op16.grid
    f = GridFunction(op16.grid, op16.synthesize(np.eye(op16.interior_count)[5]))
    vals = semigroup_difference_values(f, op16, family16)
    s = math.sqrt(op16.eigenvalues[5])
    p = prefix_table(f.values**2)
    idx = g.coord_to_index(family16.centers)[:, 0]
    for i in (0, len(family16) // 2, len(family16) - 1):
        r = family16.radii[i]
        m = int(round(r / g.spacing))
        local = float(ball_sums(p, [idx[i]], m)[0])
        want = (1 - math.exp(-r * s)) * math.sqrt(local * g.spacing / r)
        assert vals[i] == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_tilde_norm_zero_function(op16, family16):
    f = constant(op16.grid, 0.0)
    assert tilde_bmo_l_norm(f, op16, family16).value == 0.0


def test_semigroup_curves_modes(op16, family16):
    f = constant(op16.grid, 1.0)
    curves = semigroup_oscillation_curves(f, op16, family16)
    assert set(curves) == {"small-radius", "large-radius", "far-from-origin"}
    # e^{-r sqrt(L)} 1 != 1 for V = 1, so the metric is bounded away from 0
    # on large balls
    assert curves["large-radius"].terminal_value() > 0.1


def test_oscillation_curves_constant():
    g = Grid(halfwidth=8.0, spacing=0.125)
    fam = make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(1.0, 2.0)))
    f = constant(g, 1.0)
    curves = oscillation_curves(family_stats(f, fam), 2.0**-0.5)
    assert set(curves) == {
        "small-radius",
        "large-radius",
        "far-from-origin",
        "large-and-supercritical",
        "far-and-supercritical",
    }
    for mode in ("small-radius", "large-radius", "far-from-origin"):
        lad, vals = curves[mode].present_values()
        assert np.allclose(vals, 0.0)
    # every ball is supercritical for a constant and its size metric is 1
    assert curves["far-and-supercritical"].terminal_value() == pytest.approx(1.0)


def _curve(mode, values):
    vals = np.asarray(values, dtype=np.float64)
    return LimitCurve(
        mode,
        np.arange(1.0, vals.size + 1.0),
        vals,
        np.where(np.isnan(vals), 0, 1).astype(np.int64),
    )


def test_verdict_vanishing():
    v = vanishing_verdict(_curve("small-radius", [0.01, 0.05, 0.2]), tol=0.02)
    assert v.verdict == "VANISHING"
    assert v.terminal == 0.01
    assert v.decay_factor == pytest.approx(20.0)


def test_verdict_nonvanishing_flat():
    v = vanishing_verdict(_curve("far-from-origin", [0.5, 0.5, 0.5]), tol=0.05)
    assert v.verdict == "NONVANISHING"
    assert v.terminal == 0.5


def test_verdict_inconclusive_flat_small():
    v = vanishing_verdict(_curve("small-radius", [0.01, 0.01, 0.01]), tol=0.02)
    assert v.verdict == "INCONCLUSIVE"


def test_verdict_zero_curve_zero_tol():
    v = vanishing_verdict(_curve("small-radius", [0.0, 0.0, 0.0]), tol=0.0)
    assert v.verdict == "VANISHING"
    assert v.decay_factor == math.inf


def test_verdict_orientation_far_mode():
    # far modes approach the limit at the large end of the ladder
    v = vanishing_verdict(_curve("far-from-origin", [0.2, 0.05, 0.01]), tol=0.02)
    assert v.verdict == "VANISHING"


def test_verdict_requirements():
    # fewer than 3 present buckets show no trend: INCONCLUSIVE, never an error
    for values in ([np.nan] * 3, [0.1, np.nan, np.nan], [0.0, 0.5, np.nan]):
        v = vanishing_verdict(_curve("small-radius", values), tol=0.1)
        assert (v.verdict, v.n_present) == ("INCONCLUSIVE", 3 - int(np.isnan(values).sum()))
    v = vanishing_verdict(_curve("small-radius", [np.nan] * 3), tol=0.1)
    assert (v.terminal, v.initial, v.decay_factor) == (None, None, None)
    v = vanishing_verdict(_curve("small-radius", [0.0, 0.5, np.nan]), tol=0.1)
    assert (v.terminal, v.initial, v.decay_factor) == (0.0, 0.5, math.inf)
    with pytest.raises(ConfigError):
        vanishing_verdict(_curve("small-radius", [0.1, 0.1, 0.1]), tol=-1.0)


# ---------------------------------------------------------------------------
# the reductions of stats held on the balls that meet f's window


def _corpus_case(name):
    (plan,) = plan_scenarios({"scenarios": [{"id": "bmo-norms"}]})
    return member_by_name(name).build(plan.grid), plan.family


def _constant_case(b):
    (plan,) = plan_scenarios({"scenarios": [{"id": "bmo-norms"}]})
    return GridFunction.constant(plan.grid, b), plan.family


def _small_lacunary_case():
    # the lacunary workload's small config, as the benchmark's self-test runs it
    (plan,) = plan_scenarios({"scenarios": [{
        "id": "lacunary-separation", "k_max": 3, "exponent": 1.05, "amplitude": 0.5, "halfwidth": 128.0,
        "spacing": 0.0625, "stride": 0.5, "radius_max": 32.0, "distance_max": 32.0, "assert_verdicts": False,
    }]})
    return lacunary_function(plan.grid, 3), plan.family


_REDUCTION_CASES = {
    **{f"corpus-{m.name}": (lambda m=m: _corpus_case(m.name)) for m in CORPUS},
    "small-lacunary": _small_lacunary_case,
    "const-one": lambda: _constant_case(1.0),
    "const-neg-half": lambda: _constant_case(-0.5),
}


@pytest.mark.parametrize("case", sorted(_REDUCTION_CASES))
def test_sup_reductions_match_the_naive_oracle(case):
    # bmo_norm, bmo_l_norm (values and args) and the five curves of the
    # stored runs and their fill, bit for bit against the ball-by-ball
    # oracle on the dense expansion, for scalar rho and per-block reaches
    f, fam = _REDUCTION_CASES[case]()
    st = family_stats(f, fam)
    osc, size = dense_values(st.oscillation), dense_values(st.size)
    if f.hi == f.lo:
        assert st.oscillation.starts.tolist() == [0] and osc[0] == 0.0 and size[0] == abs(f.background)
    radii = [b.radius for b in fam.blocks]
    reaches = [critical_reach(power_potential(eps, 1, amplitude=a), fam.grid, fam.lattice, radii)
               for eps, a in ((1.05, 0.5), (1.5, 1.0))]
    assert any(0 < np.count_nonzero(reach_mask(fam, r)) < len(fam) for r in reaches)
    for rho in (RHO_CONSTANT_UNIT, 0.0, 2.0, np.inf, *reaches):
        plain, split, curves = naive_sup_reductions(osc, size, fam, rho)
        assert bmo_norm(st) == plain
        assert bmo_l_norm(st, rho) == split
        got = oscillation_curves(st, rho)
        assert got.keys() == curves.keys()
        for mode, want in curves.items():
            assert got[mode].values.tobytes() == want.values.tobytes(), (mode, rho)
            assert np.array_equal(got[mode].counts, want.counts), (mode, rho)


def test_constant_reductions_attain_at_the_first_ball():
    # a declared constant is one step: every oscillation is 0.0, so the
    # sup is attained first at ball 0, and the size part at the first
    # supercritical ball
    for b in (1.0, -0.5, 0.0):
        f, fam = _constant_case(b)
        st = family_stats(f, fam)
        assert st.oscillation.starts.tolist() == st.size.starts.tolist() == [0]
        assert bmo_norm(st) == oscillation.OscillationReport(0.0, 0, len(fam))
        split = bmo_l_norm(st, 2.0)
        first_super = next(blk.start for blk in fam.blocks if blk.radius >= 2.0)
        assert (split.oscillation_arg, split.size_arg, split.size_part) == (0, first_super, abs(b))


def _lacunary_scan():
    """(family, f, stats, tracemalloc peak of family_stats, the bytes it
    keeps) at the geometry of configs/lacunary.json."""
    (plan,) = plan_scenarios({"scenarios": [{
        "id": "lacunary-separation", "k_max": 8, "halfwidth": 16384.0, "spacing": 2.0**-8, "stride": 0.25,
        "radius_max": 4096.0, "distance_max": 4096.0,
    }]})
    f = lacunary_function(plan.grid, 8)
    tracemalloc.start()
    try:
        st = family_stats(f, plan.family)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return plan.family, f, st, peak, kept


def test_family_stats_at_lacunary_size_allocates_no_family_sized_array():
    # configs/lacunary.json: 2,424,815 balls, whose sums change at no more
    # than 2,179 of them, the steps, about the 8 pieces of 511 samples
    # each (their hull holds 1,679,359 samples); besides the pieces'
    # prefix table, the scan holds a dozen arrays of its steps, together
    # less than a fiftieth of one family-sized float64 array
    fam, f, st, peak, _ = _lacunary_scan()
    steps, samples = st.oscillation.starts.size, sum(v.size for _, v in f.pieces)
    assert (len(fam), f.hi - f.lo, len(f.pieces), samples, steps) == (2_424_815, 1_679_359, 8, 4_088, 2_179)
    table, held, slack = (samples + 1) * 8, 12 * steps * 8, 1 << 16
    assert held + slack < len(fam) * 8 // 50
    assert peak < table + held + slack, (peak - table) / (steps * 8)


def test_family_stats_at_lacunary_size_holds_a_few_arrays_of_its_steps():
    # one ball_sum per table reads every step's two ends: the scan stays
    # within the table and ten arrays of the steps, plus 64 KB of Python
    # objects, and keeps one array of starts, which the oscillation and
    # the size share, and their two arrays of values (plus 16 KB that a
    # first call in a fresh process leaves in numpy's and Python's caches)
    fam, f, st, peak, kept = _lacunary_scan()
    steps, samples = st.oscillation.starts.size, sum(v.size for _, v in f.pieces)
    assert st.size.starts is st.oscillation.starts and st.size.values.size == steps
    assert peak <= 8 * (samples + 1) + 80 * steps + (1 << 16), peak
    assert kept <= 24 * steps + (1 << 14), kept


