import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillab.errors import ConfigError
from oscillab.family import (
    MODES,
    PLAIN_MODES,
    BallFamily,
    BallValues,
    FamilyPolicy,
    LimitCurve,
    bucketed_sup,
    make_ball_family,
    merge_ascending,
    supercritical_spans,
)
from oscillab.grid import Ball, Grid
from oscillab.oscillation import FamilyStats, bmo_l_norm
from oracles import (
    dense_bucketed_sup,
    dense_values,
    enumerate_family,
    hand_family,
    reach_mask,
    sorted_segment_plan,
    sorted_supercritical_spans,
    supercritical_mask,
)


def test_hand_counted_enumeration():
    # X=4, h=0.25, stride 1, radii {1, 2}: drop rule |c| + r < X - h/4
    # keeps centers |c| <= 2 at r=1 (5 balls) and |c| <= 1 at r=2 (3 balls)
    g = Grid(halfwidth=4.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(1.0, 2.0)))
    assert len(fam) == 8
    r1 = fam.centers[fam.radii == 1.0][:, 0]
    assert np.array_equal(r1, [-2.0, -1.0, 0.0, 1.0, 2.0])
    r2 = fam.centers[fam.radii == 2.0][:, 0]
    assert np.array_equal(r2, [-1.0, 0.0, 1.0])


def test_centers_sorted_within_radius_block():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(
        g, FamilyPolicy(center_stride=0.5, radii=(0.5, 1.0, 2.0), max_center_norm=5.0)
    )
    assert fam.centers.shape == (len(fam), 1)
    for r in (0.5, 1.0, 2.0):
        block = fam.centers[fam.radii == r][:, 0]
        assert block.size > 1
        assert np.all(np.diff(block) > 0)


def test_radius_blocks_cover_every_ball_once():
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0))
    blocks, xs = fam.blocks, g.coords(fam.lattice)
    assert [b.cell_radius for b in blocks] == [4, 8, 16, 32]
    assert blocks[0].start == 0 and blocks[-1].stop == len(fam)
    for b, nxt in zip(blocks, blocks[1:]):
        assert b.stop == nxt.start
    for b in blocks:
        assert b.stop > b.start and b.radius == b.cell_radius * g.spacing
        assert np.all(fam.radii[b.start : b.stop] == b.radius)
        o = fam.lattice.index(b.run.start)
        assert np.array_equal(fam.centers[b.start : b.stop, 0], xs[o : o + b.count])
        assert b.run == fam.lattice[o : o + b.count] and list(b.run) == g.coord_to_index(xs[o : o + b.count]).tolist()
    # every center fits the smallest radius, so the lattice is the family's distinct centers
    assert np.array_equal(xs, np.unique(fam.centers[:, 0]))
    assert sum(b.count for b in blocks) == len(fam)


def test_xs_are_the_marks_that_fit_the_smallest_radius():
    # X=4, h=0.25, stride 1: the marks -4 .. 4, of which |c| + 1 < X - h/4
    # keeps -2 .. 2; the marks 3 and 4 fit no radius and are not centers
    g = Grid(halfwidth=4.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(1.0, 2.0)))
    assert np.array_equal(g.coords(fam.lattice), [-2.0, -1.0, 0.0, 1.0, 2.0]) and fam.lattice == range(8, 25, 4)
    assert [(b.cell_radius, b.run, b.count) for b in fam.blocks] == [(4, range(8, 25, 4), 5), (8, range(12, 21, 4), 3)]


def test_ball_reads_its_block():
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0))
    c, r = fam.centers[:, 0], fam.radii
    assert all(fam.ball(i) == Ball((c[i],), r[i]) for i in range(len(fam)))
    with pytest.raises(IndexError):
        fam.ball(len(fam))


def test_supercritical_spans_are_the_radius_blocks():
    # one span per radius block, within it: a scalar rho keeps or drops the
    # block whole; a reach per block, a count of samples, keeps the balls
    # whose center lies fewer samples from the origin's, one run about the
    # origin, a reach that ties a center's distance leaving it out.  The
    # centers lie every 2 samples; the reaches tie |c| = 3 (12 samples) and
    # 8 (32), sit one sample either side, or keep a block whole or drop it
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0))
    reaches = [np.array([g.size, 12, 13, 0]), np.array([1, 31, 4, g.size]), np.array([11, 33, 32, 0])]
    for rho in (2.0, _up(2.0), 0.0, np.inf, *reaches):
        spans = list(supercritical_spans(fam, rho))
        assert [b for b, *_ in spans] == list(fam.blocks)
        assert all(b.start <= a <= z <= b.stop for b, a, z in spans)
        keep = np.zeros(len(fam), dtype=bool)
        for _, a, z in spans:
            keep[a:z] = True
        want = reach_mask(fam, rho) if np.ndim(rho) else supercritical_mask(fam, rho)
        assert np.array_equal(keep, want)
    assert [z - a for _, a, z in supercritical_spans(fam, reaches[0])] == [59, 11, 13, 0]


def test_a_reach_is_one_non_negative_integer_per_radius_block():
    # a reach counts samples: a float reach (a coordinate, or +inf), a
    # negative one, one per center or one too few is refused by the spans,
    # the split norm and the supercritical curves alike
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0))
    stats = FamilyStats(*(BallValues.whole(fam, np.ones(len(fam))) for _ in range(2)))
    ok = np.array([g.size, 12, 0, 3])
    assert len(list(supercritical_spans(fam, ok))) == len(fam.blocks)
    bad = [ok.astype(np.float64), np.array([np.inf, 3.0, 0.0, 1.0]), np.array([5, -1, 0, 3]),
           np.ones(len(fam.lattice), dtype=np.intp), ok[:-1], ok > 0]
    for reach in bad:
        with pytest.raises(ConfigError, match="not one non-negative integer per radius block"):
            list(supercritical_spans(fam, reach))
        with pytest.raises(ConfigError):
            bmo_l_norm(stats, reach)
        with pytest.raises(ConfigError):
            bucketed_sup(stats.size, "far-and-supercritical", rho=reach)


def test_hand_built_blocks_give_their_balls_in_order():
    # blocks are given as (cell radius, offset, count) over the lattice,
    # the centers 0 and 1, in any order of radii
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = BallFamily(g, range(32, 37, 4), [(8, 1, 1), (4, 0, 2)], [1.0, 2.0], [1.0, 2.0])
    assert len(fam) == 3
    assert [fam.ball(i) for i in range(3)] == [Ball((1.0,), 2.0), Ball((0.0,), 1.0), Ball((1.0,), 1.0)]
    assert fam.ball(-1) == fam.ball(2)
    assert np.array_equal(fam.centers, [[1.0], [0.0], [1.0]]) and np.array_equal(fam.radii, [2.0, 1.0, 1.0])
    assert [(b.start, b.stop, b.run) for b in fam.blocks] == [(0, 1, range(36, 37)), (1, 3, range(32, 40, 4))]


def test_policy_validation():
    g = Grid(halfwidth=4.0, spacing=0.25)
    with pytest.raises(ConfigError):
        make_ball_family(g, FamilyPolicy(center_stride=0.3))  # not a multiple of h
    with pytest.raises(ConfigError):
        make_ball_family(g, FamilyPolicy(center_stride=1e-9))  # 0 h, not a positive multiple
    with pytest.raises(ConfigError):
        make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(3.0,)))  # > X/2
    with pytest.raises(ConfigError):
        # geometric ladder must start at >= 4h
        make_ball_family(g, FamilyPolicy(center_stride=1.0, radius_min=0.5))
    # explicit radii with a ladder bound: the bound would go unread
    for bound in ({"radius_min": 1.0}, {"radius_max": 2.0}, {"radius_min": 1.0, "radius_max": 2.0}):
        with pytest.raises(ConfigError, match="not both"):
            make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(1.0,), **bound))


def test_geometric_ladder_default_range():
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=4.0))
    # 4h = 1 doubling up to X/2 = 8
    assert np.array_equal(fam.radius_ladder, [1.0, 2.0, 4.0, 8.0])


@pytest.mark.parametrize("mode", MODES)
def test_segment_plan_tiles_each_block_into_runs_of_one_bucket(mode):
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0, distance_max=8.0))
    plan = fam.segment_plan(mode)
    assert fam.segment_plan(mode) is plan
    sizes = np.diff(plan.starts, append=len(fam))
    assert plan.starts[0] == 0 and np.all(sizes > 0)
    # every radius block starts a segment
    assert {b.start for b in fam.blocks} <= set(plan.starts.tolist())
    # each ball's bucket from its own key, as the per-ball definition gives it
    if mode == "small-radius":
        at = np.searchsorted(fam.radius_ladder * (1 + 1e-12), fam.radii, side="left")
    elif mode in ("far-from-origin", "far-and-supercritical"):
        at = np.searchsorted(fam.distance_ladder * (1 - 1e-12), np.abs(fam.centers[:, 0]) - fam.radii, side="right")
    else:
        at = np.searchsorted(fam.radius_ladder * (1 - 1e-12), fam.radii, side="right")
    assert np.array_equal(np.repeat(plan.buckets, sizes), at)


def test_bucketed_sup_small_radius_buckets():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0, 2.0)))
    metric = fam.radii.copy()  # sup of r over {r <= a} is min(a, r_max)
    curve = bucketed_sup(BallValues.whole(fam, metric), "small-radius")
    assert curve.values[0] == 1.0
    assert curve.values[-1] == 2.0
    assert curve.terminal_value() == 1.0
    assert curve.initial_value() == 2.0


def test_bucketed_sup_far_mode_uses_distance_ladder():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(
        g,
        FamilyPolicy(center_stride=1.0, radii=(1.0,), distance_max=4.0),
    )
    curve = bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "far-from-origin")
    assert np.array_equal(curve.ladder, [1.0, 2.0, 4.0])
    # balls with |c| - 1 >= 4 need |c| >= 5, still inside the drop rule at X=8
    assert curve.counts[-1] > 0


def test_absent_bucket_is_nan_not_zero():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(
        g,
        FamilyPolicy(
            center_stride=1.0,
            radii=(1.0,),
            max_center_norm=2.0,
            distance_max=8.0,
        ),
    )
    curve = bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "far-from-origin")
    assert curve.counts[-1] == 0
    assert np.isnan(curve.values[-1])
    assert not curve.present[-1]


def test_supercritical_mode_needs_rho():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    with pytest.raises(ConfigError):
        bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "large-and-supercritical")
    # rho = +inf disqualifies every ball
    curve = bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "large-and-supercritical", rho=np.inf)
    assert not curve.present.any()
    # an array is read as one reach per radius block: one per center, or
    # one too many, is refused
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0, 2.0)))
    assert len(fam.lattice) > len(fam.blocks)
    for k in (len(fam.lattice), len(fam.blocks) + 1):
        with pytest.raises(ConfigError, match="not one non-negative integer per radius block"):
            bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "large-and-supercritical", rho=np.ones(k, dtype=np.intp))
    curve = bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "large-and-supercritical", rho=np.array([0, g.size]))
    assert curve.counts[0] == fam.blocks[1].count


def test_supercritical_mask_filters_by_rho():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0, 2.0)))
    curve = bucketed_sup(BallValues.whole(fam, fam.radii.copy()), "large-and-supercritical", rho=1.5)
    # only r=2 balls qualify
    assert curve.values[curve.present][0] == 2.0


_ASCENDING = st.lists(st.integers(-4, 4), max_size=12).map(lambda v: np.array(sorted(v), dtype=np.intp))


@given(_ASCENDING, _ASCENDING)
@example(np.array([], dtype=np.intp), np.array([], dtype=np.intp))
@example(np.array([], dtype=np.intp), np.array([2, 2], dtype=np.intp))
@example(np.array([1, 1, 3], dtype=np.intp), np.array([], dtype=np.intp))
@example(np.array([0, 2, 2, 5], dtype=np.intp), np.array([2, 2, 2, 3, 3], dtype=np.intp))
def test_merge_ascending_is_the_sorted_concatenation(a, b):
    # few distinct values, so duplicates within a run and across both, and
    # runs that are empty, interleave or lie wholly on one side
    got = merge_ascending(a, b)
    assert got.dtype == np.intp and np.array_equal(got, np.sort(np.concatenate((a, b))))


def test_metric_length_mismatch():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    with pytest.raises(ConfigError, match="does not match the family"):
        BallValues.whole(fam, np.ones(len(fam) + 1))
    # steps that do not start at ball 0, that repeat or descend, that
    # start past the family or are not 1-D, or values not one per step
    n = len(fam)
    for starts, k in ((np.array([1, 3]), 2), (np.array([0, 2, 2]), 3), (np.array([0, 3, 2]), 3),
                      (np.array([0, n]), 2), (np.array([0, 2]), 3), (np.array([], dtype=np.intp), 0),
                      (np.zeros((1, 1), dtype=np.intp), 1)):
        with pytest.raises(ConfigError):
            BallValues(fam, starts, np.ones(k))


def test_unknown_mode_rejected():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    with pytest.raises(ConfigError):
        bucketed_sup(BallValues.whole(fam, np.ones(len(fam))), "tiny-radius")
    with pytest.raises(ConfigError):
        LimitCurve("tiny-radius", np.array([1.0]), np.array([1.0]), np.array([1]))


def _held_on_steps(metric, fam):
    """metric as a step function with random breakpoints, inside radius
    blocks and across their ends: each step holds metric's value at its
    first ball, so steps tie where metric does."""
    rng = np.random.default_rng(len(fam))
    starts = np.unique(np.append(0, rng.integers(0, len(fam), size=max(1, len(fam) // 5))))
    return BallValues(fam, starts, metric[starts])


def _assert_same_curves(metric, fam, rho):
    """bucketed_sup against the per-cutoff mask oracle in every mode, for
    the metric stored whole and held on random steps; rho is a scalar or
    one reach per radius block."""
    mask = reach_mask(fam, rho) if np.ndim(rho) else supercritical_mask(fam, rho)
    for values in (BallValues.whole(fam, metric), _held_on_steps(metric, fam)):
        for mode in MODES:
            got = bucketed_sup(values, mode, rho=rho)
            want = dense_bucketed_sup(dense_values(values), fam, mode, mask)
            assert np.array_equal(got.ladder, want.ladder)
            assert np.array_equal(got.values, want.values, equal_nan=True), mode
            assert np.array_equal(got.counts, want.counts), mode
            assert got.values.dtype == want.values.dtype and got.counts.dtype == want.counts.dtype


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def _reach_of(fam, rho):
    """Per radius block, the smallest sample distance |i - n0| among the
    centers at which the block's radius is below rho, a per-center array
    nondecreasing in |x|, or grid.size where there is none."""
    d = np.abs(np.asarray(fam.lattice) - fam.grid.half_cells)
    return np.array([np.min(d[b.radius < rho], initial=fam.grid.size) for b in fam.blocks])


def _cutoff_with_edge(edge, factor):
    """A cutoff a whose edge a * factor, as bucketed_sup computes it, is
    edge: one of the floats within a few ulps of edge / factor."""
    near = edge / factor + np.arange(-4, 5) * np.spacing(edge)
    hit = near[near * factor == edge]
    assert hit.size, (edge, factor)
    return hit[0]


def test_bucketed_sup_matches_oracle_at_the_cutoff_edges():
    # radius and inner-distance keys k on the lattice, and cutoffs whose
    # edges a (1 +- 1e-12) fall exactly at k and one ulp either side: the
    # small-radius edge a (1 + 1e-12), the edge a (1 - 1e-12) of the other
    # modes, and a itself
    h = 0.25
    keys = np.array([3.0, 6.0, 12.0, 24.0])
    edges = np.concatenate([keys, _up(keys), _down(keys)])
    ladder = np.unique(np.concatenate(
        [edges] + [[_cutoff_with_edge(e, f) for e in edges] for f in (1 + 1e-12, 1 - 1e-12)]))
    # a probe block of radius h over every center of xs, whose inner
    # distances |c| - h hit each key, and one ball of radius k at 0 per key
    xs = np.arange(-(keys[-1] + h), keys[-1] + 2 * h, h)
    zero = int(np.searchsorted(xs, 0.0))
    blocks = [(1, 0, xs.size)] + [(round(k / h), zero, 1) for k in keys]
    g = Grid(halfwidth=64.0, spacing=h)
    fam = hand_family(g, xs, blocks, ladder, ladder)
    for k in keys:
        assert k in fam.radii and k in np.abs(fam.centers[:, 0]) - fam.radii
    metric = np.random.default_rng(7).uniform(size=len(fam))
    # the probe block's reach at a key, whose centers |c| = k + h (k / h +
    # 1 samples) it ties, or one sample either side; each ball at 0 kept (a
    # reach of 1) or dropped (a reach of 0, which ties it)
    for k in keys:
        for edge in (round(k / h) + 1, round(k / h) + 2, round(k / h)):
            for at_zero in (0, 1):
                reach = np.array([edge] + [at_zero, g.size, at_zero, g.size])
                _assert_same_curves(metric, fam, reach)
    assert any(bucketed_sup(BallValues.whole(fam, metric), m, rho=reach).present.any() for m in MODES)

    # segment edge cases: a block of negative centers only, one of
    # nonnegative centers only (0 among them) and two one-ball blocks;
    # cutoffs among the keys, above every key and below every key (every
    # ball then falls in bucket 0 or bucket n); rho tied with r, one ulp
    # above and one ulp below it, and the scalars of a tie and of +inf
    xs = np.arange(-5.0, 4.5, 0.5)
    blocks = [(4, 0, 7), (8, 10, 8), (12, 18, 1), (16, 8, 1)]
    assert [xs[o] for _, o, _ in blocks] == [-5.0, 0.0, 4.0, -1.0] and xs[6] == -2.0 and xs[17] == 3.5
    # reaches that tie a center of each block (|c| = 3.5, 2, 4 and 1, in
    # samples of 0.25), sit one sample either side of it, keep a block
    # whole or drop it; and the scalars of a tie and of +inf
    metric = np.random.default_rng(8).uniform(size=sum(n for *_, n in blocks))
    g = Grid(halfwidth=8.0, spacing=0.25)
    ties = np.array([14, 8, 16, 4])
    reaches = [ties, ties + 1, ties - 1, np.array([g.size, 0, g.size, 0]), np.array([0, 2, 0, g.size])]
    for lad in ([0.5, 1.0, 2.0, 4.0], [50.0, 100.0], [1e-3, 2e-3]):
        fam = hand_family(g, xs, blocks, lad, lad)
        assert [b.count for b in fam.blocks] == [7, 8, 1, 1]
        if lad[0] > 1:
            assert all(np.all(fam.segment_plan(m).buckets == 0) for m in MODES)
        elif lad[-1] < 1:
            assert all(set(fam.segment_plan(m).buckets) <= {0, 2} for m in MODES)
        for rho in (*reaches, 2.0, np.inf):
            _assert_same_curves(metric, fam, rho)


def test_bucketed_sup_memory_is_per_radius_block():
    # 1,048,561 balls in 17 radius blocks of at most 65,535: each block's
    # supercritical run is reduced in place, so a family-sized mask or
    # masked copy of the metric shows
    g = Grid(halfwidth=4096.0, spacing=2.0**-7)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.125, radius_min=4 * g.spacing, radius_max=2048.0,
                                           distance_max=2048.0))
    assert len(fam.blocks) == 17 and len(fam) == 1_048_561
    metric = np.random.default_rng(10).uniform(size=len(fam))
    reach = _reach_of(fam, 0.5 * (1.0 + np.abs(g.coords(fam.lattice))) ** 0.475)
    tracemalloc.start()
    try:
        curve = bucketed_sup(BallValues.whole(fam, metric), "far-and-supercritical", rho=reach)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(fam) * 8, peak / (len(fam) * 8)
    assert curve.present.any() and curve.counts[0] < np.count_nonzero(reach_mask(fam, reach))


@pytest.mark.parametrize(
    "halfwidth, spacing, policy",
    [
        (4.0, 0.25, FamilyPolicy(center_stride=1.0, radii=(1.0, 2.0))),
        (8.0, 0.25, FamilyPolicy(center_stride=2.0, radii=(1.0, 2.0))),
        (8.0, 0.25, FamilyPolicy(center_stride=1.0, radii=(1.0,), max_center_norm=2.0, distance_max=8.0)),
        (8.0, 0.125, FamilyPolicy(center_stride=1.0, radii=(0.5, 2.0))),
        (16.0, 0.25, FamilyPolicy(center_stride=0.5, radius_min=1.0, radius_max=8.0)),
        (16.0, 2.0**-6, FamilyPolicy(center_stride=0.5, radius_min=0.125, radius_max=4.0)),
    ],
)
def test_bucketed_sup_matches_oracle_on_unit_families(halfwidth, spacing, policy):
    fam = make_ball_family(Grid(halfwidth=halfwidth, spacing=spacing), policy)
    metric = np.random.default_rng(len(fam)).normal(size=len(fam))
    _assert_same_curves(metric, fam, np.inf)


def test_bucketed_sup_matches_oracle_at_lacunary_geometry():
    # configs/lacunary.json's family: 2,424,815 balls, 19-cutoff ladders
    g = Grid(halfwidth=16384.0, spacing=2.0**-8)
    fam = make_ball_family(
        g,
        FamilyPolicy(center_stride=0.25, radius_min=4 * g.spacing, radius_max=4096.0, distance_max=4096.0),
    )
    assert len(fam) == 2_424_815
    assert fam.radius_ladder.size == fam.distance_ladder.size == 19
    metric = np.random.default_rng(9).uniform(size=len(fam))
    # the critical radius of a power potential grows like |x|^(1 - 0.525)
    rho = 0.5 * (1.0 + np.abs(g.coords(fam.lattice))) ** 0.475
    reach = _reach_of(fam, rho)
    sup = supercritical_mask(fam, rho)
    assert sup.any() and not sup.all() and np.array_equal(reach_mask(fam, reach), sup)
    _assert_same_curves(metric, fam, reach)


def test_family_build_memory_is_below_one_per_ball_array():
    # configs/lacunary.json's family: 2,424,815 balls over 131,071 centers
    # in 19 blocks, built with nothing per ball, so its peak stays below
    # one family-sized float64 array (19.4 MB)
    g = Grid(halfwidth=16384.0, spacing=2.0**-8)
    policy = FamilyPolicy(center_stride=0.25, radius_min=4 * g.spacing, radius_max=4096.0, distance_max=4096.0)
    tracemalloc.start()
    try:
        fam = make_ball_family(g, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fam) == 2_424_815 and len(fam.lattice) == 131_071 and len(fam.blocks) == 19
    assert peak < len(fam) * 8, peak / (len(fam) * 8)



def _lacunary_wide_family():
    # configs/lacunary-wide.json's geometry: 47,185,899 balls over
    # 2,097,151 centers in 23 radius blocks
    g = Grid(halfwidth=2.0**18, spacing=2.0**-8)
    policy = FamilyPolicy(center_stride=0.25, radius_min=4 * g.spacing, radius_max=65536.0, distance_max=65536.0)
    return g, policy


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_family_build_holds_nothing_per_center():
    # the family is its lattice and one run per radius, counted in cells:
    # no centre-sized array is built, so the build peaks at a few KiB
    g, policy = _lacunary_wide_family()
    fam, peak = _peak(lambda: make_ball_family(g, policy))
    assert peak < 64 * 1024, peak
    assert len(fam) == 47_185_899 and len(fam.lattice) == 2_097_151 and len(fam.blocks) == 23


def test_far_segment_plan_reads_no_block_sized_array():
    # each cutoff is a reach per block, a sample distance taken from
    # (cutoff + r) / h and corrected against the key, and each cut is a
    # run position of n0 +- a reach, so no block's centers are ever built
    fam = make_ball_family(*_lacunary_wide_family())
    plan, peak = _peak(lambda: fam.segment_plan("far-from-origin"))
    smallest = min(b.count for b in fam.blocks)
    assert smallest > 1_000_000 and plan.starts.size < 2 * (fam.distance_ladder.size + 1) * len(fam.blocks)
    # the plan peaks at about 80 KB (its 924 starts); one float64 per
    # center of the smallest block would take 12.6 MB
    assert peak < 256 * 1024, (peak, 8 * smallest)


# the distance cutoffs at the reach's edges: at or below -r (a reach of 0
# for the balls of radius r) and just above a zero inner distance |c| = r
_EDGE_LADDERS = {
    "below-every-radius": lambda h: [-61 * h],
    "at-minus-r": lambda h: [-60 * h, -7 * h, 0.0],
    "least-subnormal": lambda h: [5e-324],
    "tiny": lambda h: [1e-300],
}


@pytest.mark.parametrize("ladder", _EDGE_LADDERS.values(), ids=_EDGE_LADDERS.keys())
@pytest.mark.parametrize("h", [2.0**-5, 0.1, 0.3])
def test_far_segment_plan_equals_the_float_oracle_at_the_reach_edges(h, ladder):
    # asymmetric lattices holding n0 = 200, at steps 1 and 3 (so centers
    # at sample distance 60 on both sides), under cells of radius 60 and 7
    g = Grid(halfwidth=200 * h, spacing=h)
    for lattice in (range(130, 311), range(68, 333, 3)):
        fam = BallFamily(g, lattice, [(60, 0, len(lattice)), (7, 2, len(lattice) - 5)], [h], ladder(h))
        plan, (starts, buckets) = fam.segment_plan("far-from-origin"), sorted_segment_plan(fam, "far-from-origin")
        assert plan.starts.dtype == starts.dtype and plan.buckets.dtype == buckets.dtype
        assert np.array_equal(plan.starts, starts) and np.array_equal(plan.buckets, buckets)


# (radius ladder, distance ladder) pairs that no bucket can be cut by: a
# NaN cutoff (whose difference is not > 0, and alone has none), an empty
# ladder and a decreasing one
_BAD_LADDERS = {
    "not-a-number": lambda h: ([h], [7 * h, math.nan]),
    "distance-nan": lambda h: ([h], [math.nan]),
    "radius-nan": lambda h: ([math.nan], [h]),
    "empty": lambda h: ([h], []),
    "decreasing": lambda h: ([2.0, 1.0], [h]),
}


@pytest.mark.parametrize("ladders", _BAD_LADDERS.values(), ids=_BAD_LADDERS.keys())
@pytest.mark.parametrize("h", [2.0**-5, 0.1, 0.3])
def test_family_refuses_a_ladder_it_cannot_cut(h, ladders):
    # the family checks its ladders once, where it is built, so no scan
    # reads a NaN cutoff as an absent or a present bucket
    g = Grid(halfwidth=200 * h, spacing=h)
    with pytest.raises(ConfigError, match="free of NaN and strictly increasing"):
        BallFamily(g, range(130, 311), [(60, 0, 181)], *ladders(h))


# spacings of the property tests: dyadic ones, whose coordinates are exact,
# and non-dyadic ones, whose stride s h and marks j stride round
_DYADIC = (1.0, 0.25, 2.0**-6)
_SPACINGS = _DYADIC + (0.1, 0.3)


def _reaches(data, fam):
    """One reach per block, a count of samples: 0, grid.size, a center's
    sample distance |i - n0| (a tie), one sample either side of it, or a
    count in the box."""
    n0, out = fam.grid.half_cells, []
    for _ in fam.blocks:
        d = abs(fam.lattice[data.draw(st.integers(0, len(fam.lattice) - 1))] - n0)
        out.append(data.draw(st.sampled_from([0, fam.grid.size, d, d + 1, max(d - 1, 0), d // 3])))
    return np.array(out)


def _assert_plans_and_spans_match_the_oracle(fam, data):
    for kind in PLAIN_MODES:
        plan, (starts, buckets) = fam.segment_plan(kind), sorted_segment_plan(fam, kind)
        assert np.array_equal(plan.starts, starts) and plan.starts.dtype == starts.dtype, kind
        assert np.array_equal(plan.buckets, buckets), kind
    reach = _reaches(data, fam)
    assert [(a, z) for _, a, z in supercritical_spans(fam, reach)] == sorted_supercritical_spans(fam, reach)
    rho = float(data.draw(st.sampled_from(fam.radius_ladder.tolist() + [0.0, math.inf])))
    whole = [fam.grid.size if b.radius >= rho else 0 for b in fam.blocks]
    assert [(a, z) for _, a, z in supercritical_spans(fam, rho)] == sorted_supercritical_spans(fam, whole)


@settings(max_examples=150)
@given(st.data())
def test_enumeration_plans_and_spans_equal_the_float_oracles(data):
    # make_ball_family counts its blocks in integer cells; the oracle
    # enumerates the float marks j stride and keeps |c| + r < X - h/4.
    # max_center_norm sits on a mark, 1e-13 either side of one, below the
    # stride or at +inf
    h = data.draw(st.sampled_from(_SPACINGS))
    n0, s = data.draw(st.integers(4, 3000)), data.draw(st.integers(1, 9))
    g, stride = Grid(halfwidth=n0 * h, spacing=h), s * h
    cells = sorted(set(data.draw(st.lists(st.integers(1, n0 // 2), min_size=1, max_size=5))))
    mark = data.draw(st.integers(0, n0 // s + 1)) * stride
    norm = data.draw(st.sampled_from([math.inf, mark, mark + 1e-13, mark - 1e-13, 0.5 * stride, 0.0]))
    policy = FamilyPolicy(stride, radii=tuple(m * h for m in cells), max_center_norm=norm)
    xs, blocks = enumerate_family(g, policy, cells)
    if not blocks:
        with pytest.raises(ConfigError, match="ball family is empty"):
            make_ball_family(g, policy)
        return
    fam = make_ball_family(g, policy)
    assert [(b.cell_radius, fam.lattice.index(b.run.start), b.count) for b in fam.blocks] == blocks
    assert list(fam.lattice) == g.coord_to_index(xs).tolist()
    if h in _DYADIC:
        # the same coordinates bit for bit, the sign of zero included
        assert g.coords(fam.lattice).tobytes() == xs.tobytes()
    _assert_plans_and_spans_match_the_oracle(fam, data)


def _edge_on(key, factor):
    """A cutoff a whose edge a * factor is key, or None when no float
    near key / factor has it."""
    near = key / factor + np.arange(-4, 5) * np.spacing(key)
    hit = near[near * factor == key]
    return float(hit[0]) if hit.size else None


@settings(max_examples=150)
@given(st.data())
def test_hand_built_plans_and_spans_equal_the_float_oracles(data):
    # an asymmetric lattice anywhere in the box, blocks over any of its
    # runs, and ladders whose cut edges land exactly on some keys: the
    # radii (small-radius and large-radius) and inner distances |c| - r
    h = data.draw(st.sampled_from(_SPACINGS))
    n0, s = data.draw(st.integers(4, 1500)), data.draw(st.integers(1, 9))
    g = Grid(halfwidth=n0 * h, spacing=h)
    first = data.draw(st.integers(1, 2 * n0 - 2))
    lattice = range(first, data.draw(st.integers(first + 1, 2 * n0 - 1)), s)
    blocks = []
    for _ in range(data.draw(st.integers(1, 4))):
        off = data.draw(st.integers(0, len(lattice) - 1))
        n = data.draw(st.integers(1, len(lattice) - off))
        run = lattice[off : off + n]
        room = min(run.start - 1, 2 * n0 - 1 - run[-1])
        if room >= 1:
            blocks.append((data.draw(st.integers(1, room)), off, n))
    if not blocks:
        return
    keys = BallFamily(g, lattice, blocks, [1.0], [1.0])
    inner = np.abs(keys.centers[:, 0]) - keys.radii
    picks = data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=6))

    def ladder(values, factor):
        edges = [_edge_on(float(v), factor) for v in values] + data.draw(st.lists(st.floats(-n0 * h, n0 * h), max_size=3))
        return np.unique([e for e in edges if e is not None])

    radius_ladder = ladder(keys.radii[picks], data.draw(st.sampled_from([1 + 1e-12, 1 - 1e-12])))
    fam = BallFamily(g, lattice, blocks, radius_ladder, ladder(inner[picks], 1 - 1e-12))
    _assert_plans_and_spans_match_the_oracle(fam, data)
