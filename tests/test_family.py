import tracemalloc

import numpy as np
import pytest

from oscillab.errors import ConfigError
from oscillab.family import MODES, BallFamily, FamilyPolicy, LimitCurve, bucketed_sup, make_ball_family
from oscillab.grid import Grid


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
    blocks = fam.radius_blocks
    assert [b[2] for b in blocks] == [4, 8, 16, 32]
    assert blocks[0][0] == 0 and blocks[-1][1] == len(fam)
    for (_, stop, _), (start, _, _) in zip(blocks, blocks[1:]):
        assert stop == start
    for start, stop, m in blocks:
        assert stop > start
        assert np.all(fam.radii[start:stop] == m * g.spacing)
    assert sum(stop - start for start, stop, _ in blocks) == len(fam)


def test_family_radii_must_not_decrease():
    g = Grid(halfwidth=8.0, spacing=0.25)
    centers = np.array([[0.0], [1.0], [0.0]])
    ladder = np.array([1.0, 2.0])
    with pytest.raises(ConfigError, match="must not decrease"):
        BallFamily(g, centers, np.array([1.0, 2.0, 1.0]), ladder, ladder)
    fam = BallFamily(g, centers, np.array([1.0, 1.0, 2.0]), ladder, ladder)
    assert fam.radius_blocks == ((0, 2, 4), (2, 3, 8))


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
    assert np.all(plan.sizes > 0)
    assert np.array_equal(plan.starts[1:], (plan.starts + plan.sizes)[:-1])
    assert plan.starts[0] == 0 and plan.starts[-1] + plan.sizes[-1] == len(fam)
    # every radius block starts a segment
    assert {a for a, _, _ in fam.radius_blocks} <= set(plan.starts.tolist())
    # each ball's bucket from its own key, as the per-ball definition gives it
    if mode == "small-radius":
        at = np.searchsorted(fam.radius_ladder * (1 + 1e-12), fam.radii, side="left")
    elif mode in ("far-from-origin", "far-and-supercritical"):
        at = np.searchsorted(fam.distance_ladder * (1 - 1e-12), np.abs(fam.centers[:, 0]) - fam.radii, side="right")
    else:
        at = np.searchsorted(fam.radius_ladder * (1 - 1e-12), fam.radii, side="right")
    assert np.array_equal(np.repeat(plan.buckets, plan.sizes), at)


def test_bucketed_sup_small_radius_buckets():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0, 2.0)))
    metric = fam.radii.copy()  # sup of r over {r <= a} is min(a, r_max)
    curve = bucketed_sup(metric, fam, "small-radius")
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
    curve = bucketed_sup(np.ones(len(fam)), fam, "far-from-origin")
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
    curve = bucketed_sup(np.ones(len(fam)), fam, "far-from-origin")
    assert curve.counts[-1] == 0
    assert np.isnan(curve.values[-1])
    assert not curve.present[-1]


def test_supercritical_mode_needs_rho():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    with pytest.raises(ConfigError):
        bucketed_sup(np.ones(len(fam)), fam, "large-and-supercritical")
    # rho = +inf disqualifies every ball
    curve = bucketed_sup(np.ones(len(fam)), fam, "large-and-supercritical", rho=np.inf)
    assert not curve.present.any()


def test_supercritical_mask_filters_by_rho():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0, 2.0)))
    curve = bucketed_sup(fam.radii.copy(), fam, "large-and-supercritical", rho=1.5)
    # only r=2 balls qualify
    assert curve.values[curve.present][0] == 2.0


def test_metric_length_mismatch():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    with pytest.raises(ConfigError):
        bucketed_sup(np.ones(len(fam) + 1), fam, "small-radius")


def test_unknown_mode_rejected():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    with pytest.raises(ConfigError):
        bucketed_sup(np.ones(len(fam)), fam, "tiny-radius")
    with pytest.raises(ConfigError):
        LimitCurve("tiny-radius", np.array([1.0]), np.array([1.0]), np.array([1]))


# ---------------------------------------------------------------------------
# oracle: the per-cutoff mask scan that the one-pass bucketed_sup replaced,
# copied verbatim but for computing the inner distance |c| - r itself


_SUPERCRITICAL_MODES = ("large-and-supercritical", "far-and-supercritical")
_DISTANCE_MODES = ("far-from-origin", "far-and-supercritical")


def _bucketed_sup_oracle(
    metric: np.ndarray,
    family: BallFamily,
    mode: str,
    rho: np.ndarray | float | None = None,
) -> LimitCurve:
    """Supremum of a per-ball metric within each bucket of the family's own
    ladder (distance_ladder for the distance modes, else radius_ladder).

    metric: array aligned with the family.  rho: critical-radius values at
    the ball centers; required by the supercritical modes, where a ball
    qualifies only if r >= rho(center).  rho may contain +inf (no ball ever
    qualifies there).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown curve mode {mode!r}")
    vals = np.asarray(metric, dtype=np.float64).reshape(-1)
    if vals.shape[0] != len(family):
        raise ConfigError("metric array length does not match the family")

    ladder = family.distance_ladder if mode in _DISTANCE_MODES else family.radius_ladder
    if ladder.size == 0 or np.any(np.diff(ladder) <= 0):
        raise ConfigError("ladder must be strictly increasing and nonempty")

    r = family.radii
    if mode in _SUPERCRITICAL_MODES:
        if rho is None:
            raise ConfigError(f"mode {mode} needs critical-radius values")
        rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), r.shape)
        super_mask = r >= rho_arr
    else:
        super_mask = None

    inner = np.abs(family.centers[:, 0]) - r
    out_vals = np.full(ladder.shape, np.nan)
    out_counts = np.zeros(ladder.shape, dtype=np.int64)
    for j, a in enumerate(ladder):
        if mode == "small-radius":
            mask = r <= a * (1 + 1e-12)
        elif mode == "large-radius":
            mask = r >= a * (1 - 1e-12)
        elif mode == "far-from-origin":
            mask = inner >= a * (1 - 1e-12)
        elif mode == "large-and-supercritical":
            mask = (r >= a * (1 - 1e-12)) & super_mask
        else:  # far-and-supercritical
            mask = (inner >= a * (1 - 1e-12)) & super_mask
        cnt = int(np.count_nonzero(mask))
        out_counts[j] = cnt
        if cnt:
            out_vals[j] = float(np.max(vals[mask]))
    return LimitCurve(mode, ladder, out_vals, out_counts)


def _assert_same_curves(metric, fam, rho):
    for mode in MODES:
        got = bucketed_sup(metric, fam, mode, rho=rho)
        want = _bucketed_sup_oracle(metric, fam, mode, rho=rho)
        assert np.array_equal(got.ladder, want.ladder)
        assert np.array_equal(got.values, want.values, equal_nan=True), mode
        assert np.array_equal(got.counts, want.counts), mode
        assert got.values.dtype == want.values.dtype and got.counts.dtype == want.counts.dtype


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def test_bucketed_sup_matches_oracle_at_the_cutoff_edges():
    # keys exactly at each cutoff's a (1 +- 1e-12) and one ulp either side;
    # the ladder sits inside one binade per cutoff so that the distance
    # probes c = key + r give |c| - r == key exactly
    ladder = np.array([3.0, 6.0, 12.0, 24.0])
    edges = np.concatenate([[a, a * (1 + 1e-12), a * (1 - 1e-12)] for a in ladder])
    keys = np.unique(np.concatenate([edges, _up(edges), _down(edges)]))
    r_probe = 2.0**-10
    radii = np.concatenate([np.full(2 * keys.size, r_probe), keys])
    # the probe block's centers ascend, as bucketed_sup requires
    centers = np.concatenate([np.sort(np.concatenate([keys + r_probe, -(keys + r_probe)])), np.zeros(keys.size)])
    fam = BallFamily(Grid(halfwidth=64.0, spacing=2.0**-10), centers[:, None], radii, ladder, ladder)
    for k in (a * (1 + 1e-12) for a in ladder):
        assert k in fam.radii
    for k in (a * (1 - 1e-12) for a in ladder):
        assert k in fam.radii and k in np.abs(fam.centers[:, 0]) - fam.radii
    metric = np.random.default_rng(7).uniform(size=len(fam))
    # ties r == rho count as supercritical; one ulp above is subcritical
    rho = np.select(
        [np.arange(len(fam)) % 4 == k for k in range(3)],
        [fam.radii, _up(fam.radii), np.zeros(len(fam))],
        np.inf,
    )
    _assert_same_curves(metric, fam, rho)
    assert any(bucketed_sup(metric, fam, m, rho=rho).present.any() for m in MODES)

    # segment edge cases: a block of negative centers only, one of
    # nonnegative centers only (0 among them) and two one-ball blocks;
    # cutoffs among the keys, above every key and below every key (every
    # ball then falls in bucket 0 or bucket n); rho tied with r, one ulp
    # above and one ulp below it, and the scalars of a tie and of +inf
    centers = np.array([-5.0, -4.5, -3.0, -2.0, 0.0, 0.5, 2.0, 3.5, 4.0, -1.0])
    radii = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0])
    metric = np.random.default_rng(8).uniform(size=radii.size)
    ties = np.select([np.arange(radii.size) % 3 == k for k in range(2)], [radii, _up(radii)], _down(radii))
    for lad in ([0.5, 1.0, 2.0, 4.0], [50.0, 100.0], [1e-3, 2e-3]):
        fam = BallFamily(Grid(halfwidth=8.0, spacing=0.25), centers[:, None], radii, lad, lad)
        assert [b - a for a, b, _ in fam.radius_blocks] == [4, 4, 1, 1]
        if lad[0] > 1:
            assert all(np.all(fam.segment_plan(m).buckets == 0) for m in MODES)
        elif lad[-1] < 1:
            assert all(set(fam.segment_plan(m).buckets) <= {0, 2} for m in MODES)
        for rho in (ties, 2.0, np.inf):
            _assert_same_curves(metric, fam, rho)


@pytest.mark.parametrize("mode", MODES)
def test_bucketed_sup_refuses_a_block_whose_centers_descend(mode):
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = BallFamily(g, np.array([[-1.0], [0.0], [1.0], [1.0], [0.0]]), np.array([1.0, 1.0, 1.0, 2.0, 2.0]),
                     [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ConfigError, match="centers must ascend"):
        bucketed_sup(np.ones(len(fam)), fam, mode, rho=1.0)


def test_bucketed_sup_memory_is_per_radius_block():
    # 1,048,561 balls in 17 radius blocks of at most 65,535: a per-ball rho
    # masks one block at a time, so a family-sized mask or masked copy of
    # the metric shows
    g = Grid(halfwidth=4096.0, spacing=2.0**-7)
    fam = make_ball_family(g, FamilyPolicy(center_stride=0.125, radius_min=4 * g.spacing, radius_max=2048.0,
                                           distance_max=2048.0))
    assert len(fam.radius_blocks) == 17 and len(fam) == 1_048_561
    metric = np.random.default_rng(10).uniform(size=len(fam))
    rho = 0.5 * (1.0 + np.abs(fam.centers[:, 0])) ** 0.475
    tracemalloc.start()
    try:
        curve = bucketed_sup(metric, fam, "far-and-supercritical", rho=rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(fam) * 8, peak / (len(fam) * 8)
    assert curve.present.any() and curve.counts[0] < np.count_nonzero(fam.radii >= rho)


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
    rho = 0.5 * (1.0 + np.abs(fam.centers[:, 0])) ** 0.475
    sup = fam.radii >= rho
    assert sup.any() and not sup.all()
    _assert_same_curves(metric, fam, rho)
