import numpy as np
import pytest

from oscillab.errors import ConfigError
from oscillab.family import BallFamily, FamilyPolicy, LimitCurve, bucketed_sup, make_ball_family
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
        make_ball_family(g, FamilyPolicy(center_stride=1.0, radii=(3.0,)))  # > X/2
    with pytest.raises(ConfigError):
        # geometric ladder must start at >= 4h
        make_ball_family(g, FamilyPolicy(center_stride=1.0, radius_min=0.5))
    with pytest.raises(ConfigError):
        make_ball_family(
            g, FamilyPolicy(center_stride=1.0, radius_min=1.0, radius_ratio=1.0)
        )


def test_geometric_ladder_default_range():
    g = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=4.0))
    # 4h = 1 doubling up to X/2 = 8
    assert np.array_equal(fam.radius_ladder, [1.0, 2.0, 4.0, 8.0])


def test_inner_distance():
    g = Grid(halfwidth=8.0, spacing=0.25)
    fam = make_ball_family(g, FamilyPolicy(center_stride=2.0, radii=(1.0,)))
    assert np.allclose(fam.inner_distance, fam.center_norms - 1.0)


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
        FamilyPolicy(center_stride=1.0, radii=(1.0,), distance_min=1.0, distance_max=4.0),
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
            distance_min=1.0,
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

