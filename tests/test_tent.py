import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillab.errors import ConfigError, LadderError, OutOfDomainError
from oscillab.family import FamilyPolicy, make_ball_family
from oscillab.grid import Ball, Grid, GridFunction, SummedTable
from oscillab.potential import constant_potential
from oscillab.semigroup import (
    HalfSpaceFunction,
    TLadder,
    default_ladder,
    discretize,
    poisson_extension,
    square_function_field,
)
from oscillab.tent import (
    cone_square_function,
    family_box_values,
    gradient_carleson_curves,
    hmo_norm,
    reproducing_pairing_check,
    t2p_norm,
    tent_curves,
)
from oracles import (
    box_oscillation_ratio,
    carleson_box_strict_tent,
    clipped_cone_square_function,
    constant,
    cylinder_box,
    dilate_oscillation,
    hand_family,
    prefix_weights,
)


@pytest.fixture(scope="module")
def small_grid():
    return Grid(halfwidth=8.0, spacing=0.125)


@pytest.fixture(scope="module")
def small_op(small_grid):
    return discretize(constant_potential(1.0, 1), small_grid)


def _random_field(grid, ladder, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(len(ladder),) + grid.shape)
    return HalfSpaceFunction(grid, ladder, vals)


def _one_ball(grid, c, r):
    """The family of the one ball B(c, r), for a scan of that ball alone."""
    return hand_family(grid, [c], [(round(r / grid.spacing), 0, 1)], [r], [r])


def _box(F, c, r):
    return family_box_values(F, _one_ball(F.grid, c, r))[0]


def test_carleson_box_constant_field_closed_form(small_grid):
    lad = TLadder.geometric(0.125, 2.0, per_decade=8)
    F = HalfSpaceFunction(small_grid, lad, np.full((len(lad),) + small_grid.shape, 3.0))
    r = 2.0
    h = small_grid.spacing
    m = round(r / h)
    k = int(np.searchsorted(lad.values, r * (1 + 1e-12), side="right"))
    want = 9.0 * np.sum(prefix_weights(lad.values[:k])) * (2 * m - 1) * h / r
    assert _box(F, 0.0, r) == pytest.approx(want, rel=1e-12)


def test_carleson_box_requires_ladder_coverage(small_grid):
    lad = TLadder(np.array([0.5, 1.0]))
    F = _random_field(small_grid, lad)
    with pytest.raises(LadderError):
        _box(F, 0.0, 0.25)
    with pytest.raises(LadderError):
        _box(F, 0.0, 4.0)
    with pytest.raises(OutOfDomainError):
        _box(F, 7.75, 0.5)


def test_carleson_box_matches_manual_sum(small_grid):
    lad = TLadder(np.array([0.25, 0.5, 1.0]))
    F = _random_field(small_grid, lad, seed=2)
    # the cylinder covers only the slices with t <= r
    assert _box(F, 0.375, 0.75) == pytest.approx(cylinder_box(F, Ball((0.375,), 0.75)), rel=1e-12)
    # a ball off the lattice is no family ball
    with pytest.raises(ConfigError):
        _box(F, 0.3, 0.8)


@given(st.integers(min_value=0, max_value=400))
def test_cylinder_dominates_strict_tent(seed):
    g = Grid(halfwidth=4.0, spacing=0.25)
    lad = TLadder(np.array([0.25, 0.5, 1.0, 2.0]))
    F = _random_field(g, lad, seed=seed)
    assert _box(F, 0.5, 1.5) >= carleson_box_strict_tent(F, Ball((0.5,), 1.5)) - 1e-12


def test_family_box_values_match_single_calls(small_grid):
    # a block's strided run reads each ball's value as a scan of that ball
    # alone does, to the bit
    lad = TLadder(np.array([0.25, 0.5, 1.0, 2.0]))
    F = _random_field(small_grid, lad, seed=5)
    fam = make_ball_family(small_grid, FamilyPolicy(center_stride=2.0, radii=(0.5, 2.0)))
    vals = family_box_values(F, fam)
    assert np.array_equal(vals, [_box(F, fam.centers[i, 0], fam.radii[i]) for i in range(len(fam))])


def test_cone_delta_slice_closed_form():
    g = Grid(halfwidth=4.0, spacing=0.25)
    lad = TLadder(np.array([1.0, 2.0]))
    vals = np.zeros((2,) + g.shape)
    io = g.half_cells
    vals[0, io] = 3.0
    F = HalfSpaceFunction(g, lad, vals)
    cone = cone_square_function(F)
    w0 = math.log(2.0) / 2.0
    peak = w0 * 9.0 * 0.25 / 1.0
    x = g.axis
    inside = np.abs(x) <= 0.75 + 1e-12
    assert np.allclose(cone.values[inside] ** 2, peak, rtol=1e-12)
    assert np.all(cone.values[~inside] == 0.0)
    # truncation is geometric: the t=2 window leaves the box for |x| > 2.25
    want_trunc = (np.abs(x) > 2.25 + 1e-12)
    assert np.array_equal(cone.truncated, want_trunc)
    rep = t2p_norm(F, 2.0)
    assert rep.value**2 == pytest.approx(peak * 7 * 0.25, rel=1e-12)
    assert rep.truncated_fraction == pytest.approx(np.mean(want_trunc))


@pytest.mark.parametrize("top", [1.0, 6.0])
@pytest.mark.parametrize("seed", range(4))
def test_cone_constant_end_reads_equal_the_clipped_cones(seed, top):
    # 17 samples: the smallest slices' cones are their center sample alone
    # (kmax = 0); up to t = 1 the cones leave the box within 3 samples of
    # a wall, and with t = 3 and t = 6 they leave it on both sides, at
    # every sample for t = 6
    g = Grid(halfwidth=2.0, spacing=0.25)
    t = np.array([0.125, 0.25, 0.4, 1.0, 1.75, 3.0, 6.0])
    lad = TLadder(t[t <= top])
    F = _random_field(g, lad, seed=seed)
    values, truncated = clipped_cone_square_function(F)
    cone = cone_square_function(F)
    assert np.array_equal(cone.values, values)
    assert np.array_equal(cone.truncated, truncated)
    assert np.count_nonzero(truncated) == (6 if top == 1.0 else g.size)


def test_cone_after_the_box_scan_builds_no_table(small_grid, monkeypatch):
    # the field holds one |F|^2 table, a row per slice: the box scan builds
    # it and the cone reads its rows
    F = _random_field(small_grid, TLadder(np.array([0.25, 0.5, 1.0, 2.0])), seed=3)
    fam = make_ball_family(small_grid, FamilyPolicy(center_stride=2.0, radii=(0.5, 2.0)))
    builds, original = [], SummedTable.__init__
    monkeypatch.setattr(SummedTable, "__init__", lambda self, *a, **k: builds.append(a) or original(self, *a, **k))
    family_box_values(F, fam)
    cone = cone_square_function(F)
    assert len(builds) == 1
    values, truncated = clipped_cone_square_function(F)
    assert np.array_equal(cone.values, values) and np.array_equal(cone.truncated, truncated)


def test_t2p_norm_validation(small_grid):
    lad = TLadder(np.array([0.25, 0.5]))
    F = _random_field(small_grid, lad)
    with pytest.raises(ConfigError):
        t2p_norm(F, math.inf)  # the sup norm is hmo_norm of the box values
    with pytest.raises(ConfigError):
        t2p_norm(F, 0.0)


def test_t2p_inf_is_family_sup(small_grid):
    lad = TLadder(np.array([0.25, 0.5, 1.0, 2.0]))
    F = _random_field(small_grid, lad, seed=8)
    fam = make_ball_family(small_grid, FamilyPolicy(center_stride=2.0, radii=(0.5, 2.0)))
    vals = np.sqrt(family_box_values(F, fam))
    rep = hmo_norm(vals, fam)
    assert rep.value == pytest.approx(float(np.max(vals)))
    assert rep.arg_index == int(np.argmax(vals))
    assert rep.n_balls == len(fam)


def test_tent_curves_modes(small_grid):
    lad = TLadder(np.array([0.25, 0.5, 1.0, 2.0]))
    F = _random_field(small_grid, lad, seed=9)
    fam = make_ball_family(small_grid, FamilyPolicy(center_stride=2.0, radii=(0.5, 2.0)))
    curves = tent_curves(np.sqrt(family_box_values(F, fam)), fam)
    assert set(curves) == {"small-radius", "large-radius", "far-from-origin"}


def test_gradient_box_constant_closed_form(grid16, op16):
    # u = e^{-t} c away from the walls, so the gradient field is t e^{-t} c
    # and the box over B(0, r) is (2m-1) h r^{-1} c^2 sum w_j t_j^2 e^{-2 t_j}
    c = 2.0
    f = constant(grid16, c)
    lad = default_ladder(grid16)
    G = poisson_extension(op16, f, lad)
    r = 4.0
    h = grid16.spacing
    k = int(np.searchsorted(lad.values, r * (1 + 1e-12), side="right"))
    t = lad.values[:k]
    w = prefix_weights(t)
    want = c**2 * float(np.sum(w * t**2 * np.exp(-2 * t))) * (2 * round(r / h) - 1) * h / r
    assert _box(G, 0.0, r) == pytest.approx(want, rel=1e-3)


def test_hmo_constant_attains_half_sqrt_two(grid16, op16):
    # sup_B sqrt(box) for a constant c tends to c/sqrt(2) as r grows
    c = 2.0
    f = constant(grid16, c)
    G = poisson_extension(op16, f, default_ladder(grid16))
    fam = make_ball_family(
        grid16,
        FamilyPolicy(center_stride=1.0, radius_min=0.5, radius_max=4.0, max_center_norm=8.0),
    )
    beta = np.sqrt(family_box_values(G, fam))
    rep = hmo_norm(beta, fam)
    assert rep.value == pytest.approx(c * math.sqrt(0.5), rel=0.02)
    assert fam.radii[rep.arg_index] == 4.0
    curves = gradient_carleson_curves(beta, fam)
    assert set(curves) == {"small-radius", "large-radius", "far-from-origin"}
    # small balls see a vanishing box for smooth data
    assert curves["small-radius"].terminal_value() < rep.value


def test_dilate_oscillation_escape_and_clip(small_grid, small_op):
    f = GridFunction.from_callable(small_grid, lambda x: np.tanh(x))
    b = Ball((0.0,), 1.0)
    with pytest.raises(OutOfDomainError):
        dilate_oscillation(f, small_op, b, k=1)  # reach 8 hits the box edge
    rep = dilate_oscillation(f, small_op, b, k=1, clip=True)
    assert rep.clipped
    assert rep.value >= 0.0
    rep0 = dilate_oscillation(f, small_op, b, k=0)
    assert not rep0.clipped


def test_dilate_oscillation_grows_with_k(small_grid, small_op):
    rng = np.random.default_rng(12)
    f = GridFunction(small_grid, rng.normal(size=small_grid.shape))
    b = Ball((0.0,), 0.25)
    vals = [
        dilate_oscillation(f, small_op, b, k=k, clip=True).value for k in range(4)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_dilate_oscillation_zero_function(small_grid, small_op):
    f = constant(small_grid, 0.0)
    rep = dilate_oscillation(f, small_op, Ball((0.0,), 0.5), k=0)
    assert rep.value == 0.0
    assert rep.n_subballs > 0


def test_box_oscillation_report_consistency(small_grid, small_op):
    f = GridFunction.from_callable(small_grid, lambda x: np.exp(-0.5 * x**2))
    F = square_function_field(small_op, f, default_ladder(small_grid))
    rep = box_oscillation_ratio(f, small_op, Ball((0.0,), 0.5), k_max=3, box=_box(F, 0.0, 0.5), norm_hint=0.5, clip=True)
    assert len(rep.per_k) == 4
    assert rep.rhs == pytest.approx(sum(2.0**-k * v for k, v in enumerate(rep.per_k)))
    assert rep.tail == pytest.approx(2.0**-3 * 0.5)
    assert rep.ratio == pytest.approx(rep.lhs / (rep.rhs + rep.tail))
    assert math.isfinite(rep.ratio)


def test_box_oscillation_zero_function(small_grid, small_op):
    f = constant(small_grid, 0.0)
    F = square_function_field(small_op, f, default_ladder(small_grid))
    rep = box_oscillation_ratio(f, small_op, Ball((0.0,), 0.5), k_max=2, box=_box(F, 0.0, 0.5), clip=True)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.ratio == math.inf  # 0/0 reported as inf, not hidden


def test_pairing_rejects_mismatched_grids(small_grid, small_op):
    other = Grid(halfwidth=8.0, spacing=0.25)
    f = constant(small_grid, 1.0)
    g2 = constant(other, 1.0)
    with pytest.raises(ConfigError):
        reproducing_pairing_check(f, g2, small_op, default_ladder(small_grid))


def test_pairing_support_flag(small_grid, small_op):
    lad = default_ladder(small_grid)
    inside = GridFunction.from_callable(
        small_grid, lambda x: np.where(np.abs(x) < 2.0, 1.0, 0.0)
    )
    rep = reproducing_pairing_check(inside, inside, small_op, lad)
    assert rep.support_ok
    wide = constant(small_grid, 1.0)
    rep2 = reproducing_pairing_check(wide, wide, small_op, lad)
    assert not rep2.support_ok
    # the window holds |x| <= window * X: here up to the sample at 2.0
    for edge, ok in ((2.0, True), (2.125, False)):
        bump = GridFunction.from_callable(small_grid, lambda x: np.where(np.abs(x) <= edge, 1.0, 0.0))
        assert reproducing_pairing_check(bump, inside, small_op, lad, window=0.25).support_ok is ok
