import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillab.errors import ConfigError, DegenerateRegionError, GridMismatchError, OutOfDomainError
from oscillab.grid import Ball, Grid, GridFunction, SummedTable
from oracles import (
    ball_member_values,
    ball_sums,
    constant,
    inside_box,
    l2_norm,
    mean_oscillation,
    prefix_table,
)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(halfwidth=4.0, spacing=0.3)  # 4/0.3 not integer
    with pytest.raises(ConfigError):
        Grid(halfwidth=-1.0, spacing=0.5)


def test_grid_axis_contains_origin_and_endpoints():
    g = Grid(halfwidth=4.0, spacing=0.25)
    assert g.size == 33
    assert g.axis[0] == -4.0
    assert g.axis[-1] == 4.0
    assert g.axis[g.half_cells] == 0.0


def test_grid_axis_is_not_kept_by_the_grid():
    # a Grid lives as long as any function on it; a cached axis would pin
    # one sample-sized array per grid
    g = Grid(halfwidth=4.0, spacing=0.25)
    assert g.axis is not g.axis
    assert np.array_equal(g.axis, g.axis)
    assert "axis" not in vars(g)


def test_coord_index_roundtrip():
    g = Grid(halfwidth=8.0, spacing=2.0**-4)
    idx = np.arange(g.size)
    assert np.array_equal(g.coord_to_index(g.coords(range(g.size))), idx)


@pytest.mark.parametrize("halfwidth, spacing", [(8.0, 2.0**-4), (3.0, 0.1), (2.1, 0.3)])
def test_coords_of_an_index_array_are_those_of_its_range(halfwidth, spacing):
    # one formula, (i - X/h) h, for a range and for an integer array of the
    # same indices, at dyadic and non-dyadic spacings
    g = Grid(halfwidth=halfwidth, spacing=spacing)
    m = g.half_cells
    for r in (range(g.size), range(3, g.size, 7), range(m, m + 1), range(g.size - 1, 0, -5)):
        assert g.coords(np.array(r)).tobytes() == g.coords(r).tobytes(), r


def test_grid_function_validation():
    g = Grid(halfwidth=1.0, spacing=0.5)
    with pytest.raises(ConfigError):
        GridFunction(g, np.zeros(7))
    bad = np.zeros(g.shape)
    bad[0] = np.nan
    with pytest.raises(ConfigError):
        GridFunction(g, bad)


def test_grid_function_arithmetic_rejects_other_grid():
    f = constant(Grid(4.0, 0.5), 1.0)
    g = constant(Grid(4.0, 0.25), 1.0)
    with pytest.raises(GridMismatchError):
        f - g


def test_l2_norm_includes_cell_volume():
    g = Grid(halfwidth=2.0, spacing=0.25)
    f = constant(g, 3.0)
    assert l2_norm(f) == pytest.approx(3.0 * math.sqrt(g.size * 0.25))


def test_ball_strict_membership_count():
    g = Grid(halfwidth=4.0, spacing=0.25)
    # B(0, 2h) holds the samples at -h, 0, h only
    assert np.array_equal(ball_member_values(GridFunction.from_callable(g, lambda x: x), Ball((0.0,), 0.5)), [-0.25, 0.0, 0.25])


def test_ball_average_quadratic_closed_form():
    # samples in B(0, r=mh) are ih for |i| <= m-1, so mean of x^2 is
    # h^2 m(m-1)/3 = r(r-h)/3
    g = Grid(halfwidth=8.0, spacing=2.0**-5)
    f = GridFunction.from_callable(g, lambda x: x**2)
    for r in (0.25, 1.0, 4.0):
        b = Ball((0.0,), r)
        want = r * (r - g.spacing) / 3.0
        vol = (2 * round(r / g.spacing) - 1) * g.spacing  # |B| of a lattice ball
        mean = float(np.sum(ball_member_values(f, b))) * g.spacing / vol
        assert mean == pytest.approx(want, rel=1e-13)


def test_ball_average_rejects_boundary_ball():
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = constant(g, 1.0)
    with pytest.raises(OutOfDomainError):
        ball_member_values(f, Ball((3.0,), 1.0))  # touches x = 4


def test_ball_volume_is_count_times_cell():
    # a lattice ball of cell radius m holds 2m - 1 samples, so |B| = (2m - 1) h
    g = Grid(halfwidth=4.0, spacing=0.5)
    f = constant(g, 1.0)
    for c in (0.5, -1.0):
        for m in (1, 3, 5):
            b = Ball((c,), m * g.spacing)
            assert ball_member_values(f, b).size == 2 * m - 1


def test_mean_oscillation_sign_step():
    # f = sign(x), f(0) = 0; over B(0, mh) the 2-oscillation is
    # sqrt(2(m-1)/(2m-1))
    g = Grid(halfwidth=8.0, spacing=0.25)
    f = GridFunction.from_callable(g, np.sign)
    for m in (2, 5, 16):
        r = m * g.spacing
        want = math.sqrt(2.0 * (m - 1) / (2 * m - 1))
        assert mean_oscillation(f, Ball((0.0,), r)) == pytest.approx(want, rel=1e-12)


def test_mean_oscillation_constant_is_zero():
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = constant(g, -2.5)
    assert mean_oscillation(f, Ball((1.0,), 1.0)) == 0.0


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=997),
)
def test_table_ball_average_matches_naive(m, ci, seed):
    g = Grid(halfwidth=8.0, spacing=0.5)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=g.shape))
    c = ci * 0.5
    r = m * 0.5
    b = Ball((c,), r)
    if not inside_box(b, g):
        return
    naive = float(np.mean(ball_member_values(f, b)))
    ci = g.coord_to_index(np.array([c]))
    table_mean = float(ball_sums(prefix_table(f.values), ci, m)[0]) / (2 * m - 1)
    assert table_mean == pytest.approx(naive, rel=1e-12, abs=1e-12)


def _check_rows(g, table, rows, lo, run, m, square):
    """A table of a two-row stack, the read of a slice of its rows and the
    read of one row give each row's ball sums bit for bit as a one-row
    table of that row (or of its squares)."""
    got = table.ball_sum(run, m)
    for j, row in enumerate(rows):
        assert np.array_equal(got[j], SummedTable(g, [(lo, row**2 if square else row)]).ball_sum(run, m))
    assert np.array_equal(table.ball_sum(run, m, rows=slice(1)), got[:1])
    assert np.array_equal(table.ball_sum(run, m, rows=1), got[1])
    assert np.array_equal(table.prefix(run.start, len(run), run.step, rows=1), table.prefix(run.start, len(run), run.step)[1])


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=20),
    st.booleans(),
    st.booleans(),
)
def test_run_ball_sums_equal_the_index_array_oracle(m, start, step, count, square, stacked):
    # the strided-slice read of a run against the prefix table read at an
    # index array: the same two table entries per ball, so the same bytes
    g = Grid(halfwidth=16.0, spacing=0.25)
    rows = np.random.default_rng(start * 31 + step).normal(size=(2,) + g.shape)
    values = rows[0]
    table = SummedTable(g, [(0, rows if stacked else values)], square=square)
    run = range(start, start + count * step, step)
    if run.start - m + 1 < 0 or run[-1] + m > g.size:
        with pytest.raises(OutOfDomainError):
            table.ball_sum(run, m)
        return
    want = ball_sums(prefix_table(values**2 if square else values), np.asarray(run), m)
    got = table.ball_sum(run, m)
    assert np.array_equal(got[0] if stacked else got, want)
    out = np.full(got.shape[:-1] + (count + 2,), np.nan)
    table.ball_sum(run, m, out=out[..., 1:-1])
    assert np.array_equal(out[..., 1:-1], got)
    assert np.isnan(out[..., 0]).all() and np.isnan(out[..., -1]).all()
    if stacked:
        _check_rows(g, table, rows, 0, run, m, square)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=65),
    st.integers(min_value=0, max_value=65),
    st.booleans(),
    st.booleans(),
)
def test_windowed_ball_sums_equal_the_dense_oracle(m, start, step, count, lo, width, square, stacked):
    # a table on a window reads 0 left of it and the total right of it:
    # the same bytes as the table of all the samples, zeros included
    g = Grid(halfwidth=16.0, spacing=0.25)
    lo, hi = min(lo, g.size), min(lo + width, g.size)
    rows = np.random.default_rng(lo * 67 + width).normal(size=(2, hi - lo))
    window = rows[0]
    dense = np.zeros(g.shape)
    dense[lo:hi] = window
    table = SummedTable(g, [(lo, rows if stacked else window)], square=square)
    run = range(start, start + count * step, step)
    if run.start - m + 1 < 0 or run[-1] + m > g.size:
        with pytest.raises(OutOfDomainError):
            table.ball_sum(run, m)
        return
    sums = ball_sums(prefix_table(dense**2 if square else dense), np.asarray(run), m)
    got = table.ball_sum(run, m)
    assert np.array_equal(got[0] if stacked else got, sums)
    if stacked:
        _check_rows(g, table, rows, lo, run, m, square)
    # the run's centers as an index array read the same entries, with
    # one cell radius per center
    centers = np.asarray(run)
    assert np.array_equal(table.ball_sum(centers, np.full(len(run), m)), got)
    # along the run a sum changes only at a site of family_stats, a center
    # with an end e (c + m or c - m + 1) whose last step [e - step, e)
    # holds a window sample, and a ball that meets no window sample sums
    # to exactly 0.0
    sums = got[0] if stacked else got
    site = [any(lo < e < hi + step for e in (c + m, c - m + 1)) for c in run]
    assert all(site[j] for j in range(1, len(run)) if sums[j].tobytes() != sums[j - 1].tobytes())
    assert not np.any(sums[[not (lo - m + 1 <= c < hi + m - 1) for c in run]])


def test_grid_function_holds_the_span_between_its_outer_nonzero_samples():
    g = Grid(halfwidth=2.0, spacing=0.25)
    v = np.zeros(g.shape)
    v[[3, 5, 9]] = [1.0, -0.0, 2.0]
    f = GridFunction(g, v)
    assert (f.lo, f.hi) == (3, 10) and np.array_equal(f.on(f.lo, f.hi), v[3:10])
    # -0.0 counts as a sample to keep, so the dense samples come back bit for bit
    v[12] = -0.0
    assert GridFunction(g, v).hi == 13
    assert np.array_equal(GridFunction(g, v).values.view(np.uint64), v.view(np.uint64))
    # a window given by its first sample trims to the same span
    w = GridFunction(g, v[2:14], lo=2)
    assert (w.lo, w.hi) == (3, 13)
    assert (GridFunction(g, np.zeros(g.shape)).lo, GridFunction(g, np.zeros(g.shape)).hi) == (0, 0)
    with pytest.raises(ConfigError):
        GridFunction(g, np.ones(4), lo=g.size - 3)
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # the dense samples are read-only


def test_grid_function_window_arithmetic_equals_the_dense_arithmetic():
    g = Grid(halfwidth=4.0, spacing=0.25)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=7), lo=4)
    h = GridFunction(g, rng.normal(size=5), lo=20)
    zero = GridFunction(g, np.zeros(g.shape))
    for a, b in ((f, h), (h, f), (f, zero), (zero, h), (zero, zero), (f, f)):
        d = a - b
        assert np.array_equal((a.values - b.values).view(np.uint64), d.values.view(np.uint64))
    assert np.array_equal(f.on(0, g.size), f.values) and np.array_equal(f.on(6, 9), f.values[6:9])
    idx = np.array([0, 4, 10, 11, 32])
    assert np.array_equal(f.at(idx), f.values[idx])
    cut = f.truncated(6, 30)
    assert (cut.lo, cut.hi) == (6, 11) and np.array_equal(cut.values[6:11], f.values[6:11])
    assert f.truncated(11, 20).lo == f.truncated(11, 20).hi


def test_run_ball_sums_refuse_a_zero_radius_or_a_descending_run():
    g = Grid(halfwidth=4.0, spacing=0.25)
    table = SummedTable(g, [(0, np.ones(g.shape))])
    with pytest.raises(ConfigError):
        table.ball_sum(range(8, 12), 0)
    with pytest.raises(ConfigError):
        table.ball_sum(range(12, 8, -1), 2)


def test_offgrid_ball_falls_back_to_naive():
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = GridFunction.from_callable(g, lambda x: x)
    b = Ball((0.1,), 0.6)  # neither center nor radius on the lattice
    # strictly inside (-0.5, 0.7): the samples -0.25, 0, 0.25, 0.5
    assert np.array_equal(ball_member_values(f, b), [-0.25, 0.0, 0.25, 0.5])


def test_ball_average_empty_ball_raises():
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = constant(g, 1.0)
    # center in a cell interior, radius too small to reach any sample
    b = Ball((0.125,), 0.1)
    assert ball_member_values(f, b).size == 0
    with pytest.raises(DegenerateRegionError):
        mean_oscillation(f, b)


def test_ball_center_must_have_one_coordinate():
    with pytest.raises(ConfigError):
        Ball((0.0, 0.0), 1.0)
    with pytest.raises(ConfigError):
        Ball((0.0,), 0.0)


def test_grid_dimension_is_one():
    g = Grid(halfwidth=2.0, spacing=0.5)
    assert g.n == 1
    assert g.shape == (9,)
    assert g.size == 9
    assert g.spacing == 0.5
