import math

import numpy as np
import pytest

from oscillab.corpus import member_by_name
from oscillab.errors import ConfigError, OutOfDomainError, ThresholdExhaustedError
from oscillab.grid import Grid, GridFunction
from oscillab.approx import (
    AveragingThresholds,
    DyadicAssignment,
    ThresholdFractions,
    assign_cubes,
    bump,
    choose_thresholds,
    cube_means,
    dyadic_average,
    mollify,
    p1_p2_check,
)

RHO0 = 2.0**-0.5


@pytest.fixture(scope="module")
def pipeline_grid():
    return Grid(halfwidth=256.0, spacing=2.0**-6)


@pytest.fixture(scope="module")
def pipeline_f(pipeline_grid):
    return member_by_name("bump-narrow").build(pipeline_grid)


@pytest.fixture(scope="module")
def pipeline_thresholds(pipeline_f):
    return choose_thresholds(
        pipeline_f,
        eps=0.55,
        rho=RHO0,
        fractions=ThresholdFractions(oscillation=0.25),
        slow_variation=(1.0, 1, RHO0),
    )


@pytest.fixture(scope="module")
def pipeline_assignment(pipeline_thresholds, pipeline_grid):
    return assign_cubes(pipeline_thresholds, pipeline_grid)


def _oracle_assignment(th: AveragingThresholds, grid: Grid) -> DyadicAssignment:
    """General partition construction: shell index from floor(log2) with
    exact repair, cube ids from a row sort of the per-sample keys."""
    p = round(-math.log2(grid.spacing))
    n0 = grid.half_cells
    o = np.minimum(np.arange(grid.axis_count), 2 * n0 - 1) - n0
    sigma = np.maximum(o, -o - 1)
    in_core = sigma < 2 ** (th.core_exponent + p)
    shell_m = np.zeros(sigma.shape, dtype=np.int64)
    out = ~in_core
    shell_m[out] = np.floor(np.log2(sigma[out].astype(np.float64))).astype(np.int64) - p
    shell_m[out & (2 ** (shell_m + p + 1) <= sigma)] += 1
    shell_m[out & (2 ** (shell_m + p) > sigma)] -= 1
    level = np.where(in_core, th.core_level, shell_m - th.fine_exponent - th.core_exponent - 1)
    key = np.stack([level, o >> (level + p)], axis=1)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    return DyadicAssignment(
        grid, th, inverse.astype(np.int64), uniq[:, 0].copy(), uniq[:, 1:].copy(),
        np.bincount(inverse),
    )


def _oracle_adjacent_pairs(asn: DyadicAssignment) -> set[tuple[int, int]]:
    """Closure-adjacent cube id pairs, found by probing the sample just
    outside each end of every cube."""
    n0 = asn.grid.half_cells
    p = round(-math.log2(asn.grid.spacing))
    q = (1 << (asn.cube_levels + p)).astype(np.int64)
    c = asn.cube_corners[:, 0] * q
    pairs = set()
    for probe in (c - 1, c + q):
        ok = (probe >= -n0) & (probe <= n0 - 1)
        src = np.nonzero(ok)[0]
        tgt = asn.sample_cube[probe[ok] + n0]
        pairs |= {(min(a, b), max(a, b)) for a, b in zip(src.tolist(), tgt.tolist()) if a != b}
    return pairs


def _consecutive_pairs(asn: DyadicAssignment) -> set[tuple[int, int]]:
    sc = asn.sample_cube
    ids = sc[np.concatenate(([0], np.nonzero(np.diff(sc))[0] + 1))]
    return {(min(a, b), max(a, b)) for a, b in zip(ids[:-1].tolist(), ids[1:].tolist())}


def test_bump_unit_mass_and_height():
    g = Grid(halfwidth=4.0, spacing=2.0**-7)
    b = bump(g)
    assert float(np.sum(b.values) * g.spacing) == pytest.approx(1.0, abs=1e-12)
    # peak of the mass-one profile: e^{-1} / integral of e^{-1/(1-x^2)}
    assert float(np.max(b.values)) == pytest.approx(1.0 / 1.20700, rel=1e-3)
    assert np.all(b.values[np.abs(g.axis) >= 1.0] == 0.0)


def test_bump_needs_resolution():
    g = Grid(halfwidth=4.0, spacing=0.5)
    with pytest.raises(ConfigError):
        bump(g, width=1.0)


def test_mollify_constant_exact_on_valid_window():
    g = Grid(halfwidth=4.0, spacing=2.0**-5)
    f = GridFunction.constant(g, 2.5)
    out = mollify(f, 0.5)
    assert np.allclose(out.fn.values[out.valid], 2.5, atol=1e-13)
    assert out.valid.any() and not out.valid.all()


def test_mollify_width_floor():
    g = Grid(halfwidth=4.0, spacing=0.25)
    with pytest.raises(ConfigError):
        mollify(GridFunction.constant(g, 1.0), 0.5)  # below 4h = 1


def test_mollify_error_shrinks_with_t():
    g = Grid(halfwidth=8.0, spacing=2.0**-6)
    f = GridFunction.from_callable(g, lambda x: np.exp(-0.5 * x**2))
    errs = []
    for t in (0.5, 0.25, 0.125):
        out = mollify(f, t)
        errs.append(float(np.max(np.abs(out.fn.values - f.values)[out.valid])))
    assert errs[0] > errs[1] > errs[2]


def test_choose_thresholds_validation(pipeline_f):
    with pytest.raises(ConfigError):
        choose_thresholds(pipeline_f, eps=0.0, rho=RHO0)
    with pytest.raises(ConfigError):
        choose_thresholds(pipeline_f, eps=0.5, rho=RHO0, level_min=-40)
    g = Grid(halfwidth=6.0, spacing=0.25)  # not a power-of-two box
    with pytest.raises(ConfigError):
        choose_thresholds(GridFunction.constant(g, 0.0), eps=0.5, rho=RHO0)


def test_constant_exhausts_supercritical_condition(pipeline_grid):
    f = GridFunction.constant(pipeline_grid, 1.0)
    with pytest.raises(ThresholdExhaustedError):
        choose_thresholds(f, eps=0.05, rho=RHO0)


def test_threshold_report_shape(pipeline_thresholds):
    th = pipeline_thresholds
    assert th.osc_bound == pytest.approx(0.25 * 0.55)
    assert th.size_bound == pytest.approx(0.5 * 0.55)
    assert th.core_level == -th.fine_exponent - 2
    assert th.shell_level(5) == 5 - th.fine_exponent - th.core_exponent - 1
    assert th.fine_exponent >= 1
    assert th.core_exponent >= 0
    assert th.outer_exponent >= th.core_exponent
    # scanned outer cutoff stays below the closed-form bound
    assert th.closed_form_bound is not None
    assert th.outer_exponent <= th.closed_form_bound


def test_assignment_partitions_box(pipeline_assignment, pipeline_grid):
    asn = pipeline_assignment
    assert asn.sample_cube.shape == (pipeline_grid.size,)
    assert int(np.sum(asn.cube_counts)) == pipeline_grid.size
    assert np.array_equal(
        np.bincount(asn.sample_cube, minlength=asn.n_cubes), asn.cube_counts
    )
    # samples inside the core carry the core level
    th = asn.thresholds
    core = np.abs(pipeline_grid.axis) < 2.0**th.core_exponent - 1e-12
    got_levels = asn.cube_levels[asn.sample_cube]
    assert np.all(got_levels[core] == th.core_level)
    # levels never fall below the grid scale
    assert np.all(asn.cube_levels >= -6)


def test_assignment_needs_box_margin(pipeline_grid):
    th = AveragingThresholds(
        eps=1.0,
        fine_exponent=2,
        core_exponent=3,
        outer_exponent=6,  # 2^(6+3) = 512 > 256
        osc_bound=0.1,
        size_bound=0.5,
        level_min=-5,
        level_max=8,
    )
    with pytest.raises(OutOfDomainError):
        assign_cubes(th, pipeline_grid)


def test_dyadic_average_idempotent(pipeline_f, pipeline_assignment):
    A = dyadic_average(pipeline_f, pipeline_assignment)
    AA = dyadic_average(A, pipeline_assignment)
    assert np.array_equal(A.values, AA.values)


def test_dyadic_average_equals_cube_means(pipeline_f, pipeline_assignment):
    A = dyadic_average(pipeline_f, pipeline_assignment)
    means = cube_means(pipeline_f, pipeline_assignment)
    assert np.allclose(
        A.values.ravel(), means[pipeline_assignment.sample_cube], atol=1e-12
    )


def test_gates_pass_for_member(pipeline_f, pipeline_assignment):
    rep = p1_p2_check(pipeline_f, pipeline_assignment)
    assert rep.p1_ok, rep
    assert rep.p2_ok, rep
    assert rep.size_ratio_ok
    assert rep.n_adjacent_pairs > 0


def test_gate_p1_fails_for_borrowed_constant(pipeline_assignment, pipeline_grid):
    # averaging the constant 1 with thresholds chosen for the bump leaves
    # mass 1 outside the outer region, so the first gate must fail
    f = GridFunction.constant(pipeline_grid, 1.0)
    rep = p1_p2_check(f, pipeline_assignment)
    assert not rep.p1_ok
    assert rep.p1_sup == pytest.approx(1.0)
    assert rep.p2_ok  # all cube means equal


def _assert_matches_oracle(f: GridFunction, asn: DyadicAssignment) -> None:
    ref = _oracle_assignment(asn.thresholds, asn.grid)
    for name in ("sample_cube", "cube_levels", "cube_corners", "cube_counts"):
        got, want = getattr(asn, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    pairs = _oracle_adjacent_pairs(ref)
    assert _consecutive_pairs(asn) == pairs
    a, b = np.array(sorted(pairs)).T
    means = cube_means(f, ref)
    rep = p1_p2_check(f, asn)
    assert rep.n_adjacent_pairs == len(pairs)
    assert rep.p2_max == float(np.max(np.abs(means[a] - means[b])))
    assert rep.size_ratio_ok == bool(np.all(np.abs(ref.cube_levels[a] - ref.cube_levels[b]) <= 1))


def test_assignment_matches_row_sort_oracle(pipeline_f, pipeline_assignment):
    _assert_matches_oracle(pipeline_f, pipeline_assignment)


def test_assignment_matches_row_sort_oracle_large():
    grid = Grid(halfwidth=2048.0, spacing=2.0**-7)  # 524,289 samples
    f = member_by_name("bump-narrow").build(grid)
    th = choose_thresholds(f, eps=0.55, rho=RHO0, fractions=ThresholdFractions(oscillation=0.25))
    asn = assign_cubes(th, grid)
    assert asn.n_cubes > 1000
    _assert_matches_oracle(f, asn)


def test_assignment_runs_at_pipeline_small_geometry():
    # halfwidth 2^13 at spacing 2^-7 (2,097,153 samples) with the
    # thresholds the pipeline-small scan picks for bump-narrow
    grid = Grid(halfwidth=8192.0, spacing=2.0**-7)
    p = 7
    th = AveragingThresholds(
        eps=0.235, fine_exponent=5, core_exponent=10, outer_exponent=10,
        osc_bound=0.125 * 0.235, size_bound=0.5 * 0.235, level_min=-p + 1, level_max=13,
    )
    asn = assign_cubes(th, grid)
    sc = asn.sample_cube
    starts = np.concatenate(([0], np.nonzero(np.diff(sc))[0] + 1))
    ids = sc[starts]
    # every cube is exactly one run: no id comes back after its run ends
    assert ids.size == asn.n_cubes
    assert np.array_equal(np.sort(ids), np.arange(asn.n_cubes))
    lengths = np.diff(np.append(starts, sc.size))
    want = 2 ** (asn.cube_levels[ids] + p)
    want[-1] += 1  # the +X boundary sample folds into the last cube
    assert np.array_equal(lengths, want)
    assert np.array_equal(asn.cube_counts[ids], lengths)
    rep = p1_p2_check(GridFunction.constant(grid, 0.0), asn)
    assert rep.n_adjacent_pairs == asn.n_cubes - 1
    assert rep.size_ratio_ok
    assert np.all(np.abs(np.diff(asn.cube_levels[ids])) <= 1)
