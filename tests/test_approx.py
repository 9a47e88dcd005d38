import functools
import math
import tracemalloc
from typing import Callable

import numpy as np
import pytest

from oscillab.corpus import member_by_name
from oscillab.errors import ConfigError, OutOfDomainError, ThresholdExhaustedError
from oscillab.grid import Grid, GridFunction
from oscillab.approx import (
    AveragingThresholds,
    DyadicAssignment,
    assign_cubes,
    bump,
    choose_thresholds,
    dyadic_average,
    mollify,
    p1_p2_check,
    _dyadic_exponents,
)
from oscillab.experiments import plan_scenarios
from oscillab.reports import RHO_CONSTANT_UNIT
from oscillab.oscillation import bmo_l_norm, family_stats
from oracles import constant, cube_starts, cube_tiling, dense_dyadic_average, dense_gates

RHO0 = 2.0**-0.5


# ---------------------------------------------------------------------------
# oracle: the per-level _LevelStats-and-argsort threshold scan, kept
# verbatim apart from its name, its return value (a dict of the
# AveragingThresholds fields, which have since lost level_min/level_max),
# and its per-level statistics: cached on each level and, through the
# stats argument, across the scans of one f


class _LevelStats:
    """Per-cube counts/sums/sums-of-squares for one dyadic level tiling the
    box.  The top boundary sample folds into the last cube so the cubes
    partition all samples."""

    def __init__(self, f: GridFunction, level: int):
        g = f.grid
        a, p = _dyadic_exponents(g)
        if level < -p or level > a:
            raise ConfigError(f"level {level} outside the grid's dyadic range [{-p}, {a}]")
        self.level = level
        self.q = 2 ** (level + p)  # cells per cube edge
        self.nc = 2 ** (a + 1 - level)  # cubes in the box
        self.n0 = g.half_cells
        q, nc = self.q, self.nc
        v = f.values
        body = v[:-1].reshape(nc, q)
        sums = body.sum(axis=1)
        sumsq = (body**2).sum(axis=1)
        counts = np.full(nc, q, dtype=np.int64)
        sums[-1] += v[-1]
        sumsq[-1] += v[-1] ** 2
        counts[-1] += 1
        self.counts = counts
        self.sums = sums
        self.sumsq = sumsq

    @functools.cached_property
    def mean(self) -> np.ndarray:
        return self.sums / self.counts

    @functools.cached_property
    def mean_sq(self) -> np.ndarray:
        return self.sumsq / self.counts

    @functools.cached_property
    def oscillation(self) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, self.mean_sq - self.mean**2))

    @functools.cached_property
    def size(self) -> np.ndarray:
        return np.sqrt(self.mean_sq)

    def corner_cells(self) -> np.ndarray:
        """Corner cell coordinate per cube (lattice units of h)."""
        return -self.n0 + np.arange(self.nc, dtype=np.int64) * self.q

    def outside_score(self) -> np.ndarray:
        """Per-cube integer score g with: cube disjoint from the closed
        origin cube of half-extent T cells  <=>  g >= T."""
        c = self.corner_cells()
        return np.maximum(c - 1, -c - self.q)

    def sigma_range(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cube (min, max) of the radial cell score sigma(o) =
        max(o, -o-1) over the cube's samples; a cube lies in the half-open
        shell [S_lo, S_hi) cells iff min >= S_lo and max < S_hi."""
        c = self.corner_cells()
        top = c + self.q - 1
        mn = np.where(c >= 0, c, np.where(top < 0, -c - self.q, 0))
        mx = np.maximum(top, -c - 1)
        return mn, mx

    def centers(self, grid: Grid) -> np.ndarray:
        """(n_cubes, 1) cube centers in coordinates."""
        return ((self.corner_cells() + self.q / 2.0) * grid.spacing)[:, None]


def _rho_fn(rho) -> Callable[[np.ndarray], np.ndarray]:
    if np.isscalar(rho) or isinstance(rho, (int, float)):
        return lambda pts: np.full(pts.shape[0], float(rho))
    if callable(rho):
        return lambda pts: np.asarray(rho(pts), dtype=np.float64).reshape(pts.shape[0])
    raise ConfigError(
        "critical-radius data for threshold scans must be a scalar or a callable on points"
    )



def _oracle_choose_thresholds(
    f: GridFunction,
    eps: float,
    rho,
    osc_fraction: float,
    level_min: int | None = None,
    level_max: int | None = None,
    slow_variation: tuple[float, int, float] | None = None,
    stats: dict[int, _LevelStats] | None = None,
) -> dict:
    """Scan dyadic levels for the smallest admissible (I, J, M).

    Five conditions, each required on a nonempty cube set (no vacuous
    passes):

    * oscillation below the fine scale, above the core scale, and on cubes
      entirely outside the doubled core region, all < osc_bound;
    * size (root mean square) on supercritical cubes above the core scale
      and on far supercritical cubes, both < size_bound.

    After J is fixed, I is enlarged until 2^(-I-1) <= inf rho over the
    J+2 region (critical-radius compatibility).  M is the smallest shell
    cutoff whose beyond-shell assigned cubes all have size < size_bound.
    ThresholdExhaustedError when any scan runs off the level range.

    slow_variation = (c, k0, rho_at_origin) adds the closed-form bound
    (k0+1) * (log2 C + I + J + 1), C = c * rho0 * (1 + 2/rho0)^(k0/(k0+1)),
    to the report for cross-checking the scanned M.

    stats caches the per-level statistics of f by level; a caller scanning
    one f at several eps passes the same dict to build each level once.
    """
    if not (eps > 0):
        raise ConfigError("eps must be positive")
    g = f.grid
    a, p = _dyadic_exponents(g)
    osc_bound = osc_fraction * eps
    size_bound = 0.5 * eps
    l_lo = level_min if level_min is not None else -p + 1
    l_hi = level_max if level_max is not None else a
    if not (-p <= l_lo <= l_hi <= a):
        raise ConfigError(f"level range [{l_lo}, {l_hi}] outside the grid range [{-p}, {a}]")

    rho_at = _rho_fn(rho)
    if stats is None:
        stats = {}

    def level_stats(l: int) -> _LevelStats:
        if l not in stats:
            stats[l] = _LevelStats(f, l)
        return stats[l]

    levels = list(range(l_lo, l_hi + 1))
    osc_max = {l: float(np.max(level_stats(l).oscillation)) for l in levels}

    # fine exponent: smallest I with sup osc over levels <= -I below bound
    fine = None
    running = -math.inf
    # S_small(l) = max osc over levels <= l; walk l downward == I upward
    small_sup: dict[int, float] = {}
    acc = -math.inf
    for l in levels:
        acc = max(acc, osc_max[l])
        small_sup[l] = acc
    for i_cand in range(-l_hi, -l_lo + 1):
        if small_sup[-i_cand] < osc_bound:
            fine = i_cand
            break
    if fine is None:
        raise ThresholdExhaustedError(
            f"no fine cutoff in levels [{l_lo}, {l_hi}] brings the small-cube "
            f"oscillation below {osc_bound:.3g}"
        )

    # per-level data for the J conditions
    large_sup: dict[int, float] = {}
    acc = -math.inf
    for l in reversed(levels):
        acc = max(acc, osc_max[l])
        large_sup[l] = acc

    # far oscillation: per level, cubes sorted by outside score with suffix max
    far_sorted: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    super_size_max: dict[int, float] = {}
    far_super_sorted: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for l in levels:
        st = level_stats(l)
        score = st.outside_score()
        osc = st.oscillation
        order = np.argsort(score, kind="stable")
        s_sorted = score[order]
        suffix = np.maximum.accumulate(osc[order][::-1])[::-1]
        far_sorted[l] = (s_sorted, suffix)

        centers = st.centers(g)
        rho_c = rho_at(centers)
        sup_mask = (2.0**l) >= rho_c
        size = st.size
        super_size_max[l] = float(np.max(size[sup_mask])) if np.any(sup_mask) else -math.inf
        if np.any(sup_mask):
            sc = score[sup_mask]
            sz = size[sup_mask]
            order = np.argsort(sc, kind="stable")
            far_super_sorted[l] = (
                sc[order],
                np.maximum.accumulate(sz[order][::-1])[::-1],
            )
        else:
            far_super_sorted[l] = (np.empty(0, np.int64), np.empty(0))

    def sorted_suffix_sup(pair: tuple[np.ndarray, np.ndarray], t_cells: int) -> float:
        s_sorted, suffix = pair
        at = int(np.searchsorted(s_sorted, t_cells, side="left"))
        if at >= s_sorted.size:
            return -math.inf
        return float(suffix[at])

    def conditions_hold(j: int) -> bool:
        # (a) oscillation on levels >= j
        if large_sup.get(j, -math.inf) >= osc_bound:
            return False
        # (b) oscillation on cubes outside the closed core region
        t_cells = 2 ** (j + p)
        far_vals = [sorted_suffix_sup(far_sorted[l], t_cells) for l in levels]
        if max(far_vals) >= osc_bound:
            return False
        # (c) size on supercritical cubes at levels >= j
        sup_sizes = [super_size_max[l] for l in levels if l >= j]
        if sup_sizes and max(sup_sizes) >= size_bound:
            return False
        # (d) size on far supercritical cubes (any level)
        far_sup_vals = [sorted_suffix_sup(far_super_sorted[l], t_cells) for l in levels]
        if max(far_sup_vals) >= size_bound:
            return False
        return True

    core = None
    j_floor = max(-fine - 1, l_lo)
    for j_cand in range(j_floor, l_hi + 1):
        if conditions_hold(j_cand):
            core = j_cand
            break
    if core is None:
        raise ThresholdExhaustedError(
            f"no core cutoff in levels [{j_floor}, {l_hi}] satisfies the large-scale, "
            "far, and supercritical conditions"
        )

    # critical-radius compatibility: enlarge the fine exponent until the
    # finest pre-assignment scale drops below inf rho on the J+2 region
    probe_half = min(2.0 ** (core + 2), g.halfwidth)
    probes = _region_probe_points(g, probe_half)
    rho_min = float(np.min(rho_at(probes)))
    while 2.0 ** (-fine - 1) > rho_min:
        fine += 1
        if -fine - 2 < -p:
            raise ThresholdExhaustedError(
                f"critical-radius compatibility pushes the fine cutoff below the "
                f"grid scale (inf rho = {rho_min:.3g} on the core neighbourhood)"
            )

    # outer exponent: shells beyond M must have small assigned-cube size
    if core + 1 > a:
        raise ThresholdExhaustedError(
            f"the box (halfwidth 2^{a}) cannot hold shells beyond the core 2^{core}"
        )
    shell_tops = list(range(core, a))  # shell m covers (2^m, 2^(m+1)]
    shell_size = {}
    for m in shell_tops:
        lv = m - fine - core - 1
        if lv < -p:
            raise ThresholdExhaustedError(
                f"shell {m} would need cubes below the grid scale"
            )
        st = level_stats(lv) if l_lo <= lv <= l_hi else _LevelStats(f, lv)
        mn, mx = st.sigma_range()
        size = st.size
        inner_cells = 2 ** (m + p)
        outer_cells = 2 ** (m + 1 + p)
        in_shell = (mn >= inner_cells) & (mx < outer_cells)
        shell_size[m] = float(np.max(size[in_shell])) if np.any(in_shell) else -math.inf
    outer = None
    suffix_sup = -math.inf
    suffix_map = {}
    for m in reversed(shell_tops):
        suffix_sup = max(suffix_sup, shell_size[m])
        suffix_map[m] = suffix_sup
    for m in shell_tops:
        if suffix_map[m] < size_bound:
            outer = m
            break
    if outer is None:
        raise ThresholdExhaustedError(
            "no outer cutoff within the box keeps the beyond-shell cube sizes "
            f"below {size_bound:.3g}"
        )

    closed = None
    if slow_variation is not None:
        c_sv, k0, rho0 = slow_variation
        C = c_sv * rho0 * (1.0 + 2.0 / rho0) ** (k0 / (k0 + 1.0))
        closed = (k0 + 1.0) * (math.log2(max(C, 1e-300)) + fine + core + 1.0)

    return dict(
        eps=eps, fine_exponent=fine, core_exponent=core, outer_exponent=outer,
        osc_bound=osc_bound, size_bound=size_bound, closed_form_bound=closed,
    )


def _region_probe_points(grid: Grid, halfw: float) -> np.ndarray:
    """Decimated grid points, shape (k, 1), covering the closed origin
    interval of the given half-extent (always includes the origin and both
    ends)."""
    ax = grid.axis
    sel = np.abs(ax) <= halfw + 1e-12
    pts1 = ax[sel]
    if pts1.size > 129:
        stride = pts1.size // 129 + 1
        keep = pts1[::stride]
        if keep[-1] != pts1[-1]:
            keep = np.append(keep, pts1[-1])
        pts1 = keep
    return pts1[:, None]


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
        osc_fraction=0.25,
    )


@pytest.fixture(scope="module")
def pipeline_assignment(pipeline_thresholds, pipeline_grid, pipeline_f):
    return assign_cubes(pipeline_thresholds, pipeline_grid)


def _oracle_assignment(th: AveragingThresholds, grid: Grid) -> tuple[np.ndarray, ...]:
    """General partition construction: shell index from floor(log2) with
    exact repair, cube ids from a row sort of the per-sample keys.  Returns
    the cube levels, corners and counts in (level, corner) order and the
    cube id of every sample."""
    p = round(-math.log2(grid.spacing))
    n0 = grid.half_cells
    o = np.minimum(np.arange(grid.size), 2 * n0 - 1) - n0
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
    return uniq[:, 0].copy(), uniq[:, 1].copy(), np.bincount(inverse), inverse.astype(np.int64)


def _sorted_cubes(asn: DyadicAssignment) -> tuple[np.ndarray, ...]:
    """The position-ordered cube list in the oracle's form: levels, corners
    and counts in (level, corner) order, the cube id of every sample (cube
    k holds the next counts[k] samples), and each position's id."""
    levels, corners, counts = cube_tiling(asn)
    order = np.lexsort((corners, levels))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return levels[order], corners[order], counts[order], np.repeat(rank, counts), rank


def _oracle_adjacent_pairs(grid: Grid, levels, corners, sample_cube) -> set[tuple[int, int]]:
    """Closure-adjacent cube id pairs, found by probing the sample just
    outside each end of every cube."""
    n0 = grid.half_cells
    p = round(-math.log2(grid.spacing))
    q = (1 << (levels + p)).astype(np.int64)
    c = corners * q
    pairs = set()
    for probe in (c - 1, c + q):
        ok = (probe >= -n0) & (probe <= n0 - 1)
        src = np.nonzero(ok)[0]
        tgt = sample_cube[probe[ok] + n0]
        pairs |= {(min(a, b), max(a, b)) for a, b in zip(src.tolist(), tgt.tolist()) if a != b}
    return pairs


def _assert_position_order(asn: DyadicAssignment) -> None:
    """Cube k starts where cube k-1 ends, the first at the -X face, and
    holds 2^(level+p) samples; the last holds the +X boundary sample too."""
    p = round(-math.log2(asn.grid.spacing))
    levels, corners, counts = cube_tiling(asn)
    q = np.left_shift(1, levels + p)
    first = corners * q
    assert corners.shape == (asn.n_cubes,)
    assert first[0] == -asn.grid.half_cells
    assert np.array_equal(first[1:], first[:-1] + q[:-1])
    assert np.array_equal(counts[:-1], q[:-1]) and counts[-1] == q[-1] + 1
    # the rows of assignment.csv are the same cubes in (level, corner) order
    order = np.lexsort((corners, levels))
    assert list(asn.cube_list()) == list(zip(levels[order].tolist(), corners[order].tolist()))


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


def _valid_window(g: Grid, t: float) -> slice:
    """The samples whose width-t kernel window stays inside the box: the
    kernel reaches ceil(t/h) - 1 samples each way."""
    kmax = math.ceil(t / g.spacing - 1e-9) - 1
    return slice(kmax, g.size - kmax)


def test_mollify_constant_exact_on_valid_window():
    g = Grid(halfwidth=4.0, spacing=2.0**-5)
    f = constant(g, 2.5)
    out = mollify(f, 0.5)
    valid = _valid_window(g, 0.5)
    assert 0 < valid.start < valid.stop < g.size
    assert np.allclose(out.values[valid], 2.5, atol=1e-13)
    # one sample further out the window reaches the zero padding
    assert out.values[valid.start - 1] < 2.5 - 1e-6
    assert out.values[valid.stop] < 2.5 - 1e-6


def test_mollify_width_floor():
    g = Grid(halfwidth=4.0, spacing=0.25)
    with pytest.raises(ConfigError):
        mollify(constant(g, 1.0), 0.5)  # below 4h = 1


@pytest.mark.parametrize("t", [1.0, 4.0, 8.0, 10.0])
def test_mollify_is_the_direct_sum_for_a_kernel_longer_than_the_box(t):
    # 33 samples against kernels of 7, 31, 63 and 79: each output is the
    # sum of w[k] f[i - k] over the box, zero outside it
    g = Grid(halfwidth=4.0, spacing=0.25)
    f = GridFunction.from_callable(g, lambda x: np.exp(-0.5 * x**2))
    kmax = math.ceil(t / g.spacing - 1e-9) - 1
    # the bump exp(-1 / (1 - r^2)) at the kernel's offsets, all inside r < 1
    w = np.exp(-1.0 / (1.0 - (np.arange(-kmax, kmax + 1) * g.spacing / t) ** 2))
    w /= w.sum()
    i = np.arange(g.size)
    want = np.array([sum(w[kmax + a - b] * f.values[b] for b in i if abs(a - b) <= kmax) for a in i])
    got = mollify(f, t).values
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15), np.abs(got - want).max()
    assert np.allclose(got, got[::-1], rtol=1e-12, atol=1e-15)


def test_mollify_error_shrinks_with_t():
    g = Grid(halfwidth=8.0, spacing=2.0**-6)
    f = GridFunction.from_callable(g, lambda x: np.exp(-0.5 * x**2))
    errs = []
    for t in (0.5, 0.25, 0.125):
        valid = _valid_window(g, t)
        errs.append(float(np.max(np.abs(mollify(f, t).values - f.values)[valid])))
    assert errs[0] > errs[1] > errs[2]


def test_choose_thresholds_validation(pipeline_f):
    fr = 1.0 / 20.0
    with pytest.raises(ConfigError):
        choose_thresholds(pipeline_f, eps=0.0, rho=RHO0, osc_fraction=fr)
    for rho in (0.0, -RHO0, math.nan, math.inf, np.array([RHO0]), str(RHO0), None, lambda pts: RHO0):
        with pytest.raises(ConfigError, match="finite positive scalar rho"):
            choose_thresholds(pipeline_f, eps=0.5, rho=rho, osc_fraction=fr)
    g = Grid(halfwidth=6.0, spacing=0.25)  # not a power-of-two box
    with pytest.raises(ConfigError):
        choose_thresholds(constant(g, 0.0), eps=0.5, rho=RHO0, osc_fraction=fr)


def test_constant_exhausts_supercritical_condition(pipeline_grid):
    f = constant(pipeline_grid, 1.0)
    with pytest.raises(ThresholdExhaustedError):
        choose_thresholds(f, eps=0.05, rho=RHO0, osc_fraction=1.0 / 20.0)


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
    cube_levels, _, cube_counts = cube_tiling(asn)
    assert int(np.sum(cube_counts)) == pipeline_grid.size
    _assert_position_order(asn)
    # samples inside the core carry the core level, and each sample the
    # level the row-sort oracle gives it
    th = asn.thresholds
    core = np.abs(pipeline_grid.axis) < 2.0**th.core_exponent - 1e-12
    got_levels = np.repeat(cube_levels, cube_counts)
    assert np.all(got_levels[core] == th.core_level)
    levels, _, _, sample_cube = _oracle_assignment(th, pipeline_grid)
    assert np.array_equal(got_levels, levels[sample_cube])
    # levels never fall below the grid scale
    assert np.all(cube_levels >= -6)


def test_assignment_needs_box_margin(pipeline_grid):
    th = AveragingThresholds(
        eps=1.0,
        fine_exponent=2,
        core_exponent=3,
        outer_exponent=6,  # 2^(6+3) = 512 > 256
        osc_bound=0.1,
        size_bound=0.5,
    )
    with pytest.raises(OutOfDomainError):
        assign_cubes(th, pipeline_grid)


def test_dyadic_average_idempotent(pipeline_f, pipeline_assignment):
    A = dyadic_average(pipeline_f, pipeline_assignment)
    AA = dyadic_average(A, pipeline_assignment)
    assert np.array_equal(A.values, AA.values)


def test_dyadic_average_equals_cube_means(pipeline_f, pipeline_assignment):
    A = dyadic_average(pipeline_f, pipeline_assignment)
    # plain bincount means of the position-ordered cubes
    cube_counts = cube_tiling(pipeline_assignment)[2]
    cube_ids = np.repeat(np.arange(pipeline_assignment.n_cubes), cube_counts)
    means = np.bincount(cube_ids, weights=pipeline_f.values) / cube_counts
    assert np.allclose(A.values, np.repeat(means, cube_counts), atol=1e-12)
    # against the oracle's cube means, cube by cube in (level, corner) order
    _, _, counts, sample_cube = _oracle_assignment(pipeline_assignment.thresholds, pipeline_assignment.grid)
    want = np.bincount(sample_cube, weights=pipeline_f.values) / counts
    assert np.allclose(A.values, want[sample_cube], atol=1e-12)
    *_, rank = _sorted_cubes(pipeline_assignment)
    assert np.array_equal(means[np.argsort(rank)], want)


def test_gates_pass_for_member(pipeline_f, pipeline_assignment):
    rep = p1_p2_check(pipeline_assignment, dyadic_average(pipeline_f, pipeline_assignment))
    assert rep.p1_ok, rep
    assert rep.p2_ok, rep
    assert rep.size_ratio_ok
    assert rep.n_adjacent_pairs > 0


def test_one_assignment_serves_functions_of_different_hulls(pipeline_thresholds, pipeline_grid, pipeline_f):
    # the tiling depends on the grid and the thresholds alone: the averaging
    # and the gates each read the cubes that meet their own function's hull
    # and one more on each side, where the box has one
    grid = pipeline_grid
    asn = assign_cubes(pipeline_thresholds, grid)
    ends = np.append(cube_starts(asn), grid.size)
    rng = np.random.default_rng(7)
    lo = int(ends[3 * ends.size // 4])  # a cube start in a right shell, far from the bump
    # one far from the bump and one up to the +X face, both well above their
    # background 0.0, so P2 is a difference with a cube past the hull
    others = [GridFunction(grid, 3.0 + rng.random(3000), lo=lo), GridFunction(grid, 1.0 + rng.random(40), lo=grid.size - 40)]
    for f in (pipeline_f, *others):
        c0 = max(int(np.searchsorted(ends, f.lo, side="right")) - 2, 0)
        c1 = min(int(np.searchsorted(ends, f.hi, side="left")) + 1, ends.size - 1)
        assert np.array_equal(asn.bounds(f), ends[c0 : c1 + 1])
        A = dyadic_average(f, asn)
        want = dense_dyadic_average(f, asn)
        assert np.array_equal(A.values, want)
        rep = p1_p2_check(asn, A)
        assert (rep.p1_sup, rep.p2_max) == dense_gates(asn, GridFunction(grid, want))
    assert asn.bounds(GridFunction.constant(grid, 1.0)).size == 0


def test_gate_p1_fails_for_borrowed_constant(pipeline_thresholds, pipeline_grid):
    # averaging the constant 1 with thresholds chosen for the bump leaves
    # mass 1 outside the outer region, so the first gate must fail
    f = constant(pipeline_grid, 1.0)
    asn = assign_cubes(pipeline_thresholds, pipeline_grid)
    rep = p1_p2_check(asn, dyadic_average(f, asn))
    assert not rep.p1_ok
    assert rep.p1_sup == pytest.approx(1.0)
    assert rep.p2_ok  # all cube means equal


def _axis_mask_p1(asn: DyadicAssignment, averaged: GridFunction) -> float:
    """P1 as an axis mask: sup |A| over the samples with |x| > 2^M."""
    outside = np.abs(asn.grid.axis) > 2.0**asn.thresholds.outer_exponent + 1e-12
    return float(np.max(np.abs(averaged.values[outside]), initial=0.0))


@pytest.mark.parametrize("halfwidth, spacing", [(256.0, 2.0**-6), (8192.0, 2.0**-7)])
def test_p1_index_slices_match_axis_mask(halfwidth, spacing):
    grid = Grid(halfwidth=halfwidth, spacing=spacing)
    n0 = grid.half_cells
    # asymmetric: larger and positive on the right, negative on the left
    f = GridFunction.from_callable(grid, lambda x: np.where(x > 0, 2.0, -0.5) * np.cos(x) * np.exp(x / halfwidth))
    a, p = _dyadic_exponents(grid)
    for outer in range(a - 5, a - 2):
        asn = assign_cubes(AveragingThresholds(1.0, 1, outer - 1, outer, 0.1, 0.5), grid)
        A = dyadic_average(f, asn)
        assert p1_p2_check(asn, A).p1_sup == _axis_mask_p1(asn, A) > 0
        # a spike on the closed region's edge is inside; one sample further
        # out, on either side, it sets P1
        k = 2 ** (outer + p)
        for i, inside in ((n0 + k, True), (n0 - k, True), (n0 + k + 1, False), (n0 - k - 1, False)):
            spiked = A.values.copy()
            spiked[i] = -100.0
            got = p1_p2_check(asn, GridFunction(grid, spiked)).p1_sup
            assert got == _axis_mask_p1(asn, GridFunction(grid, spiked)), i
            assert (got == 100.0) is not inside, i
    zero = constant(grid, 0.0)
    p1 = p1_p2_check(asn, zero).p1_sup
    assert p1 == 0.0 and math.copysign(1.0, p1) == 1.0


def _assert_matches_oracle(f: GridFunction, asn: DyadicAssignment) -> None:
    """Equal levels, corners, counts and per-sample map after a (level,
    corner) sort; the consecutive cubes are the oracle's closure-adjacent
    pairs, and the gates read the averaged cube means over them, which are
    the oracle's plain cube means up to rounding."""
    want = _oracle_assignment(asn.thresholds, asn.grid)
    *got, rank = _sorted_cubes(asn)
    for name, g, w in zip(("levels", "corners", "counts", "sample_cube"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g, w), name
    levels, corners, counts, sample_cube = want
    pairs = _oracle_adjacent_pairs(asn.grid, levels, corners, sample_cube)
    assert {(min(a, b), max(a, b)) for a, b in zip(rank[:-1].tolist(), rank[1:].tolist())} == pairs
    A = dyadic_average(f, asn)
    rep = p1_p2_check(asn, A)
    assert rep.n_adjacent_pairs == len(pairs)
    if pairs:
        a, b = np.array(sorted(pairs)).T
        means = np.empty(counts.size)
        means[sample_cube] = A.values
        assert np.array_equal(means[sample_cube], A.values)  # A is constant on each oracle cube
        assert np.allclose(means, np.bincount(sample_cube, weights=f.values) / counts, rtol=1e-12, atol=1e-12)
        assert rep.p2_max == float(np.max(np.abs(means[a] - means[b])))
        assert rep.size_ratio_ok == bool(np.all(np.abs(levels[a] - levels[b]) <= 1))


def test_assignment_matches_row_sort_oracle(pipeline_f, pipeline_assignment):
    _assert_matches_oracle(pipeline_f, pipeline_assignment)


def test_assignment_matches_row_sort_oracle_large():
    grid = Grid(halfwidth=2048.0, spacing=2.0**-7)  # 524,289 samples
    f = member_by_name("bump-narrow").build(grid)
    th = choose_thresholds(f, eps=0.55, rho=RHO0, osc_fraction=0.25)
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
        osc_bound=0.125 * 0.235, size_bound=0.5 * 0.235,
    )
    asn = assign_cubes(th, grid)
    _assert_position_order(asn)
    levels, _, counts = cube_tiling(asn)
    assert int(np.sum(counts)) == grid.size
    # the core [-2^10, 2^10) in single cells (level -7), then on each side
    # shells m = 10, 11, 12 of 2^16 cubes at level m - 16
    assert asn.n_cubes == 2**18 + 2 * 3 * 2**16
    assert np.array_equal(np.unique(levels), [-7, -6, -5, -4])
    zero = constant(grid, 0.0)
    rep = p1_p2_check(asn, dyadic_average(zero, asn))
    assert rep.n_adjacent_pairs == asn.n_cubes - 1
    assert rep.size_ratio_ok
    assert np.all(np.abs(np.diff(levels)) <= 1)


# (halfwidth, spacing, number of swept thresholds)
_SWEEP_BOXES = [
    (32.0, 2.0**-3, 55), (64.0, 0.5, 37), (128.0, 2.0**-4, 149), (256.0, 2.0**-3, 149), (512.0, 0.5, 110)
]


def _swept_thresholds(grid: Grid):
    """Every (I, J, M) a threshold scan of the grid can return and
    assign_cubes can tile (core cubes at or above the grid scale, J >= -I-1,
    halfwidth >= 2^(M+3)), plus cores out to the box with M = a - 3."""
    a, p = _dyadic_exponents(grid)
    for fine in range(-a, p - 1):
        for core in range(max(-fine - 1, -p + 1), a + 1):
            for outer in range(min(core, a - 3), a - 2):
                yield AveragingThresholds(1.0, fine, core, outer, 0.1, 0.5)


@pytest.mark.parametrize("halfwidth, spacing, count", _SWEEP_BOXES)
def test_assignment_matches_oracle_for_every_threshold(halfwidth, spacing, count):
    grid = Grid(halfwidth=halfwidth, spacing=spacing)
    f = GridFunction.from_callable(grid, lambda x: np.sin(3.0 * x) + x**2 / halfwidth)
    n = 0
    for th in _swept_thresholds(grid):
        asn = assign_cubes(th, grid)
        _assert_position_order(asn)
        _assert_matches_oracle(f, asn)
        n += 1
    assert n == count


def test_assignment_rejects_core_below_minus_fine_minus_one(pipeline_grid):
    # shell m's cubes (level m - I - J - 1) would be longer than the shell
    for fine, core in ((2, -4), (3, -5)):
        th = AveragingThresholds(1.0, fine, core, 4, 0.1, 0.5)
        with pytest.raises(ConfigError, match=r"J = -\d+ outside \[-I-1, a\]"):
            assign_cubes(th, pipeline_grid)
    # a core beyond the box (J > a) is rejected as well
    with pytest.raises(ConfigError, match="outside"):
        assign_cubes(AveragingThresholds(1.0, 2, 9, 4, 0.1, 0.5), pipeline_grid)


def test_assignment_memory_is_independent_of_sample_count():
    grid = Grid(halfwidth=8192.0, spacing=2.0**-7)  # 2,097,153 samples
    th = AveragingThresholds(1.0, 0, 3, 5, 0.1, 0.5)
    tracemalloc.start()
    try:
        asn = assign_cubes(th, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asn.n_cubes == 64 + 2 * 10 * 16
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# threshold scan against the per-level oracle

_SCAN_GEOMETRIES = [(256.0, 2.0**-6), (2048.0, 2.0**-7), (8192.0, 2.0**-7)]  # last: pipeline-small
_SCAN_EPS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.55)


def _scan_outcome(scan, f: GridFunction, eps: float) -> dict | str:
    """The scanned thresholds as a field dict, or the exhaustion message."""
    try:
        th = scan(f, eps, RHO0, 0.125)
    except ThresholdExhaustedError as e:
        return str(e)
    return th if isinstance(th, dict) else th._asdict()


@pytest.mark.parametrize("halfwidth, spacing", _SCAN_GEOMETRIES)
@pytest.mark.parametrize("member", ["bump-narrow", "gaussian", "const-one", "log-spike"])
def test_threshold_scan_matches_level_stats_oracle(member, halfwidth, spacing):
    grid = Grid(halfwidth=halfwidth, spacing=spacing)
    f = member_by_name(member).build(grid)
    a, p = _dyadic_exponents(grid)
    # choose_thresholds reports the closed-form bound at c = k0 = 1; the
    # per-level statistics of f are built once for every eps
    oracle = functools.partial(_oracle_choose_thresholds, slow_variation=(1.0, 1, RHO0), stats={})
    for eps in _SCAN_EPS:
        want = _scan_outcome(oracle, f, eps)
        got = _scan_outcome(choose_thresholds, f, eps)
        if isinstance(want, dict) and -want["fine_exponent"] - 2 < -p:
            # the oracle hands assign_cubes core cubes below the grid scale
            fine = want["fine_exponent"]
            assert got == (
                f"the fine cutoff 2^{-fine} puts the core cubes 2^{-fine - 2} below the grid scale 2^{-p}"
            ), eps
        elif isinstance(want, dict) and want["outer_exponent"] > a - 3:
            # the oracle's smallest M leaves no room for 2^(M+3) in the box,
            # so no cutoff M <= a - 3 holds
            assert got == (
                f"no outer cutoff M <= a - 3 = {a - 3} keeps the beyond-shell cube sizes "
                f"below {want['size_bound']:.3g}"
            ), eps
        else:
            assert got == want, eps


def test_threshold_scan_memory_at_pipeline_small_geometry():
    grid = Grid(halfwidth=8192.0, spacing=2.0**-7)  # 2,097,153 samples
    f = member_by_name("bump-narrow").build(grid)
    tracemalloc.start()
    try:
        th = choose_thresholds(f, 0.235, RHO0, 0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (th.fine_exponent, th.core_exponent, th.outer_exponent) == (5, 10, 10)
    # the pyramid keeps at most four arrays of half the sample count alive;
    # the per-level oracle peaks at about eight sample-sized arrays
    assert peak <= 2.5 * grid.size * 8, peak / (grid.size * 8)


def _stage_peak(stage: Callable[[], object]) -> tuple[object, int]:
    """stage()'s result and the traced bytes it allocated at its peak, above
    what was held when it started; tracemalloc must be tracing."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = stage()
    return out, tracemalloc.get_traced_memory()[1] - base


def _exhausted(f: GridFunction, eps: float) -> str:
    try:
        choose_thresholds(f, eps, RHO_CONSTANT_UNIT, 0.125)
    except ThresholdExhaustedError as e:
        return str(e)
    raise AssertionError("the threshold scan of a constant must run out")


def test_pipeline_stages_allocate_no_sample_sized_array():
    # the pipeline-small geometry of the benchmark's pipeline workload:
    # 2,097,153 samples, 139,248 balls.  The cube stages of bump-narrow
    # (a window of 255 samples) and every stage of the constant 1 must each
    # stay below one eighth of a float64 sample array
    (plan,) = plan_scenarios({"scenarios": [{
        "id": "approximation-pipeline", "member": "bump-narrow", "halfwidth": 8192.0, "spacing": 2.0**-7,
        "eps_fraction": 0.3, "osc_fraction": 0.125,
    }]})
    grid, fam = plan.grid, plan.family
    bound = grid.size * 8 // 8
    f = member_by_name("bump-narrow").build(grid)
    th = choose_thresholds(f, 0.235, RHO_CONSTANT_UNIT, 0.125)
    peaks = {}
    tracemalloc.start()
    try:
        asg, peaks["assign_cubes"] = _stage_peak(lambda: assign_cubes(th, grid))
        A, peaks["dyadic_average"] = _stage_peak(lambda: dyadic_average(f, asg))
        gate, peaks["p1_p2_check"] = _stage_peak(lambda: p1_p2_check(asg, A))
        one, peaks["const-one build"] = _stage_peak(lambda: member_by_name("const-one").build(grid))
        stats, peak = _stage_peak(lambda: family_stats(one, fam))
        # its result is two per-ball arrays (2.2 MB here), not sample-sized;
        # what it allocates besides them is bounded
        peaks["const-one family_stats scratch"] = peak - stats.oscillation.values.nbytes - stats.size.values.nbytes
        norm, peaks["const-one norm"] = _stage_peak(lambda: bmo_l_norm(stats, RHO_CONSTANT_UNIT).value)
        del stats
        message, peaks["const-one choose_thresholds"] = _stage_peak(lambda: _exhausted(one, 0.3 * norm))
    finally:
        tracemalloc.stop()
    assert (grid.size, len(fam)) == (2_097_153, 139_248)
    assert (th.fine_exponent, th.core_exponent, th.outer_exponent) == (5, 10, 10)
    assert asg.n_cubes == 2**18 + 2 * 3 * 2**16 and gate.p1_ok and gate.p2_ok and gate.size_ratio_ok
    assert norm == 1.0 and message.startswith("no core cutoff")
    assert {name: peak for name, peak in peaks.items() if peak >= bound} == {}, (bound, peaks)
