"""Piecewise-dyadic averaging and mollification.

The approximation pipeline for a function f with a critical-radius field:

1. choose_thresholds picks three exponents (fine I, core J, outer M) so
   that cube oscillations below scale 2^-I, above scale 2^J, and far from
   the origin all drop below eps-proportional bounds, and cube sizes on
   supercritical scales do too;
2. assign_cubes tiles the box with half-open dyadic intervals ("cubes")
   whose sidelength depends on the region of the sample (core gets
   2^(-I-2), the m-th shell gets 2^(m-I-J-1));
3. the region average replaces f by its cube means (exactly idempotent);
4. p1_p2_check verifies the smallness of the result outside the outer
   region and across closure-adjacent cubes.

Grids here must have power-of-two halfwidth and spacing 2^-p so the
shells tile exactly in integer cell arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, OutOfDomainError, ThresholdExhaustedError
from .grid import Grid, GridFunction


# ---------------------------------------------------------------------------
# bump and mollifier


def _bump_profile(r2: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r^2)) on r^2 < 1, 0 outside; vectorised and overflow-safe."""
    out = np.zeros(np.shape(r2))
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def bump(grid: Grid, center: Sequence[float] | None = None, width: float = 1.0) -> GridFunction:
    """The standard smooth bump supported on B(center, width), sampled and
    scaled to unit discrete mass.  Needs h < 1/4 (in units of the width) so
    the support holds enough samples for the mass to be meaningful."""
    if grid.spacing >= width / 4.0:
        raise ConfigError(
            f"spacing {grid.spacing} too coarse for a width-{width} bump; need h < width/4"
        )
    c = np.zeros(1) if center is None else np.asarray(center, dtype=np.float64)
    if c.shape != (1,):
        raise ConfigError("bump center must have one coordinate")
    r2 = ((grid.axis - c[0]) / width) ** 2
    vals = _bump_profile(r2)
    mass = float(np.sum(vals) * grid.cell_volume)
    if mass <= 0:
        raise ConfigError("bump support contains no samples")
    return GridFunction(grid, vals / mass)


@dataclass(frozen=True)
class Mollified:
    fn: GridFunction
    valid: np.ndarray  # True where the kernel window stayed inside the box


def mollify(f: GridFunction, t: float) -> Mollified:
    """Convolution with the unit-mass bump kernel scaled to width t,
    zero-padded outside the box.  Requires t >= 4h so the kernel holds
    enough samples.  valid marks samples whose window never left the box."""
    g = f.grid
    h = g.spacing
    if t < 4.0 * h * (1 - 1e-9):
        raise ConfigError(f"mollification width {t} is below 4h = {4 * h}")
    kmax = math.ceil(t / h - 1e-9) - 1
    offs = np.arange(-kmax, kmax + 1, dtype=np.float64) * h
    w = _bump_profile((offs / t) ** 2)
    w /= np.sum(w)
    conv = np.convolve(f.values, w, mode="same")
    n_ax = g.axis_count
    i = np.arange(n_ax)
    valid = (i - kmax >= 0) & (i + kmax <= n_ax - 1)
    return Mollified(GridFunction(g, conv), valid)


# ---------------------------------------------------------------------------
# dyadic machinery on power-of-two boxes


def _dyadic_exponents(grid: Grid) -> tuple[int, int]:
    """(a, p) with halfwidth = 2^a and spacing = 2^-p, else ConfigError."""
    a = math.log2(grid.halfwidth)
    p = -math.log2(grid.spacing)
    if abs(a - round(a)) > 1e-9 or abs(p - round(p)) > 1e-9:
        raise ConfigError(
            "dyadic averaging needs a power-of-two box (halfwidth 2^a, spacing 2^-p); "
            f"got halfwidth {grid.halfwidth}, spacing {grid.spacing}"
        )
    return round(a), round(p)


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

    @property
    def mean(self) -> np.ndarray:
        return self.sums / self.counts

    @property
    def mean_sq(self) -> np.ndarray:
        return self.sumsq / self.counts

    @property
    def oscillation(self) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, self.mean_sq - self.mean**2))

    @property
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


# ---------------------------------------------------------------------------
# threshold selection


@dataclass(frozen=True)
class ThresholdFractions:
    """eps multipliers for the scanned bounds; None picks the defaults
    1/20 (the paper's 1/(5*4^n) at n = 1) for oscillation conditions and
    1/2 for size conditions."""

    oscillation: float | None = None
    size: float = 0.5

    def osc_value(self) -> float:
        return self.oscillation if self.oscillation is not None else 1.0 / 20.0


@dataclass(frozen=True)
class AveragingThresholds:
    eps: float
    fine_exponent: int  # I: fine-scale cutoff 2^-I
    core_exponent: int  # J: core region halfwidth 2^J
    outer_exponent: int  # M: outer region halfwidth 2^M
    osc_bound: float
    size_bound: float
    level_min: int
    level_max: int
    closed_form_bound: float | None = None

    @property
    def core_level(self) -> int:
        return -self.fine_exponent - 2

    def shell_level(self, m: int) -> int:
        return m - self.fine_exponent - self.core_exponent - 1


def choose_thresholds(
    f: GridFunction,
    eps: float,
    rho,
    fractions: ThresholdFractions | None = None,
    level_min: int | None = None,
    level_max: int | None = None,
    slow_variation: tuple[float, int, float] | None = None,
) -> AveragingThresholds:
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
    """
    if not (eps > 0):
        raise ConfigError("eps must be positive")
    g = f.grid
    a, p = _dyadic_exponents(g)
    fr = fractions or ThresholdFractions()
    osc_bound = fr.osc_value() * eps
    size_bound = fr.size * eps
    l_lo = level_min if level_min is not None else -p + 1
    l_hi = level_max if level_max is not None else a
    if not (-p <= l_lo <= l_hi <= a):
        raise ConfigError(f"level range [{l_lo}, {l_hi}] outside the grid range [{-p}, {a}]")

    rho_at = _rho_fn(rho)
    stats: dict[int, _LevelStats] = {}

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

    return AveragingThresholds(
        eps, fine, core, outer, osc_bound, size_bound, l_lo, l_hi, closed
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


# ---------------------------------------------------------------------------
# cube assignment and averaging


@dataclass(frozen=True)
class DyadicAssignment:
    """Partition of the samples into half-open dyadic cubes.

    sample_cube maps each sample to a cube id; cube_levels and cube_corners
    ((n_cubes, 1)) describe each cube.  Regions are half-open (the core is
    [-2^J, 2^J)), so the tiles partition the box exactly; the +X boundary
    sample folds into the last cube.
    """

    grid: Grid
    thresholds: AveragingThresholds
    sample_cube: np.ndarray
    cube_levels: np.ndarray
    cube_corners: np.ndarray
    cube_counts: np.ndarray

    @property
    def n_cubes(self) -> int:
        return self.cube_levels.size


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Index of the first sample of each run of equal keys.  Every cube is
    one contiguous run of the position-ordered samples, so the runs are
    the cubes in position order."""
    change = np.zeros(keys[0].size - 1, dtype=bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    return np.concatenate(([0], np.nonzero(change)[0] + 1))


def assign_cubes(thresholds: AveragingThresholds, grid: Grid) -> DyadicAssignment:
    """Tile the box according to the thresholds.

    Cube ids follow (level, corner) order.  Needs halfwidth >= 2^(M+3) so
    the truncation region of the pipeline fits with room to spare.
    """
    a, p = _dyadic_exponents(grid)
    th = thresholds
    if 2.0 ** (th.outer_exponent + 3) > grid.halfwidth * (1 + 1e-12):
        raise OutOfDomainError(
            f"box halfwidth {grid.halfwidth} below 2^(M+3) = {2.0 ** (th.outer_exponent + 3)}"
        )
    if th.core_level < -p:
        raise ConfigError("core cubes fall below the grid scale")
    n0 = grid.half_cells
    o = np.arange(-n0, n0 + 1, dtype=np.int64)
    o[-1] = n0 - 1  # the +X boundary sample folds into the last cell
    sigma = np.maximum(o, -o - 1)
    # sigma in [2^(m+p), 2^(m+p+1)) cells  <=>  frexp exponent m + p + 1
    # (exact: sigma < 2^53)
    shell_m = np.frexp(sigma)[1].astype(np.int64) - p - 1
    level = np.where(
        sigma < 2 ** (th.core_exponent + p), th.core_level, th.shell_level(shell_m)
    )
    del sigma, shell_m  # two sample-sized arrays fewer for the corner pass
    if np.any(level < -p):
        raise ConfigError("assignment produced cubes below the grid scale")
    corners = o >> (level + p)  # arithmetic shift = floor division

    starts = _run_starts(level, corners)
    run_levels = level[starts]
    run_corners = corners[starts]
    order = np.lexsort((run_corners, run_levels))
    run_ids = np.empty(order.size, dtype=np.int64)
    run_ids[order] = np.arange(order.size)
    counts = np.diff(np.append(starts, grid.axis_count))
    return DyadicAssignment(
        grid,
        th,
        np.repeat(run_ids, counts),
        run_levels[order],
        run_corners[order][:, None],
        counts[order],
    )


def dyadic_average(f: GridFunction, assignment: DyadicAssignment) -> GridFunction:
    """Replace f by its mean on each assigned cube.

    Means are computed against a per-cube anchor sample (the cube's first
    sample), which makes the operation exactly idempotent on
    piecewise-constant input.
    """
    if not f.grid.compatible(assignment.grid):
        raise ConfigError("function and assignment grids differ")
    flat = f.values
    sc = assignment.sample_cube
    n_cubes = assignment.n_cubes
    starts = _run_starts(sc)
    anchors = np.empty(n_cubes)
    anchors[sc[starts]] = flat[starts]
    diffs = flat - anchors[sc]
    sums = np.bincount(sc, weights=diffs, minlength=n_cubes)
    means = anchors + sums / assignment.cube_counts
    return GridFunction(f.grid, means[sc])


def cube_means(f: GridFunction, assignment: DyadicAssignment) -> np.ndarray:
    sc = assignment.sample_cube
    sums = np.bincount(sc, weights=f.values, minlength=assignment.n_cubes)
    return sums / assignment.cube_counts


# ---------------------------------------------------------------------------
# P1 / P2 gates


@dataclass(frozen=True)
class GateReport:
    p1_sup: float
    p1_ok: bool
    p2_max: float
    p2_ok: bool
    n_adjacent_pairs: int
    size_ratio_ok: bool


def p1_p2_check(
    f: GridFunction, assignment: DyadicAssignment, averaged: GridFunction | None = None
) -> GateReport:
    """P1: sup |averaged| outside the closed outer region <= eps/2.
    P2: |difference across closure-adjacent cubes| <= eps.  Also verifies
    the neighbour sidelength ratio invariant (in {1/2, 1, 2}).  In one
    dimension the closure-adjacent cubes are the consecutive runs."""
    th = assignment.thresholds
    g = assignment.grid
    A = averaged if averaged is not None else dyadic_average(f, assignment)
    lim = 2.0**th.outer_exponent
    outside = np.abs(g.axis) > lim + 1e-12
    p1 = float(np.max(np.abs(A.values[outside]), initial=0.0))

    sc = assignment.sample_cube
    ids = sc[_run_starts(sc)]
    means = cube_means(f, assignment)[ids]
    levels = assignment.cube_levels[ids]
    p2 = float(np.max(np.abs(np.diff(means)), initial=0.0))
    ratio_ok = bool(np.all(np.abs(np.diff(levels)) <= 1))
    return GateReport(
        p1,
        p1 <= th.size_bound + 1e-12,
        p2,
        p2 <= th.eps + 1e-12,
        ids.size - 1,
        ratio_ok,
    )
