"""Piecewise-dyadic averaging and mollification.

The approximation pipeline for a function f under a constant critical
radius rho (every caller passes the unit potential's):

1. choose_thresholds picks three exponents (fine I, core J, outer M) so
   that cube oscillations below scale 2^-I, above scale 2^J, and far from
   the origin all drop below eps-proportional bounds, and cube sizes on
   supercritical scales do too.  It scans every dyadic level of the box
   in one fine-to-coarse pass over a pyramid of cube sums, reducing each
   level to a few scalars;
2. assign_cubes tiles the box with half-open dyadic intervals ("cubes")
   whose sidelength depends on the region of the sample (core gets
   2^(-I-2), the m-th shell gets 2^(m-I-J-1));
3. dyadic_average replaces f by its cube means (exactly idempotent);
4. p1_p2_check verifies the smallness of the averaged function outside
   the outer region and across closure-adjacent cubes, reading the cube
   means off the averaged function itself.

Grids here must have power-of-two halfwidth and spacing 2^-p so the
shells tile exactly in integer cell arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ConfigError, OutOfDomainError, ThresholdExhaustedError
from .grid import Grid, GridFunction, oscillation_and_size


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


def mollify(f: GridFunction, t: float) -> GridFunction:
    """Convolution with the unit-mass bump kernel scaled to width t,
    zero-padded outside the box.  Requires t >= 4h so the kernel holds
    enough samples.  The kernel reaches kmax = ceil(t/h) - 1 samples each
    way, so the result's window is f's widened by kmax.  The convolution
    runs over f's window padded by 2 kmax zeros each side (clipped to the
    box): every output it keeps is then the same dot product, over the
    same samples, as in the convolution of all the samples."""
    g = f.grid
    h = g.spacing
    if t < 4.0 * h * (1 - 1e-9):
        raise ConfigError(f"mollification width {t} is below 4h = {4 * h}")
    kmax = math.ceil(t / h - 1e-9) - 1
    offs = np.arange(-kmax, kmax + 1, dtype=np.float64) * h
    w = _bump_profile((offs / t) ** 2)
    w /= np.sum(w)
    a, b = max(f.lo - 2 * kmax, 0), min(f.hi + 2 * kmax, g.size)
    out = np.convolve(f.on(a, b), w, mode="same")
    lo, hi = max(f.lo - kmax, 0), min(f.hi + kmax, g.size)
    return GridFunction(g, out[lo - a : hi - a], lo=lo)


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


def _pyramid(f: GridFunction, a: int, p: int):
    """(level, cells per cube, first cube, oscillation, size) of the cubes
    of every dyadic level from -p+1 (pairs of cells) up to a (the two
    half-boxes), fine to coarse.  Only the cubes that meet f's window are
    held, from the first cube on; every other cube of the level has sums
    of exactly 0.0, so its oscillation and size are 0.0.  f is squared
    once; each coarser level's sums and sums of squares are pairwise sums
    of the level below, a held cube's partner outside the held run adding
    its exact 0.0.  The top boundary sample folds into the last cube, so
    each level's cubes partition the samples.  A consumer that drops its
    references to a level's arrays before asking for the next keeps at
    most four live arrays of half the held samples."""
    n = 2 ** (a + p)  # the first level's cubes
    top = 2 * n  # the boundary sample
    k0, k1 = f.lo // 2, (min(f.hi, top) + 1) // 2
    if f.hi > top:  # the boundary sample's cube
        k0, k1 = min(k0, n - 1), n
    body = f.on(2 * k0, 2 * k1)
    sums = body[0::2] + body[1::2]
    sumsq = np.square(body[0::2])
    sumsq += np.square(body[1::2])
    del body
    if k1 == n:
        last = f.on(top, top + 1)[0]
        sums[-1] += last
        sumsq[-1] += last**2
    for level in range(-p + 1, a + 1):
        q = 2 ** (level + p)
        osc = sums / q
        size = sumsq / q
        if k1 == n:
            osc[-1] = sums[-1] / (q + 1)
            size[-1] = sumsq[-1] / (q + 1)
        yield level, q, k0, *oscillation_and_size(osc, size)
        del osc, size
        if level < a:
            pad = (k0 % 2, k1 % 2)
            if any(pad):
                sums, sumsq = (np.pad(x, pad) for x in (sums, sumsq))
            sums = sums[0::2] + sums[1::2]
            sumsq = sumsq[0::2] + sumsq[1::2]
            k0, k1, n = k0 // 2, (k1 + 1) // 2, n // 2


def _range_max(x: np.ndarray, k0: int, c0: int, c1: int) -> float:
    """max over the cubes [c0, c1) of a level whose cubes from k0 on hold
    x and whose other cubes hold 0.0; -inf when the range is empty."""
    if c0 >= c1:
        return -math.inf
    i, j = max(c0 - k0, 0), min(c1 - k0, x.size)
    held = float(x[i:j].max()) if i < j else -math.inf
    return held if k0 <= c0 and c1 <= k0 + x.size else max(held, 0.0)


def _prefix_sups(x: np.ndarray, k0: int, ends: list[int]) -> list[float]:
    """max over the first e cubes, or -inf when e = 0, for each of the
    non-decreasing ends, of a level whose cubes from k0 on hold x and
    whose other cubes hold 0.0, reading every element of x once."""
    sups, acc, start = [], -math.inf, 0
    for e in ends:
        j = min(max(e - k0, 0), x.size)
        if j > start:
            acc = max(acc, float(x[start:j].max()))
            start = j
        zeros = (e > 0 and k0 > 0) or e > k0 + x.size
        sups.append(max(acc, 0.0) if zeros else acc)
    return sups


def _far_sups(x: np.ndarray, k0: int, nc: int, n0: int, q: int, cuts: list[int]) -> list[float]:
    """sup of the per-cube x over the cubes disjoint from the closed origin
    cube of half-extent T cells, for each T of the increasing cuts; the
    level has nc cubes, those from k0 on hold x and the others 0.0.

    A cube with corner cell c is disjoint iff c <= -T - q or c >= T + 1,
    so the far cubes are a prefix and a suffix of the level, both
    shrinking as T grows."""
    left = _prefix_sups(x, k0, [(n0 - t) // q for t in reversed(cuts)])
    right = _prefix_sups(x[::-1], nc - k0 - x.size, [max(nc - (n0 + t + q) // q, 0) for t in reversed(cuts)])
    return [max(lo, hi) for lo, hi in zip(reversed(left), reversed(right))]


def _shell_sup(x: np.ndarray, k0: int, n0: int, q: int, s_lo: int) -> float:
    """sup of the per-cube x over the cubes whose samples all have radial
    cell score sigma(o) = max(o, -o-1) in [s_lo, 2 s_lo): the corners
    c in [s_lo, 2 s_lo - q] on the right and in [-2 s_lo, -s_lo - q] on
    the left, each a contiguous run of the level."""
    right = _range_max(x, k0, (n0 + s_lo + q - 1) // q, (n0 + 2 * s_lo) // q)
    left = _range_max(x, k0, (n0 - 2 * s_lo + q - 1) // q, (n0 - s_lo) // q)
    return max(right, left)


def _level_sups(f: GridFunction, a: int, p: int, rho: float):
    """One pass over the level pyramid of f (see _pyramid), fine to
    coarse, reduced to the scalars choose_thresholds reads: per level its
    largest oscillation and, if supercritical, its largest size (-inf
    otherwise); per core candidate J in [-p+1, a] the far sups of both
    over all levels (the supercritical ones for the size); and per (level,
    shell m) the largest size on the shell."""
    levels = range(-p + 1, a + 1)
    n0 = f.grid.half_cells
    cuts = [2 ** (j + p) for j in levels]  # core candidate J -> half-extent in cells
    osc_max, super_size_max = [], []
    far_osc = [-math.inf] * len(levels)
    far_size = [-math.inf] * len(levels)
    shell_size: dict[tuple[int, int], float] = {}
    for l, q, k0, osc, size in _pyramid(f, a, p):
        nc = 2 * n0 // q
        osc_max.append(_range_max(osc, k0, 0, nc))
        far_osc = list(map(max, far_osc, _far_sups(osc, k0, nc, n0, q, cuts)))
        if 2.0**l >= rho:
            super_size_max.append(_range_max(size, k0, 0, nc))
            far_size = list(map(max, far_size, _far_sups(size, k0, nc, n0, q, cuts)))
        else:
            super_size_max.append(-math.inf)
        for m in range(-p + 1, a):
            shell_size[l, m] = _shell_sup(size, k0, n0, q, 2 ** (m + p))
        del osc, size  # the pyramid frees the level before building the next
    return osc_max, super_size_max, far_osc, far_size, shell_size


# ---------------------------------------------------------------------------
# threshold selection


# eps multiplier of the size conditions; the oscillation conditions take
# the caller's osc_fraction (the paper's 1/(5*4^n), 1/20 at n = 1)
SIZE_FRACTION = 0.5


@dataclass(frozen=True)
class AveragingThresholds:
    eps: float
    fine_exponent: int  # I: fine-scale cutoff 2^-I
    core_exponent: int  # J: core region halfwidth 2^J
    outer_exponent: int  # M: outer region halfwidth 2^M
    osc_bound: float
    size_bound: float
    closed_form_bound: float | None = None

    @property
    def core_level(self) -> int:
        return -self.fine_exponent - 2

    def shell_level(self, m: int) -> int:
        return m - self.fine_exponent - self.core_exponent - 1


def choose_thresholds(
    f: GridFunction,
    eps: float,
    rho: float,
    osc_fraction: float,
) -> AveragingThresholds:
    """Scan the dyadic levels [-p+1, a] of the box for the smallest
    admissible (I, J, M); rho is the constant critical radius.  The
    oscillation bound is osc_fraction * eps, the size bound
    SIZE_FRACTION * eps.

    Five conditions (one on an empty cube set holds):

    * oscillation below the fine scale, above the core scale, and on cubes
      entirely outside the doubled core region, all < osc_bound;
    * size (root mean square) on supercritical cubes above the core scale
      and on far supercritical cubes, both < size_bound.  With a constant
      rho a whole level is supercritical (2^l >= rho) or none of it is.

    One pass over the level pyramid (see _pyramid) reduces each level to
    a few scalars: its largest oscillation and size, the far sups for
    every core candidate J, and the sizes on every shell.

    After J is fixed, I is enlarged until 2^(-I-1) <= rho (critical-radius
    compatibility).  M is the smallest shell cutoff M <= a - 3 (so that
    assign_cubes fits 2^(M+3) in the box) whose beyond-shell assigned
    cubes all have size < size_bound.  ThresholdExhaustedError
    when any scan runs off the level range or the core cubes 2^(-I-2)
    would fall below the grid scale.

    The report carries the closed-form bound (k0+1) * (log2 C + I + J + 1),
    C = c * rho * (1 + 2/rho)^(k0/(k0+1)), at the slow-variation constants
    c = k0 = 1, for cross-checking the scanned M.
    """
    if not (eps > 0):
        raise ConfigError("eps must be positive")
    if not (isinstance(rho, numbers.Real) and math.isfinite(rho) and rho > 0):
        raise ConfigError(f"threshold scans need a finite positive scalar rho, got {rho!r}")
    rho = float(rho)
    g = f.grid
    a, p = _dyadic_exponents(g)
    if a + p < 1:
        raise ConfigError(f"the box 2^{a} at spacing 2^-{p} holds no dyadic level")
    osc_bound = osc_fraction * eps
    size_bound = SIZE_FRACTION * eps
    l_lo, l_hi = -p + 1, a
    levels = range(l_lo, l_hi + 1)
    osc_max, super_size_max, far_osc, far_size, shell_size = _level_sups(f, a, p, rho)

    # fine exponent: smallest I with sup osc over levels <= -I below bound
    small_sup = list(accumulate(osc_max, max))
    fine = next((-l for l in reversed(levels) if small_sup[l - l_lo] < osc_bound), None)
    if fine is None:
        raise ThresholdExhaustedError(
            f"no fine cutoff in levels [{l_lo}, {l_hi}] brings the small-cube "
            f"oscillation below {osc_bound:.3g}"
        )

    # core exponent: sups over levels >= J, and over the cubes outside the
    # closed core region at every level
    large_sup = list(accumulate(reversed(osc_max), max))[::-1]
    large_super_size = list(accumulate(reversed(super_size_max), max))[::-1]

    def conditions_hold(j: int) -> bool:
        k = j - l_lo
        return (
            large_sup[k] < osc_bound
            and far_osc[k] < osc_bound
            and large_super_size[k] < size_bound
            and far_size[k] < size_bound
        )

    j_floor = max(-fine - 1, l_lo)
    core = next((j for j in range(j_floor, l_hi + 1) if conditions_hold(j)), None)
    if core is None:
        raise ThresholdExhaustedError(
            f"no core cutoff in levels [{j_floor}, {l_hi}] satisfies the large-scale, "
            "far, and supercritical conditions"
        )

    # critical-radius compatibility: enlarge the fine exponent until the
    # finest pre-assignment scale drops below rho
    while 2.0 ** (-fine - 1) > rho:
        fine += 1
        if -fine - 2 < -p:
            raise ThresholdExhaustedError(
                f"critical-radius compatibility pushes the fine cutoff below the "
                f"grid scale (inf rho = {rho:.3g} on the core neighbourhood)"
            )
    if -fine - 2 < -p:
        raise ThresholdExhaustedError(
            f"the fine cutoff 2^{-fine} puts the core cubes 2^{-fine - 2} below "
            f"the grid scale 2^{-p}"
        )

    # outer exponent: shells beyond M must have small assigned-cube size;
    # shell m's cubes sit at level m - I - J - 1 >= -I - 1 > -p
    if core + 1 > a:
        raise ThresholdExhaustedError(
            f"the box (halfwidth 2^{a}) cannot hold shells beyond the core 2^{core}"
        )
    shell_tops = range(core, a)  # shell m covers (2^m, 2^(m+1)]
    sizes = [shell_size[m - fine - core - 1, m] for m in shell_tops]
    beyond = list(accumulate(reversed(sizes), max))[::-1]
    # every shell counts beyond a cutoff, but only M <= a - 3 is a cutoff
    outer = next((m for m, s in zip(range(core, a - 2), beyond) if s < size_bound), None)
    if outer is None:
        raise ThresholdExhaustedError(
            f"no outer cutoff M <= a - 3 = {a - 3} keeps the beyond-shell cube sizes "
            f"below {size_bound:.3g}"
        )

    C = rho * (1.0 + 2.0 / rho) ** 0.5
    closed = 2.0 * (math.log2(max(C, 1e-300)) + fine + core + 1.0)
    return AveragingThresholds(eps, fine, core, outer, osc_bound, size_bound, closed)


# ---------------------------------------------------------------------------
# cube assignment and averaging


@dataclass(frozen=True)
class DyadicAssignment:
    """Partition of the samples into half-open dyadic cubes, in position
    order: cube k holds the next cube_counts[k] samples.  Cube k at level
    l = cube_levels[k] and corner c = cube_corners[k] is [c 2^l, (c+1) 2^l).
    Regions are half-open (the core is [-2^J, 2^J)), so the tiles
    partition the box exactly; the +X boundary sample folds into the last
    cube.
    """

    grid: Grid
    thresholds: AveragingThresholds
    cube_levels: np.ndarray
    cube_corners: np.ndarray
    cube_counts: np.ndarray

    @property
    def n_cubes(self) -> int:
        return self.cube_levels.size

    @property
    def cube_starts(self) -> np.ndarray:
        """The index of each cube's first sample."""
        return np.cumsum(self.cube_counts) - self.cube_counts


def assign_cubes(thresholds: AveragingThresholds, grid: Grid) -> DyadicAssignment:
    """Tile the box according to the thresholds, region by region in
    position order: the left shells from the outermost in, the core
    [-2^J, 2^J) at level -I-2, then the right shells.  Shell m is
    [-2^(m+1), -2^m) on the left and [2^m, 2^(m+1)) on the right, at level
    m-I-J-1.  Each region is a whole number of cubes of its level when
    -I-1 <= J <= a.  Needs halfwidth 2^a >= 2^(M+3) so the truncation
    region of the pipeline fits with room to spare.
    """
    a, p = _dyadic_exponents(grid)
    th = thresholds
    if 2.0 ** (th.outer_exponent + 3) > grid.halfwidth * (1 + 1e-12):
        raise OutOfDomainError(
            f"box halfwidth {grid.halfwidth} below 2^(M+3) = {2.0 ** (th.outer_exponent + 3)}"
        )
    if th.core_level < -p:
        raise ConfigError("core cubes fall below the grid scale")
    if not -th.fine_exponent - 1 <= th.core_exponent <= a:
        raise ConfigError(
            f"core exponent J = {th.core_exponent} outside [-I-1, a] = [{-th.fine_exponent - 1}, {a}]: "
            "the core and the shells would not be whole numbers of their cubes"
        )
    # (first cell, end cell, level) of each region, in cells from the origin
    shells = [(2 ** (m + p), th.shell_level(m)) for m in range(th.core_exponent, a)]
    core = 2 ** (th.core_exponent + p)
    regions = [
        *((-2 * s, -s, l) for s, l in reversed(shells)),
        (-core, core, th.core_level),
        *((s, 2 * s, l) for s, l in shells),
    ]
    levels = np.concatenate([np.full((hi - lo) >> (l + p), l) for lo, hi, l in regions])
    corners = np.concatenate([np.arange(lo >> (l + p), hi >> (l + p)) for lo, hi, l in regions])
    counts = 2 ** (levels + p)
    counts[-1] += 1  # the +X boundary sample
    return DyadicAssignment(grid, th, levels, corners, counts)


def dyadic_average(f: GridFunction, assignment: DyadicAssignment) -> GridFunction:
    """Replace f by its mean on each assigned cube.

    Only the cubes that meet f's window are read; every other cube's mean
    is 0.0, and the result's window is the run of cubes that meet f's.
    Means are computed against a per-cube anchor sample (the cube's first
    sample), which makes the operation exactly idempotent on
    piecewise-constant input.
    """
    if not f.grid.compatible(assignment.grid):
        raise ConfigError("function and assignment grids differ")
    if f.lo == f.hi:
        return f
    starts = assignment.cube_starts
    c0 = int(np.searchsorted(starts, f.lo, side="right")) - 1
    c1 = int(np.searchsorted(starts, f.hi, side="left"))
    counts = assignment.cube_counts[c0:c1]
    lo = int(starts[c0])
    flat = f.on(lo, int(starts[c1 - 1] + counts[-1]))
    anchors = flat[starts[c0:c1] - lo]
    del starts
    diffs = np.repeat(anchors, counts)
    np.subtract(flat, diffs, out=diffs)
    cube_ids = np.repeat(np.arange(c1 - c0), counts)
    sums = np.bincount(cube_ids, weights=diffs, minlength=c1 - c0)
    del diffs, cube_ids
    return GridFunction(f.grid, np.repeat(anchors + sums / counts, counts), lo=lo)


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


def p1_p2_check(assignment: DyadicAssignment, averaged: GridFunction) -> GateReport:
    """Gates on the averaged function A = dyadic_average(f, assignment).

    P1: sup |A| outside the closed outer region [-2^M, 2^M] <= eps/2; on
    the power-of-two box that region is the samples n0 +- 2^(M+p), so the
    outside is two index slices.
    P2: |difference of the cube means across closure-adjacent cubes|
    <= eps, the means read off A at each cube's first sample.  In one
    dimension the closure-adjacent cubes are the consecutive cubes of the
    position-ordered list.
    Also verifies the neighbour sidelength ratio invariant (in {1/2, 1, 2})."""
    th = assignment.thresholds
    _, p = _dyadic_exponents(assignment.grid)
    n0 = assignment.grid.half_cells
    k = 2 ** (th.outer_exponent + p)
    # A is 0.0 outside its window, so only the window's part of each
    # outside slice counts towards the sup
    outside = (averaged.truncated(0, n0 - k).window, averaged.truncated(n0 + k + 1, averaged.grid.size).window)
    # sup |x| = max(x.max(), -x.min()) needs no |x| array; abs() clears
    # the sign of a zero
    p1 = abs(float(max(max(x.max(initial=0.0), -x.min(initial=0.0)) for x in outside)))
    # the cube means, 0.0 but on the cubes that start in A's window, from
    # the cube before those to the cube after them: the differences
    # between the other cubes are 0.0
    starts = assignment.cube_starts
    c0 = max(int(np.searchsorted(starts, averaged.lo)) - 1, 0)
    c1 = min(int(np.searchsorted(starts, averaged.hi)) + 1, starts.size)
    p2 = float(np.max(np.abs(np.diff(averaged.at(starts[c0:c1]))), initial=0.0))
    ratio_ok = bool(np.all(np.abs(np.diff(assignment.cube_levels)) <= 1))
    return GateReport(
        p1,
        p1 <= th.size_bound + 1e-12,
        p2,
        p2 <= th.eps + 1e-12,
        assignment.n_cubes - 1,
        ratio_ok,
    )
