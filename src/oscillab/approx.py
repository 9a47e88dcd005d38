"""Piecewise-dyadic averaging and mollification.

The approximation pipeline for a function f under a constant critical
radius rho (every caller passes the unit potential's):

1. choose_thresholds picks three exponents (fine I, core J, outer M) so
   that cube oscillations below scale 2^-I, above scale 2^J, and far from
   the origin all drop below eps-proportional bounds, and cube sizes on
   supercritical scales do too.  It scans every dyadic level of the box
   in one fine-to-coarse pass over a pyramid of cube sums, reducing each
   level to a few scalars (a constant costs O(levels));
2. assign_cubes tiles the box with half-open dyadic intervals ("cubes")
   whose sidelength depends on the region of the sample (core gets
   2^(-I-2), the m-th shell gets 2^(m-I-J-1)), held as its 2(a-J)+1
   regions alone: the tiling depends on the grid and the thresholds, and
   each reader takes the cubes that meet its own function's hull;
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

import numpy as np

from .errors import ConfigError, OutOfDomainError, ThresholdExhaustedError
from .grid import Grid, GridFunction, oscillation_and_size, same_grid


# ---------------------------------------------------------------------------
# bump and mollifier


def _bump_profile(r2: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r^2)) on r^2 < 1, 0 outside; vectorised and overflow-safe."""
    out = np.zeros(np.shape(r2))
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def bump(grid: Grid, width: float = 1.0) -> GridFunction:
    """The standard smooth bump supported on B(0, width), sampled and
    scaled to unit discrete mass.  Needs h < 1/4 (in units of the width) so
    the support holds enough samples for the mass to be meaningful."""
    if grid.spacing >= width / 4.0:
        raise ConfigError(
            f"spacing {grid.spacing} too coarse for a width-{width} bump; need h < width/4"
        )
    r2 = (grid.axis / width) ** 2
    vals = _bump_profile(r2)
    mass = float(np.sum(vals) * grid.spacing)
    if mass <= 0:
        raise ConfigError("bump support contains no samples")
    return GridFunction(grid, vals / mass)


def mollify(f: GridFunction, t: float) -> GridFunction:
    """Convolution with the unit-mass bump kernel scaled to width t,
    zero-padded outside the box.  Requires t >= 4h so the kernel holds
    enough samples.  The kernel reaches kmax = ceil(t/h) - 1 samples each
    way, so the result's window is f's span widened by kmax.  The
    convolution runs over f's span padded by 2 kmax zeros each side
    (clipped to the box): every output it keeps is then the same dot
    product, over the same samples, as in the convolution of all the
    samples.  It is the full convolution, sliced at kmax + i - a for
    sample i: "same" centres on a kernel longer than the span."""
    g = f.grid
    h = g.spacing
    if t < 4.0 * h * (1 - 1e-9):
        raise ConfigError(f"mollification width {t} is below 4h = {4 * h}")
    kmax = math.ceil(t / h - 1e-9) - 1
    offs = np.arange(-kmax, kmax + 1, dtype=np.float64) * h
    w = _bump_profile((offs / t) ** 2)
    w /= np.sum(w)
    lo, hi = f.span
    a, b = max(lo - 2 * kmax, 0), min(hi + 2 * kmax, g.size)
    out = np.convolve(f.on(a, b), w)
    lo, hi = max(lo - kmax, 0), min(hi + kmax, g.size)
    return GridFunction(g, out[kmax + lo - a : kmax + hi - a], lo=lo)


# ---------------------------------------------------------------------------
# dyadic machinery on power-of-two boxes


def _dyadic_exponents(grid: Grid) -> tuple[int, int]:
    """(a, p) with halfwidth = 2^a and spacing = 2^-p and a + p >= 1 (the
    box holds a dyadic level), else ConfigError."""
    a = math.log2(grid.halfwidth)
    p = -math.log2(grid.spacing)
    if abs(a - round(a)) > 1e-9 or abs(p - round(p)) > 1e-9:
        raise ConfigError(
            "dyadic averaging needs a power-of-two box (halfwidth 2^a, spacing 2^-p); "
            f"got halfwidth {grid.halfwidth}, spacing {grid.spacing}"
        )
    a, p = round(a), round(p)
    if a + p < 1:
        raise ConfigError(f"the box 2^{a} at spacing 2^-{p} holds no dyadic level")
    return a, p


def _pyramid(f: GridFunction, a: int, p: int):
    """(level, cells per cube, first cube, oscillation, size) of the cubes
    of every dyadic level from -p+1 (pairs of cells) up to a (the two
    half-boxes), fine to coarse.  Only the cubes that meet f's window are
    held, from the first cube on; every other cube of the level lies in
    f's background b, so its oscillation is 0.0 and its size |b| (the
    bits of the sums q b and (q + 1) b, which are exact for the corpus
    constants).  f is squared once; each coarser level's sums and sums of
    squares are pairwise sums of the level below, one add.reduceat each
    over the pair starts clipped to the held run, so a held cube whose
    partner lies outside it is its own sum.  The top boundary sample
    folds into the last cube, so each level's cubes partition the
    samples.  A consumer that drops its references to a level's arrays
    before asking for the next keeps at most four live arrays of half the
    held samples, the level's sums, sums of squares, oscillation and size;
    the pairing's index array of pair starts is half that, and is freed
    before the next level is yielded."""
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
            starts = np.maximum(np.arange(k0 - k0 % 2, k1, 2) - k0, 0)
            sums = np.add.reduceat(sums, starts)
            sumsq = np.add.reduceat(sumsq, starts)
            del starts
            k0, k1, n = k0 // 2, (k1 + 1) // 2, n // 2


def segment_sups(values: np.ndarray, start: int, fill: float, cuts: np.ndarray) -> np.ndarray:
    """The sup over each segment cuts[i] .. cuts[i + 1] - 1 (non-decreasing
    cuts) of a level that holds values at the cubes start .. start +
    values.size - 1 and fill at every other cube, or -inf for an empty
    segment: one reduceat over the held parts, which tile a run of values,
    and the fill where a segment holds more cubes than its held part."""
    c = np.minimum(np.maximum(cuts, start), start + values.size) - start
    got = c[:-1] < c[1:]
    out = np.where(cuts[1:] - cuts[:-1] > c[1:] - c[:-1], fill, -np.inf)
    if got.any():
        out[got] = np.maximum(out[got], np.maximum.reduceat(values[: c[-1]], c[:-1][got]))
    return out


def _level_sups(f: GridFunction, a: int, p: int, rho: float):
    """One pass over the level pyramid of f (see _pyramid), fine to
    coarse, reduced to the scalars choose_thresholds reads: per level its
    largest oscillation and, if supercritical, its largest size (-inf
    otherwise); per core candidate J in [-p+1, a] the far sups of both
    over all levels (the supercritical ones for the size); and per (level,
    shell m) the largest size on the shell.

    Each level is at most three segment_sups over its one held run, the
    unheld cubes reading as the fill.  A cube with corner cell c is
    disjoint from the closed origin cube of half-extent T = 2^(J+p) cells
    iff c <= -T - q or c >= T + 1, so the far cubes are a prefix and a
    suffix of the level, shrinking as T grows: the prefix ends and the
    suffix starts of every T cut the level into pieces, and the running
    maxima of the pieces from either end give every far sup, the whole
    level's sup among them.  A shell's cubes are those whose samples all
    have radial cell score sigma(o) = max(o, -o-1) in [s, 2 s), s =
    2^(m+p): the corners in [-2 s, -s - q] on the left and [s, 2 s - q]
    on the right, one run each, in position order with gaps between
    them, so the shells' bounds cut the level into every shell's two runs
    at once (a shell of no cube is an empty run)."""
    levels, shells = range(-p + 1, a + 1), range(-p + 1, a)
    size_fill = abs(f.background)
    n0 = f.grid.half_cells
    cuts = [2 ** (j + p) for j in levels]  # core candidate J -> half-extent T in cells
    osc_max, super_size_max = [], []
    far_osc, far_size = np.full(len(levels), -np.inf), np.full(len(levels), -np.inf)
    shell_size: dict[tuple[int, int], float] = {}
    for l, q, k0, osc, size in _pyramid(f, a, p):
        nc = 2 * n0 // q
        ends = [(n0 - t) // q for t in reversed(cuts)]  # the far prefixes, narrowest first
        starts = [min((n0 + t + q) // q, nc) for t in cuts]  # the far suffixes, widest first
        far_cuts = np.array([0, *ends, *starts, nc])

        def far_sups(x: np.ndarray, fill: float) -> tuple[float, np.ndarray]:
            """(the level's sup of x, the far sup of x for each T)."""
            pieces = segment_sups(x, k0, fill, far_cuts)
            left, right = np.maximum.accumulate(pieces), np.maximum.accumulate(pieces[::-1])[::-1]
            return float(left[-1]), np.maximum(left[len(cuts) - 1 :: -1], right[len(cuts) + 1 :])

        top, far = far_sups(osc, 0.0)
        osc_max.append(top)
        far_osc = np.maximum(far_osc, far)
        if 2.0**l >= rho:
            top, far = far_sups(size, size_fill)
            super_size_max.append(top)
            far_size = np.maximum(far_size, far)
        else:
            super_size_max.append(-math.inf)
        sides = [((n0 - 2 * s + q - 1) // q, (n0 - s) // q) for s in reversed(cuts[:-1])]
        sides += [((n0 + s + q - 1) // q, (n0 + 2 * s) // q) for s in cuts[:-1]]
        bounds = np.array([x for c0, c1 in sides for x in (c0, max(c0, c1))])
        on = segment_sups(size, k0, size_fill, bounds)[0::2]  # the shells' runs, not the gaps
        both = np.maximum(on[: len(shells)][::-1], on[len(shells) :])
        shell_size.update(zip(((l, m) for m in shells), both.tolist()))
        del osc, size  # the pyramid frees the level before building the next
    return osc_max, super_size_max, far_osc.tolist(), far_size.tolist(), shell_size


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
    a few scalars (see _level_sups): its largest oscillation and size,
    the far sups for every core candidate J, and the sizes on every
    shell, in at most three segment reductions of the level.

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
    """Partition of the samples into half-open dyadic cubes, held as its
    regions (first cell, end cell, level l) in cells from the origin, in
    position order, each a whole number of cubes [c 2^l, (c+1) 2^l).
    Regions are half-open (the core is [-2^J, 2^J)), so the tiles
    partition the box exactly; the +X boundary sample folds into the last
    cube.  The tiling depends on the grid and the thresholds alone: each
    reader takes the cubes of its own function from ``bounds``."""

    grid: Grid
    thresholds: AveragingThresholds
    regions: tuple[tuple[int, int, int], ...]

    @property
    def n_cubes(self) -> int:
        _, p = _dyadic_exponents(self.grid)
        return sum((hi - lo) >> (l + p) for lo, hi, l in self.regions)

    def cube_list(self):
        """(level, corner) of every cube, by level, then corner."""
        _, p = _dyadic_exponents(self.grid)
        for lo, hi, l in sorted(self.regions, key=lambda r: (r[2], r[0])):
            yield from ((l, c) for c in range(lo >> (l + p), hi >> (l + p)))

    def bounds(self, f: GridFunction) -> np.ndarray:
        """The first sample of each cube that meets f's hull, and of one
        more cube on each side where the box has one, then the end of the
        last: the cubes the averaging and the gates read.  Empty for a
        function with no piece."""
        _, p = _dyadic_exponents(self.grid)
        regions, n0, size = self.regions, self.grid.half_cells, self.grid.size

        def cube(i: int) -> tuple[int, int]:
            """The first sample and the end of the cube holding sample i."""
            c = min(i, size - 2) - n0  # the boundary sample is the last cube's
            lo, _, l = next(r for r in regions if c < r[1])
            start = n0 + lo + (c - lo) // 2 ** (l + p) * 2 ** (l + p)
            end = start + 2 ** (l + p)
            return start, size if end == size - 1 else end

        if f.lo == f.hi:
            return np.empty(0, dtype=np.int64)
        first, end = cube(f.lo)[0], cube(f.hi - 1)[1]
        if first > 0:
            first = cube(first - 1)[0]
        if end < size:
            end = cube(end)[1]
        return np.concatenate(
            [np.arange(max(n0 + r0, first), min(n0 + r1, end), 2 ** (l + p)) for r0, r1, l in regions] + [[end]]
        )


def assign_cubes(thresholds: AveragingThresholds, grid: Grid) -> DyadicAssignment:
    """Tile the box according to the thresholds, region by region in
    position order: the left shells from the outermost in, the core
    [-2^J, 2^J) at level -I-2, then the right shells.  Shell m is
    [-2^(m+1), -2^m) on the left and [2^m, 2^(m+1)) on the right, at level
    m-I-J-1.  Each region is a whole number of cubes of its level when
    -I-1 <= J <= a.  Needs halfwidth 2^a >= 2^(M+3) so the truncation
    region of the pipeline fits with room to spare."""
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
    shells = [(2 ** (m + p), th.shell_level(m)) for m in range(th.core_exponent, a)]
    core = 2 ** (th.core_exponent + p)
    regions = (
        *((-2 * s, -s, l) for s, l in reversed(shells)),
        (-core, core, th.core_level),
        *((s, 2 * s, l) for s, l in shells),
    )
    return DyadicAssignment(grid, th, regions)


def dyadic_average(f: GridFunction, assignment: DyadicAssignment) -> GridFunction:
    """Replace f by its mean on each assigned cube.

    Only the cubes that meet f's hull are read; every other cube's mean
    is f's background, so a constant is its own average.  Means are
    computed against a per-cube anchor sample (the cube's first sample),
    which makes the operation exactly idempotent on piecewise-constant
    input.
    """
    same_grid(f.grid, assignment.grid)
    if f.lo == f.hi:
        return f
    bounds = assignment.bounds(f)
    c0 = int(np.searchsorted(bounds, f.lo, side="right")) - 1
    c1 = int(np.searchsorted(bounds, f.hi, side="left"))
    starts, counts = bounds[c0:c1], np.diff(bounds[c0 : c1 + 1])
    lo = int(starts[0])
    flat = f.on(lo, int(bounds[c1]))
    anchors = flat[starts - lo]
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
    position-ordered list.  Only the cubes that meet A's hull, and one
    more on each side, are read: every other difference is between two
    cubes in A's background, 0.0.
    Also verifies the neighbour sidelength ratio invariant (in {1/2, 1, 2})
    across the regions, each of one level."""
    th, grid = assignment.thresholds, same_grid(assignment.grid, averaged.grid)
    _, p = _dyadic_exponents(grid)
    n0 = grid.half_cells
    k = 2 ** (th.outer_exponent + p)
    p1 = averaged.sup_outside(n0 - k, n0 + k + 1)
    starts = assignment.bounds(averaged)[:-1]
    p2 = float(np.max(np.abs(np.diff(averaged.at(starts))), initial=0.0))
    levels = [l for *_, l in assignment.regions]
    ratio_ok = all(abs(m - l) <= 1 for l, m in zip(levels, levels[1:]))
    return GateReport(
        p1,
        p1 <= th.size_bound + 1e-12,
        p2,
        p2 <= th.eps + 1e-12,
        assignment.n_cubes - 1,
        ratio_ok,
    )
