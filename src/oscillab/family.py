"""Finite ball families and bucketed limit curves.

Asymptotic statements ("as r -> 0", "for balls far from the origin") are
reported as curves over a finite ladder of cutoffs, never as extrapolated
scalars.  A bucket with no qualifying ball is absent (NaN value, count 0),
which is not the same as a zero supremum.

A family is its radius blocks over one lattice, a range of sample
indices: each block holds its cell radius and the run of the lattice it
is centered on.  Nothing is stored per ball or per center, and
critical-radius data is one reach per block, a count of samples, or a
scalar rho read as such: the supercritical balls of a block are those
whose center lies fewer samples from the origin's than its reach, one
run of the block.  A ball's bucket is constant over a block in the
radius modes, and in the distance modes its key |c| - r is a
nondecreasing function of its center's sample distance |i - n0| from
the origin's, so each cutoff is a reach per block too.  A curve is
therefore a reduction over a few contiguous segments of the family, at
most 2 (n + 1) per block for an n-cutoff ladder, cut at n0 +- each
reach.  The segment plan is built once per family and cut ladder.  A
metric is BallValues, a step function over the balls, so a segment's sup
reads only the steps it meets.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateRegionError, OutOfDomainError
from .grid import Ball, Grid, _positions_below

# the modes of a metric over all balls, and those over supercritical balls
PLAIN_MODES = ("small-radius", "large-radius", "far-from-origin")
SUPERCRITICAL_MODES = ("large-and-supercritical", "far-and-supercritical")
MODES = PLAIN_MODES + SUPERCRITICAL_MODES

_DISTANCE_MODES = ("far-from-origin", "far-and-supercritical")
# a supercritical mode cuts as its plain mode does, so it reads that plan
_PLAIN_OF = {"large-and-supercritical": "large-radius", "far-and-supercritical": "far-from-origin"}


@dataclass(frozen=True)
class FamilyPolicy:
    """How to enumerate a deterministic ball family on a grid.

    Centers walk the lattice c = k * center_stride with |c| <=
    max_center_norm.  Radii are either given explicitly or as the doubling
    ladder radius_min * 2^j <= radius_max.  Every radius is snapped to a
    multiple of h; balls touching the box boundary are dropped.  The
    distance ladder doubles from the smallest radius up to distance_max.
    """

    center_stride: float
    radii: tuple[float, ...] | None = None
    radius_min: float | None = None
    radius_max: float | None = None
    max_center_norm: float = math.inf
    distance_max: float | None = None


class RadiusBlock(NamedTuple):
    """The balls of one radius: cell radius m, so radius m h, about the
    centers at the sample indices run, a run of the family's lattice.
    They are the family's balls start .. start + count - 1."""

    cell_radius: int
    count: int
    radius: float
    start: int
    run: range

    @property
    def stop(self) -> int:
        return self.start + self.count


@dataclass(frozen=True)
class BallFamily:
    """Deterministically enumerated balls, tagged for bucketed scans.

    lattice: the sample indices of the distinct centers, a range at a
    positive step.  blocks: one per radius, given as (cell radius, offset,
    count) and kept as RadiusBlock: the balls of radius m h about the
    centers lattice[offset : offset + count].  The family is the blocks'
    balls in order, so the balls of one block are a contiguous slice of
    it; critical-radius data is a scalar rho or one reach per block, a
    count of samples (supercritical_spans).  radius_ladder and
    distance_ladder are the cutoff ladders used by bucketed_sup; the
    distance modes key a ball by its inner distance |c| - r, the largest a
    such that the ball avoids B(0, a).

    A lattice that is not such a range, a block with no positive cell
    radius, no ball or a run past the lattice, and a ladder with NaN or
    not strictly increasing raise ConfigError; a block with a ball that
    touches or leaves the box raises OutOfDomainError.
    All are checked here, once, so no scan allocates anything
    sample-sized for a family it cannot scan.

    centers (k, 1) and radii (k,) are built on each read, by
    Grid.coords, and no scan reads them.
    """

    grid: Grid
    lattice: range
    blocks: tuple[RadiusBlock, ...]
    radius_ladder: np.ndarray
    distance_ladder: np.ndarray

    def __post_init__(self) -> None:
        g, lattice = self.grid, self.lattice
        if not isinstance(lattice, range) or lattice.step < 1:
            raise ConfigError("a family's lattice must be a range of sample indices: an arithmetic run at a positive step")
        blocks, start = [], 0
        for m, off, n in (map(int, b) for b in self.blocks):
            if m < 1:
                raise ConfigError("family radii must be positive multiples of the spacing")
            if n < 1 or off < 0 or off + n > len(lattice):
                raise ConfigError("a radius block is not a nonempty run of the family's centers")
            run = lattice[off : off + n]
            # inside the box: |c| + r <= X - h, i.e. sample indices 1 .. 2X/h - 1
            if run.start - m < 1 or run[-1] + m > g.size - 2:
                raise OutOfDomainError(f"a ball of cell radius {m} over {run} touches or leaves the box")
            blocks.append(RadiusBlock(m, n, m * g.spacing, start, run))
            start += n
        if not blocks:
            raise ConfigError("empty ball family")
        object.__setattr__(self, "blocks", tuple(blocks))
        for name in ("radius_ladder", "distance_ladder"):
            ladder = np.asarray(getattr(self, name), dtype=np.float64)
            if ladder.ndim != 1 or not ladder.size or np.isnan(ladder).any() or not np.all(np.diff(ladder) > 0):
                raise ConfigError(f"a family's {name} must be 1-D, nonempty, free of NaN and strictly increasing")
            object.__setattr__(self, name, ladder)

    def __len__(self) -> int:
        return self.blocks[-1].stop

    @property
    def centers(self) -> np.ndarray:
        return np.concatenate([self.grid.coords(b.run) for b in self.blocks])[:, None]

    @property
    def radii(self) -> np.ndarray:
        return np.concatenate([np.full(b.count, b.radius) for b in self.blocks])

    @cached_property
    def _segment_plans(self) -> dict[str, SegmentPlan]:
        return {}

    def segment_plan(self, mode: str) -> SegmentPlan:
        """The segments bucketed_sup reduces in mode, built on first use
        and cached: the radius modes cut the family into its radius
        blocks; the distance modes cut each block at its first nonnegative
        center and at n0 +- each cutoff's reach, a count of samples."""
        kind = _PLAIN_OF.get(mode, mode)
        if kind not in self._segment_plans:
            self._segment_plans[kind] = _build_segment_plan(self, kind)
        return self._segment_plans[kind]

    def ball(self, i: int) -> Ball:
        i = range(len(self))[i]
        b = next(b for b in self.blocks if i < b.stop)
        return Ball((self.grid.coords(b.run[i - b.start : i - b.start + 1])[0],), b.radius)


@dataclass(frozen=True)
class SegmentPlan:
    """Runs of balls that fall in one bucket of a cut ladder, in family
    order: segment i is the balls from starts[i] up to the next start (or
    the family's end) of one radius block, all in bucket buckets[i]
    (0 .. n for an n-cutoff ladder).  The segments tile the family, none
    is empty, and each radius block starts one."""

    starts: np.ndarray
    buckets: np.ndarray


def _build_segment_plan(family: BallFamily, kind: str) -> SegmentPlan:
    # the cutoffs and side give a ball's bucket as bucketed_sup defines it
    if kind == "small-radius":
        cuts, side = family.radius_ladder * (1 + 1e-12), "left"
    else:
        ladder = family.distance_ladder if kind == "far-from-origin" else family.radius_ladder
        cuts, side = ladder * (1 - 1e-12), "right"
    blocks = family.blocks
    start = np.array([b.start for b in blocks], dtype=np.intp)
    radius = np.array([b.radius for b in blocks])
    if kind != "far-from-origin":
        return SegmentPlan(start, np.searchsorted(cuts, radius, side=side))
    # |c| - r is the same float at +-d, d = |i - n0| (Grid.coords is odd),
    # and nondecreasing in d, so each cutoff is a reach per block: the least
    # d in [0, size] with coords(n0 + d) - r >= cut, else size, the guess
    # ceil((cut + r) / h) corrected against that key
    g, n0, r = family.grid, family.grid.half_cells, radius[:, None]
    reach = np.clip(np.ceil((cuts + r) / g.spacing), 0, g.size).astype(np.intp)
    while np.any(down := (reach > 0) & (g.coords(n0 + reach - 1) - r >= cuts)):
        reach -= down
    while np.any(up := (reach < g.size) & (g.coords(n0 + reach) - r < cuts)):
        reach += up
    # a block's segments start at its first ball, its first center i >= n0
    # and where d crosses a reach; a bucket counts the reaches at or below d
    starts, buckets = [], []
    for b, ds in zip(blocks, reach.tolist()):
        cut = {0, _positions_below(b.run, n0)}
        for d in ds:
            cut.update((_positions_below(b.run, n0 + 1 - max(d, 1)), _positions_below(b.run, n0 + d)))
        at = sorted(cut - {b.count})
        starts += [b.start + p for p in at]
        buckets += [bisect.bisect_right(ds, abs(b.run[p] - n0)) for p in at]
    return SegmentPlan(np.array(starts, dtype=np.intp), np.array(buckets, dtype=np.intp))


def supercritical_spans(family: BallFamily, rho):
    """(block, a, b) per radius block in family order: the block's
    supercritical balls, r >= rho(center) (ties count), are the balls
    a .. b - 1.  rho is one reach per block, as critical_reach gives it, a
    count of samples: the centers n0 - reach < i < n0 + reach, one run.  A
    scalar rho is a critical radius, possibly +inf, read as the reach
    grid.size (r >= rho) or 0.  An empty span sits after the centers i <= n0."""
    if rho is None:
        raise ConfigError("critical-radius data is required here")
    blocks, n0 = family.blocks, family.grid.half_cells
    if np.ndim(rho) == 0:
        reach = [family.grid.size if b.radius >= rho else 0 for b in blocks]
    else:
        reach = np.asarray(rho)
        if reach.shape != (len(blocks),) or reach.dtype.kind not in "iu" or np.any(reach < 0):
            raise ConfigError("critical-radius reaches are not one non-negative integer per radius block")
        reach = reach.tolist()
    for b, d in zip(blocks, reach):
        a = b.start + _positions_below(b.run, n0 - d + 1)
        yield b, a, max(a, b.start + _positions_below(b.run, n0 + d))


@dataclass(frozen=True)
class BallValues:
    """One value per ball of a family, as a step function over the ball
    indices: ball i holds values[j] for the last step j with starts[j] <=
    i; starts ascends strictly from 0, and a step may cross the end of a
    radius block.  A scan of a function held on pieces steps where a ball
    sum can change, whole() at every ball.  Every sup over segments of
    balls is one maximum.reduceat over the steps."""

    family: BallFamily
    starts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        a = self.starts
        if (a.ndim != 1 or self.values.shape != a.shape or not a.size or a[0] or a[-1] >= len(self.family)
                or np.any(a[1:] <= a[:-1])):
            raise ConfigError("steps do not start at ball 0 and ascend strictly inside the family, one value each")

    @staticmethod
    def whole(family: BallFamily, values: np.ndarray) -> "BallValues":
        """values, one per ball of family, as one step per ball, whose
        starts take int32 while the family allows: half the bytes."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (len(family),):
            raise ConfigError("metric array length does not match the family")
        return BallValues(family, np.arange(len(family), dtype=np.int32 if len(family) < 2**31 else np.intp), vals)

    def _step(self, balls) -> np.ndarray:
        """The step of each ball, read in the starts' dtype (no copy of them)."""
        return np.searchsorted(self.starts, np.asarray(balls, dtype=self.starts.dtype), side="right") - 1

    def segment_sups(self, cuts: np.ndarray) -> np.ndarray:
        """The sup over each segment cuts[i] .. cuts[i + 1] - 1
        (non-decreasing cuts), or -inf for an empty segment: one reduceat
        from each segment's first step to the next one's, and the
        segment's last step, which a cut inside it splits between both."""
        got = cuts[:-1] < cuts[1:]
        first, last = self._step(cuts[:-1][got]), self._step(cuts[1:][got] - 1)
        out = np.full(got.size, -np.inf)
        if first.size:
            out[got] = np.maximum(np.maximum.reduceat(self.values[: last[-1] + 1], first), self.values[last])
        return out

    def first_sup(self, cuts: np.ndarray, kept: np.ndarray) -> tuple[float, int]:
        """The sup over the balls of the kept segments cuts[i] .. cuts[i +
        1] - 1 (non-decreasing cuts), and the first ball attaining it, or
        (0.0, -1) when they hold no ball.  The first kept segment attaining
        the sup holds that ball: the later of the segment's start and the
        start of its first step that attains the sup."""
        sups = np.where(kept, self.segment_sups(cuts), -np.inf)
        i = int(np.argmax(sups))
        if sups[i] == -np.inf:
            return 0.0, -1
        j, last = self._step([cuts[i], cuts[i + 1] - 1])
        j += int(np.argmax(self.values[j : last + 1] == sups[i]))
        return float(self.values[j]), max(int(cuts[i]), int(self.starts[j]))


def _doublings(start: float, stop: float) -> list[float]:
    """start, 2 start, 4 start, ... while at most stop, to a relative 1e-9."""
    out = []
    while start <= stop * (1 + 1e-9):
        out.append(start)
        start *= 2.0
    return out


def make_ball_family(grid: Grid, policy: FamilyPolicy) -> BallFamily:
    """Enumerate the family described by policy on grid, in integer cells.

    Config errors: stride not a positive multiple of h (to 1e-6 h at the
    farthest center), explicit radii given together with a ladder bound,
    radii above X/2, a geometric ladder below 4h, or an enumeration with
    no surviving ball.
    """
    h, X, stride = grid.spacing, grid.halfwidth, policy.center_stride
    k = stride / h
    if not (k >= 1 - 1e-6) or abs(k - round(k)) > 1e-6:
        raise ConfigError(f"center stride {stride} is not a positive multiple of h={h}")
    s = round(k)

    if policy.radii is not None:
        if policy.radius_min is not None or policy.radius_max is not None:
            raise ConfigError("give either explicit radii or a radius_min/radius_max ladder, not both")
        radii = sorted(float(r) for r in policy.radii)
        if not radii:
            raise ConfigError("explicit radius list is empty")
        if radii[0] < h * (1 - 1e-9):
            raise ConfigError(f"radius {radii[0]} is below the spacing h={h}")
    else:
        r_min = policy.radius_min if policy.radius_min is not None else 4 * h
        r_max = policy.radius_max if policy.radius_max is not None else X / 2
        if r_min < 4 * h * (1 - 1e-9):
            raise ConfigError(f"geometric radius ladder must start at >= 4h, got {r_min}")
        radii = _doublings(r_min, r_max)
        if not radii:
            raise ConfigError("geometric radius ladder is empty")
    if radii[-1] > X / 2 * (1 + 1e-9):
        raise ConfigError(f"largest family radius {radii[-1]} exceeds half the box halfwidth {X / 2}")
    # snap radii to the h-lattice, drop duplicates after snapping
    cells = sorted({max(round(r / h), 1) for r in radii})

    # the centers j stride, |j| <= K: the marks up to min(X,
    # max_center_norm), less the edge mark where it passes max_center_norm
    mcn, n0 = policy.max_center_norm, grid.half_cells
    k_max = int(math.floor(min(X, mcn) / stride + 1e-9))
    K = next((j for j in (k_max, k_max - 1) if j >= 0 and j * stride <= mcn * (1 + 1e-12)), -1)
    # the ball of cell radius m about the center j s is inside the box when
    # |j| s + m <= X/h - 1: each block is the 2 q + 1 centers |j| <= q, a
    # run of the lattice, the smallest radius's run
    half = [min(K, (n0 - 1 - m) // s) for m in cells]
    blocks = [(m, half[0] - q, 2 * q + 1) for m, q in zip(cells, half) if q >= 0]
    if not blocks:
        raise ConfigError("ball family is empty: no center/radius pair fits the box")

    radius_ladder = np.array(cells, dtype=np.float64) * h
    d_max = policy.distance_max if policy.distance_max is not None else X / 2
    dl = _doublings(float(radius_ladder[0]), d_max)
    if not dl:
        raise ConfigError("distance ladder is empty")
    if half[0] * abs(stride - s * h) > 1e-6 * h:  # the farthest center's drift off its sample
        raise ConfigError(f"family centers must sit on the grid lattice: {half[0]} strides of {stride} miss the sample")
    return BallFamily(grid, range(n0 - half[0] * s, n0 + half[0] * s + 1, s), blocks, radius_ladder, np.asarray(dl))


@dataclass(frozen=True)
class LimitCurve:
    """Bucketed suprema of a per-ball metric along a ladder of cutoffs.

    values[j] is the sup over the balls qualifying at cutoff ladder[j];
    NaN marks an absent bucket (no qualifying ball).  The limit direction
    depends on the mode: small-radius curves approach their limit at the
    ladder's small end, all other modes at the large end.
    """

    mode: str
    ladder: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown curve mode {self.mode!r}")

    @property
    def present(self) -> np.ndarray:
        return self.counts > 0

    def present_values(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.present
        return self.ladder[m], self.values[m]

    def terminal_value(self) -> float:
        """Value of the bucket nearest the limit (needs >= 1 present bucket)."""
        lad, vals = self.present_values()
        if vals.size == 0:
            raise DegenerateRegionError(f"curve {self.mode} has no present bucket")
        return float(vals[0] if self.mode == "small-radius" else vals[-1])

    def initial_value(self) -> float:
        lad, vals = self.present_values()
        if vals.size == 0:
            raise DegenerateRegionError(f"curve {self.mode} has no present bucket")
        return float(vals[-1] if self.mode == "small-radius" else vals[0])


def bucketed_sup(metric: BallValues, mode: str, rho: np.ndarray | float | None = None) -> LimitCurve:
    """Supremum of a per-ball metric within each bucket of its family's own
    ladder (distance_ladder for the distance modes, else radius_ladder).

    rho: critical-radius data, a scalar or one reach per radius block, a
    count of samples (supercritical_spans); required by the supercritical
    modes, where a ball qualifies only if r >= rho(center).  A scalar rho
    may be +inf (no ball qualifies).

    Each qualifying ball belongs to the bucket of the cutoff nearest the
    limit at which its key (radius or inner distance |c| - r) still
    qualifies.  The family's segment plan for the mode groups the balls
    into contiguous runs of one bucket, so one segment_sups over the
    metric's steps gives each run's sup and the run lengths its count.
    The plain modes reduce the whole family as one span; the
    supercritical modes reduce each radius block's supercritical run, the
    plan's segments cut at the runs' ends, so no mask or masked copy is
    made.  A cutoff's balls are those of its bucket and of every bucket
    nearer the limit, so a running maximum and count from the limit end
    fill the curve.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown curve mode {mode!r}")
    family = metric.family
    ladder = family.distance_ladder if mode in _DISTANCE_MODES else family.radius_ladder
    plan, total = family.segment_plan(mode), len(family)
    at, buckets, kept = plan.starts, plan.buckets, slice(None)
    if mode in SUPERCRITICAL_MODES:
        # the plan's segments cut at the ends of the supercritical runs:
        # the segments that start in a run are its balls, the others lie
        # between runs
        spans = np.array([(a, b) for _, a, b in supercritical_spans(family, rho)], dtype=np.intp)
        at = np.sort(np.concatenate((at, spans[spans < total])))
        span = spans[np.searchsorted(spans[:, 0], at, side="right") - 1]
        kept = (span[:, 0] <= at) & (at < span[:, 1])
        buckets = buckets[np.searchsorted(plan.starts, at, side="right") - 1][kept]
    cuts = np.append(at, total)
    n = ladder.shape[0]
    top = np.full(n + 1, -np.inf)
    sizes = np.zeros(n + 1, dtype=np.int64)
    np.maximum.at(top, buckets, metric.segment_sups(cuts)[kept])
    np.add.at(sizes, buckets, np.diff(cuts)[kept])

    if mode == "small-radius":
        buckets, step = slice(0, n), 1
    else:
        buckets, step = slice(1, n + 1), -1
    sup = np.maximum.accumulate(top[buckets][::step])[::step]
    counts = np.cumsum(sizes[buckets][::step])[::step]
    return LimitCurve(mode, ladder, np.where(counts > 0, sup, np.nan), counts)
