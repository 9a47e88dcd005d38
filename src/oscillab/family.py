"""Finite ball families and bucketed limit curves.

Asymptotic statements ("as r -> 0", "for balls far from the origin") are
reported as curves over a finite ladder of cutoffs, never as extrapolated
scalars.  A bucket with no qualifying ball is absent (NaN value, count 0),
which is not the same as a zero supremum.

A family is ordered: one block of balls per radius, and the centers of a
block ascend.  So a ball's bucket is constant over a block in the radius
modes, and in the distance modes its key |c| - r descends over a block's
negative centers and ascends over the rest.  A curve is therefore a
reduction over a few contiguous segments of the family, at most
2 (n + 1) per block for an n-cutoff ladder.  The segment plan is built
once per family and cut ladder; a family whose centers do not ascend
within a block raises ConfigError when its plan is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateRegionError, OutOfDomainError
from .grid import Ball, Grid
from .potential import rho_values_for

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


@dataclass(frozen=True)
class BallFamily:
    """Deterministically enumerated balls, tagged for bucketed scans.

    centers: (k, 1) coordinates; radii: (k,).  radius_ladder and
    distance_ladder are the cutoff ladders used by bucketed_sup; the
    distance modes key a ball by its inner distance |c| - r, the largest a
    such that the ball avoids B(0, a).

    Radii never decrease along the family (make_ball_family emits one
    block of balls per radius, smallest radius first), so the balls of one
    radius are the contiguous slice given by radius_blocks; a family
    violating this raises ConfigError.  bucketed_sup also needs the
    centers of each block to ascend, which make_ball_family gives and
    segment_plan checks.

    Scans need more: the centers of each block are a contiguous run of
    the smallest-radius block's centers, those sit on the grid at one
    constant index step, and every radius is a positive multiple of h.
    Then the centers of a block are the sample indices of one range,
    which center_runs gives per block; a scan of a family violating this
    raises ConfigError, and one with a ball touching the box
    OutOfDomainError, before it allocates anything sample-sized.
    """

    grid: Grid
    centers: np.ndarray
    radii: np.ndarray
    radius_ladder: np.ndarray
    distance_ladder: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.centers, dtype=np.float64).reshape(-1, 1)
        r = np.asarray(self.radii, dtype=np.float64).reshape(-1)
        if c.shape[0] != r.shape[0]:
            raise ConfigError("family centers and radii length mismatch")
        if c.shape[0] == 0:
            raise ConfigError("empty ball family")
        if np.any(r[1:] < r[:-1]):
            raise ConfigError("family radii must not decrease: balls are grouped by radius")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "radius_ladder", np.asarray(self.radius_ladder, dtype=np.float64))
        object.__setattr__(self, "distance_ladder", np.asarray(self.distance_ladder, dtype=np.float64))

    def __len__(self) -> int:
        return self.radii.shape[0]

    @cached_property
    def radius_blocks(self) -> tuple[tuple[int, int, int], ...]:
        """(start, stop, cell radius) of each run of equal radii, in order;
        the cell radius is the radius in units of the spacing, rounded."""
        r = self.radii
        cuts = (np.flatnonzero(r[1:] != r[:-1]) + 1).tolist()
        h = self.grid.spacing
        return tuple(
            (a, b, int(np.rint(r[a] / h)))
            for a, b in zip([0, *cuts], [*cuts, r.shape[0]])
        )

    @cached_property
    def center_runs(self) -> tuple[tuple[int, int, int, range], ...]:
        """(start, stop, cell radius, run) per radius block, where run is
        the range of the block's center sample indices: the plan every
        family scan reads.  The lattice and the index step are checked on
        the smallest-radius block's centers, the run and the radius once
        per block; a family off the plan raises ConfigError.  A run's end
        balls are checked against the box, so a block with a ball that
        touches or leaves it raises OutOfDomainError."""
        a0, b0, _ = self.radius_blocks[0]
        xs = self.centers[a0:b0, 0]
        g = self.grid
        idx = g.coord_to_index(xs)
        if not np.all(np.abs(xs - g.index_to_coord(idx)) <= 1e-6 * g.spacing):
            raise ConfigError("family centers must sit on the grid lattice")
        step = int(idx[1] - idx[0]) if idx.size > 1 else 1
        if step < 1 or np.any(np.diff(idx) != step):
            raise ConfigError("family centers are not an arithmetic run of samples")
        runs = []
        for a, b, m in self.radius_blocks:
            off = int(np.searchsorted(xs, self.centers[a, 0]))
            if not np.array_equal(xs[off : off + b - a], self.centers[a:b, 0]):
                raise ConfigError("a radius block is not a run of the smallest-radius centers")
            if m < 1 or abs(self.radii[a] / g.spacing - m) > 1e-6:
                raise ConfigError("family radii must be positive multiples of the spacing")
            run = range(int(idx[off]), int(idx[off]) + (b - a) * step, step)
            # inside the box: |c| + r <= X - h, i.e. sample indices 1 .. 2X/h - 1
            if run.start - m < 1 or run[-1] + m > g.axis_count - 2:
                raise OutOfDomainError(f"a ball of cell radius {m} over {run} touches or leaves the box")
            runs.append((a, b, m, run))
        return tuple(runs)

    def distinct_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, at) with xs[at] equal to the center coordinates: for a
        family from make_ball_family, the distinct centers in ascending
        order and each ball's index into them, as np.unique(...,
        return_inverse=True) gives them, without a sort.  make_ball_family
        keeps, per radius, the ascending marks that fit the box, so the
        smallest-radius block holds every center and each later block is a
        contiguous run of it; a family where that fails raises ConfigError,
        as center_runs does."""
        runs = self.center_runs
        _, b0, _, run0 = runs[0]
        at = np.empty(len(self), dtype=np.intp)
        for a, b, _, run in runs:
            off = (run.start - run0.start) // run0.step
            at[a:b] = np.arange(off, off + b - a)
        return self.centers[:b0, 0], at

    @cached_property
    def _segment_plans(self) -> dict[str, SegmentPlan]:
        return {}

    def segment_plan(self, mode: str) -> SegmentPlan:
        """The segments bucketed_sup reduces in mode, built on first use
        and cached: the radius modes cut the family into its radius
        blocks; the distance modes cut each block at its first nonnegative
        center and each half where its key crosses a cutoff.  A block
        whose centers do not ascend raises ConfigError."""
        kind = _PLAIN_OF.get(mode, mode)
        if kind not in self._segment_plans:
            self._segment_plans[kind] = _build_segment_plan(self, kind)
        return self._segment_plans[kind]

    def ball(self, i: int) -> Ball:
        return Ball(tuple(self.centers[i]), float(self.radii[i]))


@dataclass(frozen=True)
class SegmentPlan:
    """Runs of balls that fall in one bucket of a cut ladder, in family
    order: segment i is the balls starts[i] .. starts[i] + sizes[i] - 1 of
    one radius block, all in bucket buckets[i] (0 .. n for an n-cutoff
    ladder).  The segments tile the family, none is empty, and each radius
    block starts one."""

    starts: np.ndarray
    sizes: np.ndarray
    buckets: np.ndarray


def _build_segment_plan(family: BallFamily, kind: str) -> SegmentPlan:
    # the cutoffs and side give a ball's bucket as bucketed_sup defines it
    if kind == "small-radius":
        cuts, side = family.radius_ladder * (1 + 1e-12), "left"
    else:
        ladder = family.distance_ladder if kind == "far-from-origin" else family.radius_ladder
        cuts, side = ladder * (1 - 1e-12), "right"
    c, r = family.centers[:, 0], family.radii
    starts = []
    for a, b, _ in family.radius_blocks:
        if np.any(c[a + 1 : b] < c[a : b - 1]):
            raise ConfigError("family centers must ascend within each radius block")
        cut = {a}
        if kind == "far-from-origin":
            # |c| - r is -c - r over the negative centers, where it
            # descends, and c - r over the rest, where it ascends
            z = a + int(np.searchsorted(c[a:b], 0.0))
            neg, pos = -c[a:z] - r[a], c[z:b] - r[a]
            cut.add(z)
            cut.update((z - np.searchsorted(neg[::-1], cuts)).tolist())
            cut.update((z + np.searchsorted(pos, cuts)).tolist())
        starts += sorted(i for i in cut if i < b)
    first = np.array(starts, dtype=np.intp)
    keys = np.abs(c[first]) - r[first] if kind == "far-from-origin" else r[first]
    return SegmentPlan(
        first,
        np.diff(first, append=len(family)).astype(np.int64),
        np.searchsorted(cuts, keys, side=side),
    )


def supercritical_spans(family: BallFamily, rho):
    """(start, stop, keep) over the family in order, where keep says which
    of the span's balls are supercritical, r >= rho(center) (ties count);
    rho may hold +inf (never supercritical).  Radii ascend along the
    family, so a scalar rho splits it into whole radius blocks: a
    subcritical span and then a supercritical one, each with one bool.  An
    array rho aligned with the family gives one span per radius block,
    with a mask over it made only when the span is reached."""
    if rho is None or np.ndim(rho) != 0:
        rho = rho_values_for(rho, family.centers)
        for a, b, _ in family.radius_blocks:
            yield a, b, family.radii[a] >= rho[a:b]
        return
    k = int(np.searchsorted(family.radii, float(rho)))
    for a, b, keep in ((0, k, np.False_), (k, len(family), np.True_)):
        if a < b:
            yield a, b, keep


def make_ball_family(grid: Grid, policy: FamilyPolicy) -> BallFamily:
    """Enumerate the family described by policy on grid.

    Config errors: stride not a positive multiple of h, radii above X/2,
    a geometric ladder below 4h, or an enumeration with no surviving ball.
    """
    h = grid.spacing
    X = grid.halfwidth
    stride = policy.center_stride
    k = stride / h
    if not (k >= 1 - 1e-6) or abs(k - round(k)) > 1e-6:
        raise ConfigError(f"center stride {stride} is not a positive multiple of h={h}")

    if policy.radii is not None:
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
        radii = []
        r = r_min
        while r <= r_max * (1 + 1e-9):
            radii.append(r)
            r *= 2.0
        if not radii:
            raise ConfigError("geometric radius ladder is empty")
    if radii[-1] > X / 2 * (1 + 1e-9):
        raise ConfigError(
            f"largest family radius {radii[-1]} exceeds half the box halfwidth {X / 2}"
        )

    # snap radii to the h-lattice, drop duplicates after snapping
    snapped: list[float] = []
    for r in radii:
        rs = round(r / h) * h
        if rs <= 0:
            rs = h
        if not snapped or abs(rs - snapped[-1]) > h / 2:
            snapped.append(rs)
    radii = snapped

    k_max = int(math.floor(min(X, policy.max_center_norm) / stride + 1e-9))
    marks = np.arange(-k_max, k_max + 1, dtype=np.float64) * stride
    cand = marks[np.abs(marks) <= policy.max_center_norm * (1 + 1e-12)]

    # marks ascend, so every radius block is sorted by position
    lim = X - h / 4.0
    centers_out = []
    radii_out = []
    for r in radii:
        kept = cand[np.abs(cand) + r < lim]
        if kept.shape[0] == 0:
            continue
        centers_out.append(kept)
        radii_out.append(np.full(kept.shape[0], r))
    if not centers_out:
        raise ConfigError("ball family is empty: no center/radius pair fits the box")

    centers = np.concatenate(centers_out)[:, None]
    rr = np.concatenate(radii_out)

    radius_ladder = np.asarray(radii, dtype=np.float64)
    d_max = policy.distance_max if policy.distance_max is not None else X / 2
    dl = []
    d = float(radius_ladder[0])
    while d <= d_max * (1 + 1e-9):
        dl.append(d)
        d *= 2.0
    if not dl:
        raise ConfigError("distance ladder is empty")
    return BallFamily(grid, centers, rr, radius_ladder, np.asarray(dl))


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


def bucketed_sup(
    metric: np.ndarray,
    family: BallFamily,
    mode: str,
    rho: np.ndarray | float | None = None,
) -> LimitCurve:
    """Supremum of a per-ball metric within each bucket of the family's own
    ladder (distance_ladder for the distance modes, else radius_ladder).

    metric: array aligned with the family.  rho: critical-radius values at
    the ball centers, a scalar or an array aligned with the family;
    required by the supercritical modes, where a ball qualifies only if
    r >= rho(center).  rho may contain +inf (no ball ever qualifies there).

    Each qualifying ball belongs to the bucket of the cutoff nearest the
    limit at which its key (radius or inner distance |c| - r) still
    qualifies.  The family's segment plan for the mode groups the balls
    into contiguous runs of one bucket, so one maximum.reduceat gives each
    run's sup and the run lengths its count.  A scalar rho keeps or drops
    whole radius blocks; an array rho masks one block at a time, so no
    family-sized mask or masked copy is made.  A cutoff's balls are those
    of its bucket and of every bucket nearer the limit, so a running
    maximum and count from the limit end fill the curve.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown curve mode {mode!r}")
    vals = np.asarray(metric, dtype=np.float64).reshape(-1)
    if vals.shape[0] != len(family):
        raise ConfigError("metric array length does not match the family")

    ladder = family.distance_ladder if mode in _DISTANCE_MODES else family.radius_ladder
    if ladder.size == 0 or np.any(np.diff(ladder) <= 0):
        raise ConfigError("ladder must be strictly increasing and nonempty")
    if mode in SUPERCRITICAL_MODES and rho is None:
        raise ConfigError(f"mode {mode} needs critical-radius values")

    plan = family.segment_plan(mode)
    n = ladder.shape[0]
    top = np.full(n + 1, -np.inf)
    sizes = np.zeros(n + 1, dtype=np.int64)
    spans = supercritical_spans(family, rho) if mode in SUPERCRITICAL_MODES else [(0, len(family), np.True_)]
    for a, b, keep in spans:
        # the span's segments: spans start and stop at radius blocks
        s, t = np.searchsorted(plan.starts, (a, b))
        at = plan.starts[s:t] - a
        if keep.all():
            seg_max, seg_size = np.maximum.reduceat(vals[a:b], at), plan.sizes[s:t]
        elif keep.any():
            seg_max = np.maximum.reduceat(np.where(keep, vals[a:b], -np.inf), at)
            seg_size = np.add.reduceat(keep, at, dtype=np.int64)
        else:
            continue
        np.maximum.at(top, plan.buckets[s:t], seg_max)
        np.add.at(sizes, plan.buckets[s:t], seg_size)

    if mode == "small-radius":
        buckets, step = slice(0, n), 1
    else:
        buckets, step = slice(1, n + 1), -1
    sup = np.maximum.accumulate(top[buckets][::step])[::step]
    counts = np.cumsum(sizes[buckets][::step])[::step]
    return LimitCurve(mode, ladder, np.where(counts > 0, sup, np.nan), counts)
