"""Sampled intervals, balls, and fast ball sums.

oscillab is a one-dimensional lab: everything downstream works on a
uniform grid over the box [-X, X].  The paper states its results on R^n;
only the potentials in ``potential`` evaluate masses for n = 2 and n = 3.
Conventions that the rest of the package relies on:

* a ball B(c, r) "contains" the samples strictly inside it (|y - c| < r),
  so a ball of cell radius m = r/h centered on a sample holds 2m - 1;
* |B| is the number of contained samples times h, never the continuum
  length;
* balls that touch or cross the box boundary are rejected rather than
  clipped;
* the operands of f - g, or of a function and its family, operator or
  assignment, share one grid: same_grid is the one check, and raises
  GridMismatchError, a ConfigError.

A GridFunction holds its samples on pieces, ascending, disjoint runs of
samples; every sample outside them is its background b.  The corpus
constants declare b over no piece; every other function has b = +0.0.
[lo, hi) is the pieces' hull.  A producer that knows where its output
vanishes declares it: ``lacunary_function`` one piece per bump, and as
one piece, the corpus members with compact support (the bumps and
``lacunary``), ``dyadic_average`` (the cubes that meet f's hull), the
pipeline's truncation, ``mollify`` (f's hull widened by the kernel's
reach) and f - g (the union of the two hulls).  Every other function gets
the span of its non-zero samples.  A family scan reads the pieces only, a
stage that needs one contiguous window (the pyramid, the averaging, the
mollifier, the gates) reads the hull, and what lies outside enters in
closed form (k samples sum to k b, exactly for the corpus constants), so
they give the bytes the dense scan gives.  The consumers that need every
sample (the operator's sine transform, the half-space fields, the written
file) read ``values`` once.

Every ball, cylinder and cone sum is read from one kind of prefix-sum
table, SummedTable, built on the pieces of one row or of a stack of rows,
and the table has one read: P at an index is its stored entry at the
number of held samples before the index (_held_map).  A ball's sum is the
difference of the reads at its two ends, for a run of centers at one
index step as for a family scan's index array of centers, the balls
where a sum can change.  A stack's table is read a row (an int) or a
slice of rows at a time: a Carleson box of radius r reads the first k
rows of its field's |F|^2 table, the ladder slices t_j <= r, and the
cone its row j, through the constant ends past the walls.  The ball
means of f and of f^2 become the oscillation and the size in one place,
oscillation_and_size.  The naive per-ball sums, the oracle of the
tables, live with the tests (tests/oracles.py), with the dense scans
that the held ones are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError, OutOfDomainError

_IDX_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of [-X, X], endpoints included, spacing h.

    X/h must be an integer, so the sample count 2*X/h + 1 is odd and the
    origin is always a sample.
    """

    halfwidth: float
    spacing: float

    def __post_init__(self) -> None:
        if not (self.halfwidth > 0 and math.isfinite(self.halfwidth)):
            raise ConfigError(f"halfwidth must be positive, got {self.halfwidth}")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ConfigError(f"spacing must be positive, got {self.spacing}")
        m = self.halfwidth / self.spacing
        if abs(m - round(m)) > _IDX_TOL * max(1.0, m):
            raise ConfigError(
                f"halfwidth/spacing = {m} is not an integer; "
                "the box must be an integer number of cells"
            )

    @property
    def n(self) -> int:
        """Ambient dimension; always 1 (kept for file headers and readers)."""
        return 1

    @property
    def half_cells(self) -> int:
        """Cells from the origin to the box face (X/h)."""
        return round(self.halfwidth / self.spacing)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,)

    @property
    def size(self) -> int:
        return 2 * self.half_cells + 1

    @property
    def axis(self) -> np.ndarray:
        """Sample coordinates, -X..X inclusive."""
        return self.coords(range(self.size))

    def coords(self, idx: range | np.ndarray) -> np.ndarray:
        """The coordinates (i - X/h) h of the samples i of idx, a range of
        sample indices (axis[idx.start:idx.stop:idx.step]) or an int array."""
        m = self.half_cells
        i = (np.arange(idx.start - m, idx.stop - m, idx.step, dtype=np.float64)
             if isinstance(idx, range) else np.asarray(idx) - m)
        return i * self.spacing

    def coord_to_index(self, coords: np.ndarray) -> np.ndarray:
        """Nearest-sample index per coordinate (float array in, int array out)."""
        return np.rint((np.asarray(coords, dtype=np.float64) + self.halfwidth) / self.spacing).astype(np.int64)

    def compatible(self, other: "Grid") -> bool:
        return (
            self.half_cells == other.half_cells
            and abs(self.spacing - other.spacing) <= _IDX_TOL * self.spacing
        )


def same_grid(*grids: Grid) -> Grid:
    """The first grid, or GridMismatchError unless every grid is compatible with it."""
    if not all(grids[0].compatible(g) for g in grids[1:]):
        raise GridMismatchError("operands live on different grids")
    return grids[0]


def _positions_below(run: range, i: int) -> int:
    """How many positions of run (a positive step) hold an index below i."""
    return min(max(-((run.start - i) // run.step), 0), len(run))


def _nonzero_span(v: np.ndarray) -> tuple[int, int]:
    """[a, b): from the first to past the last sample of v whose bits are
    not those of +0.0 (so -0.0 counts), or (0, 0) when there is none."""
    kept = v.view(np.uint64) != 0
    if not kept.any():
        return 0, 0
    return int(np.argmax(kept)), kept.size - int(np.argmax(kept[::-1]))


def _held_map(spans) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints (x, c) of the number of indices before an index that
    lie in the spans (ascending, disjoint [lo, hi) pairs): piecewise linear
    in the index, slope 1 over the spans and 0 elsewhere, so
    np.interp(i, x, c) reads it, 0 left of the first span and the total
    right of the last.  x ascends strictly: a span that starts where the
    last one ends continues its breakpoint.  Both are float64 arrays, the
    type np.interp reads, so a read converts neither."""
    x, c, n = [], [], 0
    for lo, hi in spans:
        if lo < hi:
            if x and lo == x[-1]:
                del x[-1], c[-1]
            x += [lo, hi]
            c += [n, n + hi - lo]
            n += hi - lo
    return np.array(x or [0], dtype=np.float64), np.array(c or [0], dtype=np.float64)


class GridFunction:
    """Real samples on a grid, held on pieces: ascending, disjoint (lo,
    samples) pairs, each the samples of [lo, lo + len(samples)), starting
    and ending on a sample that is not +0.0 (-0.0 counts as non-zero, so
    the dense samples come back bit for bit).  Every sample outside the
    pieces is the background b.  [lo, hi) is their hull, from the first
    piece's start to the last piece's end, (0, 0) with no piece.  Values
    are float64 and finite.

    GridFunction(grid, values) takes all the samples, GridFunction(grid,
    values, lo=lo) those of [lo, lo + len(values)), and
    GridFunction.from_pieces(grid, pieces) those of several ascending,
    disjoint (lo, samples) pairs; each given piece is trimmed to the span
    of its non-zero samples, one with none is dropped, and b is +0.0.
    GridFunction.constant(grid, b) holds no piece over b, so no function
    has both a piece and a non-zero b.  ``values`` is the dense samples,
    built on each read and read-only.
    """

    __slots__ = ("grid", "pieces", "lo", "hi", "background")

    def __init__(self, grid: Grid, values: np.ndarray, lo: int | None = None):
        v = np.asarray(values, dtype=np.float64)
        if lo is None:
            if v.shape != grid.shape:
                raise ConfigError(f"value shape {v.shape} does not match grid shape {grid.shape}")
            lo = 0
        self._hold(grid, [(lo, v)])

    @staticmethod
    def from_pieces(grid: Grid, pieces) -> "GridFunction":
        """The samples of the ascending, disjoint (lo, samples) pairs, +0.0
        elsewhere."""
        f = object.__new__(GridFunction)
        f._hold(grid, pieces)
        return f

    def _hold(self, grid: Grid, pieces) -> None:
        held, end = [], 0
        for lo, v in pieces:
            v = np.asarray(v, dtype=np.float64)
            if v.ndim != 1 or not end <= lo <= grid.size - v.size:
                raise ConfigError(f"a piece of {v.shape} samples at {lo} overlaps the last or leaves the grid's {grid.size}")
            if not np.all(np.isfinite(v)):
                raise ConfigError("grid function values must be finite")
            a, b = _nonzero_span(v)
            if a < b:
                held.append((int(lo) + a, v[a:b]))
            end = lo + v.size
        self.grid, self.pieces, self.background = grid, tuple(held), 0.0
        self.lo, self.hi = (held[0][0], held[-1][0] + held[-1][1].size) if held else (0, 0)

    @staticmethod
    def constant(grid: Grid, b: float) -> "GridFunction":
        """The constant b, finite (a zero b is +0.0)."""
        if not math.isfinite(b):
            raise ConfigError(f"a constant must be finite, got {b}")
        f = GridFunction.from_pieces(grid, ())
        f.background = float(b) or 0.0
        return f

    @property
    def span(self) -> tuple[int, int]:
        """[lo, hi) outside which f is +0.0: the whole grid for a constant."""
        return (self.lo, self.hi) if self.background == 0.0 else (0, self.grid.size)

    def _filled(self, n: int) -> np.ndarray:
        return np.full(n, self.background) if self.background else np.zeros(n)

    @property
    def values(self) -> np.ndarray:
        """All the samples, read-only: a view of a piece that is the whole
        grid, else a new array."""
        out = self.on(0, self.grid.size)
        out.flags.writeable = False
        return out

    def on(self, a: int, b: int) -> np.ndarray:
        """The samples of [a, b) (0 <= a <= b <= size): a view of the piece
        that holds them when one does, else a new array, b outside the
        pieces."""
        for lo, v in self.pieces:
            if lo <= a and b <= lo + v.size:
                return v[a - lo : b - lo]
        out = self._filled(b - a)
        for lo, v in self.pieces:
            i, j = max(a, lo), min(b, lo + v.size)
            if i < j:
                out[i - a : j - a] = v[i - lo : j - lo]
        return out

    def at(self, idx: np.ndarray) -> np.ndarray:
        """The samples at the index array idx."""
        out = self._filled(idx.shape[0])
        for lo, v in self.pieces:
            inside = (idx >= lo) & (idx < lo + v.size)
            out[inside] = v[idx[inside] - lo]
        return out

    def truncated(self, a: int, b: int) -> "GridFunction":
        """f on the samples [a, b), zero outside: each piece cut to [a, b),
        or of a non-zero constant, the one piece [a, b)."""
        spans = [(lo, lo + v.size) for lo, v in self.pieces] or [self.span]
        cut = [(max(a, lo), min(b, hi)) for lo, hi in spans]
        return GridFunction.from_pieces(self.grid, [(i, self.on(i, j)) for i, j in cut if i < j])

    def sup_outside(self, a: int, b: int) -> float:
        """sup |f| over the samples outside [a, b), 0.0 when there is none.
        f is +0.0 outside its pieces, so only their part of the two
        outside slices is read."""
        outside = [v for g in (self.truncated(0, a), self.truncated(b, self.grid.size)) for _, v in g.pieces]
        # sup |x| = max(x.max(), -x.min()) needs no |x| array; abs() clears
        # the sign of a zero
        return abs(float(max((max(x.max(initial=0.0), -x.min(initial=0.0)) for x in outside), default=0.0)))

    @staticmethod
    def from_callable(grid: Grid, fn, support: tuple[float, float] | None = None) -> "GridFunction":
        """fn at the samples; with support (x0, x1), at the samples of the
        closed [x0, x1] only, and +0.0 elsewhere, which fn must also give
        there.  fn works elementwise on an array of coordinates."""
        lo, hi = 0, grid.size
        if support is not None:
            x0, x1 = support
            h, m = grid.spacing, grid.half_cells
            lo = min(max(math.floor(x0 / h) + m, 0), grid.size)
            hi = min(max(math.ceil(x1 / h) + m + 1, lo), grid.size)
        return GridFunction(grid, np.asarray(fn(grid.coords(range(lo, hi))), dtype=np.float64), lo=lo)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        """f - g on the union of the two hulls, one piece: dense when either
        is a non-zero constant."""
        grid = same_grid(self.grid, other.grid)
        spans = [f.span for f in (self, other) if f.span[0] < f.span[1]] or [(0, 0)]
        a, b = min(lo for lo, _ in spans), max(hi for _, hi in spans)
        return GridFunction(grid, self.on(a, b) - other.on(a, b), lo=a)


@dataclass(frozen=True)
class Ball:
    """Interval B(center, radius); center is a one-coordinate tuple."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if len(self.center) != 1:
            raise ConfigError("ball center must have one coordinate")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ConfigError(f"ball radius must be positive, got {self.radius}")


# ---------------------------------------------------------------------------
# prefix-sum tables


class SummedTable:
    """Prefix sums P[i], the sum of the samples before index i, of a row
    of samples, or of each row of a (k, samples) stack (of their squares
    with square=True, made in the table's buffer), serving the sums over
    balls of cell radius m centered on samples c: samples c - m + 1 ..
    c + m - 1 sum to P[c + m] - P[c - m + 1].

    The table is built on pieces only, ascending, disjoint (lo, samples)
    pairs with every other sample 0: it stores one prefix over the
    concatenated pieces, and ``prefix`` reads P at an index as the stored
    entry at the number of held samples before it (_held_map).  So P is 0
    before the first piece, the running total between pieces and the
    total after the last, also off the ends of the samples.  A ball that
    meets no piece sums to S - S, which is 0.0.
    """

    def __init__(self, grid: Grid, pieces, square: bool = False):
        """pieces: (lo, samples) pairs, samples a row or a stack of rows of
        the samples of [lo, lo + samples.shape[-1]); [(0, values)] for all
        the samples."""
        self.grid = grid
        pieces = [(lo, np.asarray(v, dtype=np.float64)) for lo, v in pieces]
        lead = pieces[0][1].shape[:-1] if pieces else ()
        spans, end = [], 0
        for lo, v in pieces:
            if v.ndim not in (1, 2) or v.shape[:-1] != lead or not end <= lo <= grid.size - v.shape[-1]:
                raise ConfigError("summed table shape mismatch")
            end = lo + v.shape[-1]
            spans.append((lo, end))
        self._x, self._c = _held_map(spans)
        self._p = np.zeros(lead + (int(self._c[-1]) + 1,))
        self._fill([v for _, v in pieces], square)

    def _fill(self, samples, square: bool) -> None:
        """Make this the table of the pieces' samples (or of their squares)
        in place: each piece's stretch of P continues from the total before
        it, the sums that the cumsum of the dense row adds."""
        o = 0
        for v in samples:
            seg = self._p[..., o : o + v.shape[-1] + 1]
            if square:
                np.square(v, out=seg[..., 1:])
            else:
                seg[..., 1:] = v
            np.cumsum(seg, axis=-1, out=seg)
            o += v.shape[-1]

    def prefix(self, idx: range | np.ndarray, rows: int | slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """P at the sample indices idx (an int array, or a range, read as
        its np.arange) of the stack's rows[rows] (an int or a slice; all
        rows by default), written into out when given: the stored entry at
        the held count before each index (_held_map), so 0 left of the
        pieces and the total right of them."""
        if isinstance(idx, range):
            idx = np.arange(idx.start, idx.stop, idx.step)
        # np.take returns C order where p[..., idx] of a stack returns F
        # order, which a sum over the rows adds up pairwise, not in order
        return np.take(self._p[rows], np.interp(idx, self._x, self._c).astype(np.intp), axis=-1, out=out)

    def ball_sum(self, run: range | np.ndarray, cell_radius, out: np.ndarray | None = None, rows: int | slice = slice(None)) -> np.ndarray:
        """Sum over samples strictly inside B(c, cell_radius * h) for each
        center sample index c of run, of the stack's rows[rows], written
        into out when given.  run is a range with a positive step or an
        int array of centers, with cell_radius an int or one per center;
        each sum is P[c + m] - P[c - m + 1], both ends read by ``prefix``
        at their held counts.  The strict-inside offsets are |k| <=
        cell_radius - 1 in integer arithmetic, so this path has no float
        membership fuzz; a ball reaching past the samples raises
        OutOfDomainError.  The upper reads of P are written into out and
        the lower ones subtracted there."""
        m = np.asarray(cell_radius)
        if np.any(m < 1) or isinstance(run, range) and run.step < 1:
            raise ConfigError("ball sums need a cell radius >= 1 and an ascending run")
        c = np.arange(run.start, run.stop, run.step) if isinstance(run, range) else run
        if len(c) and (np.min(c - m) + 1 < 0 or np.max(c + m) > self.grid.size):
            raise OutOfDomainError(f"balls of cell radius {cell_radius} over {run} leave the samples")
        out = self.prefix(c + m, rows, out)
        out -= self.prefix(c - m + 1, rows)
        return out


# ---------------------------------------------------------------------------
# oscillation from means


def oscillation_and_size(mean: np.ndarray, mean_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The means of f and of f^2 over a set of regions turned in place into
    the oscillation sqrt(max(0, mean_sq - mean^2)), in mean's buffer, and
    the size sqrt(mean_sq), in mean_sq's; both buffers are returned."""
    np.square(mean, out=mean)
    np.subtract(mean_sq, mean, out=mean)
    np.maximum(0.0, mean, out=mean)
    np.sqrt(mean, out=mean)
    np.sqrt(mean_sq, out=mean_sq)
    return mean, mean_sq


def oscillation_of(vals: np.ndarray) -> float:
    """(mean of |v - mean v|^2)^(1/2) over the values, by the variance
    identity with a clamp at zero."""
    m = float(np.mean(vals))
    msq = float(np.mean(vals**2))
    return math.sqrt(max(0.0, msq - m * m))
