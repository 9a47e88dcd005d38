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
  clipped.

A GridFunction holds the samples of its window [lo, hi); every sample
outside is its background b.  The corpus constants declare b over an
empty window; every other function has b = +0.0.  A producer that knows
where its output vanishes declares it: the corpus members with compact
support (the bumps and ``lacunary``), ``lacunary_function``,
``dyadic_average`` (the cubes that meet f's window), the pipeline's
truncation, ``mollify`` (f's window widened by the kernel's reach) and
f - g (the union of the two windows).  Every other function gets the span
of its non-zero samples.  Scans read the window only, and what lies
outside enters in closed form (k samples sum to k b, exactly for the
corpus constants), so they give the bytes the dense scan gives.  The
consumers that need every sample (the operator's sine transform, the
half-space fields, the written file) read ``values`` once.

Every ball, cylinder and cone sum is read from one kind of prefix-sum
table, SummedTable, built on a window of one row or of a stack of rows.
A family scan asks for the balls of one radius over a run of centers at
one index step, so each block's sums are the difference of two strided
slices of the table; a ball that misses f's window is not read, and its
mean is b.  A Carleson box of radius r reads the first k rows of its
field's table, the ladder slices t_j <= r, and a cone that leaves the box
reads the table's constant ends past the walls.  The ball means of f and
of f^2 become the oscillation and the size in one place,
oscillation_and_size.

Values held on runs of indices, with a fill at every other index, are
reduced in one place too: segment_sups gives the sup over each of a list
of segments, for a family's per-ball values (one run per radius block)
and for a level of dyadic cubes (one run).  The naive per-ball sums, the
oracle of the tables, live with the tests (tests/oracles.py), with the
dense scans that the windowed ones are checked against.
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
        return self.coords(0, self.size)

    def coords(self, lo: int, hi: int) -> np.ndarray:
        """The coordinates of the samples [lo, hi), the same bits as
        axis[lo:hi]."""
        m = self.half_cells
        return np.arange(lo - m, hi - m, dtype=np.float64) * self.spacing

    def coord_to_index(self, coords: np.ndarray) -> np.ndarray:
        """Nearest-sample index per coordinate (float array in, int array out)."""
        return np.rint((np.asarray(coords, dtype=np.float64) + self.halfwidth) / self.spacing).astype(np.int64)

    def index_to_coord(self, idx: np.ndarray) -> np.ndarray:
        return np.asarray(idx, dtype=np.float64) * self.spacing - self.halfwidth

    def compatible(self, other: "Grid") -> bool:
        return (
            self.half_cells == other.half_cells
            and abs(self.spacing - other.spacing) <= _IDX_TOL * self.spacing
        )


def _nonzero_span(v: np.ndarray) -> tuple[int, int]:
    """[a, b): from the first to past the last sample of v whose bits are
    not those of +0.0 (so -0.0 counts), or (0, 0) when there is none."""
    kept = v.view(np.uint64) != 0
    if not kept.any():
        return 0, 0
    return int(np.argmax(kept)), kept.size - int(np.argmax(kept[::-1]))


class GridFunction:
    """Real samples on a grid, held on their window [lo, hi): every sample
    outside it is the background b, and the window starts and ends on a
    sample that is not +0.0 (-0.0 counts as non-zero, so the dense samples
    come back bit for bit).  Values are float64 and finite.

    GridFunction(grid, values) takes all the samples and finds the window;
    GridFunction(grid, values, lo=lo) takes the samples of [lo, lo +
    len(values)) and trims that to the window; both have b = +0.0.
    GridFunction.constant(grid, b) is an empty window over b, so no
    function has both a window and a non-zero b.  ``window`` is the
    samples on [lo, hi), ``values`` the dense samples, built on each read
    and read-only.
    """

    __slots__ = ("grid", "lo", "hi", "window", "background")

    def __init__(self, grid: Grid, values: np.ndarray, lo: int | None = None):
        v = np.asarray(values, dtype=np.float64)
        if lo is None:
            if v.shape != grid.shape:
                raise ConfigError(f"value shape {v.shape} does not match grid shape {grid.shape}")
            lo = 0
        elif v.ndim != 1 or not 0 <= lo <= grid.size - v.size:
            raise ConfigError(f"a window of {v.shape} samples at {lo} leaves the grid's {grid.size}")
        if not np.all(np.isfinite(v)):
            raise ConfigError("grid function values must be finite")
        a, b = _nonzero_span(v)
        self.grid = grid
        self.lo, self.hi = (lo + a, lo + b) if b else (0, 0)
        self.window = v[a:b]
        self.background = 0.0

    @staticmethod
    def constant(grid: Grid, b: float) -> "GridFunction":
        """The constant b, finite (a zero b is +0.0)."""
        if not math.isfinite(b):
            raise ConfigError(f"a constant must be finite, got {b}")
        f = GridFunction(grid, np.empty(0), lo=0)
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
        """All the samples, read-only: a view of a window that is the whole
        grid, else a new array."""
        if self.hi - self.lo == self.grid.size:
            out = self.window.view()
        else:
            out = self._filled(self.grid.size)
            out[self.lo : self.hi] = self.window
        out.flags.writeable = False
        return out

    def on(self, a: int, b: int) -> np.ndarray:
        """The samples of [a, b) (0 <= a <= b <= size): a view of the window
        when it holds them, else a new array, b outside the window."""
        if self.lo <= a and b <= self.hi:
            return self.window[a - self.lo : b - self.lo]
        out = self._filled(b - a)
        i, j = max(a, self.lo), min(b, self.hi)
        if i < j:
            out[i - a : j - a] = self.window[i - self.lo : j - self.lo]
        return out

    def at(self, idx: np.ndarray) -> np.ndarray:
        """The samples at the index array idx."""
        inside = (idx >= self.lo) & (idx < self.hi)
        out = self._filled(idx.shape[0])
        out[inside] = self.window[idx[inside] - self.lo]
        return out

    def truncated(self, a: int, b: int) -> "GridFunction":
        """f on the samples [a, b), zero outside."""
        lo, hi = self.span
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            return GridFunction(self.grid, np.empty(0), lo=0)
        return GridFunction(self.grid, self.on(a, b), lo=a)

    def sup_outside(self, a: int, b: int) -> float:
        """sup |f| over the samples outside [a, b), 0.0 when there is none.
        f is +0.0 outside its span, so only the span's part of the two
        outside slices is read."""
        outside = (self.truncated(0, a).window, self.truncated(b, self.grid.size).window)
        # sup |x| = max(x.max(), -x.min()) needs no |x| array; abs() clears
        # the sign of a zero
        return abs(float(max(max(x.max(initial=0.0), -x.min(initial=0.0)) for x in outside)))

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
        return GridFunction(grid, np.asarray(fn(grid.coords(lo, hi)), dtype=np.float64), lo=lo)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        """f - g on the union of the two spans: dense when either is a
        non-zero constant."""
        if not self.grid.compatible(other.grid):
            raise GridMismatchError("grid functions live on different grids")
        spans = [f.span for f in (self, other) if f.span[0] < f.span[1]] or [(0, 0)]
        a, b = min(lo for lo, _ in spans), max(hi for _, hi in spans)
        return GridFunction(self.grid, self.on(a, b) - other.on(a, b), lo=a)


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
    """Prefix sums P[i] = sum(values[:i]) of a row of samples, or of each
    row of a (k, samples) stack (of their squares with square=True, made
    in the table's buffer), serving the sums over balls of one cell radius
    m centered on a run of samples: samples c - m + 1 .. c + m - 1 sum to
    P[c + m] - P[c - m + 1], so a run start:stop:step reads two slices of
    P with that step.

    The table is built on a window [lo, hi) only: P is exactly 0 up to lo
    and exactly the row's total from hi on, so it stores P[lo..hi] and
    reads the constant ends where a run leaves them (``prefix``).  A ball
    that misses the window sums to 0 - 0 or S - S, which is 0.0.
    """

    def __init__(self, grid: Grid, values: np.ndarray, lo: int | None = None, square: bool = False):
        """values: a row or a stack of rows of all the samples, or with lo,
        of those of [lo, lo + values.shape[-1])."""
        self.grid = grid
        v = np.asarray(values, dtype=np.float64)
        n = v.shape[-1] if v.ndim in (1, 2) else -1
        self.lo = 0 if lo is None else lo
        self.hi = self.lo + n
        if n < 0 or not 0 <= self.lo <= self.hi <= grid.size or (lo is None and n != grid.size):
            raise ConfigError("summed table shape mismatch")
        self._p = np.zeros(v.shape[:-1] + (n + 1,))
        self._fill(v, square)

    def _fill(self, values: np.ndarray, square: bool) -> None:
        """Make this the table of values (or of their squares) in place."""
        p = self._p[..., 1:]
        if square:
            values = np.square(values, out=p)
        np.cumsum(values, axis=-1, out=p)

    def meeting(self, run: range, cell_radius: int) -> range:
        """The positions in run of the centers whose balls of cell radius m
        meet the window, c in [lo - m + 1, hi + m - 1); a slice of run."""
        if self.lo == self.hi:
            return range(0)
        m, start, step = int(cell_radius), run.start, run.step
        first = -((start - (self.lo - m + 1)) // step)  # ceil((lo - m + 1 - start) / step)
        end = -((start - (self.hi + m - 1)) // step)
        return range(min(max(first, 0), len(run)), min(max(end, 0), len(run)))

    def prefix(self, start: int, count: int, step: int, rows: int | None = None) -> np.ndarray:
        """P at start, start + step, ... (count of them, step >= 1) of every
        row, or of a stack's first rows: a strided view of the stored prefix when
        they all fall in [lo, hi], else a new array with the constant ends
        filled in."""
        p, s = self._p[:rows], start - self.lo
        last = s + (count - 1) * step
        if s >= 0 and last < p.shape[-1]:
            return p[..., s : last + 1 : step]
        out = np.empty(p.shape[:-1] + (count,))
        j0 = min(max(-(s // step), 0), count)  # the reads left of lo
        j1 = min(max((p.shape[-1] - 1 - s) // step + 1, j0), count)  # and up to hi
        out[..., :j0] = 0.0
        if j0 < j1:
            out[..., j0:j1] = p[..., s + j0 * step : s + (j1 - 1) * step + 1 : step]
        out[..., j1:] = p[..., -1:]
        return out

    def ball_sum(self, run: range, cell_radius: int, out: np.ndarray | None = None, rows: int | None = None) -> np.ndarray:
        """Sum over samples strictly inside B(c, cell_radius * h) for each
        center sample index c of run (a range with a positive step), of
        every row or of a stack's first rows, written into out when given.  The
        strict-inside offsets are |k| <= cell_radius - 1 in integer
        arithmetic, so this path has no float membership fuzz; a ball
        reaching past the samples raises OutOfDomainError."""
        m = int(cell_radius)
        if m < 1 or run.step < 1:
            raise ConfigError("ball sums need a cell radius >= 1 and an ascending run")
        if len(run) and (run.start - m + 1 < 0 or run[-1] + m > self.grid.size):
            raise OutOfDomainError(f"balls of cell radius {m} over {run} leave the samples")
        n, step = len(run), run.step
        return np.subtract(self.prefix(run.start + m, n, step, rows), self.prefix(run.start - m + 1, n, step, rows),
                           out=out)


# ---------------------------------------------------------------------------
# sups over held runs


def segment_sups(values: np.ndarray, runs, fill: float, cuts: np.ndarray) -> np.ndarray:
    """The sup over each segment cuts[i] .. cuts[i + 1] - 1 (non-decreasing
    cuts) of a sequence whose indices in the runs (ascending, disjoint
    ranges of step 1) hold values in order and whose other indices hold
    fill, or -inf for an empty segment.  The number of held indices before
    an index is piecewise linear in it, slope 1 over the runs and 0
    elsewhere, so the segments' held parts tile a run of values and one
    reduceat reads them all; a segment with fewer held indices than
    indices holds the fill too."""
    x, c, n = [0], [0], 0
    for r in runs:
        if r:
            if r.start == x[-1]:  # np.interp needs distinct breakpoints; this run continues the last
                del x[-1], c[-1]
            x, c, n = x + [r.start, r.stop], c + [n, n + len(r)], n + len(r)
    c = np.interp(cuts, x, c).astype(np.intp)
    held = c[1:] - c[:-1]
    out = np.where(cuts[1:] - cuts[:-1] > held, fill, -np.inf)
    if held.any():
        got = held > 0
        out[got] = np.maximum(out[got], np.maximum.reduceat(values[c[0] : c[-1]], c[:-1][got] - c[0]))
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
