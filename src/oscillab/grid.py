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

Ball sums are served from prefix-sum tables.  A family scan asks for the
balls of one radius over a run of centers at one index step, so each
block's sums are the difference of two strided slices of the table.  The
ball means of f and of f^2 become the oscillation and the size in one
place, oscillation_and_size.  The naive per-ball member values, the
oracle of the tables, live with the tests (tests/oracles.py).
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
    def axis_count(self) -> int:
        return 2 * self.half_cells + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.axis_count,)

    @property
    def size(self) -> int:
        return self.axis_count

    @property
    def cell_volume(self) -> float:
        return self.spacing

    @property
    def axis(self) -> np.ndarray:
        """Sample coordinates, -X..X inclusive."""
        m = self.half_cells
        return np.arange(-m, m + 1, dtype=np.float64) * self.spacing

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


@dataclass(frozen=True)
class GridFunction:
    """Real samples on a grid.  Values are float64 and finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ConfigError(
                f"value shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("grid function values must be finite")
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_callable(grid: Grid, fn) -> "GridFunction":
        return GridFunction(grid, np.asarray(fn(grid.axis), dtype=np.float64))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if not self.grid.compatible(other.grid):
            raise GridMismatchError("grid functions live on different grids")
        return GridFunction(self.grid, self.values - other.values)


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
    """Prefix sums P[i] = sum(values[:i]) of one value array, serving the
    sums over balls of one cell radius m centered on a run of samples:
    samples c - m + 1 .. c + m - 1 sum to P[c + m] - P[c - m + 1], so a
    run start:stop:step reads two slices of P with that step.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        v = np.asarray(values, dtype=np.float64)
        if v.shape != grid.shape:
            raise ConfigError("summed table shape mismatch")
        p = np.zeros(v.shape[0] + 1)
        np.cumsum(v, out=p[1:])
        self._p = p

    def _refill_squares(self, values: np.ndarray) -> None:
        """Make this the table of values**2, reusing the buffer: the squares
        are written into it and summed in place."""
        np.square(values, out=self._p[1:])
        np.cumsum(self._p[1:], out=self._p[1:])

    def ball_sum(self, run: range, cell_radius: int, out: np.ndarray | None = None) -> np.ndarray:
        """Sum over samples strictly inside B(c, cell_radius * h) for each
        center sample index c of run (a range with a positive step),
        written into out when given.  The strict-inside offsets are
        |k| <= cell_radius - 1 in integer arithmetic, so this path has no
        float membership fuzz; a ball reaching past the samples raises
        OutOfDomainError."""
        m = int(cell_radius)
        p = self._p
        if m < 1 or run.step < 1:
            raise ConfigError("ball sums need a cell radius >= 1 and an ascending run")
        if len(run) and (run.start - m + 1 < 0 or run[-1] + m >= p.shape[0]):
            raise OutOfDomainError(f"balls of cell radius {m} over {run} leave the samples")
        return np.subtract(
            p[run.start + m : run.stop + m : run.step],
            p[run.start - m + 1 : run.stop - m + 1 : run.step],
            out=out,
        )


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
