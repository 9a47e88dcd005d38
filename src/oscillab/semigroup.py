"""Spectral discretization of -Laplacian + c and its functional calculus.

The operator is the standard second-difference Laplacian plus a constant
potential c >= 0, with homogeneous Dirichlet walls exactly at the box faces;
the unknowns are the interior samples.  Its eigenbasis is the discrete
sines, so the orthonormal DST-I diagonalises it exactly and the eigenvalues
have the closed form c + (4/h^2) sin^2(k pi / (2(M+1))).  Apply psi means
f -> S psi(sqrt(lambda)) S f  on the interior, zero at the walls, where S
is the DST-I matrix (symmetric and its own inverse).

The DST-I of x (length M) is the negated imaginary part of the real FFT of
its odd extension [0, x, 0, -x reversed] (length 2(M+1)), bins 1..M, times
1/sqrt(2(M+1)) (Martucci 1994).  numpy's real FFT is pocketfft; with the
factor taken in long double, as pocketfft's own orthonormal DST-I takes
it, the two transforms agree bit for bit.  Every function of L at a
ladder of scales, psi(t sqrt(L)) f, is made by SpectralOperator.scale_rows:
one coefficients call, then a synthesize call per psi on each block of
scales, so that each block's extension stays cache-sized.  The half-space
fields below and the semigroup oscillation (oscillation.py) read it, and
no other module touches the sine basis.

apply_spectral takes one psi to one function; the scenarios take whole
sets of scales at once through scale_rows, so no scenario calls it.  The
single-time heat and Poisson semigroups e^{-tL} and e^{-t sqrt(L)} of the
tests (tests/oracles.py) are apply_spectral calls, and the benchmark
tracer's semigroup.apply span wraps it.  The Poisson
extension is read only through |t grad u|, the scalar whose Carleson
boxes characterize CMO, so poisson_extension returns that field alone.

Half-space objects (functions of (x, t) with t on a geometric ladder) carry
their ladder with them; integrals in dt/t use trapezoid weights in log t,
which is superalgebraically accurate for the smooth integrands that appear
here.  Those weights are TLadder.log_weights and, over a Carleson box's
slices, TLadder.box_weights, which the box scans and the plan both call.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, LadderError
from .grid import Grid, GridFunction, SummedTable, same_grid
from .potential import Potential

DEFAULT_OP_CAP = 4096

# bytes of odd extension that one block of scale rows transforms at once
_LADDER_BLOCK_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# scale ladders


class _TLadderFields(NamedTuple):
    values: np.ndarray


class TLadder(_TLadderFields):
    """Ascending positive finite scales t_1 < ... < t_m, with the dt/t
    weights of the whole ladder and of a Carleson box's slices."""

    # no __slots__: log_weights is cached in the instance dict

    def __new__(cls, values: np.ndarray) -> "TLadder":
        v = np.asarray(values, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise ConfigError("empty scale ladder")
        if not np.all(np.isfinite(v)) or np.any(v <= 0) or np.any(np.diff(v) <= 0):
            raise ConfigError("ladder values must be finite, positive and strictly increasing")
        return super().__new__(cls, v)

    @staticmethod
    def geometric(t_min: float, t_max: float, per_decade: int = 16) -> "TLadder":
        if not (0 < t_min < t_max):
            raise ConfigError(f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
        if per_decade < 2:
            raise ConfigError("per_decade must be >= 2")
        count = int(math.floor(per_decade * math.log10(t_max / t_min))) + 1
        vals = t_min * 10.0 ** (np.arange(count) / per_decade)
        if vals[-1] < t_max * (1 - 1e-12):
            vals = np.append(vals, t_max)
        else:
            vals[-1] = t_max
        return TLadder(vals)

    def __len__(self) -> int:
        return self.values.size

    def box_weights(self, r: float) -> np.ndarray:
        """The dt/t trapezoid weights of the Carleson box of radius r: those
        of its slices, the scales t_j <= r to a relative 1e-12.  LadderError
        when r tops the ladder by more than a relative 1e-9, or fewer than
        two scales lie at or below it."""
        t = self.values
        if r > t[-1] * (1 + 1e-9):
            raise LadderError(f"box radius {r} lies above the ladder's top scale {t[-1]}")
        k = int(np.searchsorted(t, r * (1 + 1e-12), side="right"))
        if k < 2:
            raise LadderError(f"box radius {r} has {k} ladder scales at or below it; a dt/t trapezoid needs two")
        return log_weights_for(t[:k])

    @cached_property
    def log_weights(self) -> np.ndarray:
        """Trapezoid weights in log t: sum F(t_j) w_j ~ integral F dt/t."""
        return log_weights_for(self.values)


def log_weights_for(values: np.ndarray) -> np.ndarray:
    """Trapezoid weights in log t; fewer than two scales raise LadderError."""
    v = np.log(np.asarray(values, dtype=np.float64))
    if v.size < 2:
        raise LadderError(f"a dt/t trapezoid needs two scales, got {v.size}")
    w = np.empty_like(v)
    w[1:-1] = (v[2:] - v[:-2]) / 2.0
    w[0] = (v[1] - v[0]) / 2.0
    w[-1] = (v[-1] - v[-2]) / 2.0
    return w


def default_ladder(grid: Grid, per_decade: int = 16) -> TLadder:
    return TLadder.geometric(grid.spacing, grid.halfwidth / 4.0, per_decade)


# ---------------------------------------------------------------------------
# the sine transform


def dst1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along the last axis, into out when given."""
    n = x.shape[-1]
    ext = np.empty(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 0] = ext[..., n + 1] = 0.0
    ext[..., 1 : n + 1] = x
    np.negative(x[..., ::-1], out=ext[..., n + 2 :])
    scale = float(1 / np.sqrt(np.longdouble(2 * (n + 1))))
    # numpy loads its fft submodule on the first read of np.fft
    return np.multiply(np.fft.rfft(ext).imag[..., 1 : n + 1], -scale, out=out)


# ---------------------------------------------------------------------------
# the discrete operator


class SpectralOperator(NamedTuple):
    """The Dirichlet finite-difference operator in its sine eigenbasis.

    eigenvalues: (M,) ascending, all positive; M = number of interior
    samples.  Coefficient k belongs to the discrete sine of frequency k + 1.
    """

    grid: Grid
    eigenvalues: np.ndarray

    @property
    def interior_count(self) -> int:
        return self.eigenvalues.size

    def coefficients(self, f: GridFunction) -> np.ndarray:
        """The sine coefficients of f's interior samples."""
        same_grid(f.grid, self.grid)
        return dst1(f.values[1:-1])

    def synthesize(self, coef: np.ndarray) -> np.ndarray:
        """The samples of the function whose interior has sine coefficients
        coef, zero at the walls; each row of a 2-D coef is one function."""
        out = np.empty(coef.shape[:-1] + self.grid.shape)
        out[..., 0] = out[..., -1] = 0.0
        dst1(coef, out=out[..., 1:-1])
        return out

    def scale_rows(self, f: GridFunction, scales, *psis: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """psi(t, sqrt(L)) f for each psi at ascending scales t (a ladder's,
        or a family's radii), a cache-sized block of scales at a time:
        (rows, one block of samples per psi), with a row for each scale of
        the slice rows.  psi takes the block's scales as a column and
        sqrt(eigenvalues) as a row; one sine transform of f serves every
        block."""
        coef = self.coefficients(f)
        s = np.sqrt(self.eigenvalues)
        step = max(1, _LADDER_BLOCK_BYTES // (16 * (self.interior_count + 1)))
        t = np.asarray(scales, dtype=np.float64)[:, None]
        for i in range(0, t.shape[0], step):
            rows = slice(i, i + step)
            yield (rows, *[self.synthesize(psi(t[rows], s) * coef) for psi in psis])


def discretize(V: Potential, grid: Grid, cap: int = DEFAULT_OP_CAP) -> SpectralOperator:
    """-Laplacian_h + V with Dirichlet walls, for a constant V (zero too).

    cap bounds the grid's sample count (walls included), and with it the
    ladder x samples arrays of the half-space fields; exceeding it is a
    config error, not an OOM.  A power potential has no sine eigenbasis
    and is rejected.
    """
    if V.kind != "constant":
        raise ConfigError(f"the spectral operator takes a constant potential, not {V.kind!r}")
    m = grid.size - 2
    if m < 1:
        raise ConfigError("grid too small for an interior")
    if grid.size > cap:
        raise ConfigError(
            f"operator size {grid.size} exceeds the cap {cap}; "
            "raise the cap explicitly if this is intended"
        )
    k = np.arange(1, m + 1)
    lam = V.constant * V.amplitude + (4.0 / grid.spacing**2) * np.sin(k * math.pi / (2 * (m + 1))) ** 2
    return SpectralOperator(grid, lam)


# ---------------------------------------------------------------------------
# functional calculus


def apply_spectral(op: SpectralOperator, psi: Callable[[np.ndarray], np.ndarray], f: GridFunction) -> GridFunction:
    """psi(sqrt(L)) f.  psi receives the array of sqrt(eigenvalues)."""
    s = np.sqrt(op.eigenvalues)
    vals = np.asarray(psi(s), dtype=np.float64)
    if vals.shape != s.shape or not np.all(np.isfinite(vals)):
        raise ConfigError("psi must map the spectrum to finite values of the same shape")
    return GridFunction(op.grid, op.synthesize(vals * op.coefficients(f)))


# ---------------------------------------------------------------------------
# half-space fields


class _HalfSpaceFunctionFields(NamedTuple):
    grid: Grid
    ladder: TLadder
    values: np.ndarray


class HalfSpaceFunction(_HalfSpaceFunctionFields):
    """Samples of a function of (x, t): values[j] is the t_j slice."""

    # no __slots__: the |F|^2 table is cached in the instance dict

    def __new__(cls, grid: Grid, ladder: TLadder, values: np.ndarray) -> "HalfSpaceFunction":
        v = np.asarray(values, dtype=np.float64)
        expect = (len(ladder),) + grid.shape
        if v.shape != expect:
            raise ConfigError(f"half-space values shape {v.shape}, expected {expect}")
        return super().__new__(cls, grid, ladder, v)

    @cached_property
    def table(self) -> SummedTable:
        """|F|^2's SummedTable, a row per slice, which boxes and cone read."""
        return SummedTable(self.grid, [(0, self.values)], square=True)


def square_function_blocks(op: SpectralOperator, f: GridFunction, ladder: TLadder):
    """F(x, t) = t sqrt(L) e^{-t sqrt(L)} f one block of ladder slices at
    a time: (rows, the block's slices of F), in ladder order."""
    return op.scale_rows(f, ladder.values, lambda t, s: t * s * np.exp(-t * s))


def square_function_field(op: SpectralOperator, f: GridFunction, ladder: TLadder) -> HalfSpaceFunction:
    """F(x, t) = t sqrt(L) e^{-t sqrt(L)} f on the whole ladder."""
    out = np.empty((len(ladder),) + op.grid.shape)
    for rows, block in square_function_blocks(op, f, ladder):
        out[rows] = block
    return HalfSpaceFunction(op.grid, ladder, out)


def _ddx(values: np.ndarray, h: float) -> np.ndarray:
    """d/dx along the last axis: 4th-order central inside, 2nd-order at the
    edges (one-sided at the walls, central just inside them)."""
    out = np.empty_like(values)
    v = values
    out[..., 2:-2] = (v[..., :-4] - 8 * v[..., 1:-3] + 8 * v[..., 3:-1] - v[..., 4:]) / (12 * h)
    out[..., 1] = (v[..., 2] - v[..., 0]) / (2 * h)
    out[..., -2] = (v[..., -1] - v[..., -3]) / (2 * h)
    out[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * h)
    out[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * h)
    return out


def poisson_extension(op: SpectralOperator, f: GridFunction, ladder: TLadder) -> HalfSpaceFunction:
    """|t grad u| = sqrt((t du/dt)^2 + (t du/dx)^2) for u(x, t) = e^{-t sqrt(L)} f.

    t du/dt = -t sqrt(L) u is spectrally exact; t du/dx is t times _ddx of
    u.  Both are made one block of slices at a time, and the magnitude is
    written into the block's rows; a block's u and t du/dt are held only
    while its magnitude is taken."""
    out = np.empty((len(ladder),) + op.grid.shape)
    psis = (lambda t, s: np.exp(-t * s), lambda t, s: -t * s * np.exp(-t * s))
    for rows, u, G in op.scale_rows(f, ladder.values, *psis):
        gx = ladder.values[rows, None] * _ddx(u, op.grid.spacing)
        np.sqrt(G**2 + gx**2, out=out[rows])
    return HalfSpaceFunction(op.grid, ladder, out)


# ---------------------------------------------------------------------------
# interior windows


def interior_index_window(grid: Grid, window: float = 1.0 / 3.0) -> tuple[int, int]:
    """The samples a .. b - 1 with |x| <= window * halfwidth: those within
    K cells of the origin, K the largest cell count whose coordinate K h
    (as grid.axis computes it) is within the bound."""
    if not (0 < window <= 1):
        raise ConfigError("window fraction must lie in (0, 1]")
    bound, m = window * grid.halfwidth + 1e-12, grid.half_cells
    k = min(math.floor(bound / grid.spacing), m)
    while k < m and (k + 1) * grid.spacing <= bound:
        k += 1
    while k * grid.spacing > bound:
        k -= 1
    return m - k, m + k + 1
