"""Tent-space functionals on half-space samples.

The primary region over a ball B(c, r) is the cylinder B x (0, r], whose
integrals family_box_values gives for every ball of a family in one scan;
a strict-tent oracle (points with |y - c| < r - t) is kept for
cross-checks.  All dt/t integrals use trapezoid weights in log t
recomputed on the truncated ladder prefix, and all spatial sums count
samples strictly inside the ball times h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import (
    ConfigError,
    DegenerateRegionError,
    LadderError,
    OutOfDomainError,
)
from .family import PLAIN_MODES, BallFamily, LimitCurve, bucketed_sup
from .grid import Ball, GridFunction, SummedTable, ball_member_values
from .oscillation import OscillationReport, _sup_report, scan_radius_blocks
from .semigroup import (
    HalfSpaceFunction,
    SpectralOperator,
    TLadder,
    interior_index_window,
    log_weights_for,
    poisson,
    square_function_field,
)


class BoxScanner:
    """Prefix tables of |F|^2 per ladder slice, serving cylinder sums."""

    def __init__(self, F: HalfSpaceFunction):
        self.F = F
        self.grid = F.grid
        self.tables = [SummedTable(self.grid, F.values[j] ** 2) for j in range(len(F.ladder))]

    def _slice_count(self, r: float) -> int:
        t = self.F.ladder.values
        if r < t[0] * (1 - 1e-9):
            raise LadderError(f"ball radius {r} lies below the smallest scale {t[0]}")
        if r > t[-1] * (1 + 1e-9):
            raise LadderError(f"ball radius {r} exceeds the largest scale {t[-1]}")
        return int(np.searchsorted(t, r * (1 + 1e-12), side="right"))

    def box_values(self, run: range, cell_radius: int, r: float) -> np.ndarray:
        """r^{-1} * sum over the cylinder of |F|^2 h dt/t for the balls of
        radius r centered on the sample indices of run."""
        k = self._slice_count(r)
        w = log_weights_for(self.F.ladder.values[:k])
        total = np.zeros(len(run))
        for j in range(k):
            total += w[j] * self.tables[j].ball_sum(run, cell_radius)
        return total * self.grid.cell_volume / r


def carleson_box_strict_tent(F: HalfSpaceFunction, ball: Ball) -> float:
    """Oracle of family_box_values: the same integral over the strict tent
    {(y, t): |y - c| < r - t} of one ball, for any center.

    Always <= the cylinder value for the same F.  Slow path only.
    """
    g = F.grid
    if not ball.inside_box(g):
        raise OutOfDomainError("tent ball touches or leaves the box")
    t = F.ladder.values
    k = int(np.searchsorted(t, ball.radius * (1 + 1e-12), side="right"))
    if k == 0:
        raise LadderError(f"ball radius {ball.radius} lies below the smallest scale")
    w = log_weights_for(t[:k])
    total = 0.0
    for j in range(k):
        shrunk = ball.radius - t[j]
        if shrunk <= 0:
            continue
        b = Ball(ball.center, shrunk)
        vals = ball_member_values(GridFunction(g, F.values[j]), b)
        total += w[j] * float(np.sum(vals**2))
    return total * g.cell_volume / ball.radius


def family_box_values(F: HalfSpaceFunction, family: BallFamily) -> np.ndarray:
    """Cylinder integrals for every family ball (shared prefix tables)."""
    if not F.grid.compatible(family.grid):
        raise ConfigError("field and family grids differ")
    return scan_radius_blocks(family, BoxScanner(F).box_values)


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class ConeField:
    """A(F) on the grid plus a per-sample truncation mark (cone clipped by
    the box before reaching the top scale)."""

    values: GridFunction
    truncated: np.ndarray


def cone_square_function(F: HalfSpaceFunction) -> ConeField:
    """A(F)(x) = (sum_j |F(y, t_j)|^2 h w_j / t_j over |y - x| < t_j)^(1/2)
    at every grid sample, aperture 1.
    """
    g = F.grid
    h = g.spacing
    t = F.ladder.values
    w = F.ladder.log_weights
    n_ax = g.axis_count
    acc = np.zeros(g.shape)
    truncated = np.zeros(g.shape, dtype=bool)
    for j, tj in enumerate(t):
        kmax = math.ceil(tj / h - 1e-9) - 1
        sq = F.values[j] ** 2
        p = np.zeros(n_ax + 1)
        np.cumsum(sq, out=p[1:])
        i = np.arange(n_ax)
        lo = i - kmax
        hi = i + kmax
        clipped = (lo < 0) | (hi > n_ax - 1)
        truncated |= clipped
        lo = np.clip(lo, 0, n_ax - 1)
        hi = np.clip(hi, 0, n_ax - 1)
        acc += (p[hi + 1] - p[lo]) * (h * w[j] / tj)
    vals = GridFunction(g, np.sqrt(np.maximum(acc, 0.0)))
    return ConeField(vals, truncated)


@dataclass(frozen=True)
class TentNormReport:
    p: float
    value: float
    truncated_fraction: float


def t2p_norm(F: HalfSpaceFunction, p: float) -> TentNormReport:
    """Tent-space norm for finite p: the L^p norm of the cone functional.
    For p = inf take ``hmo_norm`` of the family's per-ball Carleson values."""
    if not (0 < p < math.inf):
        raise ConfigError(f"tent exponent must be positive and finite, got {p}")
    cone = cone_square_function(F)
    a = cone.values.values
    val = float(np.sum(a**p) * F.grid.cell_volume) ** (1.0 / p)
    frac = float(np.mean(cone.truncated))
    return TentNormReport(p, val, frac)


# ---------------------------------------------------------------------------
# Carleson norms and curves, reduced from one scan's per-ball values


def hmo_norm(carleson: np.ndarray) -> OscillationReport:
    """sup over the family of the per-ball Carleson values
    sqrt(family_box_values(G, family)), with its ball.  For G the scaled
    gradient of the Poisson extension this is the HMO norm; for the
    square-function field it is the T^{2,inf} tent norm."""
    return _sup_report(carleson)


def tent_curves(carleson: np.ndarray, family: BallFamily) -> dict[str, LimitCurve]:
    """Limit curves of the per-ball Carleson values in the three plain
    modes."""
    return {mode: bucketed_sup(carleson, family, mode) for mode in PLAIN_MODES}


def gradient_carleson_curves(carleson: np.ndarray, family: BallFamily) -> dict[str, LimitCurve]:
    """tent_curves of the extension's scaled-gradient Carleson values."""
    return tent_curves(carleson, family)


# ---------------------------------------------------------------------------
# dilate oscillation and the box comparison


@dataclass(frozen=True)
class DilateOscillation:
    value: float
    n_subballs: int
    clipped: bool


def dilate_oscillation(
    f: GridFunction,
    op: SpectralOperator,
    ball: Ball,
    k: int,
    clip: bool = False,
    _diff_tables: dict | None = None,
) -> DilateOscillation:
    """sup over sub-balls B' of the k-th dilate of the semigroup
    oscillation (mean over B' of (f - e^{-r' sqrt(L)} f)^2)^(1/2).

    Sub-balls: centers on the r/4 lattice inside the dilate of factor
    2^(k+2), radii r' in {r/2, r, 2r}.  With clip=False a dilate escaping
    the box raises; clip=True intersects the search region with the box
    and marks the result.
    """
    g = f.grid
    if k < 0:
        raise ConfigError("dilate index must be >= 0")
    r = ball.radius
    c = ball.center[0]
    reach = 2.0 ** (k + 2) * r
    lim = g.halfwidth - g.spacing / 4.0
    clipped = abs(c) + reach >= lim
    if clipped and not clip:
        raise OutOfDomainError(
            f"dilate 2^{k + 2} B of B({c}, {r}) escapes the box; "
            "pass clip=True to intersect it with the box"
        )
    h = g.spacing
    best = -math.inf
    n_used = 0
    for r_raw in (r / 2.0, r, 2.0 * r):
        rp = max(h, round(r_raw / h) * h)
        if _diff_tables is not None and rp in _diff_tables:
            table = _diff_tables[rp]
        else:
            diff = f.values - poisson(op, f, rp).values
            table = SummedTable(g, diff**2)
            if _diff_tables is not None:
                _diff_tables[rp] = table
        # admissible centers: |c' - c| + r' <= reach, ball inside the box;
        # they step from c's sample by the r/4 stride in samples, so the
        # ones inside the box are one run
        span = reach - rp
        if span < 0:
            continue
        step = max(1, round(r / 4.0 / h))
        reach_steps = math.floor(span / (step * h) + 1e-9)
        ci = int(g.coord_to_index(c)) + step * np.arange(-reach_steps, reach_steps + 1)
        ci = ci[np.abs(g.index_to_coord(ci)) + rp < lim]
        if ci.size == 0:
            continue
        m = int(round(rp / h))
        sums = table.ball_sum(range(int(ci[0]), int(ci[-1]) + 1, step), m)
        val = math.sqrt(max(0.0, float(np.max(sums)) / (2 * m - 1)))
        n_used += ci.size
        best = max(best, val)
    if n_used == 0:
        raise DegenerateRegionError("no admissible sub-ball in the dilate")
    return DilateOscillation(best, n_used, clipped)


@dataclass(frozen=True)
class BoxOscillationReport:
    """Comparison of the cylinder square-function average on a ball with
    the weighted sum of dilate oscillations.

    lhs = ( |B|^{-1} * integral over B x (0, r] of |t sqrt(L) e^{-t sqrt(L)} f|^2 dx dt/t )^(1/2)
    rhs = sum_{k<=k_max} 2^{-k} * dilate_oscillation_k, plus a recorded tail
    allowance tail = 2^{-k_max} * norm_hint for the discarded scales.
    """

    lhs: float
    rhs: float
    tail: float
    ratio: float
    per_k: tuple[float, ...]
    clipped: bool


def box_oscillation_ratio(
    f: GridFunction,
    op: SpectralOperator,
    ball: Ball,
    k_max: int,
    box: float,
    norm_hint: float = 0.0,
    clip: bool = False,
) -> BoxOscillationReport:
    """Measure lhs / (rhs + tail) for one family ball; values <= 1 up to a
    modest constant are the expected regime.  box is the ball's entry of
    family_box_values(F, family), F the square-function field of f under
    op: one scan serves every ball of a sweep."""
    if k_max < 0:
        raise ConfigError("k_max must be >= 0")
    h = f.grid.spacing
    # convert r^{-1} normalisation to |B|^{-1}: 2m - 1 samples of cell radius m
    vol = (2 * round(ball.radius / h) - 1) * h
    lhs = math.sqrt(box * ball.radius / vol)
    cache: dict = {}
    per_k = []
    clipped_any = False
    for k in range(k_max + 1):
        d = dilate_oscillation(f, op, ball, k, clip=clip, _diff_tables=cache)
        clipped_any |= d.clipped
        per_k.append(d.value)
    rhs = float(sum(2.0**-k * v for k, v in enumerate(per_k)))
    tail = 2.0**-k_max * norm_hint
    denom = rhs + tail
    ratio = lhs / denom if denom > 0 else math.inf
    return BoxOscillationReport(lhs, rhs, tail, ratio, tuple(per_k), clipped_any)


# ---------------------------------------------------------------------------
# reproducing pairing


@dataclass(frozen=True)
class PairingReport:
    direct: float
    tent: float
    rel_error: float
    support_ok: bool


def reproducing_pairing_check(
    f: GridFunction,
    g_fn: GridFunction,
    op: SpectralOperator,
    ladder: TLadder,
    window: float = 1.0 / 3.0,
) -> PairingReport:
    """Compare integral of f * g with
    4 * double integral of (t sqrt(L) e^{-t sqrt(L)} f)(t sqrt(L) e^{-t sqrt(L)} g) dx dt/t.

    The identity holds for wall-vanishing data once the ladder covers the
    spectral scales; support_ok records whether both inputs live in the
    interior_index_window (outside it, wall effects pollute the comparison).
    """
    grid = f.grid
    if not grid.compatible(g_fn.grid) or not grid.compatible(op.grid):
        raise ConfigError("pairing inputs live on different grids")
    direct = float(np.sum(f.values * g_fn.values) * grid.cell_volume)
    Ff = square_function_field(op, f, ladder)
    Fg = square_function_field(op, g_fn, ladder)
    w = ladder.log_weights
    tent = 0.0
    for j in range(len(ladder)):
        tent += w[j] * float(np.sum(Ff.values[j] * Fg.values[j]))
    tent *= 4.0 * grid.cell_volume
    denom = max(abs(direct), 1e-300)
    outside = np.delete(np.stack((f.values, g_fn.values)), interior_index_window(grid, window), axis=1)
    sup_out = float(np.max(np.abs(outside), initial=0.0))
    return PairingReport(direct, tent, abs(tent - direct) / denom, sup_out <= 1e-12)
