"""Tent-space functionals on half-space samples.

The region over a ball B(c, r) is the cylinder B x (0, r], whose
integrals family_box_values gives for every ball of a family in one scan.
A box's slices and their dt/t weights are TLadder.box_weights(r), the
trapezoid in log t on the scales t_j <= r, and all spatial sums count
samples strictly inside the ball times h.  The strict-tent box and the
dilate-oscillation comparison of criterion 8, which only tests run, live
in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError
from .family import PLAIN_MODES, BallFamily, BallValues, LimitCurve, bucketed_sup
from .grid import GridFunction, same_grid
from .oscillation import OscillationReport, _sup_report
from .semigroup import (
    HalfSpaceFunction,
    SpectralOperator,
    TLadder,
    interior_index_window,
    square_function_blocks,
)


class BoxScanner:
    """Cylinder sums from F's |F|^2 table, a row per ladder slice: a box
    of radius r reads the table's first rows, one per weight of
    F.ladder.box_weights(r)."""

    def __init__(self, F: HalfSpaceFunction):
        self.F = F

    def box_values(self, run: range, cell_radius: int, r: float) -> np.ndarray:
        """r^{-1} * sum over the cylinder of |F|^2 h dt/t for the balls of
        radius r centered on the sample indices of run: the ball sums of
        the box's slices times their weights, summed in ladder order."""
        w = self.F.ladder.box_weights(r)
        sums = self.F.table.ball_sum(run, cell_radius, rows=slice(w.size))
        sums *= w[:, None]
        return np.add.reduce(sums, axis=0) * self.F.grid.spacing / r


def family_box_values(F: HalfSpaceFunction, family: BallFamily) -> np.ndarray:
    """Cylinder integrals for every family ball (F's one prefix table), one
    box_values call per radius block."""
    same_grid(F.grid, family.grid)
    scanner = BoxScanner(F)
    out = np.empty(len(family))
    for b in family.blocks:
        out[b.start : b.stop] = scanner.box_values(b.run, b.cell_radius, b.radius)
    return out


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class ConeField:
    """A(F) on the grid plus a per-sample truncation mark (cone clipped by
    the box before reaching the top scale)."""

    values: np.ndarray
    truncated: np.ndarray


def cone_square_function(F: HalfSpaceFunction) -> ConeField:
    """A(F)(x) = (sum_j |F(y, t_j)|^2 h w_j / t_j over |y - x| < t_j)^(1/2)
    at every grid sample, aperture 1.

    The cone's slice t_j over every sample is a row of balls of cell
    radius k + 1, k = ceil(t_j / h) - 1, read from row j of F's |F|^2
    table (the one the Carleson boxes read) through its constant ends, so
    a ball that leaves the box sums the samples inside it; those samples
    are marked truncated.
    """
    g = F.grid
    h, n = g.spacing, g.size
    w = F.ladder.log_weights
    acc = np.zeros(g.shape)
    truncated = np.zeros(g.shape, dtype=bool)
    for j, tj in enumerate(F.ladder.values):
        kmax = math.ceil(tj / h - 1e-9) - 1
        if kmax > 0:
            truncated[:kmax] = truncated[n - kmax :] = True
        acc += (F.table.prefix(range(kmax + 1, kmax + 1 + n), j) - F.table.prefix(range(-kmax, n - kmax), j)) * (h * w[j] / tj)
    return ConeField(np.sqrt(np.maximum(acc, 0.0)), truncated)


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
    val = float(np.sum(cone.values**p) * F.grid.spacing) ** (1.0 / p)
    frac = float(np.mean(cone.truncated))
    return TentNormReport(p, val, frac)


# ---------------------------------------------------------------------------
# Carleson norms and curves, reduced from one scan's per-ball values


def hmo_norm(carleson: np.ndarray, family: BallFamily) -> OscillationReport:
    """sup over the family of the per-ball Carleson values
    sqrt(family_box_values(G, family)), with its ball.  For G the scaled
    gradient of the Poisson extension this is the HMO norm; for the
    square-function field it is the T^{2,inf} tent norm."""
    return _sup_report(BallValues.whole(family, carleson))


def tent_curves(carleson: np.ndarray, family: BallFamily) -> dict[str, LimitCurve]:
    """Limit curves of the per-ball Carleson values in the three plain
    modes."""
    vals = BallValues.whole(family, carleson)
    return {mode: bucketed_sup(vals, mode) for mode in PLAIN_MODES}


def gradient_carleson_curves(carleson: np.ndarray, family: BallFamily) -> dict[str, LimitCurve]:
    """tent_curves of the extension's scaled-gradient Carleson values."""
    return tent_curves(carleson, family)


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
    grid = same_grid(f.grid, g_fn.grid, op.grid)
    fv, gv = f.values, g_fn.values
    direct = float(np.sum(fv * gv) * grid.spacing)
    # the two fields a block of slices at a time; the same samples (bit
    # for bit) give the same field, built once
    if np.array_equal(fv.view(np.uint64), gv.view(np.uint64)):
        blocks = ((b, b) for b in square_function_blocks(op, f, ladder))
    else:
        blocks = zip(square_function_blocks(op, f, ladder), square_function_blocks(op, g_fn, ladder))
    w = ladder.log_weights
    tent = 0.0
    for (rows, Ff), (_, Fg) in blocks:
        for j, a, b in zip(range(len(ladder))[rows], Ff, Fg):
            tent += w[j] * float(np.sum(a * b))
    tent *= 4.0 * grid.spacing
    denom = max(abs(direct), 1e-300)
    a, b = interior_index_window(grid, window)
    sup_out = max(h.sup_outside(a, b) for h in (f, g_fn))
    return PairingReport(direct, tent, abs(tent - direct) / denom, sup_out <= 1e-12)
