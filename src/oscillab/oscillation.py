"""Oscillation functionals over ball families and their limit curves.

Two families of metrics, both quadratic as in the paper's BMO_L and CMO_L
norms:

* plain oscillation  (mean over B of |f - mean_B f|^2)^(1/2), and the
  supercritical size (mean over B of |f|^2)^(1/2);
* semigroup oscillation  (r^{-1} * integral over B of
  |f - e^{-r sqrt(L)} f|^2)^(1/2), where the subtraction applies the
  Poisson semigroup at time t = r exactly as the direct exponential
  e^{-r sqrt(lambda)} in the operator's sine basis (one sine transform of
  f, then one synthesis per distinct radius in the family);
  the subordination integral in the tests is only its oracle.

The norm that drives verdicts splits at the critical radius: oscillation
is measured on balls with r < rho(center), plain size on balls with
r >= rho(center); the two suprema are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LadderError
from .family import (
    PLAIN_MODES,
    SUPERCRITICAL_MODES,
    BallFamily,
    LimitCurve,
    bucketed_sup,
    supercritical_spans,
)
from .grid import GridFunction, SummedTable, oscillation_and_size
from .semigroup import SpectralOperator, TLadder

VERDICTS = ("VANISHING", "NONVANISHING", "INCONCLUSIVE")


# ---------------------------------------------------------------------------
# vectorised family scans


def scan_radius_blocks(family: BallFamily, block_values) -> np.ndarray:
    """Per-ball values from one call per radius block.

    block_values(run, cell_radius, radius) returns the values of the
    block's balls, whose center sample indices are the range run.
    """
    out = np.empty(len(family))
    for b in family.blocks:
        out[b.start : b.stop] = block_values(b.run, b.cell_radius, b.radius)
    return out


@dataclass(frozen=True)
class FamilyStats:
    """The 2-mean oscillation and the mean size (mean over B of
    |f|^2)^(1/2) of one function on each ball of one family, built once
    by family_stats; the norms and curves of the pair read it."""

    family: BallFamily
    oscillation: np.ndarray
    size: np.ndarray


def family_stats(f: GridFunction, family: BallFamily) -> FamilyStats:
    """One scan of f over the family: the ball means of f and of f^2 from
    one prefix table on f's window, each block's sums written into its
    slice and divided there by the 2m - 1 samples of a ball of cell radius
    m; a ball that misses the window has mean b and mean square b^2, for
    f's background b.  The table's buffer takes the squares once the sums
    of f are read.  The oscillation and the size are then made in place in
    the two buffers.  Besides f, one window-sized buffer is live."""
    if not f.grid.compatible(family.grid):
        raise ConfigError("function and family live on different grids")
    table = SummedTable(family.grid, f.window, f.lo)
    mean, mean_sq = np.empty(len(family)), np.empty(len(family))
    _ball_means(table, family, mean, f.background)
    table._refill_squares(f.window)
    _ball_means(table, family, mean_sq, f.background**2)
    del table
    return FamilyStats(family, *oscillation_and_size(mean, mean_sq))


def _ball_means(table: SummedTable, family: BallFamily, out: np.ndarray, fill: float) -> None:
    """Each ball's mean of the table's values, written into out: the balls
    that miss the table's window hold fill and are not read."""
    for b in family.blocks:
        block = out[b.start : b.stop]
        meet = table.meeting(b.run, b.cell_radius)
        block[: meet.start] = fill
        block[meet.stop :] = fill
        if meet:
            sums = table.ball_sum(b.run[meet.start : meet.stop], b.cell_radius, out=block[meet.start : meet.stop])
            np.divide(sums, 2 * b.cell_radius - 1, out=sums)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class OscillationReport:
    """The sup of a family's per-ball values: the value, the index of the
    ball attaining it, and the number of balls."""

    value: float
    arg_index: int
    n_balls: int


def _sup_report(per_ball: np.ndarray) -> OscillationReport:
    """The sup of one value per family ball, at its first attaining ball."""
    arg = int(np.argmax(per_ball))
    return OscillationReport(float(per_ball[arg]), arg, per_ball.size)


def bmo_norm(stats: FamilyStats) -> OscillationReport:
    """sup of the 2-mean oscillation over the scanned family."""
    return _sup_report(stats.oscillation)


@dataclass(frozen=True)
class SplitNormReport:
    """Norm split at the critical radius: subcritical oscillation plus
    supercritical size.  A part with no qualifying ball reports value 0 and
    present=False; the total is the sum of present parts."""

    value: float
    oscillation_part: float
    size_part: float
    oscillation_present: bool
    size_present: bool
    oscillation_arg: int
    size_arg: int
    n_balls: int


def bmo_l_norm(stats: FamilyStats, rho) -> SplitNormReport:
    """Critical-radius-adapted norm over the scanned family: sup
    oscillation over balls with r < rho(center) plus sup mean size over
    balls with r >= rho(center) (ties count as supercritical).  rho is a
    scalar, possibly +inf (no size part), or one reach per radius block
    (supercritical_spans).  Each block's supercritical balls are one run,
    so each part is the sup of its runs' sups, at the first ball
    attaining it."""
    osc, size = stats.oscillation, stats.size
    osc_at, size_at = [], []
    for block, a, b in supercritical_spans(stats.family, rho):
        osc_at += _arg_sup(osc, block.start, a) + _arg_sup(osc, b, block.stop)
        size_at += _arg_sup(size, a, b)
    osc_arg = osc_at[int(np.argmax(osc[osc_at]))] if osc_at else -1
    size_arg = size_at[int(np.argmax(size[size_at]))] if size_at else -1
    osc_part = float(osc[osc_arg]) if osc_at else 0.0
    size_part = float(size[size_arg]) if size_at else 0.0
    return SplitNormReport(
        osc_part + size_part,
        osc_part,
        size_part,
        bool(osc_at),
        bool(size_at),
        osc_arg,
        size_arg,
        len(stats.family),
    )


def _arg_sup(vals: np.ndarray, a: int, b: int) -> list[int]:
    """[the first ball of a .. b - 1 where vals attains its sup there], or
    [] for an empty run."""
    return [a + int(np.argmax(vals[a:b]))] if b > a else []


# ---------------------------------------------------------------------------
# semigroup oscillation


def semigroup_difference_values(
    f: GridFunction,
    op: SpectralOperator,
    family: BallFamily,
    ladder: TLadder,
) -> np.ndarray:
    """Per-ball (r^{-1} * sum over B of (f - e^{-r sqrt(L)} f)^2 h)^(1/2).

    One sine transform of f, then one synthesis of e^{-r sqrt(lambda)}
    times its coefficients per distinct radius.  Radii outside the
    ladder's range raise LadderError (the scale is not covered by the
    configured scale range)."""
    g = f.grid
    if not g.compatible(op.grid):
        raise ConfigError("function and operator grids differ")
    ladder.check_covers([b.radius for b in family.blocks])

    fv = f.values
    coef = op.coefficients(f)
    s = np.sqrt(op.eigenvalues)

    def block(run: range, m: int, r: float) -> np.ndarray:
        diff = fv - op.synthesize(np.exp(-r * s) * coef).values
        sums = SummedTable(g, diff**2).ball_sum(run, m)
        return np.sqrt(np.maximum(0.0, sums) * g.cell_volume / r)

    return scan_radius_blocks(family, block)


def tilde_bmo_l_norm(
    f: GridFunction,
    op: SpectralOperator,
    family: BallFamily,
    ladder: TLadder,
) -> OscillationReport:
    """sup over the family of the semigroup oscillation metric."""
    return _sup_report(semigroup_difference_values(f, op, family, ladder))


def semigroup_oscillation_curves(
    f: GridFunction,
    op: SpectralOperator,
    family: BallFamily,
    ladder: TLadder,
) -> dict[str, LimitCurve]:
    """Limit curves of the semigroup oscillation metric in the three plain
    modes (small-radius, large-radius, far-from-origin)."""
    vals = semigroup_difference_values(f, op, family, ladder)
    return {mode: bucketed_sup(vals, family, mode) for mode in PLAIN_MODES}


def oscillation_curves(stats: FamilyStats, rho) -> dict[str, LimitCurve]:
    """Limit curves over the scanned family of plain oscillation (the three
    plain modes) and of the supercritical size metric (the two
    supercritical modes).

    The first three curves use the 2-mean oscillation; the supercritical
    curves use (mean over B of |f|^2)^(1/2).
    """
    family = stats.family
    out = {mode: bucketed_sup(stats.oscillation, family, mode) for mode in PLAIN_MODES}
    for mode in SUPERCRITICAL_MODES:
        out[mode] = bucketed_sup(stats.size, family, mode, rho=rho)
    return out


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    verdict: str
    terminal: float
    initial: float
    decay_factor: float
    tol: float
    min_decay_factor: float
    n_present: int


def vanishing_verdict(
    curve: LimitCurve, tol: float, min_decay_factor: float = 4.0
) -> Verdict:
    """Classify a limit curve.

    VANISHING: terminal bucket <= tol and the curve decayed by at least
    min_decay_factor from its far end (a curve that is identically zero
    counts as decayed).  NONVANISHING: terminal >= 3 * tol with no decay
    trend.  Anything else: INCONCLUSIVE.  Requires >= 3 present buckets.
    """
    if tol < 0:
        raise ConfigError("tolerance must be >= 0")
    n_present = int(np.count_nonzero(curve.present))
    if n_present < 3:
        raise LadderError(
            f"verdict needs >= 3 present buckets, curve {curve.mode} has {n_present}"
        )
    terminal = curve.terminal_value()
    initial = curve.initial_value()
    if terminal == 0.0:
        decay = math.inf
    elif initial == 0.0:
        decay = 0.0
    else:
        decay = initial / terminal
    decayed = decay >= min_decay_factor
    if terminal <= tol and decayed:
        v = "VANISHING"
    elif terminal >= 3.0 * tol and not decayed:
        v = "NONVANISHING"
    else:
        v = "INCONCLUSIVE"
    return Verdict(v, terminal, initial, decay, tol, min_decay_factor, n_present)
