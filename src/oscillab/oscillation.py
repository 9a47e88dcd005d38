"""Oscillation functionals over ball families and their limit curves.

Two families of metrics, both quadratic as in the paper's BMO_L and CMO_L
norms:

* plain oscillation  (mean over B of |f - mean_B f|^2)^(1/2), and the
  supercritical size (mean over B of |f|^2)^(1/2);
* semigroup oscillation  (r^{-1} * integral over B of
  |f - e^{-r sqrt(L)} f|^2)^(1/2), where the subtraction applies the
  Poisson semigroup at time t = r exactly, as SpectralOperator.scale_rows
  makes e^{-r sqrt(L)} f at the family's distinct radii; the
  subordination integral in the tests is only its oracle.

The norm that drives verdicts splits at the critical radius: oscillation
is measured on balls with r < rho(center), plain size on balls with
r >= rho(center); the two suprema are summed.  Every norm and curve
reduces BallValues, a step function over the balls: the plain metrics
step where a ball sum can change, the semigroup metric at every ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .family import (
    PLAIN_MODES,
    SUPERCRITICAL_MODES,
    BallFamily,
    BallValues,
    LimitCurve,
    bucketed_sup,
    supercritical_spans,
)
from .grid import GridFunction, SummedTable, oscillation_and_size, same_grid
from .semigroup import SpectralOperator

VERDICTS = ("VANISHING", "NONVANISHING", "INCONCLUSIVE")


# ---------------------------------------------------------------------------
# the family scan


@dataclass(frozen=True)
class FamilyStats:
    """The 2-mean oscillation and the mean size (mean over B of
    |f|^2)^(1/2) of one function on each ball of one family, as steps
    that family_stats builds once and the norms and curves read."""

    oscillation: BallValues
    size: BallValues

    @property
    def family(self) -> BallFamily:
        return self.oscillation.family


def family_stats(f: GridFunction, family: BallFamily) -> FamilyStats:
    """One scan of f over the family, as steps at the sites, the balls
    where a sum P[c + m] - P[c - m + 1] can change: P at an index is the
    table's entry at the held count before it, so along a block's run at
    step s an end e's read moves only where [e - s, e) holds a held
    sample, e in [lo + 1, hi + s - 1] for a piece [lo, hi).  With each
    block's first ball these are the sites; between two, both reads and
    so the sum are the same.  One SummedTable on the pieces gives the
    sites' sums of f, then, refilled, of f^2, read by ball_sum 4,096 sites
    at a time and divided by the 2m - 1 samples of a ball; the starts are
    written once the table is freed, so a scan whose every ball is a site
    never holds them beside it.  A constant b holds no piece: one step of
    mean b and mean square b^2."""
    same_grid(f.grid, family.grid)
    if not f.pieces:
        sums = oscillation_and_size(np.array([f.background]), np.array([f.background**2]))
        return FamilyStats(*(BallValues(family, np.zeros(1, dtype=np.intp), v) for v in sums))
    lo, hi = np.array([(lo, lo + v.size) for lo, v in f.pieces]).T
    s = family.lattice.step
    b0, c0, m, count = np.array([(b.start, b.run.start, b.cell_radius, b.count) for b in family.blocks]).T[..., None]

    def below(i: np.ndarray) -> np.ndarray:  # per block, the balls centered below the sample indices i
        return (b0 + np.minimum(np.maximum(-((c0 - i) // s), 0), count)).ravel()

    # the centers c with c + m, or c - m + 1, in [lo + 1, hi + s - 1], and each block's first
    first, end = _union(below(np.concatenate((lo + 1 - m, lo + m, c0), 1)),
                        below(np.concatenate((hi + s - m, hi + s + m - 1, c0 + 1), 1)))
    n, starts, cells, origin = int(np.sum(end - first)), b0.ravel(), m.ravel(), (c0 - b0 * s).ravel()
    table, means = SummedTable(family.grid, f.pieces), (np.empty(n), np.empty(n))
    for out in means:
        if out is means[1]:
            table._fill([v for _, v in f.pieces], square=True)
        for o in range(0, n, 4096):
            at = _sites(first, end, o, min(4096, n - o))
            b = np.searchsorted(starts, at, side="right") - 1
            sums = table.ball_sum(origin[b] + at * s, cells[b], out=out[o : o + at.size])
            np.divide(sums, 2 * cells[b] - 1, out=sums)
    del table, at, b
    at = _sites(first, end, 0, n)
    return FamilyStats(*(BallValues(family, at, v) for v in oscillation_and_size(*means)))


def _union(first: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of the intervals first[i] .. end[i] - 1 as ascending,
    disjoint, nonempty runs: with the firsts and the ends sorted apart, a
    run ends at end[i - 1] when first[i] > end[i - 1], since the i
    intervals that start before first[i] all end by end[i - 1]."""
    first, end = np.sort(first), np.sort(end)
    new = np.flatnonzero(np.append(True, first[1:] > end[:-1]))
    first, end = first[new], end[np.append(new[1:], end.size) - 1]
    return first[first < end], end[first < end]


def _sites(first: np.ndarray, end: np.ndarray, o: int, k: int) -> np.ndarray:
    """The sites o .. o + k - 1 (k >= 1) of the runs first[i] .. end[i] - 1
    laid end to end: ones, with the jump to each run's first where it
    starts, summed in place."""
    cum = np.cumsum(end - first)
    i, j = np.searchsorted(cum, [o, o + k - 1], side="right")
    out = np.ones(k, dtype=np.intp)
    out[0] = end[i] - (cum[i] - o)
    out[cum[i:j] - o] = first[i + 1 : j + 1] - end[i:j] + 1
    return np.cumsum(out, out=out)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class OscillationReport:
    """The sup of a family's per-ball values: the value, the index of the
    ball attaining it, and the number of balls."""

    value: float
    arg_index: int
    n_balls: int


def _sup_report(per_ball: BallValues) -> OscillationReport:
    """The sup of one value per family ball, at its first attaining ball."""
    n = len(per_ball.family)
    return OscillationReport(*per_ball.first_sup(np.array([0, n]), np.ones(1, dtype=bool)), n)


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
    scalar, possibly +inf (no size part), or one reach per radius block, a
    count of samples (supercritical_spans).  Each block's supercritical
    balls are one run, so the blocks' (start, a, b) cut the family into
    segments that are by turns subcritical, supercritical and subcritical,
    and each part is one first_sup over them."""
    spans = supercritical_spans(stats.family, rho)
    cuts = np.array([x for block, a, b in spans for x in (block.start, a, b)] + [len(stats.family)])
    sub = np.arange(cuts.size - 1) % 3 != 1
    osc_part, osc_arg = stats.oscillation.first_sup(cuts, sub)
    size_part, size_arg = stats.size.first_sup(cuts, ~sub)
    return SplitNormReport(
        osc_part + size_part,
        osc_part,
        size_part,
        osc_arg >= 0,
        size_arg >= 0,
        osc_arg,
        size_arg,
        len(stats.family),
    )


# ---------------------------------------------------------------------------
# semigroup oscillation


def semigroup_difference_values(f: GridFunction, op: SpectralOperator, family: BallFamily) -> np.ndarray:
    """Per-ball (r^{-1} * sum over B of (f - e^{-r sqrt(L)} f)^2 h)^(1/2).

    op.scale_rows gives e^{-r sqrt(L)} f a block of radius rows at a time;
    the block's differences from f are squared into one SummedTable, whose
    row i serves the balls of the block's i-th radius."""
    g = same_grid(f.grid, op.grid, family.grid)
    blocks, fv = family.blocks, f.values
    out = np.empty(len(family))
    for rows, diff in op.scale_rows(f, [b.radius for b in blocks], lambda t, s: np.exp(-t * s)):
        np.subtract(fv, diff, out=diff)
        table = SummedTable(g, [(0, diff)], square=True)
        for i, b in enumerate(blocks[rows]):
            sums = table.ball_sum(b.run, b.cell_radius, rows=i)
            out[b.start : b.stop] = np.sqrt(np.maximum(0.0, sums) * g.spacing / b.radius)
    return out


def tilde_bmo_l_norm(f: GridFunction, op: SpectralOperator, family: BallFamily) -> OscillationReport:
    """sup over the family of the semigroup oscillation metric."""
    return _sup_report(BallValues.whole(family, semigroup_difference_values(f, op, family)))


def semigroup_oscillation_curves(f: GridFunction, op: SpectralOperator, family: BallFamily) -> dict[str, LimitCurve]:
    """Limit curves of the semigroup oscillation metric in the three plain
    modes (small-radius, large-radius, far-from-origin)."""
    vals = BallValues.whole(family, semigroup_difference_values(f, op, family))
    return {mode: bucketed_sup(vals, mode) for mode in PLAIN_MODES}


def oscillation_curves(stats: FamilyStats, rho) -> dict[str, LimitCurve]:
    """Limit curves over the scanned family of plain oscillation (the three
    plain modes) and of the supercritical size metric (the two
    supercritical modes).

    The first three curves use the 2-mean oscillation; the supercritical
    curves use (mean over B of |f|^2)^(1/2).
    """
    out = {mode: bucketed_sup(stats.oscillation, mode) for mode in PLAIN_MODES}
    for mode in SUPERCRITICAL_MODES:
        out[mode] = bucketed_sup(stats.size, mode, rho=rho)
    return out


# ---------------------------------------------------------------------------
# verdicts


# verdict thresholds: a curve's tolerance is TOL_FRACTION of its norm; vanishing_verdict reads the rest
TOL_FRACTION = 0.05
DECAY_FACTOR = 4.0
NONVANISHING_MARGIN = 3.0
MIN_PRESENT_BUCKETS = 3


@dataclass(frozen=True)
class Verdict:
    verdict: str
    terminal: Optional[float]
    initial: Optional[float]
    decay_factor: Optional[float]
    tol: float
    min_decay_factor: float
    n_present: int


def vanishing_verdict(
    curve: LimitCurve, tol: float, min_decay_factor: float = DECAY_FACTOR
) -> Verdict:
    """Classify a limit curve.

    VANISHING: terminal bucket <= tol and the curve decayed by at least
    min_decay_factor from its far end (a curve that is identically zero
    counts as decayed).  NONVANISHING: terminal >= NONVANISHING_MARGIN *
    tol with no decay trend.  Anything else: INCONCLUSIVE, and so is a
    curve with fewer than MIN_PRESENT_BUCKETS present buckets, too few to
    show a trend; one with none has no terminal, initial or decay (None).
    """
    if tol < 0:
        raise ConfigError("tolerance must be >= 0")
    n_present = int(np.count_nonzero(curve.present))
    if n_present == 0:
        return Verdict("INCONCLUSIVE", None, None, None, tol, min_decay_factor, 0)
    terminal = curve.terminal_value()
    initial = curve.initial_value()
    if terminal == 0.0:
        decay = math.inf
    elif initial == 0.0:
        decay = 0.0
    else:
        decay = initial / terminal
    decayed = decay >= min_decay_factor
    if n_present < MIN_PRESENT_BUCKETS:
        v = "INCONCLUSIVE"
    elif terminal <= tol and decayed:
        v = "VANISHING"
    elif terminal >= NONVANISHING_MARGIN * tol and not decayed:
        v = "NONVANISHING"
    else:
        v = "INCONCLUSIVE"
    return Verdict(v, terminal, initial, decay, tol, min_decay_factor, n_present)
