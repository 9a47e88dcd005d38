"""The experiments as plain functions, each returning a report dataclass.

Each exp_* function takes what a scenario's plan built (a ball family, an
operator, a t-ladder) and computes one of the paper's checks, so tests and
scripts call them directly; experiments.py binds them to a JSON config,
checks what each report asserts and writes the bundle.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .approx import AveragingThresholds, assign_cubes, bump, choose_thresholds, dyadic_average, mollify, p1_p2_check
from .corpus import member_by_name
from .errors import ConfigError, ThresholdExhaustedError
from .family import SUPERCRITICAL_MODES, BallFamily, LimitCurve, bucketed_sup
from .grid import Grid, GridFunction, oscillation_of
from .oscillation import (
    DECAY_FACTOR,
    TOL_FRACTION,
    Verdict,
    bmo_l_norm,
    bmo_norm,
    family_stats,
    oscillation_curves,
    semigroup_oscillation_curves,
    vanishing_verdict,
)
from .potential import Potential, critical_reach, power_potential, solve_critical_radius
from .semigroup import SpectralOperator, TLadder, poisson_extension, square_function_field
from .tent import family_box_values, gradient_carleson_curves, hmo_norm, tent_curves

RHO_CONSTANT_UNIT = 2.0**-0.5  # critical radius of the unit potential in 1-D
RHO_SLOPE_X_MIN, RHO_SLOPE_X_MAX = 100.0, 1.0e4  # the default |x| range of the rho-slope fit
_BUMP_WIDTH = 1.0  # half-width of the lacunary bumps


# ---------------------------------------------------------------------------
# shared helpers


def _verdict_map(curves: dict[str, LimitCurve], tol: float, decay_factor: float) -> dict[str, Verdict]:
    return {mode: vanishing_verdict(c, tol, decay_factor) for mode, c in curves.items()}


def _verdict_dict(verdicts: dict[str, Verdict]) -> dict:
    return {mode: asdict(v) for mode, v in sorted(verdicts.items())}


def _nonzero(potential: Potential) -> Potential:
    """The potential, unless it is zero: its critical radius is infinite everywhere."""
    if potential.is_zero():
        raise ConfigError("the zero potential has an infinite critical radius everywhere")
    return potential


def line_slope(x: np.ndarray, y: np.ndarray) -> float:
    """The least-squares slope of y against x, sum dx dy / sum dx^2 over
    the centred data dx = x - mean x, dy = y - mean y, each sum exact
    (math.fsum) before its one rounding.  A two-parameter fit needs no
    LAPACK solve."""
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    return math.fsum(dx * dy) / math.fsum(dx * dx)


def _check_lacunary_box(grid: Grid, k_max: int) -> None:
    """Raise ConfigError unless k_max >= 1 and grid covers the bump at 3^k_max."""
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    need = 3.0**k_max + _BUMP_WIDTH + 1.0
    if grid.halfwidth < need:
        raise ConfigError(
            f"grid halfwidth {grid.halfwidth} does not cover the outermost bump (need >= {need})"
        )


def _bump_window(h: float) -> tuple[np.ndarray, np.ndarray]:
    """The unit-mass bump sampled at spacing h: its values at the samples
    strictly inside B(0, _BUMP_WIDTH), and their offsets from the center
    sample."""
    probe = Grid(halfwidth=max(4.0 * _BUMP_WIDTH, 32 * h), spacing=h)
    kernel = bump(probe, width=_BUMP_WIDTH).values
    mask = np.abs(probe.axis) < _BUMP_WIDTH
    return kernel[mask], np.nonzero(mask)[0] - probe.half_cells


def lacunary_function(grid: Grid, k_max: int) -> GridFunction:
    """Sum of unit-mass bumps at 3^k, k = 1..k_max, each the same sampled
    kernel, held as one piece per bump."""
    _check_lacunary_box(grid, k_max)
    win, koff = _bump_window(grid.spacing)
    at = [int(grid.coord_to_index(3.0**k)) + int(koff[0]) for k in range(1, k_max + 1)]
    return GridFunction.from_pieces(grid, [(lo, win) for lo in at])


# ---------------------------------------------------------------------------
# critical-radius slope


@dataclass(frozen=True)
class RhoSlopeReport:
    slope: float
    expected: float
    n: int
    potential_kind: str
    exponent: Optional[float]
    x: tuple[float, ...]
    rho: tuple[float, ...]
    small_range_warning: bool

    def to_dict(self) -> dict:
        # the samples go to rho.csv
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("x", "rho")}


def exp_rho_slope(
    potential: Potential,
    x_min: float = RHO_SLOPE_X_MIN,
    x_max: float = RHO_SLOPE_X_MAX,
    points: int = 24,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
) -> RhoSlopeReport:
    """Least-squares slope of log rho against log |x|, rho solved at |x|.

    For the power potential the expected slope is 1 - exponent/2; for a
    constant potential it is 0.  x values below 10 are outside the
    asymptotic regime and only flagged, not rejected.  With jitter, the
    i-th point is scaled by exp(u_i), u_i = rng.uniform(-jitter, jitter),
    one draw per point in point order.
    """
    _nonzero(potential)
    if x_min <= 0 or x_max <= x_min:
        raise ConfigError("need 0 < x_min < x_max")
    if points < 2:
        raise ConfigError("need at least two sample points")

    xs = np.geomspace(x_min, x_max, points)
    if jitter:
        if rng is None:
            raise ConfigError("jitter needs the run's PRNG stream")
        xs = xs * np.exp([rng.uniform(-jitter, jitter) for _ in range(points)])
    rho = solve_critical_radius(potential, xs).values

    slope = line_slope(np.log(xs), np.log(rho))
    if potential.kind == "power":
        expected = 1.0 - potential.eps / 2.0
    else:
        expected = 0.0
    return RhoSlopeReport(
        slope=slope,
        expected=expected,
        n=potential.n,
        potential_kind=potential.kind,
        exponent=potential.eps if potential.kind == "power" else None,
        x=tuple(float(v) for v in xs),
        rho=tuple(float(v) for v in rho),
        small_range_warning=bool(x_min < 10.0),
    )


# ---------------------------------------------------------------------------
# lacunary separation


@dataclass(frozen=True)
class LacunaryReport:
    k_max: int
    exponent: float
    amplitude: float
    norm: float
    tol: float
    verdicts: dict[str, Verdict]
    curves: dict[str, LimitCurve]
    floor: float
    floor_required: float
    floor_ok: bool
    trend_exponent: Optional[float]
    n_balls: int

    def to_dict(self) -> dict:
        # the curves go to curves.csv
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "curves"}
        d["verdicts"] = _verdict_dict(self.verdicts)
        return d


def exp_lacunary(
    fam: BallFamily,
    k_max: int,
    exponent: float = 1.05,
    amplitude: float = 0.002,
    tol_fraction: float = TOL_FRACTION,
    decay_factor: float = DECAY_FACTOR,
    floor_factor: float = 0.3,
) -> LacunaryReport:
    """Bumps at 3^k on the family's grid under the analytic power-potential critical radius.

    The small-radius and far-supercritical oscillation curves are expected
    to vanish while the plain far curve stays pinned at the single-bump
    oscillation; the report carries all three verdicts, the far floor, and
    the fitted decay exponent of the far-supercritical curve.
    """
    V = power_potential(exponent, 1, amplitude=amplitude)
    f = lacunary_function(fam.grid, k_max)
    # the oscillation of one bump over B(0, 1), whose samples are its window
    floor_ref = oscillation_of(_bump_window(fam.grid.spacing)[0])

    # the supercritical balls of each radius block: centers within its reach, in samples
    reach = critical_reach(V, fam.grid, fam.lattice, [b.radius for b in fam.blocks])
    st = family_stats(f, fam)
    norm = bmo_l_norm(st, reach)
    tol = tol_fraction * norm.value

    curves = {mode: bucketed_sup(st.oscillation, mode) for mode in ("small-radius", "far-from-origin")}
    curves["far-and-supercritical"] = bucketed_sup(st.size, "far-and-supercritical", rho=reach)
    verdicts = _verdict_map(curves, tol, decay_factor)

    far = curves["far-from-origin"]
    # NaN when no far bucket is present: no floor, so the check fails
    floor = float(np.min(far.values[far.present])) if np.any(far.present) else math.nan
    floor_required = floor_factor * floor_ref

    fs = curves["far-and-supercritical"]
    m = fs.present & (fs.ladder >= 16.0) & (fs.values > 0)
    trend = None
    if int(np.count_nonzero(m)) >= 3:
        trend = line_slope(np.log(fs.ladder[m]), np.log(fs.values[m]))

    return LacunaryReport(
        k_max=k_max,
        exponent=exponent,
        amplitude=amplitude,
        norm=norm.value,
        tol=tol,
        verdicts=verdicts,
        curves=curves,
        floor=floor,
        floor_required=floor_required,
        floor_ok=bool(floor >= floor_required),
        trend_exponent=trend,
        n_balls=len(fam),
    )


# ---------------------------------------------------------------------------
# square-function membership agreement


@dataclass(frozen=True)
class AgreementReport:
    """Vanishing verdicts of two sides over one corpus member: gamma, an
    oscillation side of the boundary function, against one half-space
    Carleson side (eta for the square-function field, beta for the
    extension's scaled gradient).  ``norm_key`` names the Carleson side's
    sup norm in the summary ("t2_inf" or "hmo"); ``ratio`` is that norm
    over bmo_l."""

    member: str
    bmo_l: float
    norm_key: str
    norm: float
    ratio: Optional[float]
    verdicts: dict[str, dict[str, Verdict]]
    curves: dict[str, dict[str, LimitCurve]]

    def vanishing(self, side: str) -> bool:
        return all(v.verdict == "VANISHING" for v in self.verdicts[side].values())

    @property
    def agree(self) -> bool:
        return len({self.vanishing(side) for side in self.verdicts}) == 1

    def to_dict(self) -> dict:
        out = {
            "member": self.member,
            "bmo_l": self.bmo_l,
            self.norm_key: self.norm,
            "ratio": self.ratio,
            "agree": self.agree,
        }
        for side, verdicts in self.verdicts.items():
            out[f"{side}_verdicts"] = _verdict_dict(verdicts)
            out[f"{side}_vanishing"] = self.vanishing(side)
        return out


def _agreement(
    member: str,
    bmo_l: float,
    norm_key: str,
    norm: float,
    curves: dict[str, dict[str, LimitCurve]],
    tol_fraction: float,
    decay_factor: float,
) -> AgreementReport:
    """The report of the gamma curves and the Carleson side's curves, each
    side classified at tol_fraction of its own norm (bmo_l for gamma)."""
    return AgreementReport(
        member=member,
        bmo_l=bmo_l,
        norm_key=norm_key,
        norm=norm,
        ratio=(norm / bmo_l) if bmo_l > 0 else None,
        verdicts={
            side: _verdict_map(c, tol_fraction * (bmo_l if side == "gamma" else norm), decay_factor)
            for side, c in curves.items()
        },
        curves=curves,
    )


def exp_square_membership(
    member: str,
    op: SpectralOperator,
    fam: BallFamily,
    ladder: TLadder,
    tol_fraction: float = TOL_FRACTION,
    decay_factor: float = DECAY_FACTOR,
) -> AgreementReport:
    """Semigroup-metric curves of f against tent curves of the scaled square
    function field, with aggregate vanishing verdicts on both sides.  f is
    the member sampled on the operator's grid; the family must live there
    too (family_stats rejects it otherwise).  ladder: the t-ladder of the
    square function."""
    f = member_by_name(member).build(op.grid)
    st = family_stats(f, fam)
    gamma_curves = semigroup_oscillation_curves(f, op, fam)
    for mode in SUPERCRITICAL_MODES:
        gamma_curves[mode] = bucketed_sup(st.size, mode, rho=RHO_CONSTANT_UNIT)
    eta = np.sqrt(family_box_values(square_function_field(op, f, ladder), fam))
    curves = {"gamma": gamma_curves, "eta": tent_curves(eta, fam)}
    norm = bmo_l_norm(st, RHO_CONSTANT_UNIT).value
    return _agreement(member, norm, "t2_inf", hmo_norm(eta, fam).value, curves, tol_fraction, decay_factor)


# ---------------------------------------------------------------------------
# harmonic-extension agreement


def exp_extension_agreement(
    member: str,
    op: SpectralOperator,
    fam: BallFamily,
    ladder: TLadder,
    tol_fraction: float = TOL_FRACTION,
    decay_factor: float = DECAY_FACTOR,
) -> AgreementReport:
    """Carleson curves of the harmonic extension's scaled gradient against
    the plain oscillation curves of the boundary function, sampled and
    scanned as in exp_square_membership."""
    f = member_by_name(member).build(op.grid)
    st = family_stats(f, fam)
    G = poisson_extension(op, f, ladder)
    beta = np.sqrt(family_box_values(G, fam))
    curves = {"gamma": oscillation_curves(st, RHO_CONSTANT_UNIT), "beta": gradient_carleson_curves(beta, fam)}
    norm = bmo_l_norm(st, RHO_CONSTANT_UNIT).value
    return _agreement(member, norm, "hmo", hmo_norm(beta, fam).value, curves, tol_fraction, decay_factor)


# ---------------------------------------------------------------------------
# constructive approximation pipeline


@dataclass(frozen=True)
class PipelineReport:
    member: str
    eps: float
    norm: float
    verdict: str  # MEMBER / NONMEMBER
    # a NONMEMBER report has only the exhausted condition; a MEMBER report
    # has every other field
    thresholds: Optional[AveragingThresholds] = None
    p1_sup: Optional[float] = None
    p1_ok: Optional[bool] = None
    p2_max: Optional[float] = None
    p2_ok: Optional[bool] = None
    size_ratio_ok: Optional[bool] = None
    distance_averaged: Optional[float] = None
    distance_full: Optional[float] = None
    case_bound: Optional[float] = None
    corpus_bound: Optional[float] = None
    t_eps: Optional[float] = None
    exhausted_condition: Optional[str] = None

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if k != "thresholds"}
        th = self.thresholds
        if th is not None:
            d.update(fine_exponent=th.fine_exponent, core_exponent=th.core_exponent,
                     outer_exponent=th.outer_exponent, closed_form_bound=th.closed_form_bound)
        return d


def _average_member(
    f: GridFunction,
    fam: BallFamily,
    osc_fraction: float,
    eps_fraction: float,
    eps: Optional[float] = None,
):
    """The steps both pipeline scenarios share, under the unit potential:
    take the norm of f over the family, take eps (eps_fraction of the norm
    unless given), choose the thresholds, assign the cubes, average and
    gate.  Returns (norm, eps, outcome): outcome is the exhausted scan's
    condition, the NONMEMBER verdict (constants are the canonical case:
    their supercritical size never drops), or else (assignment, averaged
    f, gate report)."""
    norm = bmo_l_norm(family_stats(f, fam), RHO_CONSTANT_UNIT).value
    if eps is None:
        eps = eps_fraction * norm
    if not eps > 0:
        raise ConfigError(f"averaging needs eps > 0, got {eps} (a zero norm leaves nothing to approximate)")
    try:
        th = choose_thresholds(f, eps, RHO_CONSTANT_UNIT, osc_fraction)
    except ThresholdExhaustedError as e:
        return norm, eps, str(e)
    asg = assign_cubes(th, f.grid)
    A = dyadic_average(f, asg)
    return norm, eps, (asg, A, p1_p2_check(asg, A))


def exp_pipeline(
    member: str,
    fam: BallFamily,
    eps_fraction: float = 0.1,
    osc_fraction: float = 0.125,
    corpus_factor: float = 25.0,
) -> PipelineReport:
    """Dyadic averaging pipeline on the family's grid at eps = eps_fraction
    * the member's critical-radius-adapted norm, under the unit potential.

    Returns a MEMBER report with both approximation distances, or a
    NONMEMBER report when the threshold scan is exhausted.
    """
    grid = fam.grid
    h = grid.spacing
    f = member_by_name(member).build(grid)
    norm, eps, averaging = _average_member(f, fam, osc_fraction, eps_fraction)
    if isinstance(averaging, str):
        return PipelineReport(member=member, eps=eps, norm=norm, verdict="NONMEMBER", exhausted_condition=averaging)
    asg, A, gate = averaging
    th = asg.thresholds
    # the assignment ends here, once the thresholds are read, and A at the
    # mollifier below, before the last scan
    del averaging, asg

    d_avg = bmo_norm(family_stats(f - A, fam)).value

    # truncate A to [-T, T), T = 2^(M+2): the samples n0 - T/h .. n0 +
    # T/h - 1, clipped to the box (at M = a - 1 the left half is all
    # kept), then mollify at the fine-cube scale
    n0, k = grid.half_cells, round(2.0 ** (th.outer_exponent + 2) / h)
    t_eps = max(2.0**-th.fine_exponent, 4.0 * h)
    residual = f - mollify(A.truncated(n0 - k, n0 + k), t_eps)  # f - F_eps
    del A
    d_full = bmo_l_norm(family_stats(residual, fam), RHO_CONSTANT_UNIT).value

    n = 1  # ambient dimension in the paper's bound (20^(n/2) / 4^n + 2) eps
    case_bound = (20.0 ** (n / 2.0) / 4.0**n + 2.0) * eps
    return PipelineReport(
        member=member,
        eps=eps,
        norm=norm,
        verdict="MEMBER",
        thresholds=th,
        p1_sup=gate.p1_sup,
        p1_ok=gate.p1_ok,
        p2_max=gate.p2_max,
        p2_ok=gate.p2_ok,
        size_ratio_ok=gate.size_ratio_ok,
        distance_averaged=d_avg,
        distance_full=d_full,
        case_bound=case_bound,
        corpus_bound=corpus_factor * eps,
        t_eps=t_eps,
    )
