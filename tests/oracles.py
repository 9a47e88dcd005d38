"""Slow, independent forms of what the package computes fast, and the
helpers that only tests call.

The tests compare the package against these; no scenario runs them, so
none of them lives in src/oscillab.  Each oracle is defined here once.
"""

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
from scipy.integrate import quad_vec

from oscillab.errors import ConfigError, DegenerateRegionError, LadderError, OutOfDomainError
from oscillab.family import MODES, SUPERCRITICAL_MODES, BallFamily, LimitCurve
from oscillab.grid import _IDX_TOL, Ball, _positions_below, Grid, GridFunction, SummedTable, oscillation_and_size, oscillation_of
from oscillab.oscillation import OscillationReport, SplitNormReport
from oscillab.potential import Potential, solve_critical_radius
from oscillab.semigroup import HalfSpaceFunction, SpectralOperator, apply_spectral, log_weights_for


def poisson_subordinated(op: SpectralOperator, f: GridFunction, t: float, rel_tol: float = 1e-10) -> GridFunction:
    """e^{-t sqrt(L)} f via the subordination integral

        (1/sqrt(pi)) int_0^inf e^{-u} u^{-1/2} e^{-(t^2/4u) L} f du,

    evaluated per eigenvalue with adaptive quadrature.  Independent of the
    direct exponential up to linear algebra, so it serves as a cross-check.
    """
    if t < 0:
        raise ConfigError("subordinated time must be >= 0")
    lam = op.eigenvalues
    if t == 0.0:
        g = np.ones_like(lam)
    else:
        def integrand(u: float) -> np.ndarray:
            return np.exp(-u - (t * t / (4.0 * u)) * lam) / math.sqrt(u)

        val, _err = quad_vec(integrand, 0.0, np.inf, epsrel=rel_tol, epsabs=1e-300)
        g = val / math.sqrt(math.pi)
    return GridFunction(op.grid, op.synthesize(g * op.coefficients(f)))


def prefix_table(values: np.ndarray) -> np.ndarray:
    """P[i] = sum(values[:i]), as the package's prefix tables hold it."""
    p = np.zeros(values.shape[0] + 1)
    np.cumsum(values, out=p[1:])
    return p


def interval_sums(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums over the index ranges [lo, hi] inclusive, read from the prefix
    table p at index arrays; an empty range (lo > hi) sums to 0."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    return np.where(hi >= lo, p[np.maximum(hi + 1, lo)] - p[lo], 0.0)


def ball_sums(p: np.ndarray, centers_idx: np.ndarray, cell_radius: int) -> np.ndarray:
    """Sums over the samples strictly inside B(c, cell_radius * h) for any
    array of center sample indices c: offsets |k| <= cell_radius - 1."""
    ci = np.asarray(centers_idx, dtype=np.int64).reshape(-1)
    return interval_sums(p, ci - (cell_radius - 1), ci + (cell_radius - 1))


# ---------------------------------------------------------------------------
# grid functions and balls


def constant(grid: Grid, c: float) -> GridFunction:
    """The constant c on the grid."""
    return GridFunction(grid, np.full(grid.shape, float(c)))


def l2_norm(f: GridFunction) -> float:
    """Discrete L2 norm: (sum f^2 * h)^(1/2)."""
    return float(math.sqrt(np.sum(f.values**2) * f.grid.spacing))


def inside_box(ball: Ball, grid: Grid) -> bool:
    """True when the closed ball stays strictly inside the box.

    Balls touching the boundary are rejected; with centers and radii on
    the h-lattice, |c| + r is either <= X - h (inside) or >= X, so the
    X - h/4 cut is unambiguous even with float dust.
    """
    lim = grid.halfwidth - grid.spacing / 4.0
    return abs(ball.center[0]) + ball.radius < lim


def ball_member_values(f: GridFunction, ball: Ball) -> np.ndarray:
    """Values at samples strictly inside the ball, for any center: the
    oracle of SummedTable.ball_sum."""
    g = f.grid
    if not inside_box(ball, g):
        raise OutOfDomainError(
            f"ball B({ball.center}, {ball.radius}) touches or leaves the box "
            f"[-{g.halfwidth}, {g.halfwidth}]"
        )
    h = g.spacing
    c, r = ball.center[0], ball.radius
    i_lo = int(math.floor((c - r + g.halfwidth) / h + _IDX_TOL)) + 1
    i_hi = int(math.ceil((c + r + g.halfwidth) / h - _IDX_TOL)) - 1
    if i_hi < i_lo:
        return np.empty(0)
    return f.values[i_lo : i_hi + 1]


def mean_oscillation(f: GridFunction, ball: Ball) -> float:
    """(mean over B of |f - mean_B f|^2)^(1/2) over the member values: the
    oracle of family_stats."""
    vals = ball_member_values(f, ball)
    if vals.size == 0:
        raise DegenerateRegionError(
            f"ball B({ball.center}, {ball.radius}) contains no grid sample"
        )
    return oscillation_of(vals)


# ---------------------------------------------------------------------------
# semigroups


def heat(op: SpectralOperator, f: GridFunction, t: float) -> GridFunction:
    """e^{-t L} f."""
    if t < 0:
        raise ConfigError("heat time must be >= 0")
    return apply_spectral(op, lambda s: np.exp(-t * s**2), f)


def poisson(op: SpectralOperator, f: GridFunction, t: float) -> GridFunction:
    """e^{-t sqrt(L)} f."""
    if t < 0:
        raise ConfigError("poisson time must be >= 0")
    return apply_spectral(op, lambda s: np.exp(-t * s), f)


# ---------------------------------------------------------------------------
# Carleson boxes


def prefix_weights(t) -> np.ndarray:
    """Trapezoid weights in log t over the ladder prefix t, written out
    apart from semigroup.log_weights_for."""
    v = np.log(np.asarray(t))
    w = np.empty_like(v)
    w[1:-1] = (v[2:] - v[:-2]) / 2.0
    w[0] = (v[1] - v[0]) / 2.0
    w[-1] = (v[-1] - v[-2]) / 2.0
    return w


def cylinder_box(F: HalfSpaceFunction, ball: Ball) -> float:
    """r^{-1} * sum over the cylinder B x (0, r] of |F|^2 h dt/t, from a
    membership mask of the ball: the oracle of family_box_values."""
    g = F.grid
    r = ball.radius
    k = int(np.searchsorted(F.ladder.values, r, side="right"))
    if k == 0:
        return 0.0
    w = prefix_weights(F.ladder.values[:k])
    mask = np.abs(g.axis - ball.center[0]) < r
    tot = 0.0
    for j in range(k):
        tot += w[j] * float(np.sum(F.values[j][mask] ** 2)) * g.spacing
    return tot / r**g.n


def carleson_box_strict_tent(F: HalfSpaceFunction, ball: Ball) -> float:
    """The integral of family_box_values over the strict tent
    {(y, t): |y - c| < r - t} of one ball, for any center.

    Always <= the cylinder value for the same F.
    """
    g = F.grid
    if not inside_box(ball, g):
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
    return total * g.spacing / ball.radius


def clipped_cone_square_function(F: HalfSpaceFunction) -> tuple[np.ndarray, np.ndarray]:
    """(A(F), truncated) of tent.cone_square_function, from one prefix
    table per slice read at cone ends clipped to the box's samples: the
    oracle of the table's constant-end reads."""
    g = F.grid
    h = g.spacing
    t = F.ladder.values
    w = F.ladder.log_weights
    n_ax = g.size
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
    return np.sqrt(np.maximum(acc, 0.0)), truncated


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
            table = SummedTable(g, [(0, diff**2)])
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
        ci = ci[np.abs(g.coords(range(int(ci[0]), int(ci[-1]) + 1, step))) + rp < lim]
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
# files


def read_grid_function(path) -> GridFunction:
    """The function save_grid_function wrote: the grid from the JSON
    header, the values from the .bin beside it."""
    p = Path(path)
    header = json.loads(p.read_text(encoding="utf-8"))
    grid = Grid(halfwidth=header["halfwidth"], spacing=header["spacing"])
    return GridFunction(grid, np.frombuffer(p.with_suffix(".bin").read_bytes(), dtype="<f8"))


# ---------------------------------------------------------------------------
# dense scans: every sample read, as before functions carried a window


def held_whole(f: GridFunction) -> GridFunction:
    """f held on the whole grid, its zeros included, so that a windowed
    scan of it reads every sample."""
    whole = object.__new__(GridFunction)
    whole.grid, whole.lo, whole.hi, whole.pieces = f.grid, 0, f.grid.size, ((0, np.array(f.values)),)
    whole.background = 0.0
    return whole


def dense_family_stats(f: GridFunction, family) -> tuple[np.ndarray, np.ndarray]:
    """(oscillation, size) per family ball from prefix tables of all the
    samples of f and of f^2, each ball's sum read at its center index."""
    mean, mean_sq = np.empty(len(family)), np.empty(len(family))
    for values, out in ((f.values, mean), (np.square(f.values), mean_sq)):
        p = prefix_table(values)
        for b in family.blocks:
            out[b.start : b.stop] = ball_sums(p, np.asarray(b.run), b.cell_radius) / (2 * b.cell_radius - 1)
    return oscillation_and_size(mean, mean_sq)


def dense_values(per_ball) -> np.ndarray:
    """A BallValues as one value per family ball: each step's value
    repeated over its balls."""
    ends = np.append(per_ball.starts[1:], len(per_ball.family))
    return np.repeat(per_ball.values, ends - per_ball.starts)


def meeting(spans, run: range, cell_radius: int) -> list[range]:
    """The positions in run of the centers whose balls of cell radius m
    meet a span [lo, hi), c in [lo - m + 1, hi + m - 1): ascending,
    disjoint slices of run, one per span, merged where they overlap or
    touch."""
    m, out = int(cell_radius), []
    for lo, hi in spans:
        first, end = _positions_below(run, lo - m + 1), _positions_below(run, hi + m - 1)
        if first < end:
            if out and first <= out[-1].stop:
                out[-1] = range(out[-1].start, end)
            else:
                out.append(range(first, end))
    return out


def sorted_sites(f: GridFunction, family) -> np.ndarray:
    """family_stats' sites, the balls where a ball sum can change, by
    sorting: per block, its first ball and, per piece [lo, hi), the balls
    whose end c + m or c - m + 1 lies in [lo + 1, hi + s - 1], as
    intervals of ball indices, sorted and swept into their union."""
    s, spans = family.lattice.step, [(lo, lo + v.size) for lo, v in f.pieces]
    intervals = []
    for b in family.blocks:
        m, at = b.cell_radius, lambda i: b.start + _positions_below(b.run, i)
        intervals.append((b.start, b.start + 1))
        for lo, hi in spans:
            intervals += [(at(lo + 1 - m), at(hi + s - m)), (at(lo + m), at(hi + s + m - 1))]
    sites = []
    for first, end in sorted(intervals):
        sites += range(max(first, sites[-1] + 1) if sites else first, end)
    return np.array(sites, dtype=np.intp)


def held_family_stats(f: GridFunction, family) -> tuple[np.ndarray, np.ndarray]:
    """(oscillation, size) per family ball as family_stats held them
    before they were steps: the balls that meet f's pieces (meeting) read
    from one SummedTable on the pieces, a ball_sum per run, and
    every other ball the closed form of f's background."""
    table = SummedTable(family.grid, f.pieces)
    spans = [(lo, lo + v.size) for lo, v in f.pieces]
    meets = [(b, meet) for b in family.blocks for meet in meeting(spans, b.run, b.cell_radius)]
    means = []
    for square in (False, True):
        table._fill([v for _, v in f.pieces], square=square)
        means.append(np.full(len(family), f.background**2 if square else f.background))
        for b, meet in meets:
            sums = table.ball_sum(b.run[meet.start : meet.stop], b.cell_radius)
            means[-1][b.start + meet.start : b.start + meet.stop] = sums / (2 * b.cell_radius - 1)
    return oscillation_and_size(*means)


def dense_pyramid(values: np.ndarray, a: int, p: int):
    """(level, cells per cube, oscillation, size) of every cube of every
    dyadic level from -p+1 up to a, from the pairwise sums of all samples;
    the top boundary sample folds into the last cube."""
    body = values[:-1]
    sums = body[0::2] + body[1::2]
    sumsq = np.square(body[0::2]) + np.square(body[1::2])
    sums[-1] += values[-1]
    sumsq[-1] += values[-1] ** 2
    for level in range(-p + 1, a + 1):
        q = 2 ** (level + p)
        osc, size = sums / q, sumsq / q
        osc[-1], size[-1] = sums[-1] / (q + 1), sumsq[-1] / (q + 1)
        yield level, q, *oscillation_and_size(osc, size)
        sums, sumsq = sums[0::2] + sums[1::2], sumsq[0::2] + sumsq[1::2]


def dense_level_sups(values: np.ndarray, a: int, p: int, rho: float):
    """What approx._level_sups reduces the pyramid to, from every cube of
    dense_pyramid, each sup a max over a mask of the cube corners c (the
    samples c .. c + q - 1 from the origin): per level the largest
    oscillation and, if 2^l >= rho, size (else -inf); per core candidate
    J, of half-extent T = 2^(J+p) cells, the far sups over the levels of
    the cubes with c <= -T - q or c >= T + 1; per (level, shell m), of
    s = 2^(m+p), the largest size over the cubes with [c, c + q - 1] in
    [s, 2 s) or in [-2 s, -s)."""
    n0 = 2 ** (a + p)
    cuts = [2 ** (j + p) for j in range(-p + 1, a + 1)]

    def sup(x: np.ndarray, mask: np.ndarray) -> float:
        return float(x[mask].max()) if mask.any() else -math.inf

    osc_max, super_size_max, shell_size = [], [], {}
    far_osc, far_size = [-math.inf] * len(cuts), [-math.inf] * len(cuts)
    for l, q, osc, size in dense_pyramid(values, a, p):
        c = -n0 + q * np.arange(osc.size)
        every = np.ones(osc.size, dtype=bool)
        far = [(c <= -t - q) | (c >= t + 1) for t in cuts]
        osc_max.append(sup(osc, every))
        far_osc = [max(x, sup(osc, m)) for x, m in zip(far_osc, far)]
        if 2.0**l >= rho:
            super_size_max.append(sup(size, every))
            far_size = [max(x, sup(size, m)) for x, m in zip(far_size, far)]
        else:
            super_size_max.append(-math.inf)
        for m, s in zip(range(-p + 1, a), cuts):
            inside = ((c >= s) & (c + q - 1 < 2 * s)) | ((c >= -2 * s) & (c + q - 1 < -s))
            shell_size[l, m] = sup(size, inside)
    return osc_max, super_size_max, far_osc, far_size, shell_size


def cube_tiling(assignment) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(levels, corners, counts) of every cube of the tiling, in position
    order, expanded from the assignment's regions: cube k holds the next
    counts[k] samples, and the last the +X boundary sample too."""
    p = round(-math.log2(assignment.grid.spacing))
    regions = assignment.regions
    levels = np.concatenate([np.full((hi - lo) >> (l + p), l) for lo, hi, l in regions])
    corners = np.concatenate([np.arange(lo >> (l + p), hi >> (l + p)) for lo, hi, l in regions])
    counts = 2 ** (levels + p)
    counts[-1] += 1
    return levels, corners, counts


def cube_starts(assignment) -> np.ndarray:
    """The first sample of every cube of the tiling."""
    counts = cube_tiling(assignment)[2]
    return np.cumsum(counts) - counts


def dense_dyadic_average(f: GridFunction, assignment) -> np.ndarray:
    """Every cube's mean against its first sample, over all samples."""
    flat, counts = f.values, cube_tiling(assignment)[2]
    anchors = flat[cube_starts(assignment)]
    diffs = flat - np.repeat(anchors, counts)
    sums = np.bincount(np.repeat(np.arange(counts.size), counts), weights=diffs, minlength=counts.size)
    return np.repeat(anchors + sums / counts, counts)


def dense_gates(assignment, averaged: GridFunction) -> tuple[float, float]:
    """(P1 sup, P2 max) of p1_p2_check from all the samples of A and the
    mean of every cube."""
    p = round(-math.log2(assignment.grid.spacing))
    n0 = assignment.grid.half_cells
    k = 2 ** (assignment.thresholds.outer_exponent + p)
    vals = averaged.values
    outside = np.concatenate((vals[: n0 - k], vals[n0 + k + 1 :]))
    p1 = abs(float(np.max(np.abs(outside), initial=0.0)))
    p2 = float(np.max(np.abs(np.diff(vals[cube_starts(assignment)])), initial=0.0))
    return p1, p2


def dense_mollify(f: GridFunction, t: float) -> np.ndarray:
    """The bump-kernel convolution of all the samples, zero-padded."""
    h = f.grid.spacing
    kmax = math.ceil(t / h - 1e-9) - 1
    offs = np.arange(-kmax, kmax + 1, dtype=np.float64) * h
    r2 = (offs / t) ** 2
    w = np.zeros(r2.shape)
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    w /= np.sum(w)
    return np.convolve(f.values, w, mode="same")


# ---------------------------------------------------------------------------
# the radial masses' quadrature rule


def legendre_rule_decimal(n: int, digits: int = 40) -> tuple[list[Decimal], list[Decimal]]:
    """The n-point Gauss-Legendre rule on (-1, 1), n even, in decimal
    arithmetic at the given precision: each positive root of P_n by Newton's
    method on the three-term recurrence, iterated until its step is below
    the precision's last digits, and its weight 2 / ((1 - x^2) P_n'(x)^2);
    nodes ascending, the negative ones mirrored."""
    def legendre(x: Decimal) -> tuple[Decimal, Decimal]:
        p0, p1 = Decimal(1), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / (1 - x * x)

    xs, ws = [], []
    with localcontext() as ctx:
        ctx.prec = digits
        tol = Decimal(10) ** (2 - digits)
        for k in range(1, n // 2 + 1):
            x = Decimal(math.cos(math.pi * (k - 0.25) / (n + 0.5)))
            for _ in range(50):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < tol:
                    break
            else:
                raise AssertionError(f"Newton's method did not settle on root {k} of P_{n}")
            _, dp = legendre(x)
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
    return [-x for x in xs] + xs[::-1], ws + ws[::-1]


# ---------------------------------------------------------------------------
# the critical radius at every center, and the supercritical scans it feeds


def rho_at_symmetric_centers(V: Potential, xs: np.ndarray) -> np.ndarray:
    """rho at the ascending centers xs, solved at the non-negative ones
    only.  Both potential kinds are even in x and I(-x, r) == I(x, r) bit
    for bit (negation commutes with IEEE sums), so rho(-x) is rho(x);
    centers that are not symmetric about 0 raise ConfigError rather than
    being mirrored wrongly."""
    if np.any(np.diff(xs) <= 0) or not np.array_equal(xs, -xs[::-1]):
        raise ConfigError("centers are not ascending and symmetric about the origin")
    j0 = int(np.searchsorted(xs, 0.0))
    half = solve_critical_radius(V, xs[j0:]).values
    return np.concatenate((half[::-1][:j0], half))


def lattice_of(grid: Grid, xs) -> range | np.ndarray:
    """The sample indices of the ascending centers xs, as a family's
    lattice: a range when they sit on one arithmetic run of samples, else
    their fractional sample positions, which BallFamily refuses."""
    pos = (np.asarray(xs, dtype=np.float64).reshape(-1) + grid.halfwidth) / grid.spacing
    idx = np.rint(pos).astype(np.int64)
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if idx.size and np.array_equal(pos, idx) and step >= 1 and np.all(np.diff(idx) == step):
        return range(int(idx[0]), int(idx[-1]) + 1, step)
    return pos


def hand_family(grid: Grid, xs, blocks, radius_ladder, distance_ladder):
    """The family of blocks (cell radius, offset, count) over the ascending
    centers xs."""
    return BallFamily(grid, lattice_of(grid, xs), blocks, radius_ladder, distance_ladder)


def enumerate_family(grid: Grid, policy, cells) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """make_ball_family's enumeration of the ascending cell radii cells in
    float arrays: the centers xs, the marks j stride with |j| stride <=
    max_center_norm that fit the smallest radius, |c| + r < X - h/4, and
    one (cell radius, offset, count) per radius with a ball that fits."""
    h, X, stride = grid.spacing, grid.halfwidth, policy.center_stride
    k_max = int(math.floor(min(X, policy.max_center_norm) / stride + 1e-9))
    marks = np.arange(-k_max, k_max + 1, dtype=np.float64) * stride
    cand = marks[np.abs(marks) <= policy.max_center_norm * (1 + 1e-12)]
    lim = X - h / 4.0
    xs = cand[np.abs(cand) + cells[0] * h < lim]
    blocks = []
    for m in cells:
        n = int(np.count_nonzero(np.abs(xs) + m * h < lim))
        if n:
            blocks.append((m, (xs.size - n) // 2, n))
    return xs, blocks


def sorted_segment_plan(family, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The segment plan's (starts, buckets) of kind (a plain mode) by a
    searchsorted over each block's centers, an array of the lattice's coordinates."""
    if kind == "small-radius":
        cuts, side = family.radius_ladder * (1 + 1e-12), "left"
    else:
        ladder = family.distance_ladder if kind == "far-from-origin" else family.radius_ladder
        cuts, side = ladder * (1 - 1e-12), "right"
    xs, starts, keys = family.grid.coords(family.lattice), [], []
    for b in family.blocks:
        c, cut = xs[family.lattice.index(b.run.start) :][: b.count], {0}
        if kind == "far-from-origin":
            z = int(np.searchsorted(c, 0.0))
            neg, pos = -c[:z] - b.radius, c[z:] - b.radius
            cut.add(z)
            cut.update((z - np.searchsorted(neg[::-1], cuts)).tolist())
            cut.update((z + np.searchsorted(pos, cuts)).tolist())
        segs = sorted(i for i in cut if i < b.count)
        starts += [b.start + i for i in segs]
        keys += (np.abs(c[segs]) - b.radius).tolist() if kind == "far-from-origin" else [b.radius] * len(segs)
    return np.array(starts, dtype=np.intp), np.searchsorted(cuts, keys, side=side)


def sorted_supercritical_spans(family, reach) -> list[tuple[int, int]]:
    """supercritical_spans's (a, b) per block for one reach per block, a
    count of samples, by a searchsorted over each block's sample indices
    for n0 - reach < i < n0 + reach."""
    n0, spans = family.grid.half_cells, []
    for b, r in zip(family.blocks, reach):
        i = np.asarray(b.run)
        a = int(np.searchsorted(i, n0 - r, side="right"))
        spans.append((b.start + a, b.start + max(a, int(np.searchsorted(i, n0 + r)))))
    return spans


def supercritical_mask(family, rho) -> np.ndarray:
    """Per family ball, r >= rho(center) (ties count): rho is a scalar or
    an array aligned with the family's lattice."""
    if np.ndim(rho):
        rho = np.asarray(rho)[np.searchsorted(family.grid.coords(family.lattice), family.centers[:, 0])]
    return family.radii >= rho


def reach_mask(family, reach) -> np.ndarray:
    """Per family ball, its center's sample distance |i - n0| to the
    origin's below the reach of its radius block."""
    per_ball = np.repeat(np.asarray(reach), [b.count for b in family.blocks])
    i = np.concatenate([np.asarray(b.run) for b in family.blocks])
    return np.abs(i - family.grid.half_cells) < per_ball


_DISTANCE_MODES = ("far-from-origin", "far-and-supercritical")


def dense_bucketed_sup(metric: np.ndarray, family, mode: str, supercritical: np.ndarray | None = None) -> LimitCurve:
    """bucketed_sup as one family-sized mask per cutoff: the per-cutoff
    scan that the one-pass bucketed_sup replaced.  supercritical: the
    per-ball mask the supercritical modes intersect with, else None."""
    vals = np.asarray(metric, dtype=np.float64).reshape(-1)
    ladder = family.distance_ladder if mode in _DISTANCE_MODES else family.radius_ladder
    r = family.radii
    inner = np.abs(family.centers[:, 0]) - r
    out_vals = np.full(ladder.shape, np.nan)
    out_counts = np.zeros(ladder.shape, dtype=np.int64)
    for j, a in enumerate(ladder):
        if mode == "small-radius":
            mask = r <= a * (1 + 1e-12)
        elif mode in _DISTANCE_MODES:
            mask = inner >= a * (1 - 1e-12)
        else:
            mask = r >= a * (1 - 1e-12)
        if mode.endswith("-and-supercritical"):
            mask &= supercritical
        cnt = int(np.count_nonzero(mask))
        out_counts[j] = cnt
        if cnt:
            out_vals[j] = float(np.max(vals[mask]))
    return LimitCurve(mode, ladder, out_vals, out_counts)


def dense_bmo_l_norm(stats, supercritical: np.ndarray) -> SplitNormReport:
    """bmo_l_norm as one family-sized mask per part of the expanded stats,
    the supercritical balls given per ball, and an argmax over each part's
    indices."""

    def masked_sup(vals, mask):
        if not np.any(mask):
            return 0.0, -1
        idx = np.nonzero(mask)[0]
        j = idx[int(np.argmax(vals[idx]))]
        return float(vals[j]), int(j)

    osc, osc_arg = masked_sup(dense_values(stats.oscillation), ~supercritical)
    size, size_arg = masked_sup(dense_values(stats.size), supercritical)
    return SplitNormReport(osc + size, osc, size, osc_arg >= 0, size_arg >= 0, osc_arg, size_arg, len(stats.family))


def naive_sup_reductions(osc: np.ndarray, size: np.ndarray, family, rho):
    """bmo_norm, bmo_l_norm and the five curves of oscillation_curves from
    one value per ball, ball by ball: a ball is supercritical when its
    radius reaches rho at its center (rho a scalar) or its center's
    sample distance to the origin's lies below its block's reach (rho one
    reach per block); a norm is the
    first-index argmax over its balls; a curve puts each ball in the
    bucket of the cutoff nearest the limit at which its key (radius, or
    inner distance |c| - r) still qualifies, and a cutoff takes the balls
    of its bucket and of every bucket nearer the limit."""
    radii, centers = family.radii, family.centers[:, 0]
    sup = reach_mask(family, rho) if np.ndim(rho) else supercritical_mask(family, rho)

    def first_sup(vals, mask):
        idx = [i for i in range(len(family)) if mask[i]]
        if not idx:
            return 0.0, -1
        best = idx[0]
        for i in idx[1:]:
            if vals[i] > vals[best]:
                best = i
        return float(vals[best]), best

    plain = OscillationReport(*first_sup(osc, np.ones(len(family), dtype=bool)), len(family))
    (o, oa), (z, za) = first_sup(osc, ~sup), first_sup(size, sup)
    split = SplitNormReport(o + z, o, z, oa >= 0, za >= 0, oa, za, len(family))

    curves = {}
    for mode in MODES:
        vals = size if mode in SUPERCRITICAL_MODES else osc
        ladder = family.distance_ladder if mode in _DISTANCE_MODES else family.radius_ladder
        n = len(ladder)
        top, counts = [-math.inf] * n, [0] * n
        for i in range(len(family)):
            if mode in SUPERCRITICAL_MODES and not sup[i]:
                continue
            if mode == "small-radius":
                # the smallest cutoff a with r <= a; every larger one takes it
                hits = [j for j in range(n) if radii[i] <= ladder[j] * (1 + 1e-12)]
                covered = range(hits[0], n) if hits else range(0)
            else:
                key = abs(centers[i]) - radii[i] if mode in _DISTANCE_MODES else radii[i]
                # the largest cutoff a with key >= a; every smaller one takes it
                hits = [j for j in range(n) if key >= ladder[j] * (1 - 1e-12)]
                covered = range(0, hits[-1] + 1) if hits else range(0)
            for j in covered:
                top[j], counts[j] = max(top[j], float(vals[i])), counts[j] + 1
        values = np.array([t if c else math.nan for t, c in zip(top, counts)])
        curves[mode] = LimitCurve(mode, ladder, values, np.array(counts, dtype=np.int64))
    return plain, split, curves
