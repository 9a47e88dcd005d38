"""Nonnegative potentials and their critical radii.

A potential is one of two kinds:

* constant        V = c >= 0 (c = 0 is the zero potential, whose critical
                  radius is +inf everywhere, tagged);
* power           V(x) = amplitude * |x|^(eps - 2), 0 < eps < 2 (for ambient
                  dimension 1 additionally eps > 1 so V is locally
                  integrable).

The central quantity is the normalized ball mass

    I(x, r) = r^(2 - n) * integral over B(x, r) of V,

and the critical radius rho(x) = sup { r > 0 : I(x, r) <= 1 }.  I is
evaluated by exact antiderivatives (n = 1) or radial quadrature (n = 2,
3); the n = 2 and n = 3 kinds serve the growth-exponent checks only, since
every grid is one-dimensional.

Both kinds are radial, so every function here reads a point x as its
distance |x| alone, a scalar or an array of them taken elementwise; n is
only the dimension of the ball B(x, r).

I(x, r) is nondecreasing in r, so solve_critical_radius finds rho by
bisecting log r between a floor and a cap, every point at once; its
docstring gives the monotonicity argument.  The rho-slope scenario solves
it so at each of its points.

A ball family asks only whether a ball is supercritical, R >= rho(x).
Both kinds are even in x and, in |x|, constant or decreasing, so a ball
of radius R about x holds less mass the farther x lies from the origin:
I(x, R) is nonincreasing and rho nondecreasing in |x|.  The supercritical
balls of one radius are therefore those with |x| below one threshold,
and critical_reach finds it, as a count of samples from the origin's, by
a binary search over the distinct |x| of a lattice of centers, one run
that it reads only where it probes, solving rho only either side of the
threshold, not at every center.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import BracketError, ConfigError
from .grid import Grid

UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
UNIT_SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


class Potential(NamedTuple):
    """One potential; build via the module constructors, not directly."""

    kind: str
    n: int
    constant: float = 0.0
    eps: float = 0.0
    amplitude: float = 1.0
    # a class attribute, not a field: no kind has samples, and the only
    # reader is the semigroup.discretize counter of oscbench/tracing.py
    samples = None

    def is_zero(self) -> bool:
        if self.kind == "constant":
            return self.constant * self.amplitude == 0.0
        return self.amplitude == 0.0


def constant_potential(c: float, n: int = 1) -> Potential:
    if n not in (1, 2, 3):
        raise ConfigError("potential dimension must be 1, 2, or 3")
    if not (c >= 0 and math.isfinite(c)):
        raise ConfigError(f"constant potential must be >= 0, got {c}")
    return Potential("constant", n, constant=float(c))


def power_potential(eps: float, n: int = 1, amplitude: float = 1.0) -> Potential:
    """V(x) = amplitude * |x|^(eps-2); requires 0 < eps < 2, and eps > 1
    when n = 1 so the local singularity is integrable."""
    if n not in (1, 2, 3):
        raise ConfigError("potential dimension must be 1, 2, or 3")
    if not (0.0 < eps < 2.0):
        raise ConfigError(f"power exponent offset must satisfy 0 < eps < 2, got {eps}")
    if n == 1 and eps <= 1.0:
        raise ConfigError(
            f"power potential with eps = {eps} is not locally integrable in dimension 1; need eps > 1"
        )
    if not (amplitude >= 0 and math.isfinite(amplitude)):
        raise ConfigError("amplitude must be a nonnegative finite number")
    return Potential("power", n, eps=float(eps), amplitude=float(amplitude))


# ---------------------------------------------------------------------------
# ball masses


def _power_mass_1d(x: np.ndarray, r: np.ndarray, p: float) -> np.ndarray:
    """integral over (x-r, x+r) of |y|^p dy, p > -1, vectorised."""
    if p <= -1:
        raise ConfigError(f"|y|^{p} is not locally integrable in dimension 1")
    k = p + 1.0

    def anti(y: np.ndarray) -> np.ndarray:
        return np.sign(y) * np.abs(y) ** k / k

    return anti(x + r) - anti(x - r)


def _legendre(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), |x| < 1, by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on (-1, 1), n even, nodes ascending.

    Newton's method on P_n from cos(pi (k - 1/4) / (n + 1/2)), the k-th
    root's asymptotic guess, for the n/2 positive roots, mirrored; the
    weights are 2 / ((1 - x)(1 + x) P_n'(x)^2).  From that start three
    steps reach the float64 fixed point at n = 128, so four are run.
    """
    x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(4):
        p, dp = _legendre(x, n)
        x = x - p / dp
    _, dp = _legendre(x, n)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 128-point Gauss-Legendre rule, nodes mapped to (0, 1), and its
    weights; built once, on the first radial mass, with no linear algebra."""
    nodes, weights = _legendre_rule(128)
    return (nodes + 1.0) / 2.0, weights


def _panel_integral(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre over [lo, hi] per pair, three graded panels.

    The lower endpoint can carry an integrable algebraic singularity, so
    the first panels are short.
    """
    gl_t, gl_weights = _gauss_legendre()
    total = np.zeros(np.shape(lo))
    width = hi - lo
    cuts = (0.0, 0.02, 0.25, 1.0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        p_lo = lo + width * a
        p_w = width * (b - a)
        s = p_lo[..., None] + p_w[..., None] * gl_t[None, :]
        vals = fn(s)
        total += 0.5 * p_w * np.sum(vals * gl_weights[None, :], axis=-1)
    return total


def _power_mass_radial(d: np.ndarray, r: np.ndarray, p: float, n: int) -> np.ndarray:
    """integral over B(x, r), |x| = d, of |y|^p dy for n in {2, 3}."""
    if n + p <= 0:
        raise ConfigError(f"|y|^{p} is not locally integrable in dimension {n}")
    sigma = UNIT_SPHERE_AREA[n]
    d = np.asarray(d, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(d.shape, r.shape))
    d, r = np.broadcast_arrays(d, r)

    central = d <= 1e-12 * r
    if np.any(central):
        out[central] = sigma * r[central] ** (n + p) / (n + p)

    rest = ~central
    if np.any(rest):
        dd, rr = d[rest], r[rest]
        full = np.where(dd < rr, (np.abs(rr - dd)) ** (n + p) * sigma / (n + p), 0.0)

        lo = np.abs(rr - dd)
        hi = rr + dd

        def integrand(s):
            """The shell of radius s inside the ball: its arc (n = 2) or cap (n = 3)."""
            cosv = (s**2 + dd[..., None] ** 2 - rr[..., None] ** 2) / (
                2.0 * s * dd[..., None]
            )
            if n == 2:
                return 2.0 * s ** (p + 1) * np.arccos(np.clip(cosv, -1.0, 1.0))
            return 2.0 * math.pi * s ** (p + 2) * (1.0 - np.clip(cosv, -1.0, 1.0))

        out[rest] = full + _panel_integral(integrand, lo, hi)
    return out


def _distances(x) -> np.ndarray:
    """The distances |x| of a scalar or an array of points, at least 1-D."""
    return np.atleast_1d(np.abs(np.asarray(x, dtype=np.float64)))


def normalized_mass(V: Potential, x, radii) -> np.ndarray:
    """I(x, r) = r^(2-n) * mass of V over B(x, r), elementwise in the
    distances |x| and the radii, broadcast together; at least 1-D."""
    d, r = np.broadcast_arrays(_distances(x), np.asarray(radii, dtype=np.float64))
    if np.any(r <= 0):
        raise ConfigError("radii must be positive")
    n = V.n

    if V.kind == "constant":
        c = V.constant * V.amplitude
        return c * UNIT_BALL_VOLUME[n] * r**2
    p = V.eps - 2.0
    if n == 1:
        mass = _power_mass_1d(d, r, p)
    else:
        mass = _power_mass_radial(d, r, p, n)
    return V.amplitude * r ** (2 - n) * mass


# ---------------------------------------------------------------------------
# critical radius


# bracket floor and cap, and halvings of the log-bracket in
# solve_critical_radius: ln(RHO_CAP / RHO_FLOOR) * 2^-48 is 8e-14, the
# relative width the solve leaves
RHO_FLOOR = 1e-4
RHO_CAP = 1e6
RHO_BISECT_STEPS = 48


class CriticalRadiusField(NamedTuple):
    """Solved critical radii at a fixed set of points.

    points are the distances |x| (oscbench/tracing.py counts them by that
    name).  values may contain +inf only when the potential is identically
    zero (the infinite tag participates in comparisons, never in
    arithmetic).  For a nonzero potential, values is RHO_CAP exactly where
    the cap is still admissible: a bisected value stays below it.
    """

    points: np.ndarray
    values: np.ndarray


def check_bracket_floor(V: Potential, x) -> None:
    """BracketError unless I(x, r_min) <= 1 at each distance |x| of x, so
    that rho(x) is at least the floor RHO_FLOOR.  I(., r) is largest at
    the smallest |x|, so a caller that knows that point can test it
    alone."""
    d = _distances(x)
    bad = np.flatnonzero(normalized_mass(V, d, RHO_FLOOR) > 1.0)
    if bad.size:
        raise BracketError(
            f"normalized mass already exceeds 1 at the bracket floor r={RHO_FLOOR} "
            f"for {bad.size} point(s), e.g. at |x| = {d.flat[bad[0]]}"
        )


def solve_critical_radius(V: Potential, x) -> CriticalRadiusField:
    """rho(x) = sup { r : I(x, r) <= 1 } at each distance |x| of x, by
    bisection of log r between the floor r_min and the cap r_max.

    I(x, .) is nondecreasing in r, so {r : I(x, r) <= 1} is an interval
    from r_min and a bracket [lo, hi] with I(lo) <= 1 < I(hi) keeps its
    sup.  For n = 2, I is the mass of a growing ball; for n = 1 it is r
    times that mass.  For n = 3, I = mass / r: c * (4 pi / 3) * r^2 for
    the constant kind, and for the power kind tests/test_potential.py
    measures it nondecreasing on the radial quadrature.  Each step halves
    the bracket at its geometric midpoint sqrt(lo * hi), so after
    RHO_BISECT_STEPS steps hi / lo = (r_max / r_min)^(2^-RHO_BISECT_STEPS),
    and the returned lo is admissible and within that ratio of the sup.

    r_min is RHO_FLOOR and r_max RHO_CAP.  A point with I(r_max) <= 1 gets
    r_max.  Errors: BracketError when I(r_min) > 1
    somewhere.  A potential that is identically zero yields +inf
    everywhere.
    """
    d = _distances(x)
    if V.is_zero():
        return CriticalRadiusField(d, np.full(d.shape, np.inf))

    check_bracket_floor(V, d)
    todo = ~(normalized_mass(V, d, RHO_CAP) <= 1.0)
    sub = d[todo]
    lo = np.full(sub.shape[0], RHO_FLOOR)
    hi = np.full(sub.shape[0], RHO_CAP)
    for _ in range(RHO_BISECT_STEPS):
        mid = np.sqrt(lo * hi)
        inside = normalized_mass(V, sub, mid) <= 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    values = np.full(d.shape, RHO_CAP)
    values[todo] = lo
    return CriticalRadiusField(d, values)


def _first_false(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """critical_reach's search, per lane i (a radius): the first j in
    [lo[i], hi[i]) where pred fails, or hi[i] where it holds throughout;
    pred holds on a prefix of each range.  pred(j, i) evaluates index j[t]
    of lane i[t], every open lane at once.  lo and hi are narrowed in place."""
    while True:
        i = np.flatnonzero(lo < hi)
        if not i.size:
            return lo
        j = (lo[i] + hi[i]) // 2
        ok = pred(j, i)
        lo[i] = np.where(ok, j + 1, lo[i])
        hi[i] = np.where(ok, hi[i], j)


def critical_reach(V: Potential, grid: Grid, lattice: range, radii) -> np.ndarray:
    """The reach of each radius R over the centers at the sample indices
    lattice of grid, an integer array: the sample distance |i - n0| of the
    first of their distinct |x| at which R < rho(x), or grid.size where R
    >= rho at all of them.  rho is the critical radius as
    solve_critical_radius gives it, and, rho being nondecreasing in |x|
    (module docstring), a ball of radius R about the center at sample i is
    supercritical, R >= rho(x), exactly when |i - n0| is below R's reach.

    For n0 the origin's sample and s the lattice's step, the distinct
    |i - n0| are one run at step s, d[j] = (nearest + j s) h up to the
    farthest, when the lattice lies on one side of n0 or spans it with
    2 (n0 - lattice.start) a multiple of s, as every stride family does.
    The search reads d[j] only where it probes, every radius at once:

    * probe: a binary search with the probe I(d, R) > 1, which puts R
      outside {r : I(d, r) <= 1}, so at or above rho(d); a tie I = 1
      admits R and is left to the solve;
    * confirm: solve_critical_radius either side of each threshold, and
      where the solve disagrees (R within its tolerance of rho there), a
      binary search with the solve as the probe moves the threshold to
      where both sides agree.

    A zero potential has rho = +inf, and every reach is the smallest
    distance.  Errors: ConfigError for any other lattice, an empty one, or
    a potential not in the grid's dimension; BracketError when I(d, r_min)
    > 1 at the smallest distance, as the solve at every center would raise
    it, or when a threshold's two sides contradict the monotonicity.
    """
    n0, s = grid.half_cells, lattice.step
    if not lattice or s < 0 or V.n != grid.n:
        raise ConfigError("critical_reach needs a nonempty lattice at a positive step, in the potential's dimension")
    # the lattice's extent either side of n0, negative on a side it misses
    a, b = n0 - lattice[0], lattice[-1] - n0
    if min(a, b) > 0 and 2 * a % s:
        raise ConfigError(f"the distances of the centers {lattice} to the origin's sample {n0} are not one run")
    nearest = a % s if min(a, b) > 0 else -min(a, b)
    n = (max(a, b) - nearest) // s + 1
    r = np.asarray(radii, dtype=np.float64).reshape(-1)

    def d(j):
        # d[j], the coordinate of the sample n0 + nearest + j s
        return grid.coords(n0 + nearest + s * j)

    if V.is_zero():
        return np.full(r.size, nearest)
    check_bracket_floor(V, d(0))

    def supercritical(j, i):
        # one solve per distinct distance, in the order first probed (radii
        # short of every center share d[0]); the solve is elementwise
        slot = {}
        at = [slot.setdefault(x, len(slot)) for x in j.tolist()]
        return r[i] >= solve_critical_radius(V, d(np.array(list(slot), dtype=np.intp))).values[at]

    k = _first_false(lambda j, i: normalized_mass(V, d(j), r[i]) > 1.0,
                     np.zeros(r.size, dtype=np.intp), np.full(r.size, n))
    # the boundary pair d[k - 1], d[k] of each threshold inside d, solved at once
    below, above = np.flatnonzero(k > 0), np.flatnonzero(k < n)
    sup = supercritical(np.concatenate((k[below] - 1, k[above])), np.concatenate((below, above)))
    low_ok, high_ok = np.ones(r.size, dtype=bool), np.ones(r.size, dtype=bool)
    low_ok[below], high_ok[above] = sup[: below.size], ~sup[below.size :]
    if np.any(~low_ok & ~high_ok):
        i = int(np.flatnonzero(~low_ok & ~high_ok)[0])
        raise BracketError(f"solved rho falls from |x| = {d(k[i] - 1)} to {d(k[i])} across radius {r[i]}")
    k = _first_false(supercritical, np.where(high_ok, np.where(low_ok, k, 0), k + 1),
                     np.where(high_ok, np.where(low_ok, k, k - 1), n))
    return np.where(k < n, nearest + s * k, grid.size)
