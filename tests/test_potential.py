import math
import random
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oscillab import potential
from oscillab.errors import BracketError, ConfigError
from oscillab.family import FamilyPolicy, make_ball_family, supercritical_spans
from oscillab.grid import Grid
from oscillab.potential import (
    RHO_CAP,
    RHO_FLOOR,
    constant_potential,
    critical_reach,
    normalized_mass,
    power_potential,
    solve_critical_radius,
)
import oracles


def test_constructor_validation():
    with pytest.raises(ConfigError):
        constant_potential(-1.0, 1)
    with pytest.raises(ConfigError):
        constant_potential(1.0, 4)
    with pytest.raises(ConfigError):
        power_potential(2.5, 1)
    with pytest.raises(ConfigError):
        power_potential(0.5, 1)  # not locally integrable in dimension 1
    # fine in dimension 2
    power_potential(0.5, 2)


def test_is_zero():
    assert constant_potential(0.0, 2).is_zero()
    assert not constant_potential(1.0, 2).is_zero()
    assert not power_potential(1.5, 1).is_zero()
    assert power_potential(1.5, 1, amplitude=0.0).is_zero()


def _rho_at(V, x):
    return solve_critical_radius(V, x).values[0]


def test_critical_radius_constant_closed_forms():
    # I(x, r) = c * v_n * r^2, so rho = (c * v_n)^(-1/2)
    assert _rho_at(constant_potential(1.0, 1), 0.0) == pytest.approx(2.0**-0.5, abs=1e-9)
    assert _rho_at(constant_potential(1.0, 2), 0.0) == pytest.approx(math.pi**-0.5, abs=1e-9)
    assert _rho_at(constant_potential(4.0, 1), 7.0) == pytest.approx(8.0**-0.5, abs=1e-9)


def test_critical_radius_power_origin_closed_forms():
    # n=1, eps=3/2: I(0, r) = 4 r^(3/2), rho(0) = 2^(-4/3)
    V = power_potential(1.5, 1)
    assert _rho_at(V, 0.0) == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-9)
    # n=3, eps=1/2: I(0, r) = (8 pi / 3) sqrt(r), rho(0) = (3/(8 pi))^2
    V3 = power_potential(0.5, 3)
    assert _rho_at(V3, 0.0) == pytest.approx(
        (3.0 / (8.0 * math.pi)) ** 2, rel=1e-6
    )


def test_critical_radius_power_far_field_scaling():
    # away from the singularity rho(x) ~ (2a)^(-1/2) |x|^(1 - eps/2)
    V = power_potential(1.5, 1, amplitude=2.0)
    r1 = _rho_at(V, 100.0)
    r4 = _rho_at(V, 400.0)
    assert r4 / r1 == pytest.approx(4.0 ** (1.0 - 0.75), rel=5e-3)
    assert r1 == pytest.approx(0.5 * 100.0**0.25, rel=5e-3)


def test_zero_potential_gives_infinite_radius():
    fld = solve_critical_radius(constant_potential(0.0, 1), [0.0, 3.0])
    assert np.all(np.isinf(fld.values))
    assert not (fld.values == RHO_CAP).any()


def test_bracket_error_when_floor_too_coarse():
    V = power_potential(1.05, 1, amplitude=1e12)
    with pytest.raises(BracketError):
        solve_critical_radius(V, 0.0)


def test_normalized_mass_shapes_and_zero():
    pts = np.array([0.0, 1.0, 2.0])
    assert normalized_mass(constant_potential(0.0, 1), pts, 1.0).shape == (3,)
    assert np.all(normalized_mass(constant_potential(0.0, 1), pts, 1.0) == 0.0)
    got = normalized_mass(constant_potential(2.0, 1), pts, np.array([1.0, 1.0, 0.5]))
    assert np.allclose(got, [4.0, 4.0, 1.0])
    with pytest.raises(ConfigError):
        normalized_mass(constant_potential(1.0, 1), pts, -1.0)


# ---------------------------------------------------------------------------
# the bisection solve against the geometric scan it replaced


def _oracle_critical_radius(V, points):
    """rho by the earlier method: a 2^(1/4) geometric scan from the floor to
    the first radius with I > 1 (or the cap), then 40 linear bisection
    steps inside that bracket.  Returns (values, saturated at the cap)."""
    pts = np.asarray(points, dtype=np.float64)
    k = pts.shape[0]
    r_min, r_max = RHO_FLOOR, np.full(k, RHO_CAP)
    if np.any(normalized_mass(V, pts, np.full(k, r_min)) > 1.0):
        raise BracketError("normalized mass already exceeds 1 at the scan floor")

    lo = np.full(k, r_min)
    hi = np.full(k, np.nan)
    saturated = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)
    r = np.full(k, r_min)
    while np.any(active):
        r_next = np.minimum(r * 2.0**0.25, r_max)
        probe = active.copy()
        vals = np.full(k, np.nan)
        vals[probe] = normalized_mass(V, pts[probe], r_next[probe])
        newly_over = probe & (vals > 1.0)
        hi[newly_over] = r_next[newly_over]
        active &= ~newly_over
        ok = probe & ~newly_over
        lo[ok] = r_next[ok]
        at_cap = ok & (r_next >= r_max * (1 - 1e-12))
        saturated |= at_cap
        active &= ~at_cap
        r = r_next

    todo = ~saturated
    if np.any(todo):
        a = lo[todo].copy()
        b = hi[todo].copy()
        sub = pts[todo]
        for _ in range(40):
            mid = 0.5 * (a + b)
            vals = normalized_mass(V, sub, mid)
            inside = vals <= 1.0
            a = np.where(inside, mid, a)
            b = np.where(inside, b, mid)
        lo[todo] = a
    return lo, saturated


def _assert_matches_oracle(V, pts):
    """The solve agrees with the oracle to 2e-13 relative, and its rho is
    admissible (I(x, rho) <= 1): it is the sup, not the bracket's top."""
    fld = solve_critical_radius(V, pts)
    want, saturated = _oracle_critical_radius(V, pts)
    assert np.array_equal(fld.values == RHO_CAP, saturated)
    rel = np.abs(fld.values - want) / want
    assert rel.max() <= 2e-13, rel.max()
    assert np.all(normalized_mass(V, pts, fld.values) <= 1.0)
    return fld.values, want


def test_critical_radius_matches_scan_oracle_at_lacunary_centers():
    # exp_lacunary's default geometry and potential: 131,071 distinct centers
    spacing = 2.0**-8
    grid = Grid(halfwidth=16384.0, spacing=spacing)
    fam = make_ball_family(
        grid, FamilyPolicy(center_stride=0.25, radius_min=4 * spacing, radius_max=4096.0, distance_max=4096.0)
    )
    xs = grid.coords(fam.lattice)
    assert xs.size == 131071
    got, want = _assert_matches_oracle(power_potential(1.05, 1, amplitude=0.002), xs)
    # no family ball changes side of rho
    at = np.searchsorted(xs, fam.centers[:, 0])
    assert np.array_equal(fam.radii < got[at], fam.radii < want[at])


@pytest.mark.parametrize(
    "V",
    [power_potential(1.05, 1, amplitude=0.002), power_potential(1.5, 1), power_potential(1.95, 1),
     constant_potential(1.0, 1)],
    ids=["power-1.05", "power-1.5", "power-1.95", "constant"],
)
def test_critical_radius_is_bit_even_at_lacunary_centers(V):
    # the 131,071 distinct lacunary centers, mirrored: the mass at -x is the
    # mass at x to the bit, so one solve per |x| serves both signs.  The
    # potential layer reads |x| alone, so the 1-D mass formula is checked
    # on signed centers too: its antiderivative is odd to the bit (the
    # constant's integrand is |y|^0)
    xs = np.arange(-65535, 65536) * 0.25
    p = V.eps - 2.0 if V.kind == "power" else 0.0
    assert np.array_equal(potential._power_mass_1d(-xs, 1.0, p), potential._power_mass_1d(xs, 1.0, p))
    assert np.array_equal(normalized_mass(V, -xs, 1.0), normalized_mass(V, xs, 1.0))
    assert np.array_equal(solve_critical_radius(V, -xs).values, solve_critical_radius(V, xs).values)


_RADIAL = [power_potential(1.5, n) for n in (1, 2, 3)] + [constant_potential(1.0, n) for n in (1, 2, 3)]


@pytest.mark.parametrize("V", _RADIAL, ids=[f"{V.kind}-n{V.n}" for V in _RADIAL])
def test_a_point_is_read_at_its_distance(V):
    # in every dimension a point is its distance |x|: -d gives the mass and
    # rho of d to the bit, the field's points are the distances, and a
    # scalar is one point
    d = np.array([0.0, 0.5, 3.0, 100.0, 1.0e4])
    assert np.array_equal(normalized_mass(V, -d, 1.0), normalized_mass(V, d, 1.0))
    neg, pos = solve_critical_radius(V, -d), solve_critical_radius(V, d)
    assert np.array_equal(neg.values, pos.values) and np.array_equal(neg.points, d)
    assert normalized_mass(V, -3.0, 1.0).shape == (1,)
    one = solve_critical_radius(V, -3.0)
    assert one.points.shape == one.values.shape == (1,) and one.values[0] == pos.values[2]


def test_distances_solve_elementwise_in_dimension_3():
    # two distances for an n = 3 potential are two points, not one point
    # of the wrong dimension
    V = power_potential(0.5, 3)
    rho = solve_critical_radius(V, [100.0, 1000.0]).values
    assert rho.tolist() == [solve_critical_radius(V, x).values[0] for x in (100.0, 1000.0)]
    assert rho[1] / rho[0] == pytest.approx(10.0 ** (1.0 - 0.5 / 2.0), rel=1e-2)


def test_critical_radius_matches_scan_oracle_at_jittered_rho_slope_points():
    # the shipped rho-slope kinds at the points a jittered run at seed 0 draws
    rng = random.Random(0)
    for V in (power_potential(1.5, 1), power_potential(0.5, 3), constant_potential(1.0, 2)):
        xs = np.geomspace(100.0, 1.0e4, 24) * np.exp([rng.uniform(-0.05, 0.05) for _ in range(24)])
        _assert_matches_oracle(V, xs)


def test_gauss_legendre_rule_matches_a_40_digit_oracle_and_is_exact_to_degree_255():
    # every node within 1 ulp of the root and every weight within 1e-12
    # relative (an eigensolve's rule is 1.4e-11 off); sum w P_k(x) = 2 delta_k0
    # for every k <= 2n - 1, the sums taken exactly of the rounded products
    x, w = potential._legendre_rule(128)
    want_x, want_w = oracles.legendre_rule_decimal(128)
    for got, want in zip(x.tolist(), want_x):
        assert abs(Decimal(got) - want) <= Decimal(math.ulp(float(want))), float(want)
    for got, want in zip(w.tolist(), want_w):
        assert abs((Decimal(got) - want) / want) <= Decimal("1e-12"), float(want)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    p0, p1 = np.ones_like(x), x
    errors = [abs(math.fsum(w) - 2.0), abs(math.fsum(w * x))]
    for j in range(1, 255):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        errors.append(abs(math.fsum(w * p1)))
    assert max(errors) <= 2e-15
    t, weights = potential._gauss_legendre()
    assert np.array_equal(t, (x + 1.0) / 2.0) and np.array_equal(weights, w)


@pytest.mark.parametrize(
    "V",
    [power_potential(1.5, 1), power_potential(0.5, 3), constant_potential(1.0, 2),
     power_potential(1.05, 1, amplitude=0.002)],
    ids=["n1-power-1.5", "n3-power-0.5", "n2-constant", "n1-power-1.05"],
)
def test_normalized_mass_is_nondecreasing_in_the_radius(V):
    # the bisection keeps the sup only if I(x, .) is monotone; away from
    # 1e-3 <= I <= 1e3 the radial quadrature is not exact enough to say
    radii = np.geomspace(RHO_FLOOR, RHO_CAP, 2000)
    for x in np.geomspace(1e-2, 1.05e4, 60):
        mass = normalized_mass(V, x, radii)
        band = (mass >= 1e-3) & (mass <= 1e3)
        both = band[:-1] & band[1:]
        assert np.all(np.diff(mass)[both] >= 0.0), x


# ---------------------------------------------------------------------------
# the reach search against the solve at every center


def _assert_reach_is_the_solve_at_each_center(V, grid, lattice, radii):
    """critical_reach keeps, for each radius R, exactly the centers i of
    lattice with |i - n0| below its reach, an integer, for which R >=
    rho(center), rho solved at every center; or both raise BracketError."""
    xs, d = grid.coords(lattice), np.abs(np.asarray(lattice) - grid.half_cells)
    try:
        rho = solve_critical_radius(V, xs).values
    except BracketError:
        with pytest.raises(BracketError):
            critical_reach(V, grid, lattice, radii)
        return None
    reach = critical_reach(V, grid, lattice, radii)
    assert reach.shape == (len(radii),) and reach.dtype.kind == "i"
    for R, t in zip(radii, reach):
        assert np.array_equal(d < t, R >= rho), (R, t)
        assert t == grid.size or t in d
    return reach


# eps stays 1e-3 clear of 1: nearer, the 1-d antiderivative
# |y|^(eps - 1) / (eps - 1) loses its digits to cancellation, and the solved
# rho stops being monotone in |x| (at eps = 1 + 2^-52 it already is not)
_POTENTIALS = st.one_of(
    st.builds(lambda eps, a: power_potential(eps, 1, amplitude=10.0**a),
              st.floats(1.001, 1.999), st.floats(-4.0, 2.0)),
    # a constant's rho is one value everywhere; 1e-13 saturates it at the cap
    st.builds(lambda c: constant_potential(c, 1), st.sampled_from([0.0, 1e-13]) | st.floats(1e-3, 1e3)),
)


@given(
    V=_POTENTIALS,
    cells=st.integers(2, 8),
    stride=st.integers(1, 64),
    count=st.integers(1, 300),
    first=st.none() | st.integers(-300, 300),
    radius=st.tuples(st.integers(1, 64), st.sampled_from([1.5, 2.0, 3.0]), st.integers(1, 12)),
    shift=st.just(0) | st.integers(1, 63),
)
# the two sides of the origin in different classes (refused), then in one
# class half a stride off the origin; a lopsided run off its class
# (refused), then one in its class, farther on the negative side
@example(power_potential(1.5, 1), 4, 4, 50, None, (3, 2.0, 8), 1)
@example(power_potential(1.5, 1), 4, 4, 50, None, (3, 2.0, 8), 2)
@example(power_potential(1.5, 1), 4, 3, 16, -12, (3, 2.0, 8), 1)
@example(power_potential(1.5, 1), 4, 4, 16, -12, (3, 2.0, 8), 2)
def test_reach_is_the_solve_at_each_center(V, cells, stride, count, first, radius, shift):
    # centers every stride samples of a grid of spacing 2^-cells that
    # covers them: the marks k stride, symmetric about 0 (first None) or a
    # one-sided or lopsided run from first, moved by shift % stride
    # samples; a radius ladder of multiples of the spacing.  A move that
    # puts the two sides of the origin in different classes mod stride
    # leaves distances that are not one run, which is refused
    h = 2.0**-cells
    k0, k1 = (-count, count) if first is None else (first, first + count - 1)
    n0 = (max(abs(k0), abs(k1)) + 1) * stride
    grid = Grid(halfwidth=n0 * h, spacing=h)
    lattice = range(n0 + k0 * stride + shift % stride, n0 + k1 * stride + shift % stride + 1, stride)
    m, ratio, n = radius
    radii = m * h * ratio ** np.arange(n)
    d = np.unique(np.abs(np.array(lattice) - n0))
    if np.any(np.diff(d) != stride):
        with pytest.raises(ConfigError, match="not one run"):
            critical_reach(V, grid, lattice, radii)
        return
    _assert_reach_is_the_solve_at_each_center(V, grid, lattice, radii)


@pytest.mark.parametrize("h", [2.0**-5, 0.1, 0.3])
def test_reach_counts_samples_and_selects_the_centers_of_the_coordinates(h):
    # a stride family of 1,331 centers 3 samples apart on a grid of spacing
    # h, dyadic or not: the reach is an integer, and |i - n0| < reach keeps
    # the centers that |c| < coords(n0 + reach) keeps, which are those of
    # the solve at each center and those of the block's supercritical span
    g = Grid(halfwidth=2000 * h, spacing=h)
    fam = make_ball_family(g, FamilyPolicy(center_stride=3 * h, radius_min=4 * h))
    partial = 0
    for a in (0.05, 1.0):
        V = power_potential(1.5, 1, amplitude=a)
        reach = critical_reach(V, g, fam.lattice, [b.radius for b in fam.blocks])
        assert reach.dtype.kind == "i" and reach.shape == (len(fam.blocks),)
        for (b, lo, hi), t in zip(supercritical_spans(fam, reach), reach):
            i = np.asarray(b.run)
            mask = np.abs(i - g.half_cells) < t
            assert mask.dtype == bool and np.array_equal(mask, np.abs(g.coords(b.run)) < g.coords(g.half_cells + t))
            assert np.array_equal(mask, b.radius >= solve_critical_radius(V, g.coords(b.run)).values)
            assert np.array_equal(mask, np.isin(np.arange(b.start, b.stop), np.arange(lo, hi)))
            partial += bool(0 < np.count_nonzero(mask) < b.count)
    assert partial >= 4


def test_reach_at_the_lacunary_geometry_and_its_edge_cases():
    # the shipped lacunary potential over its 131,071 centers and 19 radii;
    # radii tied with the solved rho at a center (a tie is supercritical, so
    # the reach is the next center),
    # one ulp either side; the zero potential (no reach beyond the nearest
    # center) and a floor that the nearest center fails
    V = power_potential(1.05, 1, amplitude=0.002)
    g = Grid(halfwidth=16384.0, spacing=2.0**-8)
    lattice = range(g.half_cells - 65535 * 64, g.half_cells + 65535 * 64 + 1, 64)
    radii = 2.0**-6 * 2.0 ** np.arange(19)
    reach = _assert_reach_is_the_solve_at_each_center(V, g, lattice, radii)
    assert np.all(reach[1:] >= reach[:-1]) and 0 < reach[10] < reach[16] < g.size == reach[17]
    at = lattice[65535::977]
    rho = solve_critical_radius(V, g.coords(at)).values
    for radii in (rho, np.nextafter(rho, np.inf), np.nextafter(rho, -np.inf)):
        _assert_reach_is_the_solve_at_each_center(V, g, lattice, radii)
    # a radius tied with rho at a center reaches the next center, 64 samples on
    assert np.array_equal(critical_reach(V, g, lattice, rho), np.asarray(at) - g.half_cells + 64)
    assert np.array_equal(critical_reach(constant_potential(0.0, 1), g, lattice, radii), np.zeros(radii.size, dtype=int))
    with pytest.raises(BracketError):
        critical_reach(power_potential(1.05, 1, amplitude=1e6), g, lattice[1:], radii)
    # an empty lattice, and a potential off the grid's dimension, are refused
    for W, centers in ((V, lattice[:0]), (power_potential(0.5, 3), lattice)):
        with pytest.raises(ConfigError, match="nonempty lattice"):
            critical_reach(W, g, centers, radii)


def test_reach_at_the_lacunary_wide_geometry_holds_nothing_per_center():
    # configs/lacunary-wide.json's family: 2,097,151 centers in 23 radius
    # blocks.  The search reads a distance only at the indices it probes,
    # so its peak stays far below one float64 per center (16 MiB); building
    # the centers, as the search once did, peaked at 42 MiB
    g = Grid(halfwidth=2.0**18, spacing=2.0**-8)
    fam = make_ball_family(
        g, FamilyPolicy(center_stride=0.25, radius_min=4 * g.spacing, radius_max=65536.0, distance_max=65536.0)
    )
    V, radii = power_potential(1.05, 1, amplitude=0.002), [b.radius for b in fam.blocks]
    tracemalloc.start()
    try:
        reach = critical_reach(V, g, fam.lattice, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fam.lattice) == 2_097_151 and len(radii) == 23
    assert peak < 64 * 1024, peak
    assert np.all(reach[1:] >= reach[:-1]) and 0 < reach[10] < g.size == reach[-1]


def test_reach_probe_counts_a_tie_as_admissible(monkeypatch):
    # V = 1/2 puts I(x, 1) = 1 exactly at every x: radius 1 is admissible,
    # so the probe finds no supercritical center and the solve at the first
    # center settles the tie, where the solved rho (just below 1) makes
    # every center supercritical
    V = constant_potential(0.5, 1)
    g, lattice = Grid(halfwidth=8.0, spacing=1.0), range(8, 16)
    xs = g.coords(lattice)
    assert np.all(normalized_mass(V, xs, 1.0) == 1.0)
    solved = []
    original = potential.solve_critical_radius

    def recording(V, points):
        solved.append(points.tolist())
        return original(V, points)

    monkeypatch.setattr(potential, "solve_critical_radius", recording)
    assert critical_reach(V, g, lattice, [1.0]).tolist() == [g.size]
    assert solved[0] == [0.0]
    assert original(V, xs[:1]).values[0] <= 1.0
