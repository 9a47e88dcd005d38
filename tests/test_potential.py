import math

import numpy as np
import pytest

from oscillab.errors import BracketError, ConfigError
from oscillab.family import FamilyPolicy, make_ball_family
from oscillab.grid import Grid
from oscillab.potential import (
    RHO_CAP,
    RHO_FLOOR,
    constant_potential,
    normalized_mass,
    power_potential,
    solve_critical_radius,
)


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
    return solve_critical_radius(V, np.array([x], dtype=np.float64)).values[0]


def test_critical_radius_constant_closed_forms():
    # I(x, r) = c * v_n * r^2, so rho = (c * v_n)^(-1/2)
    assert _rho_at(constant_potential(1.0, 1), [0.0]) == pytest.approx(2.0**-0.5, abs=1e-9)
    assert _rho_at(constant_potential(1.0, 2), [0.0, 0.0]) == pytest.approx(math.pi**-0.5, abs=1e-9)
    assert _rho_at(constant_potential(4.0, 1), [7.0]) == pytest.approx(8.0**-0.5, abs=1e-9)


def test_critical_radius_power_origin_closed_forms():
    # n=1, eps=3/2: I(0, r) = 4 r^(3/2), rho(0) = 2^(-4/3)
    V = power_potential(1.5, 1)
    assert _rho_at(V, [0.0]) == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-9)
    # n=3, eps=1/2: I(0, r) = (8 pi / 3) sqrt(r), rho(0) = (3/(8 pi))^2
    V3 = power_potential(0.5, 3)
    assert _rho_at(V3, [0.0, 0.0, 0.0]) == pytest.approx(
        (3.0 / (8.0 * math.pi)) ** 2, rel=1e-6
    )


def test_critical_radius_power_far_field_scaling():
    # away from the singularity rho(x) ~ (2a)^(-1/2) |x|^(1 - eps/2)
    V = power_potential(1.5, 1, amplitude=2.0)
    r1 = _rho_at(V, [100.0])
    r4 = _rho_at(V, [400.0])
    assert r4 / r1 == pytest.approx(4.0 ** (1.0 - 0.75), rel=5e-3)
    assert r1 == pytest.approx(0.5 * 100.0**0.25, rel=5e-3)


def test_zero_potential_gives_infinite_radius():
    fld = solve_critical_radius(constant_potential(0.0, 1), np.array([[0.0], [3.0]]))
    assert np.all(np.isinf(fld.values))
    assert not fld.saturated.any()


def test_bracket_error_when_floor_too_coarse():
    V = power_potential(1.05, 1, amplitude=1e12)
    with pytest.raises(BracketError):
        solve_critical_radius(V, np.array([[0.0]]))


def test_normalized_mass_shapes_and_zero():
    pts = np.array([[0.0], [1.0], [2.0]])
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
    steps inside that bracket.  Returns (values, saturated)."""
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
    assert np.array_equal(fld.saturated, saturated)
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
    assert fam.xs.size == 131071
    got, want = _assert_matches_oracle(power_potential(1.05, 1, amplitude=0.002), fam.xs[:, None])
    # no family ball changes side of rho
    at = np.searchsorted(fam.xs, fam.centers[:, 0])
    assert np.array_equal(fam.radii < got[at], fam.radii < want[at])


@pytest.mark.parametrize(
    "V",
    [power_potential(1.05, 1, amplitude=0.002), power_potential(1.5, 1), power_potential(1.95, 1),
     constant_potential(1.0, 1)],
    ids=["power-1.05", "power-1.5", "power-1.95", "constant"],
)
def test_critical_radius_is_bit_even_at_lacunary_centers(V):
    # the 131,071 distinct lacunary centers, mirrored: the mass at -x is the
    # mass at x to the bit, so one solve per |x| serves both signs
    xs = np.arange(-65535, 65536) * 0.25
    assert np.array_equal(normalized_mass(V, -xs[:, None], 1.0), normalized_mass(V, xs[:, None], 1.0))
    assert np.array_equal(solve_critical_radius(V, -xs[:, None]).values, solve_critical_radius(V, xs[:, None]).values)


def test_critical_radius_matches_scan_oracle_at_jittered_rho_slope_points():
    # the shipped rho-slope kinds at the points a jittered run at seed 0 draws
    rng = np.random.default_rng(np.random.SeedSequence(0))
    for V in (power_potential(1.5, 1), power_potential(0.5, 3), constant_potential(1.0, 2)):
        xs = np.geomspace(100.0, 1.0e4, 24) * np.exp(rng.uniform(-0.05, 0.05, size=24))
        pts = np.zeros((xs.size, V.n))
        pts[:, 0] = xs
        _assert_matches_oracle(V, pts)


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
        pts = np.zeros((radii.size, V.n))
        pts[:, 0] = x
        mass = normalized_mass(V, pts, radii)
        band = (mass >= 1e-3) & (mass <= 1e3)
        both = band[:-1] & band[1:]
        assert np.all(np.diff(mass)[both] >= 0.0), x
