import math

import numpy as np
import pytest

from oscillab.errors import BracketError, ConfigError
from oscillab.grid import Grid, GridFunction
from oscillab.potential import (
    constant_potential,
    normalized_mass,
    power_potential,
    rho_values_for,
    solve_critical_radius,
    tabulated_potential,
    zero_potential,
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
    g = Grid(halfwidth=4.0, spacing=0.25)
    with pytest.raises(ConfigError):
        tabulated_potential(GridFunction.constant(g, -1.0))


def test_is_zero():
    assert zero_potential(1).is_zero()
    assert constant_potential(0.0, 2).is_zero()
    assert not constant_potential(1.0, 2).is_zero()
    assert not power_potential(1.5, 1).is_zero()
    g = Grid(halfwidth=4.0, spacing=0.25)
    assert tabulated_potential(GridFunction.constant(g, 0.0)).is_zero()


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
    fld = solve_critical_radius(zero_potential(1), np.array([[0.0], [3.0]]))
    assert np.all(np.isinf(fld.values))
    assert not fld.saturated.any()


def test_bracket_error_when_floor_too_coarse():
    V = power_potential(1.05, 1, amplitude=1e12)
    with pytest.raises(BracketError):
        solve_critical_radius(V, np.array([[0.0]]))


def test_tabulated_radius_tracks_constant():
    g = Grid(halfwidth=8.0, spacing=2.0**-6)
    V = tabulated_potential(GridFunction.constant(g, 1.0))
    assert _rho_at(V, [0.0]) == pytest.approx(2.0**-0.5, abs=2 * g.spacing)


def test_tabulated_saturates_at_box_margin():
    g = Grid(halfwidth=4.0, spacing=0.25)
    V = tabulated_potential(GridFunction.constant(g, 1e-6))
    fld = solve_critical_radius(V, np.array([[0.0]]))
    assert fld.saturated[0]
    assert fld.values[0] == pytest.approx(4.0 - 0.25)


def test_tabulated_no_room_raises():
    g = Grid(halfwidth=4.0, spacing=0.25)
    V = tabulated_potential(GridFunction.constant(g, 1.0))
    with pytest.raises(BracketError):
        solve_critical_radius(V, np.array([[3.75]]))


def test_normalized_mass_shapes_and_zero():
    pts = np.array([[0.0], [1.0], [2.0]])
    assert normalized_mass(zero_potential(1), pts, 1.0).shape == (3,)
    assert np.all(normalized_mass(zero_potential(1), pts, 1.0) == 0.0)
    got = normalized_mass(constant_potential(2.0, 1), pts, np.array([1.0, 1.0, 0.5]))
    assert np.allclose(got, [4.0, 4.0, 1.0])
    with pytest.raises(ConfigError):
        normalized_mass(constant_potential(1.0, 1), pts, -1.0)


def test_rho_values_for_accepted_forms():
    centers = np.array([[0.0], [1.0]])
    assert np.allclose(rho_values_for(0.5, centers), [0.5, 0.5])
    assert np.allclose(rho_values_for(np.array([0.5, 0.25]), centers), [0.5, 0.25])
    with pytest.raises(ConfigError):
        rho_values_for(np.array([0.5, 0.25, 0.125]), centers)
    with pytest.raises(ConfigError):
        rho_values_for(None, centers)
