import numpy as np
import pytest

from oscillab.corpus import CORPUS, corpus_grid, corpus_operator, member_by_name
from oscillab.errors import ConfigError
from oscillab.grid import Grid
from oracles import l2_norm


def test_roster():
    names = [m.name for m in CORPUS]
    assert len(names) == len(set(names)) == 10
    with pytest.raises(ConfigError):
        member_by_name("missing")


def test_corpus_grid_shape():
    g = corpus_grid()
    assert g.n == 1
    assert g.halfwidth == 16.0
    assert g.spacing == 2.0**-6


def test_flat_members_not_marked_smooth():
    for name in ("zero", "const-one", "const-neg-half"):
        assert not member_by_name(name).smooth
    for name in ("bump-narrow", "gaussian", "log-spike"):
        assert member_by_name(name).smooth


def test_bump_profiles(grid16):
    g = grid16
    narrow = member_by_name("bump-narrow").build(g)
    assert narrow.values[g.half_cells] == 1.0
    assert np.all(narrow.values[np.abs(g.axis) >= 1.0] == 0.0)
    wide = member_by_name("bump-wide").build(g)
    assert wide.values[g.half_cells] == 1.0
    assert np.all(wide.values[np.abs(g.axis) >= 4.0] == 0.0)


def test_constant_members(grid16):
    assert np.all(member_by_name("const-one").build(grid16).values == 1.0)
    assert np.all(member_by_name("const-neg-half").build(grid16).values == -0.5)
    assert np.all(member_by_name("zero").build(grid16).values == 0.0)


def test_lacunary_peaks(grid16):
    f = member_by_name("lacunary").build(grid16)
    i3 = grid16.coord_to_index(np.array([3.0]))[0]
    i9 = grid16.coord_to_index(np.array([9.0]))[0]
    assert f.values[i3] == pytest.approx(1.0)
    assert f.values[i9] == pytest.approx(1.0)
    assert f.values[grid16.half_cells] == 0.0


def test_log_spike_center_value(grid16):
    f = member_by_name("log-spike").build(grid16)
    assert f.values[grid16.half_cells] == pytest.approx(-0.5 * np.log(0.0625))
    # windowed to vanish at the wall
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_smooth_step_is_odd_and_windowed(grid16):
    f = member_by_name("smooth-step").build(grid16)
    assert np.allclose(f.values + f.values[::-1], 0.0, atol=1e-15)
    assert np.all(np.abs(f.values) <= 1.0)
    assert np.all(f.values[np.abs(grid16.axis) >= 14.0] == 0.0)


def test_eigenvector_member(grid16):
    f = member_by_name("eigenvector").build(grid16)
    assert l2_norm(f) == pytest.approx(1.0, rel=1e-12)
    # the first lobe is positive
    assert f.values[1] > 0
    # walls stay zero
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_eigenvector_member_on_any_grid():
    # no operator is passed: on any box the member is the fourth sine mode
    # of that box's operator, L2-normalised
    other = Grid(halfwidth=16.0, spacing=2.0**-5)
    op = corpus_operator(other)
    f = member_by_name("eigenvector").build(other)
    want = op.synthesize(np.eye(op.interior_count)[3]) / np.sqrt(other.spacing)
    assert np.max(np.abs(f.values - want)) <= 1e-12


def test_corpus_operator_default(grid16, op16):
    assert op16.grid == grid16
    assert op16.interior_count == grid16.size - 2
    assert np.all(op16.eigenvalues > 1.0)  # V = 1 shifts the whole spectrum
