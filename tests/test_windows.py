"""Windowed scans against scans of every sample.

A GridFunction holds only its window, outside which every sample is +0.0,
and each scan reads the window alone.  The tests here compare each
windowed stage of the approximation pipeline, bit for bit, with the same
stage over all the samples (the dense oracles of tests/oracles.py), on
every corpus member at the corpus grid and at the pipeline-small
geometry; and they check that a window one sample short shows.
"""

import functools

import numpy as np
import pytest

from oscillab.approx import (
    AveragingThresholds,
    _dyadic_exponents,
    _level_sups,
    _pyramid,
    assign_cubes,
    choose_thresholds,
    dyadic_average,
    mollify,
    p1_p2_check,
)
from oscillab.corpus import CORPUS, member_by_name
from oscillab.errors import ThresholdExhaustedError
from oscillab.experiments import RHO_CONSTANT_UNIT, plan_scenarios
from oscillab.grid import Grid, GridFunction
from oscillab.oscillation import family_stats
from oracles import (
    dense_dyadic_average,
    dense_family_stats,
    dense_gates,
    dense_mollify,
    dense_pyramid,
    held_whole,
)

# geometry -> (approximation-pipeline scenario keys, the cutoffs (I, J, M)
# of the assignment the averaging stages use: core cubes of 4 samples)
GEOMETRIES = {
    "corpus": ({"halfwidth": 16.0, "spacing": 2.0**-6, "stride": 0.25}, (2, 0, 1)),
    "pipeline-small": ({"halfwidth": 8192.0, "spacing": 2.0**-7, "stride": 2.0}, (3, 10, 10)),
}


@functools.cache
def _geometry(name: str):
    """(grid, family, assignment, mollifier width) of one geometry."""
    keys, (fine, core, outer) = GEOMETRIES[name]
    (plan,) = plan_scenarios({"scenarios": [{"id": "approximation-pipeline", **keys}]})
    th = AveragingThresholds(1.0, fine, core, outer, 0.125, 0.5)
    t = max(2.0**-fine, 4.0 * plan.grid.spacing)
    return plan.grid, plan.family, assign_cubes(th, plan.grid), t


@pytest.fixture(params=sorted(GEOMETRIES))
def geometry(request):
    return _geometry(request.param)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _same(x, y) -> bool:
    return np.array_equal(_bits(x), _bits(y))


def _thresholds(f: GridFunction, eps: float):
    try:
        return choose_thresholds(f, eps, RHO_CONSTANT_UNIT, 0.125)
    except ThresholdExhaustedError as e:
        return str(e)


def _mismatches(f: GridFunction, dense: GridFunction, geometry, stages=None) -> list[str]:
    """The stages (of the given names, or all) whose windowed result on f
    differs from the oracle's on all the samples of dense."""
    grid, fam, asg, t = geometry
    a, p = _dyadic_exponents(grid)
    out = []

    def compared(name: str) -> bool:
        return stages is None or name in stages

    if compared("family_stats"):
        st = family_stats(f, fam)
        osc, size = dense_family_stats(dense, fam)
        if not (_same(st.oscillation, osc) and _same(st.size, size)):
            out.append("family_stats")
    if compared("pyramid"):
        for (l, k0, w_osc, w_size), (l2, d_osc, d_size) in zip(
            ((l, k0, o, s) for l, _, k0, o, s in _pyramid(f, a, p)),
            ((l, o, s) for l, _, o, s in dense_pyramid(dense.values, a, p)),
        ):
            held = np.zeros((2, d_osc.size))
            held[:, k0 : k0 + w_osc.size] = w_osc, w_size
            if l != l2 or not (_same(held[0], d_osc) and _same(held[1], d_size)):
                out.append("pyramid")
                break
    # the level sups and the thresholds of a function held on the whole
    # grid are the dense scan itself
    whole = held_whole(dense) if f.hi - f.lo < grid.size else None
    if compared("level sups") and whole is not None:
        if _level_sups(f, a, p, RHO_CONSTANT_UNIT) != _level_sups(whole, a, p, RHO_CONSTANT_UNIT):
            out.append("level sups")
    if compared("choose_thresholds") and whole is not None:
        if _thresholds(f, 0.3) != _thresholds(whole, 0.3):
            out.append("choose_thresholds")
    if compared("dyadic_average"):
        A = dyadic_average(f, asg)
        A_dense = dense_dyadic_average(dense, asg)
        if not _same(A.values, A_dense):
            out.append("dyadic_average")
        gate = p1_p2_check(asg, A)
        if (gate.p1_sup, gate.p2_max) != dense_gates(asg, GridFunction(grid, A_dense)):
            out.append("p1_p2_check")
    if compared("mollify") and not _same(mollify(f, t).values, dense_mollify(dense, t)):
        out.append("mollify")
    return out


@pytest.mark.parametrize("member", [m.name for m in CORPUS])
def test_windowed_stages_equal_the_dense_oracle(member, geometry):
    f = member_by_name(member).build(geometry[0])
    assert _mismatches(f, f, geometry) == []


@pytest.mark.parametrize("member", ["bump-narrow", "lacunary"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_window_one_sample_short_differs_from_the_dense_oracle(member, side, geometry):
    # a window that loses its first or last sample, as an off-by-one in a
    # producer would leave it: the comparison above must see it.  The
    # finest pyramid level and the mollifier see every sample, so those
    # two stages are compared; a ball sum or a cube mean can round a
    # bump's outermost sample (about 1e-14) away
    f = member_by_name(member).build(geometry[0])
    short = f.window[1:] if side == "left" else f.window[:-1]
    g = GridFunction(f.grid, short, lo=f.lo + (side == "left"))
    assert g.hi - g.lo <= f.hi - f.lo - 1
    assert _mismatches(g, f, geometry, stages=("pyramid", "mollify")) == ["pyramid", "mollify"]


@pytest.mark.parametrize("member", [m.name for m in CORPUS])
def test_a_member_build_equals_its_evaluation_at_every_sample(member, geometry):
    # a declared support only spares the build the samples where the
    # member is +0.0: the dense samples and the window come out the same
    grid = geometry[0]
    m = member_by_name(member)
    f = m.build(grid)
    everywhere = GridFunction(grid, m.fn(grid.axis))
    assert _same(f.values, everywhere.values)
    assert (f.lo, f.hi) == (everywhere.lo, everywhere.hi)
    if m.support is not None:
        x0, x1 = m.support
        assert x0 < grid.coords(f.lo, f.lo + 1)[0] and grid.coords(f.hi - 1, f.hi)[0] < x1


def test_compactly_supported_members_hold_a_window_and_the_rest_stay_dense():
    grid = Grid(halfwidth=8192.0, spacing=2.0**-7)
    n0, h = grid.half_cells, grid.spacing
    spans = {m.name: (f.lo, f.hi) for m in CORPUS for f in [m.build(grid)]}
    # the samples strictly inside B(0, 1): |i - n0| h < 1
    assert spans["bump-narrow"] == (n0 - round(1 / h) + 1, n0 + round(1 / h))
    assert spans["zero"] == (0, 0)
    for name in ("const-one", "const-neg-half", "log-spike"):
        assert spans[name] == (0, grid.size), name
    assert spans["eigenvector"] == (1, grid.size - 1)
    # the samples strictly inside (2, 10)
    assert spans["lacunary"] == (n0 + round(2 / h) + 1, n0 + round(10 / h))


def _random_window(grid: Grid, rng: np.random.Generator) -> GridFunction:
    """Random values of random magnitudes on a random window, which may
    touch either face of the box."""
    lo = int(rng.choice([0, rng.integers(0, grid.size)]))
    hi = int(rng.choice([grid.size, rng.integers(lo + 1, min(grid.size, lo + 400) + 1)]))
    return GridFunction(grid, rng.normal(size=hi - lo) * 10.0 ** rng.integers(-6, 6, size=hi - lo), lo=lo)


def test_random_windows_equal_the_dense_oracle():
    # random values put many non-zero terms in every sum that crosses a
    # window's edge, so a sum that is split or ordered differently from
    # the dense one shows in its last bits
    geometry = _geometry("corpus")
    grid = geometry[0]
    rng = np.random.default_rng(24)
    for _ in range(40):
        f = _random_window(grid, rng)
        assert _mismatches(f, f, geometry) == [], (f.lo, f.hi)
