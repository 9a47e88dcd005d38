"""Windowed scans against scans of every sample.

A GridFunction holds only its window, outside which every sample is +0.0,
and each scan reads the window alone.  The tests here compare each
windowed stage of the approximation pipeline, bit for bit, with the same
stage over all the samples (the dense oracles of tests/oracles.py), on
every corpus member at the corpus grid and at the pipeline-small
geometry; and they check that a window one sample short shows.  The
constants are declared: an empty window over a background b, which the
scans read in closed form.  The assignment holds the cube tiling as its
regions and per-cube data only around f's window; the tiling, the
averages and the gates are compared with the whole tiling expanded from
the regions.
"""

import functools
import math

import numpy as np
import pytest

from oscillab.approx import (
    AveragingThresholds,
    _dyadic_exponents,
    _far_sups,
    _level_sups,
    _prefix_sups,
    _pyramid,
    _range_max,
    _shell_sup,
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
    constant,
    cube_starts,
    cube_tiling,
    dense_dyadic_average,
    dense_family_stats,
    dense_values,
    dense_gates,
    dense_mollify,
    dense_pyramid,
    held_whole,
)

# geometry -> (approximation-pipeline scenario keys, the cutoffs (I, J, M)
# of the assignments the averaging stages use: core cubes of 4 samples)
GEOMETRIES = {
    "corpus": ({"halfwidth": 16.0, "spacing": 2.0**-6, "stride": 0.25}, (2, 0, 1)),
    "pipeline-small": ({"halfwidth": 8192.0, "spacing": 2.0**-7, "stride": 2.0}, (3, 10, 10)),
}


@functools.cache
def _geometry(name: str):
    """(grid, family, thresholds, mollifier width) of one geometry."""
    keys, (fine, core, outer) = GEOMETRIES[name]
    (plan,) = plan_scenarios({"scenarios": [{"id": "approximation-pipeline", **keys}]})
    th = AveragingThresholds(1.0, fine, core, outer, 0.125, 0.5)
    t = max(2.0**-fine, 4.0 * plan.grid.spacing)
    return plan.grid, plan.family, th, t


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


def _tiling_mismatch(asg, window: tuple[int, int]) -> bool:
    """Whether the region form differs from the whole tiling expanded from
    it: the cube count, the rows of assignment.csv, the bounds of the cubes
    that meet the window and of one more cube on each side, and the
    whole-tiling quantities of the gates."""
    levels, corners, counts = cube_tiling(asg)
    ends = np.append(cube_starts(asg), asg.grid.size)
    lo, hi = window
    if lo < hi:
        c0 = max(int(np.searchsorted(ends, lo, side="right")) - 2, 0)
        c1 = min(int(np.searchsorted(ends, hi, side="left")) + 1, levels.size)
        want = ends[c0 : c1 + 1]
    else:
        want = ends[:0]
    order = np.lexsort((corners, levels))
    gate = p1_p2_check(asg, GridFunction(asg.grid, np.empty(0), lo=0))
    return not (
        asg.n_cubes == levels.size
        and np.array_equal(asg.bounds, want)
        and list(asg.cube_list()) == list(zip(levels[order].tolist(), corners[order].tolist()))
        and gate.n_adjacent_pairs == levels.size - 1
        and gate.size_ratio_ok == bool(np.all(np.abs(np.diff(levels)) <= 1))
    )


def _mismatches(f: GridFunction, dense: GridFunction, geometry, stages=None) -> list[str]:
    """The stages (of the given names, or all) whose windowed result on f
    differs from the oracle's on all the samples of dense."""
    grid, fam, th, t = geometry
    a, p = _dyadic_exponents(grid)
    asg = assign_cubes(th, grid, (f.lo, f.hi))
    out = []

    def compared(name: str) -> bool:
        return stages is None or name in stages

    if compared("family_stats"):
        st = family_stats(f, fam)
        osc, size = dense_family_stats(dense, fam)
        if not (_same(dense_values(st.oscillation), osc) and _same(dense_values(st.size), size)):
            out.append("family_stats")
    if compared("pyramid"):
        for (l, k0, w_osc, w_size), (l2, d_osc, d_size) in zip(
            ((l, k0, o, s) for l, _, k0, o, s in _pyramid(f, a, p)),
            ((l, o, s) for l, _, o, s in dense_pyramid(dense.values, a, p)),
        ):
            # the unheld cubes lie in f's background b: oscillation 0.0,
            # size |b|
            held = np.zeros((2, d_osc.size))
            held[1] = abs(f.background)
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
    if compared("tiling") and _tiling_mismatch(asg, (f.lo, f.hi)):
        out.append("tiling")
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
    if m.fn is None:  # a declared constant holds no sample
        assert (f.lo, f.hi, f.window.size, f.background) == (0, 0, 0, m.constant)
        assert _same(f.values, np.full(grid.shape, m.constant))
        return
    everywhere = GridFunction(grid, m.fn(grid.axis))
    assert _same(f.values, everywhere.values)
    assert (f.lo, f.hi) == (everywhere.lo, everywhere.hi)
    if m.support is not None:
        x0, x1 = m.support
        assert x0 < grid.coords(f.lo, f.lo + 1)[0] and grid.coords(f.hi - 1, f.hi)[0] < x1


def test_compactly_supported_members_hold_a_window_and_the_rest_stay_dense():
    grid = Grid(halfwidth=8192.0, spacing=2.0**-7)
    n0, h = grid.half_cells, grid.spacing
    built = {m.name: m.build(grid) for m in CORPUS}
    spans = {name: (f.lo, f.hi) for name, f in built.items()}
    # the samples strictly inside B(0, 1): |i - n0| h < 1
    assert spans["bump-narrow"] == (n0 - round(1 / h) + 1, n0 + round(1 / h))
    # the constants hold no sample: an empty window over their background
    for name, b in (("zero", 0.0), ("const-one", 1.0), ("const-neg-half", -0.5)):
        assert spans[name] == (0, 0) and built[name].window.size == 0, name
        assert _same(built[name].background, b), name
    assert {name for name, f in built.items() if f.background != 0.0} == {"const-one", "const-neg-half"}
    assert spans["log-spike"] == (0, grid.size)
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


@pytest.mark.parametrize("member", ["const-one", "const-neg-half"])
def test_declared_constants_scan_as_their_dense_samples(member, geometry):
    # a declared constant holds no sample; the same constant held on the
    # whole grid is the scan of every sample, which the closed forms must
    # give bit for bit: ball means b and b^2, cube oscillation 0.0 and
    # size |b|, and the threshold scan running out with the same message
    grid, fam, th, _ = geometry
    a, p = _dyadic_exponents(grid)
    f = member_by_name(member).build(grid)
    dense = constant(grid, f.background)
    assert (f.lo, f.hi) == (0, 0) and (dense.lo, dense.hi) == (0, grid.size)
    assert _same(f.values, dense.values) and not f.values.flags.writeable
    idx = np.array([0, 1, grid.half_cells, grid.size - 1])
    assert _same(f.on(0, 7), dense.on(0, 7)) and _same(f.at(idx), dense.at(idx))
    st, want = family_stats(f, fam), family_stats(dense, fam)
    osc, size = dense_values(st.oscillation), dense_values(st.size)
    assert _same(osc, dense_values(want.oscillation)) and _same(size, dense_values(want.size))
    assert _same(osc, 0.0 * size) and _same(size, np.full(len(fam), abs(f.background)))
    # the pyramid holds no cube of a constant; each level reads the fills
    assert all(osc.size == size.size == 0 for _, _, _, osc, size in _pyramid(f, a, p))
    assert _level_sups(f, a, p, RHO_CONSTANT_UNIT) == _level_sups(dense, a, p, RHO_CONSTANT_UNIT)
    message = _thresholds(f, 0.3)
    assert isinstance(message, str) and message == _thresholds(dense, 0.3)
    # a constant is its own average, and the differences with it are dense
    assert dyadic_average(f, assign_cubes(th, grid, (f.lo, f.hi))) is f
    g = member_by_name("bump-narrow").build(grid)
    for diff, diff_dense in ((g - f, g - dense), (f - g, dense - g)):
        assert (diff.lo, diff.hi) == (diff_dense.lo, diff_dense.hi) and _same(diff.values, diff_dense.values)


def test_level_reductions_read_the_fill_outside_the_held_run():
    # a pyramid level of nc cubes of q cells, corners -n0 + k q, whose
    # cubes k0 .. k0 + len(x) - 1 hold x and whose other cubes hold the
    # fill (0.0, or a constant's size |b|): each reduction equals the same
    # reduction of the level written out in full
    rng = np.random.default_rng(26)
    for _ in range(300):
        n0, q = 2 ** int(rng.integers(1, 7)), 2 ** int(rng.integers(0, 4))
        q = min(q, n0)
        nc = 2 * n0 // q
        held = int(rng.integers(0, nc + 1))
        k0 = int(rng.integers(0, nc - held + 1))
        x, fill = rng.random(held), float(rng.choice([0.0, rng.random()]))
        level = np.full(nc, fill)
        level[k0 : k0 + held] = x
        corners = -n0 + q * np.arange(nc)

        def sup(mask) -> float:
            return float(level[mask].max()) if mask.any() else -math.inf

        c0, c1 = sorted(int(c) for c in rng.integers(0, nc + 1, size=2))
        assert _range_max(x, k0, c0, c1, fill) == sup((np.arange(nc) >= c0) & (np.arange(nc) < c1))
        ends = sorted(int(e) for e in rng.integers(0, nc + 1, size=4))
        assert _prefix_sups(x, k0, ends, fill) == [sup(np.arange(nc) < e) for e in ends]
        cuts = [2**j for j in range(int(math.log2(n0)) + 1)]
        far = [sup((corners <= -t - q) | (corners >= t + 1)) for t in cuts]
        assert _far_sups(x, k0, nc, n0, q, cuts, fill) == far
        for s_lo in cuts[:-1]:
            top = corners + q - 1
            inside = ((corners >= s_lo) & (top < 2 * s_lo)) | ((corners >= -2 * s_lo) & (top < -s_lo))
            assert _shell_sup(x, k0, n0, q, s_lo, fill) == sup(inside), (n0, q, s_lo)
