"""Windowed scans against scans of every sample.

A GridFunction holds only its window, outside which every sample is +0.0,
and each scan reads the window alone.  The tests here compare each
windowed stage of the approximation pipeline, bit for bit, with the same
stage over all the samples (the dense oracles of tests/oracles.py), on
every corpus member at the corpus grid and at the pipeline-small
geometry; and they check that a window one sample short shows.  The
constants are declared: an empty window over a background b, which the
scans read in closed form.  The assignment holds the cube tiling as its
regions alone, and each reader takes the cubes around its own function's
window; the tiling, the averages and the gates are compared with the
whole tiling expanded from the regions.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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
    segment_sups,
)
from oscillab.corpus import CORPUS, member_by_name
from oscillab.errors import ThresholdExhaustedError
from oscillab.experiments import plan_scenarios
from oscillab.reports import RHO_CONSTANT_UNIT
from oscillab.family import BallFamily, FamilyPolicy, make_ball_family
from oscillab.grid import Grid, GridFunction
from oscillab.oscillation import bmo_l_norm, bmo_norm, family_stats, oscillation_curves
from oracles import (
    constant,
    cube_starts,
    cube_tiling,
    dense_dyadic_average,
    dense_family_stats,
    dense_values,
    dense_gates,
    dense_level_sups,
    dense_mollify,
    dense_pyramid,
    held_family_stats,
    held_whole,
    naive_sup_reductions,
    sorted_sites,
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


def _tiling_mismatch(asg, f: GridFunction) -> bool:
    """Whether the region form differs from the whole tiling expanded from
    it: the cube count, the rows of assignment.csv, the bounds of the cubes
    that meet f's hull and of one more cube on each side, and the
    whole-tiling quantities of the gates."""
    levels, corners, counts = cube_tiling(asg)
    ends = np.append(cube_starts(asg), asg.grid.size)
    lo, hi = f.lo, f.hi
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
        and np.array_equal(asg.bounds(f), want)
        and list(asg.cube_list()) == list(zip(levels[order].tolist(), corners[order].tolist()))
        and gate.n_adjacent_pairs == levels.size - 1
        and gate.size_ratio_ok == bool(np.all(np.abs(np.diff(levels)) <= 1))
    )


def _mismatches(f: GridFunction, dense: GridFunction, geometry, stages=None) -> list[str]:
    """The stages (of the given names, or all) whose windowed result on f
    differs from the oracle's on all the samples of dense."""
    grid, fam, th, t = geometry
    a, p = _dyadic_exponents(grid)
    asg = assign_cubes(th, grid)
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
    if compared("tiling") and _tiling_mismatch(asg, f):
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
    window = f.on(f.lo, f.hi)
    short = window[1:] if side == "left" else window[:-1]
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
        assert (f.lo, f.hi, f.pieces, f.background) == (0, 0, (), m.constant)
        assert _same(f.values, np.full(grid.shape, m.constant))
        return
    everywhere = GridFunction(grid, m.fn(grid.axis))
    assert _same(f.values, everywhere.values)
    assert (f.lo, f.hi) == (everywhere.lo, everywhere.hi)
    if m.support is not None:
        x0, x1 = m.support
        assert x0 < grid.coords(range(f.lo, f.lo + 1))[0] and grid.coords(range(f.hi - 1, f.hi))[0] < x1


def test_compactly_supported_members_hold_a_window_and_the_rest_stay_dense():
    grid = Grid(halfwidth=8192.0, spacing=2.0**-7)
    n0, h = grid.half_cells, grid.spacing
    built = {m.name: m.build(grid) for m in CORPUS}
    spans = {name: (f.lo, f.hi) for name, f in built.items()}
    # the samples strictly inside B(0, 1): |i - n0| h < 1
    assert spans["bump-narrow"] == (n0 - round(1 / h) + 1, n0 + round(1 / h))
    # the constants hold no sample: an empty window over their background
    for name, b in (("zero", 0.0), ("const-one", 1.0), ("const-neg-half", -0.5)):
        assert spans[name] == (0, 0) and built[name].pieces == (), name
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
    assert dyadic_average(f, assign_cubes(th, grid)) is f
    g = member_by_name("bump-narrow").build(grid)
    for diff, diff_dense in ((g - f, g - dense), (f - g, dense - g)):
        assert (diff.lo, diff.hi) == (diff_dense.lo, diff_dense.hi) and _same(diff.values, diff_dense.values)


def test_segment_sups_read_the_fill_outside_the_held_runs():
    # a sequence held on one run (a level of the pyramid) with a fill
    # elsewhere, reduced over random segments (empty ones, ones of fill
    # only, ones across the run's ends) equals the max over the same
    # segments of the sequence written out in full; values and fill are
    # drawn from a few integers so the fill often ties a held value
    rng = np.random.default_rng(30)
    for _ in range(500):
        n = int(rng.integers(0, 40))
        start, stop = sorted(map(int, rng.integers(0, n + 1, size=2)))
        values = rng.integers(-2, 3, size=stop - start).astype(np.float64)
        fill = float(rng.integers(-2, 3))
        dense = np.full(n, fill)
        dense[start:stop] = values
        cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(1, 8))))
        want = [dense[i:j].max() if i < j else -math.inf for i, j in zip(cuts, cuts[1:])]
        assert _same(segment_sups(values, start, fill, cuts), np.array(want)), (n, start, stop, cuts)


def _sups_bits(sups) -> list:
    """The level sups with every float as its bits, and the shell keys."""
    osc_max, super_size_max, far_osc, far_size, shell_size = sups
    floats = (osc_max, super_size_max, far_osc, far_size, list(shell_size.values()))
    return [_bits(x).tolist() for x in floats] + [list(shell_size)]


def test_level_sups_equal_the_dense_oracle():
    # every reduction of every pyramid level, bit for bit, against masked
    # maxima over the cubes written out in full: random windows (which
    # may touch either face, start or end on an odd cube and hold a
    # single cube) and the declared constants on small power-of-two boxes,
    # and the members at the pipeline geometry, with critical radii below,
    # inside and above the levels
    rng = np.random.default_rng(26)
    for _ in range(300):
        a = int(rng.integers(-2, 5))
        p = int(rng.integers(max(1 - a, 0), 8 - a))
        grid = Grid(halfwidth=2.0**a, spacing=2.0**-p)
        if rng.random() < 0.2:  # the corpus constants, whose dense sums are exact
            f = GridFunction.constant(grid, float(rng.choice([1.0, -0.5, 0.0])))
        else:
            f = _random_window(grid, rng)
        rho = 2.0 ** int(rng.integers(-p - 1, a + 2))
        assert _sups_bits(_level_sups(f, a, p, rho)) == _sups_bits(dense_level_sups(f.values, a, p, rho))
    grid = _geometry("pipeline-small")[0]
    a, p = _dyadic_exponents(grid)
    for member, rho in (("bump-narrow", 2.0**-p), ("lacunary", RHO_CONSTANT_UNIT), ("const-one", 2.0**a)):
        f = member_by_name(member).build(grid)
        got, want = _level_sups(f, a, p, rho), dense_level_sups(f.values, a, p, rho)
        assert _sups_bits(got) == _sups_bits(want), member


# a piece: (gap before it, body length, left edge, right edge); an edge is
# a drawn value, -0.0 (held) or +0.0 (trimmed off), and a piece of +0.0
# only (body length 0, both edges +0.0) is dropped
_EDGES = st.sampled_from(["value", "-0.0", "+0.0"])
_PIECES = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 10), _EDGES, _EDGES), min_size=3, max_size=7)


def _pieces_of(layout, seed: int, grid: Grid):
    """The (lo, samples) pairs of a layout, laid out around the box's
    middle; values are multiples of 0.5 (ties between balls) with a
    non-zero middle sample unless the piece is all +0.0."""
    rng = np.random.default_rng(seed)
    out, at = [], 0
    for gap, n, left, right in layout:
        body = rng.integers(-4, 5, size=n) * 0.5
        if n and not body[n // 2]:
            body[n // 2] = 1.5
        edge = {"-0.0": [-0.0], "+0.0": [0.0]}
        samples = np.concatenate([edge.get(left, [0.75]), body, edge.get(right, [-1.25])])
        out.append((at + gap, samples))
        at += gap + samples.size
    shift = grid.half_cells - at // 2
    return [(lo + shift, v) for lo, v in out]


@given(_PIECES, st.integers(0, 2**16), st.integers(1, 3))
@example([(0, 3, "value", "value"), (0, 2, "-0.0", "value"), (1, 0, "+0.0", "+0.0"), (0, 4, "value", "-0.0")], 0, 1)
@example([(5, 1, "-0.0", "-0.0"), (2, 6, "+0.0", "value"), (8, 0, "value", "value"), (3, 2, "value", "+0.0")], 7, 2)
def test_several_piece_family_stats_equal_the_dense_oracle(layout, seed, stride):
    # random piece layouts (gaps of no sample, so pieces that touch, long
    # gaps, edges of -0.0 that are held and of +0.0 that are trimmed,
    # pieces of +0.0 alone that are dropped): the per-ball oscillation and
    # size, bit for bit, and the norms and curves, against the scan of
    # every sample; some ball of the largest radius spans three pieces
    assume(sum(piece != (piece[0], 0, "+0.0", "+0.0") for piece in layout) >= 3)
    grid = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(grid, FamilyPolicy(center_stride=0.25 * stride, radii=(0.25, 0.5, 1.0, 2.0, 4.0, 7.5)))
    pieces = _pieces_of(layout, seed, grid)
    f = GridFunction.from_pieces(grid, pieces)
    dense = np.zeros(grid.shape)
    for lo, v in pieces:
        dense[lo : lo + v.size] = v
    assert _same(f.values, dense)
    top = fam.blocks[-1]
    spans = [(lo, lo + v.size) for lo, v in f.pieces]
    assert max(sum(lo < c + top.cell_radius and c - top.cell_radius + 1 < hi for lo, hi in spans)
               for c in top.run) >= 3
    st_ = family_stats(f, fam)
    osc, size = dense_family_stats(f, fam)
    assert _same(dense_values(st_.oscillation), osc) and _same(dense_values(st_.size), size)
    rho = 2.0
    plain, split, curves = naive_sup_reductions(osc, size, fam, rho)
    assert bmo_norm(st_) == plain and bmo_l_norm(st_, rho) == split
    for mode, curve in oscillation_curves(st_, rho).items():
        assert _same(curve.values, curves[mode].values) and np.array_equal(curve.counts, curves[mode].counts), mode


def _one_sided(fam: BallFamily, side: str) -> BallFamily:
    """fam's balls about its centers on one side of the origin's sample,
    that sample included: each block, centered on it, keeps its part."""
    lat, k0 = fam.lattice, fam.lattice.index(fam.grid.half_cells)
    half = lat[k0:] if side == "right" else lat[: k0 + 1]
    runs = [range(max(b.run.start, half.start), min(b.run.stop, half.stop), lat.step) for b in fam.blocks]
    blocks = [(b.cell_radius, half.index(run.start), len(run)) for b, run in zip(fam.blocks, runs)]
    return BallFamily(fam.grid, half, blocks, fam.radius_ladder, fam.distance_ladder)


@given(_PIECES, st.integers(0, 2**16), st.integers(1, 3), st.booleans(), st.sampled_from(["both", "right", "left"]))
@example([(0, 3, "value", "value"), (0, 2, "-0.0", "value"), (1, 0, "+0.0", "+0.0")], 0, 1, False, "both")
@example([(5, 1, "-0.0", "-0.0"), (2, 6, "+0.0", "value"), (8, 0, "value", "value")], 7, 2, False, "right")
@example([(0, 4, "value", "value"), (9, 2, "value", "-0.0"), (1, 1, "value", "value")], 3, 3, True, "left")
def test_family_stats_sites_are_the_sorted_union_of_their_intervals(layout, seed, stride, whole, side):
    # the sites that family_stats merges from ascending groups against the
    # sorted union of the same intervals: several-piece members and dense
    # ones (held on every sample), over a symmetric lattice and over each
    # one-sided half of it
    grid = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(grid, FamilyPolicy(center_stride=0.25 * stride, radii=(0.25, 0.5, 1.0, 2.0, 4.0, 7.5)))
    if side != "both":
        fam = _one_sided(fam, side)
    f = GridFunction.from_pieces(grid, _pieces_of(layout, seed, grid))
    assume(f.pieces)
    if whole:
        f = held_whole(f)
    got, want = family_stats(f, fam), sorted_sites(f, fam)
    assert np.array_equal(got.oscillation.starts, want) and np.array_equal(got.size.starts, want)


def _first_sup_of(dense: np.ndarray, cuts: np.ndarray, kept: np.ndarray) -> tuple[float, int]:
    """The sup over the kept segments of one value per ball and the first
    ball attaining it, ball by ball, or (0.0, -1) over no ball."""
    balls = [i for s, (a, b) in enumerate(zip(cuts, cuts[1:])) if kept[s] for i in range(a, b)]
    if not balls:
        return 0.0, -1
    best = balls[0]
    for i in balls[1:]:
        if dense[i] > dense[best]:
            best = i
    return float(dense[best]), best


@given(_PIECES, st.integers(0, 2**16), st.integers(1, 3), st.sampled_from([None, 1.0, -0.5]),
       st.lists(st.integers(0, 2**20), min_size=1, max_size=12))
@example([(0, 3, "value", "value"), (1, 4, "-0.0", "value"), (0, 2, "value", "+0.0")], 3, 2, None, [7, 40, 41])
def test_steps_equal_the_dense_oracle_and_its_first_attaining_ball(layout, seed, stride, constant, draws):
    # family_stats' steps against the scan of every sample and against the
    # balls that meet a piece held with a fill (held_family_stats), bit for
    # bit: random piece layouts with pieces closer together than a ball's
    # diameter, or a constant background; then random cuts, some inside a
    # step, against each segment's dense sup and the first ball attaining
    # the sup over random kept segments.  Values are multiples of 0.5, so
    # sups tie across steps and on both sides of a cut
    grid = Grid(halfwidth=16.0, spacing=0.25)
    fam = make_ball_family(grid, FamilyPolicy(center_stride=0.25 * stride, radii=(0.25, 0.5, 1.0, 2.0, 4.0, 7.5)))
    if constant is None:
        f = GridFunction.from_pieces(grid, _pieces_of(layout, seed, grid))
        assume(f.pieces)
    else:
        f = GridFunction.constant(grid, constant)
    got = family_stats(f, fam)
    n, starts = len(fam), got.oscillation.starts
    dense = []
    for steps, want, held in zip((got.oscillation, got.size), dense_family_stats(f, fam), held_family_stats(f, fam)):
        assert _same(dense_values(steps), want) and _same(want, held)
        dense.append(want)
    rng = np.random.default_rng(seed)
    inside = np.flatnonzero(np.diff(np.append(starts, n)) > 1)
    cuts = np.sort(np.concatenate([np.array(draws) % (n + 1), starts[rng.permutation(inside)[:3]] + 1, [0, n]]))
    assert inside.size == 0 or not np.isin(cuts, starts).all()
    kept = rng.random(cuts.size - 1) < 0.6
    for steps, values in zip((got.oscillation, got.size), dense):
        want = [values[a:b].max() if a < b else -math.inf for a, b in zip(cuts, cuts[1:])]
        assert _same(steps.segment_sups(cuts), np.array(want))
        assert steps.first_sup(cuts, kept) == _first_sup_of(values, cuts, kept)
        for one in np.eye(kept.size, dtype=bool):  # a segment that starts inside a step
            assert steps.first_sup(cuts, one) == _first_sup_of(values, cuts, one)
