"""One box scan per half-space field, reduced to its norm and its curves.

The oracle below holds copies of the earlier forms, in which each norm
and each set of curves ran its own scan (and each semigroup difference
its own sine transform of f), with every ball sum read from the prefix
table at an index array of centers.  The new path must give the same
bytes on every corpus member at the corpus grid.  A reflection test checks
the operator side's per-ball values against the mirrored balls.
"""

import math

import numpy as np
import pytest
from scipy.fft import dst

from oscillab.corpus import CORPUS, member_by_name
from oscillab.errors import ConfigError, LadderError
from oscillab.experiments import plan_scenarios
from oscillab.family import PLAIN_MODES, BallValues, bucketed_sup
from oscillab.grid import GridFunction, SummedTable
from oscillab import semigroup
from oscillab.oscillation import semigroup_difference_values
from oscillab.semigroup import (
    HalfSpaceFunction,
    _ddx,
    default_ladder,
    log_weights_for,
    poisson_extension,
    square_function_field,
)
from oscillab.tent import family_box_values, gradient_carleson_curves, hmo_norm, tent_curves
from oracles import ball_sums, poisson, prefix_table

# ---------------------------------------------------------------------------
# oracle: the earlier forms, one scan per reduction


def _old_field_from_psi(op, f, ladder, psi_ts):
    coef = op.coefficients(f)
    s = np.sqrt(op.eigenvalues)
    out = np.zeros((len(ladder),) + op.grid.shape)
    out[:, 1:-1] = dst(psi_ts(ladder.values[:, None], s) * coef, type=1, norm="ortho", axis=-1)
    return HalfSpaceFunction(op.grid, ladder, out)


def _old_square_function_field(op, f, ladder):
    return _old_field_from_psi(op, f, ladder, lambda t, s: t * s * np.exp(-t * s))


def _old_gradient_magnitude(op, f, ladder):
    # u, t du/dt and t du/dx as three whole fields, then their magnitude
    u = _old_field_from_psi(op, f, ladder, lambda t, s: np.exp(-t * s))
    dt = _old_field_from_psi(op, f, ladder, lambda t, s: -t * s * np.exp(-t * s))
    gx = np.empty_like(u.values)
    for j, t in enumerate(ladder.values):
        gx[j] = t * _ddx(u.values[j], op.grid.spacing)
    return HalfSpaceFunction(op.grid, ladder, np.sqrt(dt.values**2 + gx**2))


def _index_blocks(family):
    """(center sample indices, cell radius, radius) per radius block, the
    indices rounded ball by ball."""
    g = family.grid
    idx = g.coord_to_index(family.centers[:, 0])
    return [(idx[b.start : b.stop], b.cell_radius, b.radius) for b in family.blocks]


def _old_semigroup_difference_values(f, op, family, ladder=None):
    g = f.grid
    if not g.compatible(op.grid):
        raise ConfigError("function and operator grids differ")
    if ladder is not None:
        r = family.radii
        if np.any(r < ladder.values[0] * (1 - 1e-9)) or np.any(
            r > ladder.values[-1] * (1 + 1e-9)
        ):
            raise LadderError(
                "family radii fall outside the configured scale range "
                f"[{ladder.values[0]}, {ladder.values[-1]}]"
            )

    out = []
    for ci, m, r in _index_blocks(family):
        diff = f.values - poisson(op, f, r).values
        sums = ball_sums(prefix_table(diff**2), ci, m)
        out.append(np.sqrt(np.maximum(0.0, sums) * g.spacing / r))
    return np.concatenate(out)


def _index_box_values(F, family):
    """family_box_values with the tables read at index arrays."""
    t = F.ladder.values
    tables = [prefix_table(F.values[j] ** 2) for j in range(len(t))]
    out = []
    for ci, m, r in _index_blocks(family):
        k = int(np.searchsorted(t, r * (1 + 1e-12), side="right"))
        w = log_weights_for(t[:k])
        total = np.zeros(ci.size)
        for j in range(k):
            total += w[j] * ball_sums(tables[j], ci, m)
        out.append(total * F.grid.spacing / r)
    return np.concatenate(out)


def _old_t2p_norm_inf(F, p, family):
    # the p = inf branch: (p, value, truncated_fraction, arg_index)
    vals = np.sqrt(family_box_values(F, family))
    arg = int(np.argmax(vals))
    return p, float(vals[arg]), 0.0, arg


def _old_tent_curves(F, family):
    vals = np.sqrt(family_box_values(F, family))
    return {mode: bucketed_sup(BallValues.whole(family, vals), mode) for mode in PLAIN_MODES}


def _old_hmo_norm(G, family):
    vals = np.sqrt(family_box_values(G, family))
    arg = int(np.argmax(vals))
    return float(vals[arg]), arg, len(family)


def _old_gradient_carleson_curves(G, family):
    vals = np.sqrt(family_box_values(G, family))
    return {mode: bucketed_sup(BallValues.whole(family, vals), mode) for mode in PLAIN_MODES}


def _same(a, b) -> bool:
    """Equal values and equal NaN positions."""
    return np.array_equal(a, b, equal_nan=True)


def _same_curves(new, old) -> bool:
    return new.keys() == old.keys() and all(
        _same(new[m].ladder, old[m].ladder) and _same(new[m].values, old[m].values)
        and _same(new[m].counts, old[m].counts)
        for m in new
    )


@pytest.fixture(scope="module")
def corpus_family(grid16):
    # the default family of a corpus-grid scenario, as run() plans it
    (plan,) = plan_scenarios({"scenarios": [{"id": "bmo-norms"}]})
    assert plan.grid == grid16
    return plan.family


@pytest.mark.parametrize("name", [m.name for m in CORPUS])
def test_one_scan_matches_the_scan_per_reduction_oracle(name, grid16, op16, corpus_family):
    fam = corpus_family
    ladder = default_ladder(grid16)
    f = member_by_name(name).build(grid16)

    F = square_function_field(op16, f, ladder)
    assert _same(F.values, _old_square_function_field(op16, f, ladder).values)
    box = family_box_values(F, fam)
    assert np.array_equal(box, _index_box_values(F, fam))
    eta = np.sqrt(box)
    t2 = hmo_norm(eta, fam)
    _, old_value, _, old_arg = _old_t2p_norm_inf(F, math.inf, fam)
    assert (t2.value, t2.arg_index) == (old_value, old_arg)
    assert _same_curves(tent_curves(eta, fam), _old_tent_curves(F, fam))

    G = poisson_extension(op16, f, ladder)
    old_G = _old_gradient_magnitude(op16, f, ladder)
    assert _same(G.values, old_G.values)
    box = family_box_values(G, fam)
    assert np.array_equal(box, _index_box_values(G, fam))
    beta = np.sqrt(box)
    hmo = hmo_norm(beta, fam)
    assert (hmo.value, hmo.arg_index, hmo.n_balls) == _old_hmo_norm(old_G, fam)
    assert _same_curves(gradient_carleson_curves(beta, fam), _old_gradient_carleson_curves(old_G, fam))

    assert _same(
        semigroup_difference_values(f, op16, fam),
        _old_semigroup_difference_values(f, op16, fam, ladder),
    )


@pytest.mark.parametrize("rows", [1, 4, 6])
@pytest.mark.parametrize("name", ["gaussian", "eigenvector"])
def test_difference_values_do_not_depend_on_the_radius_grouping(rows, name, grid16, op16, corpus_family, monkeypatch):
    # the corpus family's 6 radii are one group by default; rows radius
    # rows per group splits them into 6, or 4 + 2, or keeps them one, and
    # each group's differences are squared into one table
    tables = -(-len(corpus_family.blocks) // rows)
    monkeypatch.setattr(semigroup, "_LADDER_BLOCK_BYTES", rows * 16 * (op16.interior_count + 1))
    ladder = default_ladder(grid16)
    f = member_by_name(name).build(grid16)
    builds, original = [], SummedTable.__init__
    monkeypatch.setattr(SummedTable, "__init__", lambda self, *a, **k: builds.append(a) or original(self, *a, **k))
    got = semigroup_difference_values(f, op16, corpus_family)
    assert len(builds) == tables
    assert _same(got, _old_semigroup_difference_values(f, op16, corpus_family, ladder))


# ---------------------------------------------------------------------------
# reflection x -> -x


def _mirror_index(fam) -> np.ndarray:
    """j[i] is the ball (-c_i, r_i) of the family; every ball must have one."""
    h = fam.grid.spacing
    key = {(round(c / h), round(r / h)): i for i, (c, r) in enumerate(zip(fam.centers[:, 0], fam.radii))}
    return np.array([key[(-round(c / h), round(r / h))] for c, r in zip(fam.centers[:, 0], fam.radii)])


def _squared_metrics(f, op, fam, ladder) -> dict[str, np.ndarray]:
    return {
        "gamma2": semigroup_difference_values(f, op, fam) ** 2,
        "eta2": family_box_values(square_function_field(op, f, ladder), fam),
        "beta2": family_box_values(poisson_extension(op, f, ladder), fam),
    }


@pytest.mark.parametrize("name", ["smooth-step", "lacunary", "eigenvector", "log-spike"])
def test_operator_side_values_map_onto_the_mirrored_balls(name, grid16, op16, corpus_family):
    # the sine basis has a parity, so L commutes with x -> -x and so does
    # every per-ball value, up to rounding; squares are compared because a
    # square root amplifies rounding near zero
    fam = corpus_family
    ladder = default_ladder(grid16)
    f = member_by_name(name).build(grid16)
    mirrored = GridFunction(grid16, f.values[::-1].copy())
    j = _mirror_index(fam)
    assert not np.array_equal(j, np.arange(len(fam)))
    got = _squared_metrics(f, op16, fam, ladder)
    mir = _squared_metrics(mirrored, op16, fam, ladder)
    for metric, vals in got.items():
        scale = float(np.max(vals))
        assert scale > 0, metric
        err = float(np.max(np.abs(mir[metric][j] - vals)))
        assert err <= 1e-12 * scale, (metric, err, scale)
