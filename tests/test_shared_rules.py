"""The rules that every caller shares, each in one place: operands live on
one grid (grid.same_grid), and a Carleson box's slices and dt/t weights
are TLadder.box_weights (tests/test_semigroup.py)."""

import ast
from pathlib import Path

import pytest

import oscillab
from oscillab.approx import AveragingThresholds, assign_cubes, dyadic_average, p1_p2_check
from oscillab.corpus import member_by_name
from oscillab.errors import ConfigError, GridMismatchError
from oscillab.family import FamilyPolicy, make_ball_family
from oscillab.grid import Grid
from oscillab.oscillation import (
    family_stats,
    semigroup_difference_values,
    semigroup_oscillation_curves,
    tilde_bmo_l_norm,
)
from oscillab.potential import constant_potential
from oscillab.semigroup import default_ladder, discretize, square_function_field
from oscillab.tent import family_box_values, reproducing_pairing_check

# equal sample counts, different spacings: only the grid check tells them apart
A, B = Grid(16.0, 2.0**-6), Grid(8.0, 2.0**-7)  # 2,049 samples each
WIDE_A, WIDE_B = Grid(256.0, 2.0**-6), Grid(512.0, 2.0**-5)  # 32,769 samples each


def _f(grid):
    return member_by_name("gaussian").build(grid)


def _family(grid):
    return make_ball_family(grid, FamilyPolicy(2.0, radius_min=0.25, radius_max=1.0))


def _op(grid):
    return discretize(constant_potential(1.0, 1), grid)


def _assignment(grid):
    return assign_cubes(AveragingThresholds(0.5, 2, 1, 4, 0.05, 0.25), grid)


MISMATCHED = {
    "GridFunction.__sub__": lambda: _f(A) - _f(B),
    "family_stats": lambda: family_stats(_f(B), _family(A)),
    "semigroup_difference_values": lambda: semigroup_difference_values(_f(B), _op(B), _family(A)),
    "tilde_bmo_l_norm": lambda: tilde_bmo_l_norm(_f(B), _op(B), _family(A)),
    "semigroup_oscillation_curves": lambda: semigroup_oscillation_curves(_f(B), _op(B), _family(A)),
    "SpectralOperator.coefficients": lambda: _op(B).coefficients(_f(A)),
    "family_box_values": lambda: family_box_values(square_function_field(_op(B), _f(B), default_ladder(B)), _family(A)),
    "reproducing_pairing_check": lambda: reproducing_pairing_check(_f(A), _f(B), _op(B), default_ladder(B)),
    "dyadic_average": lambda: dyadic_average(_f(WIDE_B), _assignment(WIDE_A)),
    "p1_p2_check": lambda: p1_p2_check(_assignment(WIDE_A), _f(WIDE_B)),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_operands_on_different_grids_are_rejected(call):
    with pytest.raises(GridMismatchError, match="different grids") as e:
        call()
    # a config error, so the CLI exits 2
    assert isinstance(e.value, ConfigError)


def test_each_shared_rule_has_one_home():
    # only grid.py compares grids (same_grid), and only semigroup.py makes
    # dt/t weights (TLadder.log_weights and box_weights)
    homes = {"compatible": "grid.py", "log_weights_for": "semigroup.py"}
    package = Path(oscillab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in homes and path.name != homes[name]:
                found.append(f"{path.name}:{node.lineno} calls {name}")
    assert not found
