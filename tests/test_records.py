"""The package's records are NamedTuples: read-only fields in a pinned
order, which _asdict() gives as the summaries serialize them, and value
equality, which lets the plan share one family, operator and ladder
between scenarios of equal geometry."""

import copy
import importlib
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import oscillab
from oscillab.approx import AveragingThresholds, DyadicAssignment, GateReport
from oscillab.corpus import CorpusMember, corpus_operator, member_by_name
from oscillab.experiments import _Kind, _Scenario, ExperimentConfig, ScenarioPlan, plan_scenarios
from oscillab.family import (BallFamily, BallValues, FamilyPolicy, LimitCurve, RadiusBlock, SegmentPlan, bucketed_sup,
                             make_ball_family)
from oscillab.grid import Ball, Grid
from oscillab.oscillation import FamilyStats, OscillationReport, SplitNormReport, Verdict, family_stats
from oscillab.potential import CriticalRadiusField, Potential
from oscillab.reports import AgreementReport, LacunaryReport, PipelineReport, RhoSlopeReport
from oscillab.semigroup import HalfSpaceFunction, SpectralOperator, TLadder, default_ladder, square_function_field
from oscillab.tent import ConeField, PairingReport, TentNormReport

# every record of the package and its fields, in order
FIELDS = {
    Grid: "halfwidth spacing",
    Ball: "center radius",
    FamilyPolicy: "center_stride radii radius_min radius_max max_center_norm distance_max",
    RadiusBlock: "cell_radius count radius start run",
    BallFamily: "grid lattice blocks radius_ladder distance_ladder",
    SegmentPlan: "starts buckets",
    BallValues: "family starts values",
    LimitCurve: "mode ladder values counts",
    Potential: "kind n constant eps amplitude",
    CriticalRadiusField: "points values",
    TLadder: "values",
    SpectralOperator: "grid eigenvalues",
    HalfSpaceFunction: "grid ladder values",
    ConeField: "values truncated",
    TentNormReport: "p value truncated_fraction",
    PairingReport: "direct tent rel_error support_ok",
    FamilyStats: "oscillation size",
    OscillationReport: "value arg_index n_balls",
    SplitNormReport: "value oscillation_part size_part oscillation_present size_present oscillation_arg size_arg n_balls",
    Verdict: "verdict terminal initial decay_factor tol min_decay_factor n_present",
    AveragingThresholds: "eps fine_exponent core_exponent outer_exponent osc_bound size_bound closed_form_bound",
    DyadicAssignment: "grid thresholds regions",
    GateReport: "p1_sup p1_ok p2_max p2_ok n_adjacent_pairs size_ratio_ok",
    CorpusMember: "name summary smooth fn support constant",
    RhoSlopeReport: "slope expected n potential_kind exponent x rho small_range_warning",
    LacunaryReport: "k_max exponent amplitude norm tol verdicts curves floor floor_required floor_ok trend_exponent "
                    "n_balls",
    AgreementReport: "member bmo_l norm_key norm ratio verdicts curves",
    PipelineReport: "member eps norm verdict thresholds p1_sup p1_ok p2_max p2_ok size_ratio_ok distance_averaged "
                    "distance_full case_bound corpus_bound t_eps exhausted_condition",
    _Kind: "what ok typed default",
    ExperimentConfig: "scenarios out_dir seed op_cap interior_window raw",
    ScenarioPlan: "sid name params grid family op ladder",
    _Scenario: "kinds runner exclusive typed checks family family_checks operator boxes draws ladder expected",
}

# the records whose constructor checks or converts its fields, built as
# the package builds them; every other record takes any field values
_GRID = Grid(8.0, 2.0**-5)
_FAMILY = make_ball_family(_GRID, FamilyPolicy(0.5, radius_min=0.125, radius_max=2.0))
_LADDER = default_ladder(_GRID)
_BUILT = {
    Grid: lambda: _GRID,
    Ball: lambda: _FAMILY.ball(0),
    BallFamily: lambda: _FAMILY,
    BallValues: lambda: BallValues.whole(_FAMILY, np.zeros(len(_FAMILY))),
    LimitCurve: lambda: bucketed_sup(BallValues.whole(_FAMILY, np.zeros(len(_FAMILY))), "small-radius"),
    TLadder: lambda: _LADDER,
    HalfSpaceFunction: lambda: square_function_field(corpus_operator(_GRID), member_by_name("gaussian").build(_GRID),
                                                     _LADDER),
}

# the plan's field holding each shared record, and two scenarios of equal
# geometry: the second gives the first's default family policy and grid
_PLANNED = {Grid: "grid", BallFamily: "family", SpectralOperator: "op", TLadder: "ladder"}
_EQUAL_GEOMETRY = [{"id": "tent-norms", "name": "a"},
                   {"id": "tent-norms", "name": "b", "member": "gaussian", "halfwidth": 16, "spacing": 2.0**-6,
                    "family": {"center_stride": 0.5, "radius_min": 0.125, "radius_max": 4.0}}]


def test_every_record_of_the_package_is_pinned():
    found = set()
    for path in sorted(Path(oscillab.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"oscillab.{path.stem}")
        found |= {cls for cls in vars(module).values() if inspect.isclass(cls)
                  and cls.__module__ == module.__name__ and issubclass(cls, tuple) and hasattr(cls, "_fields")}
    # a record that checks its fields subclasses a private NamedTuple of them
    assert {cls for cls in found if not cls.__name__.endswith("Fields")} == set(FIELDS)


@pytest.mark.parametrize("record", FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_a_read_only_named_tuple(record):
    names = tuple(FIELDS[record].split())
    value = _BUILT[record]() if record in _BUILT else record(*range(len(names)))
    assert type(value) is record and record._fields == names
    # the keys the summaries write, in field order
    assert tuple(value._asdict()) == names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if record in _PLANNED:
        a, b = (getattr(plan, _PLANNED[record]) for plan in plan_scenarios({"scenarios": _EQUAL_GEOMETRY}))
        if record is Grid:
            assert a == b and hash(a) == hash(b)
        else:
            assert a is b


# a BallValues of a scan, whose steps are its sites, beside the built
# records; copy, deepcopy and pickle each rebuild a record through __new__
_COPIED = {**{cls.__name__: build for cls, build in _BUILT.items()},
           "BallValues-steps": lambda: family_stats(member_by_name("gaussian").build(_GRID), _FAMILY).size}
_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda value: pickle.loads(pickle.dumps(value))}


def _same(a, b) -> bool:
    """a and b field by field: arrays by np.array_equal and their dtype,
    records and tuples by their type and each field in turn."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("name", _COPIED)
def test_record_survives_copy_deepcopy_and_pickle(name, how):
    value = _COPIED[name]()
    got = _COPIES[how](value)
    assert type(got) is type(value) and _same(got, value)
