"""Config-driven runner of the named experiment scenarios.

``run`` binds the experiments of reports.py to a JSON config and emits a
deterministic bundle (CSV curves, JSON summary with a provenance block).
Each scenario id is declared once, in _SCENARIO_TABLE: its parameters,
what its plan needs, its runner and the answers it expects.  Before
writing anything ``run`` builds every scenario's plan (grid, ball family,
operator), which the scenarios only read.  Assertion failures inside
scenarios are collected and raised as CriterionFailure after the bundle is
written, so failed runs still leave inspectable artifacts.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import __version__
from .approx import _dyadic_exponents
from .corpus import CORPUS, CORPUS_HALFWIDTH, CORPUS_SPACING, corpus_operator, member_by_name
from .errors import BracketError, ConfigError, CriterionFailure, LadderError, OscillabError
from .family import BallFamily, FamilyPolicy, make_ball_family
from .grid import Ball, Grid
from .oscillation import (DECAY_FACTOR, TOL_FRACTION, SplitNormReport, bmo_l_norm, bmo_norm, family_stats,
                          oscillation_curves, tilde_bmo_l_norm)
from .potential import Potential, check_bracket_floor, constant_potential, power_potential
from .reports import (
    RHO_CONSTANT_UNIT, RHO_SLOPE_X_MAX, RHO_SLOPE_X_MIN, AgreementReport, _average_member, _bump_window,
    _check_lacunary_box, _nonzero, _verdict_dict, _verdict_map,
    exp_extension_agreement, exp_lacunary, exp_pipeline, exp_rho_slope, exp_square_membership, lacunary_k_max,
)
from .semigroup import DEFAULT_OP_CAP, SpectralOperator, TLadder, default_ladder, square_function_field
from .serialize import config_hash, save_curves_csv, save_grid_function, save_json, save_rows_csv
from .tent import family_box_values, hmo_norm, reproducing_pairing_check, t2p_norm, tent_curves


# ---------------------------------------------------------------------------
# config parameters: one table of kinds per scenario


class _Kind(NamedTuple):
    """One kind of config value.  ``ok`` accepts the JSON value; ``typed``
    returns it as the runners read it and checks any object nested in it,
    ``where`` naming the key.  A default that is not None fills in an
    absent key; ``KIND(value)`` is the kind with that default."""

    what: str
    ok: Callable[[object], bool]
    typed: Callable[[str, object], object] = lambda where, v: v
    default: object = None

    def __call__(self, default) -> "_Kind":
        return self._replace(default=default)

    def check(self, where: str, value):
        if not self.ok(value):
            raise ConfigError(f"{where} must be {self.what}, got {value!r}")
        return self.typed(where, value)


def _checked(where: str, kinds: dict[str, _Kind], given: dict, required: tuple[str, ...] = ()) -> dict:
    """The given keys checked against their kinds, plus the defaults of the
    absent ones; an unknown or missing key raises ConfigError."""
    unknown = sorted(set(given) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [k for k in required if k not in given]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    out = {k: kind.default for k, kind in kinds.items() if kind.default is not None}
    out.update((k, kinds[k].check(f"{where}: {k!r}", v)) for k, v in given.items())
    return out


def _number(v) -> bool:
    """A JSON number that is a finite float: Python's json also parses NaN,
    Infinity and integers past the float range (NaN fails the comparison)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_INT = _Kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_FLOAT = _Kind("a finite number", _number, lambda where, v: float(v))
_STR = _Kind("a string", lambda v: isinstance(v, str))
_BOOL = _Kind("true or false", lambda v: isinstance(v, bool))


_POSITIVE = _Kind("a positive finite number", lambda v: _number(v) and v > 0, _FLOAT.typed)
_NONNEGATIVE = _Kind("a finite number >= 0", lambda v: _number(v) and v >= 0, _FLOAT.typed)


def _int_at_least(low: int) -> _Kind:
    return _Kind(f"an integer >= {low}", lambda v: _INT.ok(v) and v >= low)


_CORPUS_NAMES = [m.name for m in CORPUS]
_MEMBER = _Kind(f"a corpus member name, one of {_CORPUS_NAMES}", lambda v: isinstance(v, str) and v in _CORPUS_NAMES)
_MEMBERS = _Kind(
    f"a list of corpus member names, each one of {_CORPUS_NAMES}",
    lambda v: isinstance(v, list) and all(isinstance(m, str) and m in _CORPUS_NAMES for m in v),
)
_EXPONENTS = _Kind(
    'a list of positive numbers and "inf"',
    lambda v: isinstance(v, list) and all(e == "inf" or (_number(e) and e > 0) for e in v),
    lambda where, v: tuple(math.inf if e == "inf" else float(e) for e in v),
)
_EXPECT = _Kind(
    "'member' or 'nonmember'",
    lambda v: isinstance(v, str) and v.upper() in ("MEMBER", "NONMEMBER"),
    lambda where, v: v.upper(),
)
_RADII = _Kind(
    "a list of finite numbers",
    lambda v: isinstance(v, list) and all(_number(r) for r in v),
    lambda where, v: tuple(float(r) for r in v),
)

# every FamilyPolicy field is a number but the radii; the fields without a
# default are required
_FAMILY_KINDS = {name: _RADII if name == "radii" else _FLOAT for name in FamilyPolicy._fields}
_FAMILY_REQUIRED = tuple(name for name in FamilyPolicy._fields if name not in FamilyPolicy._field_defaults)
_FAMILY = _Kind(
    "an object of family policy fields",
    lambda v: isinstance(v, dict),
    lambda where, v: FamilyPolicy(**_checked(where, _FAMILY_KINDS, v, _FAMILY_REQUIRED)),
)

# potential kind -> (its keys, the required ones, its constructor in dimension n)
_POTENTIALS = {
    "constant": ({"value": _FLOAT(1.0)}, (), lambda n, value: constant_potential(value, n)),
    "power": (
        {"exponent": _FLOAT, "amplitude": _FLOAT},
        ("exponent",),
        lambda n, exponent, **amplitude: power_potential(exponent, n, **amplitude),
    ),
}


def _potential(where: str, spec: dict) -> Callable[[int], Potential]:
    """A potential spec checked against its kind's keys, as the constructor
    of that potential in the scenario's dimension."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(f"{where}: 'kind' must be one of {sorted(_POTENTIALS)}, got {kind!r}")
    keys, required, build = _POTENTIALS[kind]
    rest = {k: v for k, v in spec.items() if k != "kind"}
    return functools.partial(build, **_checked(where, keys, rest, required))


_POTENTIAL = _Kind("an object with a 'kind'", lambda v: isinstance(v, dict), _potential)


def _rho_slope_potential(where: str, p: dict) -> dict:
    """rho-slope parameters with the potential built in dimension 'n', from
    'potential' or from 'exponent' and 'amplitude'; a ConfigError from the
    build, a zero potential, an empty x range, and a potential whose
    normalized mass exceeds 1 at the solve's bracket floor at the smallest
    x the run can draw (x_min shrunk by the jitter) fail, naming the keys."""
    n = p.pop("n")
    if "potential" in p:
        keys, build = "'potential'", p.pop("potential")
    elif "exponent" not in p:
        raise ConfigError(f"{where}: give 'potential' or 'exponent'")
    else:
        keys = "'exponent' and 'amplitude'"
        build = functools.partial(power_potential, p.pop("exponent"), amplitude=p.pop("amplitude", 1.0))
    try:
        potential = _nonzero(build(n))
    except ConfigError as e:
        raise ConfigError(f"{where}: {keys}: {e}") from None
    if not p["x_min"] < p["x_max"]:
        raise ConfigError(f"{where}: 'x_min' and 'x_max': need x_min < x_max, got {p['x_min']} and {p['x_max']}")
    # the solve's floor at the smallest x the jitter can draw, where I(., r) is largest
    try:
        check_bracket_floor(potential, p["x_min"] * math.exp(-abs(p.get("jitter", 0.0))))
    except BracketError as e:
        keys += ", 'x_min'" + (", 'jitter'" if p.get("jitter") else "")
        raise ConfigError(f"{where}: {keys}: {e}") from None
    return {**p, "potential": potential}


def _scenario(s: dict) -> tuple[str, str, dict]:
    """(id, name, checked parameters) of one scenario object."""
    sid = s.get("id")
    if not isinstance(sid, str) or sid not in _SCENARIO_TABLE:
        raise ConfigError(f"unknown scenario id {sid!r}; known: {sorted(_SCENARIO_TABLE)}")
    spec, where = _SCENARIO_TABLE[sid], f"scenario {sid!r}"
    name = s.get("name", sid)
    # the name is the scenario's directory inside the bundle
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{where}: 'name' must be a single path component, got {name!r}")
    params = {k: v for k, v in s.items() if k not in ("id", "name")}
    for a, b in spec.exclusive:
        if a in params and b in params:
            raise ConfigError(f"{where}: give {a!r} or {b!r}, not both ({b!r} would be ignored)")
    checked = spec.typed(where, _checked(where, spec.kinds, params))
    # an asserted member that the scenario does not run would assert nothing
    idle = sorted(set(checked.get("assert_members", ())) - set(checked.get("members") or _CORPUS_NAMES))
    if idle:
        raise ConfigError(f"{where}: 'assert_members' {idle} are not among the scenario's members")
    return sid, name, checked


_TOP_PARAMS = {
    "scenarios": _Kind(
        "a list of objects",
        lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
        lambda where, v: tuple(_scenario(s) for s in v),
    ),
    "out_dir": _STR,
    "seed": _int_at_least(0),
    "op_cap": _int_at_least(2),
    "interior_window": _Kind("a number in (0, 1]", lambda v: _number(v) and 0 < v <= 1, _FLOAT.typed),
}


# ---------------------------------------------------------------------------
# config-driven runner


class ExperimentConfig(NamedTuple):
    scenarios: tuple[tuple[str, str, dict], ...] = ()  # (id, name, parameters)
    out_dir: str = "oscillab-out"
    seed: int = 0
    op_cap: int = DEFAULT_OP_CAP
    interior_window: float = 1.0 / 3.0
    raw: Mapping = MappingProxyType({})  # the config as given, which the run's provenance hashes

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """The config checked whole, every scenario parameter included;
        plan_scenarios then builds and checks the geometry they set."""
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        cfg = ExperimentConfig(raw=d, **_checked("config", _TOP_PARAMS, d))
        names = [name for _, name, _ in cfg.scenarios]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"duplicate scenario name {name!r}")
        return cfg


class ScenarioPlan(NamedTuple):
    """One scenario as it runs: the checked parameters its runner reads, less
    the geometry keys, and what those build (None where unused).  Plans of
    one config share one object per geometry, which is only ever read."""

    sid: str
    name: str
    params: dict
    grid: Optional[Grid] = None
    family: Optional[BallFamily] = None
    op: Optional[SpectralOperator] = None
    ladder: Optional[TLadder] = None


def plan_scenarios(config: ExperimentConfig | dict) -> list[ScenarioPlan]:
    """The plan of every scenario of the config (a dict is checked whole
    first), as its _SCENARIO_TABLE record declares: a family, its stride
    checked, once per (grid, policy), an operator once per grid, and for a
    record that scans Carleson boxes the default t-ladder once per grid,
    whose box_weights must take every family radius.
    A ConfigError names the scenario and keys."""
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    family_of, ladder_of = functools.cache(make_ball_family), functools.cache(default_ladder)
    operator_of = functools.cache(lambda grid: corpus_operator(grid, cfg.op_cap))
    plans = []
    for sid, name, checked in cfg.scenarios:
        spec, p = _SCENARIO_TABLE[sid], dict(checked)
        grid = fam = op = ladder = None
        try:
            if "halfwidth" in spec.kinds:
                keys = "'halfwidth' and 'spacing'"
                grid = Grid(p.pop("halfwidth"), p.pop("spacing"))
            for keys, check in spec.checks:
                check(p, grid)
            if spec.family is not None:
                keys, rule = spec.family
                fam = family_of(grid, rule(p, grid))
            for keys, check in spec.family_checks:
                check(p, fam)
            if spec.operator:
                keys = "'halfwidth', 'spacing' and 'op_cap'"
                op = operator_of(grid)
            if spec.boxes:
                ladder = ladder_of(grid)
                keys = "'family'"
                for b in fam.blocks:
                    ladder.box_weights(b.radius)
            if spec.ladder is not None:
                keys, rule = spec.ladder
                ladder = rule(p, grid)
        except (ConfigError, BracketError, LadderError) as e:
            raise ConfigError(f"scenario {sid!r}: {keys}: {e}") from None
        plans.append(ScenarioPlan(sid, name, p, grid, fam, op, ladder))
    return plans


def _run_rho_slope(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: random.Random):
    p = dict(plan.params)
    tol = p.pop("tolerance", None)
    rep = exp_rho_slope(p.pop("potential"), rng=rng, **p)
    save_rows_csv(out / "rho.csv", ["x", "rho"], ([repr(x), repr(r)] for x, r in zip(rep.x, rep.rho)))
    failures = []
    if tol is None:
        tol = 0.01 if rep.potential_kind != "power" else 0.05 * abs(rep.expected)
    if abs(rep.slope - rep.expected) > tol:
        failures.append(
            f"fitted slope {rep.slope:.4f} differs from expected {rep.expected:.4f} by more than {tol:.4f}"
        )
    return rep.to_dict(), failures


def _run_lacunary(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: None):
    p = dict(plan.params)
    check = p.pop("assert_verdicts")
    rep = exp_lacunary(plan.family, **p)
    save_curves_csv(out / "curves.csv", [rep.curves[m] for m in sorted(rep.curves)])
    failures = []
    if check:
        for mode, expect in _SCENARIO_TABLE[plan.sid].expected.items():
            got = rep.verdicts[mode].verdict
            if got != expect:
                failures.append(f"{mode} verdict {got}, expected {expect}")
        if not rep.floor_ok:
            failures.append(f"far floor {rep.floor:.4f} below required {rep.floor_required:.4f}")
    return rep.to_dict(), failures


def _run_agreement(experiment: Callable[..., AgreementReport], plan: ScenarioPlan, cfg: ExperimentConfig, out: Path,
                   rng: None):
    """Both agreement scenarios: the plan's family and operator for all
    members, and per member its report and the curves of both sides."""
    p = plan.params
    verdict_params = {k: p[k] for k in ("tol_fraction", "decay_factor") if k in p}
    sub = {}
    failures = []
    for name in p.get("members") or _CORPUS_NAMES:
        rep = experiment(name, plan.op, plan.family, plan.ladder, **verdict_params)
        sub[name] = rep.to_dict()
        for side, curves in rep.curves.items():
            save_curves_csv(out / f"{name}-{side}.csv", [curves[m] for m in sorted(curves)])
        if name in p["assert_members"] and not rep.agree:
            failures.append(f"verdicts disagree on {name}")
        if rep.ratio is not None and not math.isfinite(rep.ratio):
            failures.append(f"non-finite norm ratio on {name}")
    return {"members": sub}, failures


def _run_pipeline(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: None):
    p = dict(plan.params)
    expect = p.pop("expect")
    rep = exp_pipeline(fam=plan.family, **p)
    failures = []
    if rep.verdict != expect:
        failures.append(f"verdict {rep.verdict}, expected {expect}")
    if rep.verdict == "MEMBER":
        if not (rep.p1_ok and rep.p2_ok and rep.size_ratio_ok):
            failures.append("P1/P2 gate failed")
        if rep.distance_averaged > rep.corpus_bound:
            failures.append(f"averaged distance {rep.distance_averaged:.4f} exceeds {rep.corpus_bound:.4f}")
        if rep.distance_full > rep.corpus_bound:
            failures.append(f"full distance {rep.distance_full:.4f} exceeds {rep.corpus_bound:.4f}")
    return rep.to_dict(), failures


def _arg_sup_ball(fam: BallFamily, split: SplitNormReport) -> Ball:
    """The ball attaining the size part, or the oscillation part when no
    ball is supercritical."""
    return fam.ball(split.size_arg if split.size_present else split.oscillation_arg)


def _run_bmo_norms(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: None):
    p, grid, fam = plan.params, plan.grid, plan.family
    f = member_by_name(p["member"]).build(grid)
    st = family_stats(f, fam)
    plain = bmo_norm(st)
    split = bmo_l_norm(st, RHO_CONSTANT_UNIT)
    tilde = tilde_bmo_l_norm(f, plan.op, fam)
    curves = oscillation_curves(st, RHO_CONSTANT_UNIT)
    verdicts = _verdict_map(curves, p["tol_fraction"] * split.value, p["decay_factor"])
    save_curves_csv(out / "curves.csv", [curves[m] for m in sorted(curves)])
    fam_ball = _arg_sup_ball(fam, split)
    summary = {
        "member": p["member"],
        "bmo": plain.value,
        "bmo_l": split.value,
        "bmo_l_oscillation_part": split.oscillation_part,
        "bmo_l_size_part": split.size_part,
        "tilde_bmo_l": tilde.value,
        "verdicts": _verdict_dict(verdicts),
        "arg_sup_ball": {"center": list(fam_ball.center), "radius": fam_ball.radius},
    }
    return summary, []


def _run_tent_norms(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: None):
    p, grid = plan.params, plan.grid
    f = member_by_name(p["member"]).build(grid)
    F = square_function_field(plan.op, f, plan.ladder)
    eta = np.sqrt(family_box_values(F, plan.family))
    norms = {}
    for pe in p["exponents"]:
        if pe == math.inf:
            norms["inf"] = {"value": hmo_norm(eta, plan.family).value, "truncated_fraction": 0.0}
        else:
            rep = t2p_norm(F, pe)
            norms[repr(pe)] = {"value": rep.value, "truncated_fraction": rep.truncated_fraction}
    curves = tent_curves(eta, plan.family)
    save_curves_csv(out / "tent-curves.csv", [curves[m] for m in sorted(curves)])
    return {"member": p["member"], "norms": norms}, []


def _run_pairing(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: None):
    p, grid = plan.params, plan.grid
    f = member_by_name(p["left"]).build(grid)
    g_fn = member_by_name(p["right"]).build(grid)
    rep = reproducing_pairing_check(f, g_fn, plan.op, plan.ladder, window=cfg.interior_window)
    failures = []
    tol = p.get("tolerance")
    if tol is not None and rep.rel_error > tol:
        failures.append(f"relative error {rep.rel_error:.4%} exceeds {tol:.4%}")
    return (
        {
            "left": p["left"],
            "right": p["right"],
            "direct": rep.direct,
            "tent": rep.tent,
            "rel_error": rep.rel_error,
            "support_ok": rep.support_ok,
        },
        failures,
    )


def _run_averaging(plan: ScenarioPlan, cfg: ExperimentConfig, out: Path, rng: None):
    p = plan.params
    f = member_by_name(p["member"]).build(plan.grid)
    norm, eps, averaging = _average_member(f, plan.family, p["osc_fraction"], p["eps_fraction"], p.get("eps"))
    summary = {"member": p["member"], "eps": eps, "norm": norm}
    if isinstance(averaging, str):
        return {**summary, "verdict": "NONMEMBER", "exhausted_condition": averaging}, []
    asg, A, gate = averaging
    th = asg.thresholds

    save_rows_csv(out / "assignment.csv", ["level", "corner_x"], asg.cube_list())
    save_grid_function(out / "averaged.json", A)
    gate_doc = {"eps": eps, **gate._asdict()}
    save_json(out / "gate.json", gate_doc)
    summary.update(
        fine_exponent=th.fine_exponent,
        core_exponent=th.core_exponent,
        outer_exponent=th.outer_exponent,
        n_cubes=asg.n_cubes,
        gate=gate_doc,
    )
    failures = []
    if not (gate.p1_ok and gate.p2_ok and gate.size_ratio_ok):
        failures.append("P1/P2 gate failed")
    return summary, failures


# ---------------------------------------------------------------------------
# scenario declarations


def _stride_family(p: dict, grid: Grid) -> FamilyPolicy:
    return FamilyPolicy(p.pop("stride"), radius_min=4 * grid.spacing,
                        radius_max=p.pop("radius_max", grid.halfwidth / 2.0), distance_max=p.pop("distance_max", None))


def _lacunary_potential(p: dict, fam: BallFamily) -> None:
    """The potential that exp_lacunary builds must not be zero, and the
    solve's bracket floor must hold at the centers nearest the origin,
    where I(., r) is largest, so at every center."""
    potential = _nonzero(power_potential(p["exponent"], 1, amplitude=p["amplitude"]))
    z = len(fam.lattice) // 2  # the origin: a stride family's lattice is symmetric about it
    check_bracket_floor(potential, fam.grid.coords(fam.lattice[max(z - 1, 0) : z + 1]))


def _lacunary_reach(p: dict, fam: BallFamily) -> None:
    """With verdicts asserted, the distance ladder ends by the outermost
    bump, at 3^k_max.  Past it the far-from-origin balls meet no bump of a
    function that lies in CMO_L (lacunary_function), so the NONVANISHING
    answer asserted there would be wrong for the function scanned."""
    top, bump_at = float(fam.distance_ladder[-1]), 3**p["k_max"]
    if p["assert_verdicts"] and top > bump_at:
        raise ConfigError(f"asserted verdicts need the distance ladder to end by the outermost bump at "
                          f"3^k_max = {bump_at}, but distance_max takes it to {top:g}")


_Step = tuple[str, Callable]  # a plan step: the keys its error names, and its function of (params, grid or family)


class _Scenario(NamedTuple):
    """The declaration of one scenario id.  A plan step's function pops the
    keys that only the plan reads."""

    kinds: dict[str, _Kind]  # every parameter: a scenario has a grid exactly when it has a 'halfwidth'
    runner: Callable  # (plan, cfg, out dir, PRNG stream) -> (summary fragment, failed checks, less the id prefix)
    exclusive: tuple[tuple[str, str], ...] = ()  # key pairs whose first makes the runner ignore the second
    typed: Callable[[str, dict], dict] = lambda where, p: p  # the checked parameters as the plan reads them
    checks: tuple[_Step, ...] = ()  # plan steps on the grid, before the family
    family: Optional[_Step] = None  # the plan step that gives the family's policy
    family_checks: tuple[_Step, ...] = ()  # plan steps on the family
    operator: bool = False  # the corpus operator
    boxes: bool = False  # the default t-ladder, whose box_weights take each family radius
    draws: bool = False  # the runner draws from the run's PRNG stream; every other runner is passed None
    ladder: Optional[_Step] = None  # the plan step that gives a t-ladder of the record's own
    expected: Mapping[str, str] = MappingProxyType({})  # the answers the paper predicts


_CORPUS_GRID = {"halfwidth": _POSITIVE(CORPUS_HALFWIDTH), "spacing": _POSITIVE(CORPUS_SPACING)}
_DEFAULT_FAMILY = ("'family'", lambda p, grid: p.pop("family", None) or FamilyPolicy(
    max(0.5, 8 * grid.spacing), radius_min=max(0.125, 4 * grid.spacing), radius_max=grid.halfwidth / 4.0))
_DYADIC_BOX = ("'halfwidth' and 'spacing'", lambda p, fam: _dyadic_exponents(fam.grid))
_SQUARE_AGREEMENT = _Scenario({
    **_CORPUS_GRID,
    "members": _MEMBERS,
    "family": _FAMILY,
    "tol_fraction": _NONNEGATIVE,
    "decay_factor": _POSITIVE,
    "assert_members": _MEMBERS(()),
}, functools.partial(_run_agreement, exp_square_membership), family=_DEFAULT_FAMILY, operator=True, boxes=True)

# Every scenario id's declaration.  A default among the kinds stands for a
# key the runner or the plan reads itself, every geometry default among
# them; an absent key that the runner only forwards to an exp_* function
# takes its default.
_SCENARIO_TABLE: dict[str, _Scenario] = {
    "rho-slope": _Scenario({
        "n": _Kind("1, 2 or 3", lambda v: _INT.ok(v) and v in (1, 2, 3))(1),
        "points": _int_at_least(2),
        "potential": _POTENTIAL,
        **{"x_min": _POSITIVE(RHO_SLOPE_X_MIN), "x_max": _POSITIVE(RHO_SLOPE_X_MAX)},
        **dict.fromkeys(("exponent", "amplitude", "jitter"), _FLOAT),
        "tolerance": _NONNEGATIVE,
    }, _run_rho_slope, draws=True, exclusive=(("potential", "exponent"), ("potential", "amplitude")),
        typed=_rho_slope_potential),
    "lacunary-separation": _Scenario({
        "k_max": _int_at_least(1),
        "assert_verdicts": _BOOL(True),
        **{"halfwidth": _POSITIVE(16384.0), "spacing": _POSITIVE(2.0**-8), "stride": _POSITIVE(0.25)},
        **dict.fromkeys(("radius_max", "distance_max"), _POSITIVE(4096.0)),
        # exp_lacunary's defaults: the plan builds the potential
        **{"exponent": _FLOAT(1.05), "amplitude": _FLOAT(0.002)},
        **dict.fromkeys(("tol_fraction", "floor_factor"), _NONNEGATIVE),
        "decay_factor": _POSITIVE,
    }, _run_lacunary,
        # k_max by default the last whose bump fits the box: the lacunary sum, restricted to it
        typed=lambda where, p: {"k_max": lacunary_k_max(p["halfwidth"]), **p},
        checks=(("'k_max' and 'halfwidth'", lambda p, grid: _check_lacunary_box(grid, p["k_max"])),
                ("'spacing'", lambda p, grid: _bump_window(grid.spacing))),  # the bump's own h < width/4 check
        family=("'stride', 'radius_max' and 'distance_max'", _stride_family),
        family_checks=(("'exponent' and 'amplitude'", _lacunary_potential),
                       ("'k_max' and 'distance_max'", _lacunary_reach)),
        # the bumps at 3^k separate the limits: the plain far curve stays at
        # one bump's oscillation while the other two vanish
        expected={"small-radius": "VANISHING", "far-from-origin": "NONVANISHING", "far-and-supercritical": "VANISHING"},
    ),
    "square-function-agreement": _SQUARE_AGREEMENT,
    "extension-agreement": _SQUARE_AGREEMENT._replace(
        runner=functools.partial(_run_agreement, exp_extension_agreement)),
    "approximation-pipeline": _Scenario({
        "member": _MEMBER("bump-narrow"),
        "expect": _EXPECT("MEMBER"),
        **{"halfwidth": _POSITIVE(float(2**16)), "spacing": _POSITIVE(2.0**-8), "stride": _POSITIVE(2.0)},
        **dict.fromkeys(("eps_fraction", "osc_fraction"), _POSITIVE),
        "corpus_factor": _POSITIVE,
    }, _run_pipeline, family=("'stride'", _stride_family), family_checks=(_DYADIC_BOX,)),
    # the semigroup oscillation takes e^{-r sqrt(L)} at each radius: no t-ladder
    "bmo-norms": _Scenario({
        **_CORPUS_GRID,
        "member": _MEMBER("bump-narrow"),
        "family": _FAMILY,
        "tol_fraction": _NONNEGATIVE(TOL_FRACTION),
        "decay_factor": _POSITIVE(DECAY_FACTOR),
    }, _run_bmo_norms, family=_DEFAULT_FAMILY, operator=True),
    "tent-norms": _Scenario({
        **_CORPUS_GRID,
        "member": _MEMBER("bump-narrow"),
        "family": _FAMILY,
        "exponents": _EXPONENTS((2.0, math.inf)),
    }, _run_tent_norms, family=_DEFAULT_FAMILY, operator=True, boxes=True),
    "reproducing-pairing": _Scenario({
        **_CORPUS_GRID,
        "left": _MEMBER("gaussian"),
        "right": _MEMBER("gaussian"),
        "t_min": _FLOAT,
        "t_max": _FLOAT,
        "per_decade": _int_at_least(2)(16),
        "tolerance": _NONNEGATIVE,
    }, _run_pairing, operator=True, ladder=("'t_min' and 't_max'", lambda p, grid: TLadder.geometric(
        p.pop("t_min", grid.spacing / 4.0), p.pop("t_max", grid.halfwidth / 4.0), per_decade=p.pop("per_decade")))),
    "averaging-pipeline": _Scenario({
        "member": _MEMBER("bump-narrow"),
        "halfwidth": _POSITIVE(64.0),
        "spacing": _POSITIVE(2.0**-5),
        "eps": _POSITIVE,
        "eps_fraction": _POSITIVE(0.1),
        "osc_fraction": _POSITIVE(0.125),
        "family": _FAMILY,
    }, _run_averaging, exclusive=(("eps", "eps_fraction"),), family=_DEFAULT_FAMILY, family_checks=(_DYADIC_BOX,)),
}
# scenario id -> runner; run() looks each one up here when it runs it
_SCENARIOS = {sid: spec.runner for sid, spec in _SCENARIO_TABLE.items()}


def run(config: ExperimentConfig | dict, out_dir: Optional[str] = None) -> dict:
    """Execute every scenario in the config and write the report bundle.

    A dict config is checked whole, and every plan built, before any
    directory is written.  The bundle is written even when assertions
    fail; failures are then raised as one CriterionFailure listing every
    failed check.  An error raised while a scenario runs is raised again
    as its own class with the scenario's id prefixed; whatever the
    scenarios wrote before it stays on disk.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    plans = plan_scenarios(cfg)
    base = Path(out_dir if out_dir is not None else cfg.out_dir)
    base.mkdir(parents=True, exist_ok=True)
    # one stream, CPython's Mersenne Twister seeded from the config, read
    # only by the scenarios that draw: its draws depend only on the seed
    # and their order
    draws = {sid for sid, spec in _SCENARIO_TABLE.items() if spec.draws}
    rng = random.Random(cfg.seed)

    summary: dict = {
        "provenance": {
            "config_sha256": config_hash(cfg.raw),
            "package_version": __version__,
            "seed": cfg.seed,
            "prng_stream": "oscillab-run",
            "op_cap": cfg.op_cap,
            "interior_window": cfg.interior_window,
        },
        "scenarios": {},
        "failures": [],
    }
    while plans:
        # popped, so a family or operator is freed after the last plan that shares it
        plan = plans.pop(0)
        sub = base / plan.name
        sub.mkdir(parents=True, exist_ok=True)
        try:
            frag, failures = _SCENARIOS[plan.sid](plan, cfg, sub, rng if plan.sid in draws else None)
        except OscillabError as e:
            raise type(e)(f"scenario {plan.sid!r}: {e}") from None
        summary["scenarios"][plan.name] = {**frag, "id": plan.sid}
        summary["failures"].extend(f"{plan.sid}: {m}" for m in failures)

    save_json(base / "summary.json", summary)
    if summary["failures"]:
        raise CriterionFailure("; ".join(summary["failures"]))
    return summary
