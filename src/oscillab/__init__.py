"""Oscillation, tent-space, and critical-radius experiments on sampled boxes.

Exports resolve lazily (PEP 562): importing the package, or the
command-line module to parse its flags, loads no numerical module; each
submodule loads on first use of one of its names.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS: dict[str, tuple[str, ...]] = {
    "errors": (
        "BracketError",
        "ConfigError",
        "CriterionFailure",
        "DegenerateRegionError",
        "GridMismatchError",
        "LadderError",
        "OscillabError",
        "OutOfDomainError",
        "ThresholdExhaustedError",
    ),
    "grid": (
        "Ball",
        "Grid",
        "GridFunction",
        "SummedTable",
    ),
    "family": (
        "BallFamily",
        "FamilyPolicy",
        "LimitCurve",
        "bucketed_sup",
        "make_ball_family",
    ),
    "potential": (
        "CriticalRadiusField",
        "Potential",
        "constant_potential",
        "critical_reach",
        "normalized_mass",
        "power_potential",
        "solve_critical_radius",
    ),
    "semigroup": (
        "HalfSpaceFunction",
        "PoissonExtension",
        "SpectralOperator",
        "TLadder",
        "apply_spectral",
        "default_ladder",
        "discretize",
        "poisson_extension",
        "square_function_field",
    ),
    "oscillation": (
        "OscillationReport",
        "SplitNormReport",
        "Verdict",
        "bmo_l_norm",
        "bmo_norm",
        "oscillation_curves",
        "semigroup_oscillation_curves",
        "tilde_bmo_l_norm",
        "vanishing_verdict",
    ),
    "tent": (
        "cone_square_function",
        "gradient_carleson_curves",
        "hmo_norm",
        "reproducing_pairing_check",
        "t2p_norm",
        "tent_curves",
    ),
    "approx": (
        "AveragingThresholds",
        "DyadicAssignment",
        "assign_cubes",
        "bump",
        "choose_thresholds",
        "dyadic_average",
        "mollify",
        "p1_p2_check",
    ),
    "corpus": (
        "CORPUS",
        "CorpusMember",
        "corpus_grid",
        "corpus_operator",
        "member_by_name",
    ),
    "serialize": (
        "canonical_json",
        "config_hash",
        "save_curves_csv",
        "save_grid_function",
        "save_json",
    ),
    "experiments": (
        "AgreementReport",
        "ExperimentConfig",
        "LacunaryReport",
        "PipelineReport",
        "RhoSlopeReport",
        "exp_extension_agreement",
        "exp_lacunary",
        "exp_pipeline",
        "exp_rho_slope",
        "exp_square_membership",
        "lacunary_function",
        "plan_scenarios",
        "run",
    ),
}

_SUBMODULES = tuple(_EXPORTS) + ("cli",)
_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE) + ["__version__"]


def __getattr__(name: str):
    module = _NAME_TO_MODULE.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
