"""Workload definitions: the oscillab run configs the benchmark executes.

Each workload is one config handed to ``oscillab.experiments.run``. The
configs are written out here rather than read from ``configs/`` so that an
edit to a shipped config cannot silently change what the benchmark measures.

The seed is written into every generated config. It reaches the inputs only
through the jittered ``rho-slope`` scenarios of ``spectral``; the
``lacunary`` and ``pipeline`` geometries are fixed because their declared
verdict checks are tuned to them.
"""

from __future__ import annotations

import copy

WORKLOADS = ("lacunary", "pipeline", "spectral")

# configs/lacunary.json as shipped at the commit that defined the benchmark.
_LACUNARY = [
    {
        "id": "lacunary-separation",
        "k_max": 8,
        "exponent": 1.05,
        "amplitude": 0.002,
        "halfwidth": 16384.0,
        "spacing": 0.00390625,
        "stride": 0.25,
        "radius_max": 4096.0,
        "distance_max": 4096.0,
        "tol_fraction": 0.05,
        "decay_factor": 4.0,
        "floor_factor": 0.3,
        "assert_verdicts": True,
    }
]

# The pipeline-small geometry of configs/full.json on a member (expect
# MEMBER) and on a constant (expect NONMEMBER: the threshold scan runs out
# and no cube is assigned), plus the averaging-pipeline scenario of full.json.
_PIPELINE_GEOMETRY = {"halfwidth": 8192.0, "spacing": 0.0078125, "eps_fraction": 0.3, "osc_fraction": 0.125}
_PIPELINE = [
    {"id": "approximation-pipeline", "name": "pipeline-small", "member": "bump-narrow",
     **_PIPELINE_GEOMETRY, "expect": "member"},
    {"id": "approximation-pipeline", "name": "pipeline-small-const-one", "member": "const-one",
     **_PIPELINE_GEOMETRY, "expect": "nonmember"},
    {"id": "averaging-pipeline", "member": "bump-narrow", "halfwidth": 256.0, "spacing": 0.015625,
     "eps": 0.55, "osc_fraction": 0.25},
]

# configs/quick.json (rho-slope jittered so the seed reaches the inputs),
# the two agreement scenarios over the whole corpus, and second members for
# the norm and pairing scenarios; every scenario samples the corpus grid.
_JITTER = 0.05
_SPECTRAL = [
    {"id": "rho-slope", "name": "rho-slope-n1-supercritical", "n": 1, "exponent": 1.5, "jitter": _JITTER},
    {"id": "rho-slope", "name": "rho-slope-n3-subcritical", "n": 3, "exponent": 0.5, "jitter": _JITTER},
    {"id": "rho-slope", "name": "rho-slope-n2-constant", "n": 2,
     "potential": {"kind": "constant", "value": 1.0}, "jitter": _JITTER},
    {"id": "bmo-norms", "member": "gaussian"},
    {"id": "tent-norms", "member": "gaussian"},
    {"id": "reproducing-pairing", "left": "gaussian", "right": "gaussian", "tolerance": 0.02},
    {"id": "square-function-agreement", "assert_members": ["zero"]},
    {"id": "extension-agreement", "assert_members": ["zero", "const-one", "bump-narrow"]},
    {"id": "bmo-norms", "name": "bmo-norms-eigenvector", "member": "eigenvector"},
    {"id": "tent-norms", "name": "tent-norms-log-spike", "member": "log-spike"},
    {"id": "reproducing-pairing", "name": "reproducing-pairing-bump-narrow",
     "left": "bump-narrow", "right": "gaussian"},
]

# Shrunken copies with the same scenario kinds, for the benchmark's self-test.
_SMALL = {
    "lacunary": [
        {**_LACUNARY[0], "k_max": 3, "amplitude": 0.5, "halfwidth": 128.0, "spacing": 0.0625,
         "stride": 0.5, "radius_max": 32.0, "distance_max": 32.0, "assert_verdicts": False},
    ],
    "pipeline": [
        {**_PIPELINE[0], "halfwidth": 2048.0, "eps_fraction": 0.8},
        {**_PIPELINE[1], "halfwidth": 512.0, "spacing": 0.03125},
        _PIPELINE[2],
    ],
    "spectral": [
        _SPECTRAL[0],
        {"id": "bmo-norms", "member": "eigenvector", "halfwidth": 8.0, "spacing": 0.03125},
        {"id": "tent-norms", "member": "gaussian", "halfwidth": 8.0, "spacing": 0.03125},
        {"id": "reproducing-pairing", "left": "gaussian", "right": "gaussian", "halfwidth": 8.0, "spacing": 0.03125},
        {"id": "square-function-agreement", "members": ["zero", "gaussian"], "halfwidth": 8.0, "spacing": 0.03125},
        {"id": "extension-agreement", "members": ["zero", "gaussian"], "halfwidth": 8.0, "spacing": 0.03125},
    ],
}

_FULL = {"lacunary": _LACUNARY, "pipeline": _PIPELINE, "spectral": _SPECTRAL}

# Layers whose spans each workload is chosen to exercise.
PRIMARY_LAYERS = {
    "lacunary": ("potential", "oscillation", "grid", "family"),
    "pipeline": ("approx",),
    "spectral": ("semigroup", "tent"),
}


def workload_config(name: str, seed: int, small: bool = False) -> dict:
    """The run config of one workload, with the seed written in."""
    if name not in _FULL:
        raise ValueError(f"unknown workload {name!r}; known: {list(WORKLOADS)}")
    scenarios = (_SMALL if small else _FULL)[name]
    return {"seed": int(seed), "scenarios": copy.deepcopy(scenarios)}
