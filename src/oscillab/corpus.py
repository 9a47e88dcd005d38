"""Canonical test functions shared by experiments and the acceptance suite.

Ten members, all deterministic closed-form profiles.  The three constants
(``zero``, ``const-one``, ``const-neg-half``) are declared constants, so a
build evaluates nothing.  The three built from the bump profile (the two
bumps and ``lacunary``) declare their compact support, so a build
evaluates them there only.  The windowed members (``smooth-step``,
``log-spike``) are -0.0 beyond their window on one side or both, which a
GridFunction keeps, so they are evaluated everywhere like the rest.
``eigenvector`` is the fourth Dirichlet sine mode of whatever box it is
sampled on, which is the fourth eigenvector of the unit-potential
operator on that box, so no operator is needed to build it.  Members
carry a ``smooth`` flag marking the ones eligible for the mollifier-sweep
check (flat members give an identically zero distance curve, so strict
decrease is meaningless for them; the log spike has unbounded second
derivative only at the window edges, which stays within the sweep
tolerance).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .grid import Grid, GridFunction
from .potential import constant_potential
from .semigroup import DEFAULT_OP_CAP, SpectralOperator, discretize

def _profile(u: np.ndarray) -> np.ndarray:
    """Peak-one smooth bump profile on |u| < 1, zero outside."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        val = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    out[inside] = val
    return out


def _window(x: np.ndarray, inner: float = 10.0, outer: float = 14.0) -> np.ndarray:
    """Smooth plateau: 1 on |x| <= inner, 0 beyond outer."""
    u = np.clip((np.abs(x) - inner) / (outer - inner), 0.0, 1.0)
    return _profile(u)


def _bump_narrow(x: np.ndarray) -> np.ndarray:
    return _profile(x)


def _bump_wide(x: np.ndarray) -> np.ndarray:
    return _profile(x / 4.0)


def _smooth_step(x: np.ndarray) -> np.ndarray:
    return np.tanh(x / 0.3) * _window(x)


def _gaussian(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x**2)


def _lacunary(x: np.ndarray) -> np.ndarray:
    return _profile(x - 3.0) + _profile(x - 9.0)


def _log_spike(x: np.ndarray) -> np.ndarray:
    # smooth log-type profile, scale 1/4, windowed so it vanishes at the wall
    return -0.5 * np.log(x**2 + 0.0625) * _window(x)


def _fourth_mode(x: np.ndarray) -> np.ndarray:
    # sin(4 pi (x + X) / 2X) on [-X, X], L2-normalised; the discrete sine of
    # frequency 4 is the fourth eigenvector of any -Laplacian_h + c
    X = x[-1]
    out = np.sin(2.0 * np.pi * (x + X) / X) / np.sqrt(X)
    out[0] = out[-1] = 0.0
    return out


class CorpusMember(NamedTuple):
    name: str
    summary: str
    smooth: bool  # eligible for the mollifier-sweep acceptance check
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # a closed interval outside which fn is +0.0: the build evaluates fn
    # there only, and the function's window lies inside it
    support: Optional[tuple[float, float]] = None
    constant: Optional[float] = None  # the value of a member without fn

    def build(self, grid: Grid) -> GridFunction:
        if self.fn is None:
            return GridFunction.constant(grid, self.constant)
        return GridFunction.from_callable(grid, self.fn, self.support)


CORPUS: tuple[CorpusMember, ...] = (
    CorpusMember("zero", "identically zero", smooth=False, constant=0.0),
    CorpusMember("const-one", "constant 1", smooth=False, constant=1.0),
    CorpusMember("const-neg-half", "constant -1/2", smooth=False, constant=-0.5),
    CorpusMember("bump-narrow", "peak-one smooth bump on B(0,1)", smooth=True, fn=_bump_narrow, support=(-1.0, 1.0)),
    CorpusMember("bump-wide", "peak-one smooth bump on B(0,4)", smooth=True, fn=_bump_wide, support=(-4.0, 4.0)),
    CorpusMember("smooth-step", "tanh step at scale 0.3, windowed", smooth=True, fn=_smooth_step),
    CorpusMember("gaussian", "unit gaussian", smooth=True, fn=_gaussian),
    CorpusMember("lacunary", "bumps at 3 and 9", smooth=True, fn=_lacunary, support=(2.0, 10.0)),
    CorpusMember(
        "eigenvector",
        "fourth eigenvector of the unit-potential operator, L2-normalized",
        smooth=True,
        fn=_fourth_mode,
    ),
    CorpusMember("log-spike", "smooth log spike at scale 1/4, windowed", smooth=True, fn=_log_spike),
)

_BY_NAME = {m.name: m for m in CORPUS}


def member_by_name(name: str) -> CorpusMember:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown corpus member {name!r}") from None


# the corpus grid [-16, 16] at spacing 2^-6, where the operator scenarios run by default
CORPUS_HALFWIDTH = 16.0
CORPUS_SPACING = 2.0**-6


def corpus_grid() -> Grid:
    return Grid(halfwidth=CORPUS_HALFWIDTH, spacing=CORPUS_SPACING)


def corpus_operator(grid: Grid, cap: int = DEFAULT_OP_CAP) -> SpectralOperator:
    """The unit-potential operator on grid."""
    return discretize(constant_potential(1.0), grid, cap=cap)
