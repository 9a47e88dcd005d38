"""Exception hierarchy.

Every error raised by this package derives from :class:`OscillabError` so
callers (and the CLI) can map failures to exit codes without matching on
message strings.
"""

from __future__ import annotations


class OscillabError(Exception):
    """Base class for all package errors."""


class ConfigError(OscillabError):
    """Invalid configuration, precondition, or constructor argument."""


class GridMismatchError(ConfigError):
    """Operands on different grids (grid.same_grid): a ConfigError, so the CLI exits 2."""


class DegenerateRegionError(OscillabError):
    """A ball or cube that contains no grid sample, or an all-zero region
    where a ratio is requested."""


class OutOfDomainError(OscillabError):
    """A ball, cube, or dilate escapes the grid box."""


class BracketError(OscillabError):
    """Root bracketing failed (scan range does not straddle the target)."""


class LadderError(OscillabError):
    """A scale ladder does not cover the requested range, or a fit has too
    few usable ladder points."""


class ThresholdExhaustedError(OscillabError):
    """No admissible averaging thresholds exist within the scanned range."""


class CriterionFailure(OscillabError):
    """An asserted experiment criterion failed (CLI exit code 3)."""
