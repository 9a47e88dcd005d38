"""Oscillation, tent-space, and critical-radius experiments on sampled boxes.

Callers import from the submodules (``from oscillab.experiments import
run``); the package itself defines only ``__version__``, so importing it,
or the command-line module to parse its flags, loads no numerical module.
"""

__version__ = "0.1.0"
