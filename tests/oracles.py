"""Slow, independent forms of what the package computes fast.

The tests compare the package against these; no scenario runs them.
"""

import math

import numpy as np
from scipy.integrate import quad_vec

from oscillab.errors import ConfigError
from oscillab.grid import GridFunction
from oscillab.semigroup import SpectralOperator


def poisson_subordinated(op: SpectralOperator, f: GridFunction, t: float, rel_tol: float = 1e-10) -> GridFunction:
    """e^{-t sqrt(L)} f via the subordination integral

        (1/sqrt(pi)) int_0^inf e^{-u} u^{-1/2} e^{-(t^2/4u) L} f du,

    evaluated per eigenvalue with adaptive quadrature.  Independent of the
    direct exponential up to linear algebra, so it serves as a cross-check.
    """
    if t < 0:
        raise ConfigError("subordinated time must be >= 0")
    lam = op.eigenvalues
    if t == 0.0:
        g = np.ones_like(lam)
    else:
        def integrand(u: float) -> np.ndarray:
            return np.exp(-u - (t * t / (4.0 * u)) * lam) / math.sqrt(u)

        val, _err = quad_vec(integrand, 0.0, np.inf, epsrel=rel_tol, epsabs=1e-300)
        g = val / math.sqrt(math.pi)
    return op.synthesize(g * op.coefficients(f))
