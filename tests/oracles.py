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


def prefix_table(values: np.ndarray) -> np.ndarray:
    """P[i] = sum(values[:i]), as the package's prefix tables hold it."""
    p = np.zeros(values.shape[0] + 1)
    np.cumsum(values, out=p[1:])
    return p


def interval_sums(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums over the index ranges [lo, hi] inclusive, read from the prefix
    table p at index arrays; an empty range (lo > hi) sums to 0."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    return np.where(hi >= lo, p[np.maximum(hi + 1, lo)] - p[lo], 0.0)


def ball_sums(p: np.ndarray, centers_idx: np.ndarray, cell_radius: int) -> np.ndarray:
    """Sums over the samples strictly inside B(c, cell_radius * h) for any
    array of center sample indices c: offsets |k| <= cell_radius - 1."""
    ci = np.asarray(centers_idx, dtype=np.int64).reshape(-1)
    return interval_sums(p, ci - (cell_radius - 1), ci + (cell_radius - 1))
