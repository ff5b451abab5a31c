"""Numerical helpers shared by the K-S, rank-size and urn tail-slope fits.

The only module that calls ``np.linalg``: every least-squares solve and
standard error of the fits goes through ``lstsq`` and ``std_errors``.
``unit_scale`` and ``rescale`` make the K-S and rank-size fits scale-free.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo: float, hi: float) -> float:
    """Minimiser of ``f`` on [lo, hi] by golden-section search.

    Returns the midpoint of the final bracket (width <= 1e-10).  Ties
    ``f(c) == f(d)`` move the bracket left, so a flat objective resolves
    to its lowest argument.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def unit_scale(y: np.ndarray):
    """``(y * 2^-e, e)``, e the binary exponent of the largest |y|: an exact
    change of units that keeps squares and Jacobians in range at any scale."""
    e = int(np.frexp(np.abs(y).max())[1])
    return np.ldexp(y, -e), e


def rescale(values, powers, e: int) -> list[float]:
    """Fit results ``values * 2^(powers * e)`` in the data's units; one beyond
    the float range reads inf or 0.0."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(values, np.multiply(powers, e)).tolist()


def r_squared(y: np.ndarray, sse: float) -> float:
    """Raw-space coefficient of determination, clipped to [0, 1]."""
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if sse <= 1e-300 else 0.0
    return min(max(1.0 - sse / sst, 0.0), 1.0)


def lstsq(x: np.ndarray, y: np.ndarray):
    """``(coef, resid, sse)`` of ``x @ coef ~ y`` by an SVD solve.

    A rank-deficient ``x`` (a flat series zeroes a Gauss-Newton Jacobian
    column) gives the minimum-norm solution instead of raising.
    """
    coef = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ coef
    return coef, resid, float(resid @ resid)


def std_errors(jac: np.ndarray, sse: float) -> np.ndarray:
    """sqrt(sigma^2 diag((J^T J)^+)), sigma^2 = sse / (m - k) or 0 if m <= k.

    diag((J^T J)^+) is the row sums of squares of pinv(J): finite for a
    singular J too.
    """
    m, k = jac.shape
    sigma2 = sse / (m - k) if m > k else 0.0
    pinv = np.linalg.pinv(jac)
    return np.sqrt(sigma2 * (pinv * pinv).sum(axis=1))
