"""Numerical helpers shared by the K-S and rank-size fits."""

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


def r_squared(y: np.ndarray, sse: float) -> float:
    """Raw-space coefficient of determination, clipped to [0, 1]."""
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if sse <= 1e-300 else 0.0
    return min(max(1.0 - sse / sst, 0.0), 1.0)
