"""Numerical helpers shared by the K-S, rank-size and urn tail-slope fits.

The only module that calls ``np.linalg``: every least-squares solve and
standard error of the fits goes through ``lstsq`` and ``std_errors``, and
both nonlinear fits, ``ksfit.fit_power`` and ``ranksize.fit_rank_model``,
through ``separable_fit``.  ``unit_scale`` and ``rescale`` make the K-S and
rank-size fits scale-free.
"""

from __future__ import annotations

import numpy as np


def separable_fit(columns, theta, y, lo=-np.inf, hi=np.inf, max_iter=200):
    """Variable projection (Golub & Pereyra 1973) for y ~ A(theta) @ coef:
    ``(theta, coef, sse, stop, iterations)``.

    ``columns(theta)`` gives A (m x l) and dA/dtheta (k x m x l), or None or
    non-finite columns outside the model's domain (a start there is a
    ValueError).  Each step solves coef and takes Kaufman's (1975) Gauss-Newton
    step: the residual is orthogonal to A, so the theta part of its least
    squares on [A, dA coef] is that step, and its fit is P_perp dA coef step.
    The step is clipped to [lo, hi] and halved until the projected SSE drops.
    ``stop`` is "tolerance" once |fit|^2, the predicted decrease, is at most
    1e-12 SSE + ``rounding_floor(y)`` (the full step is then tried once), "no
    descent" after 40 halvings, or "max_iter"; ``iterations`` counts the steps.
    """
    def project(t):  # (coef, resid, sse, A, dA) at t, or None outside the domain
        cols = columns(t)
        if cols is not None and all(np.isfinite(c).all() for c in cols):
            return (*lstsq(cols[0], y), *cols)

    theta = np.asarray(theta, dtype=float)
    if (state := project(theta)) is None:
        raise ValueError("the fit's start lies outside the model's domain")
    coef, resid, sse, a, da = state
    floor = rounding_floor(y)
    for it in range(1, max_iter + 1):
        sol, rest, _ = lstsq(np.column_stack([a, np.einsum("kml,l->mk", da, coef)]), resid)
        step = sol[len(coef):]
        done = np.sum((resid - rest) ** 2) <= 1e-12 * sse + floor
        for lam in 0.5 ** np.arange(1 if done else 40):
            cand = np.clip(theta + lam * step, lo, hi)
            new = project(cand)
            if new is not None and new[2] < sse:
                theta, (coef, resid, sse, a, da) = cand, new
                break
        else:
            return theta, coef, sse, "tolerance" if done else "no descent", it
        if done:
            return theta, coef, sse, "tolerance", it
    return theta, coef, sse, "max_iter", max_iter


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


def rounding_floor(y: np.ndarray) -> float:
    """(m eps max|y|)^2: an SSE this small is the rounding of ``y``, not misfit."""
    return float((y.size * np.finfo(float).eps * np.abs(y).max()) ** 2)


def r_squared(y: np.ndarray, sse: float) -> float:
    """Raw-space coefficient of determination, clipped to [0, 1].  A constant
    ``y`` reads 1.0 for an SSE within ``rounding_floor(y)``, else 0.0."""
    if y.min() == y.max():
        return 1.0 if sse <= rounding_floor(y) else 0.0
    sst = float(np.sum((y - y.mean()) ** 2))
    return min(max(1.0 - sse / sst, 0.0), 1.0)


def lstsq(x: np.ndarray, y: np.ndarray):
    """``(coef, resid, sse)`` of ``x @ coef ~ y`` by an SVD solve.

    A rank-deficient ``x`` (a flat series zeroes a Jacobian column) gives
    the minimum-norm solution instead of raising.
    """
    coef = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ coef
    return coef, resid, float(resid @ resid)


def std_errors(jac: np.ndarray, sse: float) -> np.ndarray:
    """sqrt(sigma^2 diag((J^T J)^+)), sigma^2 = sse / (m - k) or 0 if m <= k.

    diag((J^T J)^+) is the row sums of squares of pinv(J): finite for a
    singular J too.  A J with a non-finite entry gives NaN for every error
    and never reaches ``pinv``, whose SVD hangs on an inf and raises on a NaN.
    """
    m, k = jac.shape
    if not np.isfinite(jac).all():
        return np.full(k, np.nan)
    sigma2 = sse / (m - k) if m > k else 0.0
    pinv = np.linalg.pinv(jac)
    return np.sqrt(sigma2 * (pinv * pinv).sum(axis=1))
