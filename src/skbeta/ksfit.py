"""Least-squares fits of the kurtosis-skewness relation K = p S^nu + q.

The quadratic model fixes nu = 2; the power model finds nu in [0.5, 4] by
variable projection (``_numeric.separable_fit``, p and q projected out)
from the best point of an 8-point grid.  At its nu each hands one core the
(p, q) least squares and its Jacobian.  Fitting happens in raw (K, S) space (the
additive q, which can be negative, forbids log transforms) and R^2 is
reported in raw space as well.  Both fits run on K times a power of two
near its largest value, so they are scale-free in K.

Input points are reordered internally to a canonical sort so that every
output, residuals included, is bit-identical under input permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import lstsq, r_squared, rescale, separable_fit, std_errors, unit_scale
from .errors import FitDomainError, SingularDesignError, UndefinedHelpVariableError
from .moments import SKPoint

__all__ = [
    "KSFitResult",
    "NU_BRACKET",
    "fit_quadratic",
    "fit_power",
    "help_variable_from_pq",
    "result_block",
    "residuals_csv",
    "curve_csv",
]

NU_BRACKET = (0.5, 4.0)


@dataclass(frozen=True)
class KSFitResult:
    model: str
    p: float
    q: float
    nu: float
    se_p: float
    se_q: float
    se_nu: float
    r_squared: float
    sse: float
    n_points: int
    residuals: tuple[float, ...]
    points: tuple[SKPoint, ...]  # canonical order matching residuals
    warnings: tuple[str, ...] = ()


def _canonical(points):
    """(points in canonical order, S, K * 2^-e, e), with e from ``unit_scale``."""
    pts = list(points)
    if not pts:
        raise ValueError("no points to fit")
    pts.sort(key=lambda p: (p.s, p.k, p.n, p.group_key))
    y, e = unit_scale(np.array([p.k for p in pts]))
    return pts, np.array([p.s for p in pts]), y, e


def _fit_at(model: str, pts, y, e: int, nu: float, coef, resid, sse, jac, warnings=()) -> KSFitResult:
    """The result of the least squares ``coef, resid, sse`` of y = K * 2^-e at a
    given nu, with standard errors from its Jacobian ``jac``: the columns
    S^nu and 1, and for a searched nu (the power model) d K / d nu."""
    ses = std_errors(jac, sse)
    r2 = r_squared(y, sse)
    p, q, se_p, se_q, sse = rescale([*coef, *ses[:2], sse], [1, 1, 1, 1, 2], e)
    return KSFitResult(
        model=model,
        p=p,
        q=q,
        nu=float(nu),
        se_p=se_p,
        se_q=se_q,
        se_nu=float(ses[2]) if len(ses) == 3 else 0.0,
        r_squared=r2,
        sse=sse,
        n_points=len(pts),
        residuals=tuple(rescale(resid, 1, e)),
        points=tuple(pts),
        warnings=tuple(warnings),
    )


def fit_quadratic(points) -> KSFitResult:
    """Ordinary least squares of K on S^2 (model K = p S^2 + q)."""
    pts, s, y, e = _canonical(points)
    n = len(pts)
    if n < 3:
        raise ValueError(f"quadratic fit needs at least 3 points, got {n}")
    if len(set((v * v) for v in s)) < 2:
        raise SingularDesignError("all S^2 values are equal; cannot fit p and q")
    x = np.column_stack([s**2, np.ones(n)])
    return _fit_at("quadratic", pts, y, e, 2.0, *lstsq(x, y), x)


def fit_power(points) -> KSFitResult:
    """Least squares of K = p S^nu + q with nu profiled over [0.5, 4].

    Requires S > 0 everywhere (real powers).  Standard errors come from
    the linearized three-parameter Jacobian at the optimum.
    """
    pts, s, y, e = _canonical(points)
    n = len(pts)
    if n < 4:
        raise ValueError(f"power fit needs at least 4 points, got {n}")
    for p in pts:
        if p.s <= 0.0:
            raise FitDomainError(
                f"power fit requires S > 0; group {p.group_key!r} has S = {p.s}"
            )
    if np.all(s == s[0]):
        raise SingularDesignError("all S values are equal; cannot fit p, q and nu")

    lo, hi = NU_BRACKET
    ones, zeros, log_s = np.ones(n), np.zeros(n), np.log(s)

    def columns(theta):
        power = s ** theta[0]
        return np.column_stack([power, ones]), np.column_stack([power * log_s, zeros])[None]

    start = min(np.linspace(lo, hi, 8), key=lambda v: lstsq(columns([v])[0], y)[2])
    theta, *fit, _, _ = separable_fit(columns, [start], y, lo, hi)
    nu = float(theta[0])
    warnings = []
    if nu - lo < 1e-6 or hi - nu < 1e-6:
        warnings.append(f"no interior minimum: nu = {nu!r} sits at the bracket boundary {NU_BRACKET}")
    return _fit_at("power", pts, y, e, nu, *fit, warnings)


def help_variable_from_pq(p: float, q: float, s: float) -> float:
    """rho = 6 [(p-1) S^2 + (q-1)] / [(3-2p) S^2 + 2 (3-q)]."""
    denom = (3.0 - 2.0 * p) * s * s + 2.0 * (3.0 - q)
    if denom == 0.0:
        raise UndefinedHelpVariableError(
            f"zero denominator for (p, q, S) = ({p}, {q}, {s})"
        )
    return 6.0 * ((p - 1.0) * s * s + (q - 1.0)) / denom


def result_block(result: KSFitResult) -> str:
    """Key-value block with the fitted relation parameters, full precision."""
    lines = [
        f"model: {result.model}",
        f"nu: {result.nu!r}" + (" (fixed)" if result.model == "quadratic" else ""),
        f"se_nu: {result.se_nu!r}",
        f"p: {result.p!r}",
        f"se_p: {result.se_p!r}",
        f"q: {result.q!r}",
        f"se_q: {result.se_q!r}",
        f"R^2: {result.r_squared!r}",
        f"sse: {result.sse!r}",
        f"n_points: {result.n_points}",
        "fit_space: raw",
        "r2_space: raw",
    ]
    for w in result.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def residuals_csv(result: KSFitResult) -> str:
    lines = ["group,s,k,fitted,residual"]
    for pt, r in zip(result.points, result.residuals):
        fitted = pt.k - r
        lines.append(f"{pt.group_key},{pt.s!r},{pt.k!r},{fitted!r},{r!r}")
    return "\n".join(lines) + "\n"


def curve_csv(result: KSFitResult, n_grid: int = 200) -> str:
    """Fitted curve sampled on a uniform S grid spanning the data."""
    s_lo = result.points[0].s
    s_hi = result.points[-1].s
    lines = ["s,fitted_k"]
    for i in range(n_grid):
        s = s_lo + (s_hi - s_lo) * i / (n_grid - 1)
        k = result.p * s**result.nu + result.q
        lines.append(f"{s!r},{k!r}")
    return "\n".join(lines) + "\n"
