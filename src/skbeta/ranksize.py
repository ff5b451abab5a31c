"""Ascending rank-size laws and their least-squares fits.

Model family (r = 1 is the smallest value, N the series length):

* ``zipf``        y = d * r**-alpha
* ``yule_simon``  y = d * r**-alpha * exp(-lam * r)
* ``lav3``        y = kappa * r**-gamma * (N - r + 1)**-xi
* ``lav5``        y = kappa * (r + phi)**-gamma * (N + 1 - r + psi)**-xi
* ``lav4``        y = kappa * r**xi * (N - r + psi)**-gamma

``lav3`` is exactly ``lav5`` at phi = psi = 0.  Each law is log-linear in
its exponents, ln y = ln(scale) + sum_j theta_j g_j(r, N), and one table,
``_log_terms``, gives the columns g_j together with d ln y / d(offset) for
the offsets phi and psi.  Evaluation, the Jacobian and the initializer are
all built on it.  Each fit starts from one log-space least-squares solve
with the offsets at zero (``lav4``'s psi at 1), then refines every parameter
with a damped Gauss-Newton pass on raw values and records why it stopped;
the refined raw-space SSE never exceeds the initializer's.  R^2 is reported
in raw space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._numeric import lstsq, r_squared, rescale, std_errors, unit_scale
from .betadist import BetaParams
from .errors import EmptyInputError, FitDomainError, UnsupportedVariantError

__all__ = [
    "RankVariant",
    "RankedSeries",
    "RankModelSpec",
    "RankFitResult",
    "rank_ascending",
    "eval_rank_model",
    "fit_rank_model",
    "fitted_values",
    "rank_fit_to_beta",
    "result_block",
    "series_csv",
]


class RankVariant(str, Enum):
    ZIPF = "zipf"
    YULE_SIMON = "yule_simon"
    LAV3 = "lav3"
    LAV5 = "lav5"
    LAV4 = "lav4"


PARAM_NAMES: dict[RankVariant, tuple[str, ...]] = {
    RankVariant.ZIPF: ("d", "alpha"),
    RankVariant.YULE_SIMON: ("d", "alpha", "lam"),
    RankVariant.LAV3: ("kappa", "gamma", "xi"),
    RankVariant.LAV5: ("kappa", "gamma", "xi", "phi", "psi"),
    RankVariant.LAV4: ("kappa", "gamma", "xi", "psi"),
}


@dataclass(frozen=True)
class RankedSeries:
    """Values sorted ascending; implicit ranks 1..n."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RankModelSpec:
    variant: RankVariant
    params: tuple[float, ...]

    def __post_init__(self):
        names = PARAM_NAMES[self.variant]
        if len(self.params) != len(names):
            raise ValueError(
                f"{self.variant.value} takes {len(names)} parameters "
                f"{names}, got {len(self.params)}"
            )
        if not self.params[0] > 0.0:
            raise ValueError(
                f"scale parameter {names[0]} must be positive, got {self.params[0]}"
            )

    def named(self) -> dict[str, float]:
        return dict(zip(PARAM_NAMES[self.variant], self.params))


@dataclass(frozen=True)
class RankFitResult:
    spec: RankModelSpec
    std_errors: tuple[float, ...]
    r_squared: float
    sse: float
    n: int
    stop: str  # why Gauss-Newton stopped, or "initializer" if its result was dropped
    iterations: int
    profile_sse: float  # raw-space SSE of the Gauss-Newton start

    @property
    def converged(self) -> bool:
        return self.stop in ("tolerance", "no descent")


def rank_ascending(values) -> RankedSeries:
    """Stable ascending sort; rank 1 is the smallest value."""
    if isinstance(values, RankedSeries):
        return values
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyInputError("cannot rank an empty series")
    return RankedSeries(tuple(sorted(vals)))


def _log_terms(variant: RankVariant, theta, r: np.ndarray, n: int):
    """The rank-model table: ``(g, dlog)`` for fit-space parameters ``theta``.

    ``theta[0]`` is ln(scale) and the rest are the raw parameters, the
    exponents first and the offsets (lav5's phi and psi, lav4's psi) last.
    ``ln f = theta[0] + sum_j theta[1 + j] * g[j]`` over the exponents, and
    ``dlog`` holds d ln f / d(offset) for each offset.
    """
    if variant is RankVariant.ZIPF:
        return [-np.log(r)], []
    if variant is RankVariant.YULE_SIMON:
        return [-np.log(r), -r], []
    if variant is RankVariant.LAV3:
        return [-np.log(r), -np.log(n - r + 1.0)], []
    if variant is RankVariant.LAV5:
        b1, b2 = _positive(r + theta[3], n + 1.0 - r + theta[4])
        return [-np.log(b1), -np.log(b2)], [-theta[1] / b1, -theta[2] / b2]
    if variant is RankVariant.LAV4:
        (b2,) = _positive(n - r + theta[3])
        return [-np.log(b2), np.log(r)], [-theta[1] / b2]
    raise UnsupportedVariantError(f"unknown variant {variant}")


def _positive(*bases: np.ndarray):
    for b in bases:
        if b.min() <= 0.0:
            raise FitDomainError(f"nonpositive base {b.min()} in a rank-model power")
    return bases


def _eval_vec(variant: RankVariant, theta, r: np.ndarray, n: int):
    """Model values at fit-space ``theta``, with the table's ``g`` and ``dlog``."""
    g, dlog = _log_terms(variant, theta, r, n)
    ln_f = theta[0] + theta[1] * g[0]
    for t, col in zip(theta[2:], g[1:]):
        ln_f += t * col
    return np.exp(ln_f), g, dlog


def _spec_values(spec: RankModelSpec, r: np.ndarray, n: int) -> np.ndarray:
    theta = (math.log(spec.params[0]),) + spec.params[1:]
    return _eval_vec(spec.variant, theta, r, n)[0]


def eval_rank_model(spec: RankModelSpec, r: int, n: int) -> float:
    """Evaluate one rank model at rank r for a series of length n."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {r}")
    return float(_spec_values(spec, np.array([float(r)]), n)[0])


def _jacobian(variant: RankVariant, theta: np.ndarray, r: np.ndarray, n: int):
    f, g, dlog = _eval_vec(variant, theta, r, n)
    return f, np.column_stack([f] + [f * col for col in g + dlog])


def _initial_theta(variant, r, y, n):
    """Log-space least squares of ln(scale) and the exponents, with every
    offset at zero except lav4's psi at 1 (its base N - r + psi is psi at r = N)."""
    theta = np.zeros(len(PARAM_NAMES[variant]))
    if variant is RankVariant.LAV4:
        theta[3] = 1.0
    g, _ = _log_terms(variant, theta, r, n)
    coef = lstsq(np.column_stack([np.ones(len(r))] + g), np.log(y))[0]
    theta[: len(coef)] = coef
    return theta


def _sse(variant, theta, r, y, n) -> float:
    try:
        f = _eval_vec(variant, theta, r, n)[0]
    except FitDomainError:
        return math.inf
    if not np.all(np.isfinite(f)):
        return math.inf
    d = y - f
    return float(d @ d)


def _gauss_newton(variant, theta0, r, y, n, max_iter=200):
    """Damped Gauss-Newton on raw values: ``(theta, sse, stop, iterations)``.

    ``stop`` is ``"tolerance"`` (the SSE fell by at most 1e-14 relative),
    ``"no descent"`` (40 step halvings found no lower SSE) or
    ``"max_iter"``; ``iterations`` counts the Jacobians evaluated.
    """
    theta = theta0
    sse = _sse(variant, theta, r, y, n)
    for it in range(1, max_iter + 1):
        f, jac = _jacobian(variant, theta, r, n)
        step = lstsq(jac, y - f)[0]
        lam = 1.0
        for _ in range(40):
            cand = theta + lam * step
            cand_sse = _sse(variant, cand, r, y, n)
            if cand_sse < sse:
                break
            lam *= 0.5
        else:
            return theta, sse, "no descent", it
        drop = sse - cand_sse
        theta, sse = cand, cand_sse
        if drop <= 1e-14 * max(sse, 1e-300):
            return theta, sse, "tolerance", it
    return theta, sse, "max_iter", max_iter


def fit_rank_model(values, variant) -> RankFitResult:
    """Fit one rank-model variant to a value series (ranking is internal)."""
    variant = RankVariant(variant)
    series = rank_ascending(values)
    y = np.asarray(series.values, dtype=float)
    n = series.n
    names = PARAM_NAMES[variant]
    if np.any(y <= 0.0):
        bad = float(y[y <= 0.0][0])
        raise FitDomainError(
            f"rank fit requires positive values; found {bad} in the series"
        )
    if n < len(names) + 2:
        raise ValueError(
            f"{variant.value} fit needs at least {len(names) + 2} values, got {n}"
        )
    y, e = unit_scale(y)
    r = np.arange(1.0, n + 1.0)
    theta0 = _initial_theta(variant, r, y, n)
    init_sse = _sse(variant, theta0, r, y, n)
    theta, sse, stop, iterations = _gauss_newton(variant, theta0, r, y, n)
    if not math.isfinite(sse) or sse > init_sse:
        theta, sse, stop = theta0, init_sse, "initializer"

    scale = math.exp(theta[0])
    # Jacobian with respect to the raw parameters: d f / d scale = f / scale.
    _, jac = _jacobian(variant, theta, r, n)
    jac[:, 0] /= scale
    ses = std_errors(jac, sse)
    r2 = r_squared(y, sse)
    scale, se_scale, sse, init_sse = rescale([scale, ses[0], sse, init_sse], [1, 1, 2, 2], e)
    return RankFitResult(
        spec=RankModelSpec(variant, (scale,) + tuple(float(v) for v in theta[1:])),
        std_errors=(se_scale,) + tuple(float(v) for v in ses[1:]),
        r_squared=r2,
        sse=sse,
        n=n,
        stop=stop,
        iterations=iterations,
        profile_sse=init_sse,
    )


def fitted_values(result: RankFitResult) -> list[float]:
    n = result.n
    return _spec_values(result.spec, np.arange(1.0, n + 1.0), n).tolist()


def rank_fit_to_beta(result: RankFitResult) -> BetaParams:
    """Map a lav4 fit to Beta shape parameters: a = xi + 1, b = gamma + 1."""
    if result.spec.variant is not RankVariant.LAV4:
        raise UnsupportedVariantError(
            f"Beta correspondence only applies to lav4 fits, got {result.spec.variant.value}"
        )
    p = result.spec.named()
    return BetaParams(a=p["xi"] + 1.0, b=p["gamma"] + 1.0)


def result_block(result: RankFitResult) -> str:
    """Key-value block of fitted parameters with standard errors."""
    lines = [f"model: {result.spec.variant.value}"]
    for name, value, se in zip(
        PARAM_NAMES[result.spec.variant], result.spec.params, result.std_errors
    ):
        lines.append(f"{name}: {value!r}")
        lines.append(f"se_{name}: {se!r}")
    lines.append(f"R^2: {result.r_squared!r}")
    lines.append(f"sse: {result.sse!r}")
    lines.append(f"n: {result.n}")
    lines.append(f"converged: {result.converged}")
    lines.append(f"stop: {result.stop}")
    lines.append(f"iterations: {result.iterations}")
    lines.append("fit_space: raw")
    lines.append("r2_space: raw")
    if result.spec.variant is RankVariant.LAV4:
        beta = rank_fit_to_beta(result)
        lines.append(f"beta_a: {beta.a!r}")
        lines.append(f"beta_b: {beta.b!r}")
    return "\n".join(lines) + "\n"


def series_csv(result: RankFitResult, series: RankedSeries) -> str:
    """rank,value,fitted rows for plotting the data against the fit."""
    fitted = fitted_values(result)
    lines = ["rank,value,fitted"]
    for i, (v, f) in enumerate(zip(series.values, fitted), start=1):
        lines.append(f"{i},{v!r},{f!r}")
    return "\n".join(lines) + "\n"
