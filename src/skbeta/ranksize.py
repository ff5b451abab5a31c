"""Ascending rank-size laws and their least-squares fits.

Model family (r = 1 is the smallest value, N the series length):

* ``zipf``        y = d * r**-alpha
* ``yule_simon``  y = d * r**-alpha * exp(-lam * r)
* ``lav3``        y = kappa * r**-gamma * (N - r + 1)**-xi
* ``lav5``        y = kappa * (r + phi)**-gamma * (N + 1 - r + psi)**-xi
* ``lav4``        y = kappa * r**xi * (N - r + psi)**-gamma

``lav3`` is exactly ``lav5`` at phi = psi = 0.  Each fit builds a log-space
least-squares initializer (profiling psi for ``lav4``), then refines with a
damped Gauss-Newton pass on raw values; the refined raw-space SSE never
exceeds the initializer's.  R^2 is reported in raw space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._numeric import golden_min, r_squared
from .betadist import BetaParams
from .errors import EmptyInputError, FitDomainError, UnsupportedVariantError

__all__ = [
    "RankVariant",
    "RankedSeries",
    "RankModelSpec",
    "RankFitResult",
    "PSI_BRACKET",
    "rank_ascending",
    "eval_rank_model",
    "fit_rank_model",
    "fitted_values",
    "rank_fit_to_beta",
    "result_block",
    "series_csv",
]

PSI_BRACKET = (0.0, 2.0)  # open at 0


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
    converged: bool
    profile_sse: float  # raw-space SSE of the initializer stage


def rank_ascending(values) -> RankedSeries:
    """Stable ascending sort; rank 1 is the smallest value."""
    if isinstance(values, RankedSeries):
        return values
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyInputError("cannot rank an empty series")
    return RankedSeries(tuple(sorted(vals)))


def _pow(base: float, expo: float) -> float:
    if base <= 0.0:
        raise FitDomainError(f"nonpositive base {base} in rank-model power")
    return base**expo


def eval_rank_model(spec: RankModelSpec, r: int, n: int) -> float:
    """Evaluate one rank model at rank r for a series of length n."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {r}")
    p = spec.named()
    v = spec.variant
    if v is RankVariant.ZIPF:
        return p["d"] * _pow(r, -p["alpha"])
    if v is RankVariant.YULE_SIMON:
        return p["d"] * _pow(r, -p["alpha"]) * math.exp(-p["lam"] * r)
    if v is RankVariant.LAV3:
        return p["kappa"] * _pow(r, -p["gamma"]) * _pow(n - r + 1.0, -p["xi"])
    if v is RankVariant.LAV5:
        return (
            p["kappa"]
            * _pow(r + p["phi"], -p["gamma"])
            * _pow(n + 1.0 - r + p["psi"], -p["xi"])
        )
    if v is RankVariant.LAV4:
        return p["kappa"] * _pow(r, p["xi"]) * _pow(n - r + p["psi"], -p["gamma"])
    raise UnsupportedVariantError(f"unknown variant {spec.variant}")


def _eval_vec(variant: RankVariant, theta: np.ndarray, r: np.ndarray, n: int):
    # theta in fit space: theta[0] = ln(scale), remaining raw.
    if variant is RankVariant.ZIPF:
        return np.exp(theta[0] - theta[1] * np.log(r))
    if variant is RankVariant.YULE_SIMON:
        return np.exp(theta[0] - theta[1] * np.log(r) - theta[2] * r)
    if variant is RankVariant.LAV3:
        return np.exp(
            theta[0] - theta[1] * np.log(r) - theta[2] * np.log(n - r + 1.0)
        )
    if variant is RankVariant.LAV5:
        b1 = r + theta[3]
        b2 = n + 1.0 - r + theta[4]
        if np.any(b1 <= 0.0) or np.any(b2 <= 0.0):
            raise FitDomainError("nonpositive base in lav5 power")
        return np.exp(theta[0] - theta[1] * np.log(b1) - theta[2] * np.log(b2))
    if variant is RankVariant.LAV4:
        b2 = n - r + theta[3]
        if np.any(b2 <= 0.0):
            raise FitDomainError("nonpositive base in lav4 power")
        return np.exp(theta[0] + theta[2] * np.log(r) - theta[1] * np.log(b2))
    raise UnsupportedVariantError(f"unknown variant {variant}")


def _jacobian(variant: RankVariant, theta: np.ndarray, r: np.ndarray, n: int):
    f = _eval_vec(variant, theta, r, n)
    cols = [f]
    if variant is RankVariant.ZIPF:
        cols.append(-f * np.log(r))
    elif variant is RankVariant.YULE_SIMON:
        cols.append(-f * np.log(r))
        cols.append(-f * r)
    elif variant is RankVariant.LAV3:
        cols.append(-f * np.log(r))
        cols.append(-f * np.log(n - r + 1.0))
    elif variant is RankVariant.LAV5:
        b1 = r + theta[3]
        b2 = n + 1.0 - r + theta[4]
        cols.append(-f * np.log(b1))
        cols.append(-f * np.log(b2))
        cols.append(-theta[1] * f / b1)
        cols.append(-theta[2] * f / b2)
    elif variant is RankVariant.LAV4:
        b2 = n - r + theta[3]
        cols.append(-f * np.log(b2))
        cols.append(f * np.log(r))
        cols.append(-theta[1] * f / b2)
    return f, np.column_stack(cols)


def _logspace_ols(design: np.ndarray, ln_y: np.ndarray):
    coef, *_ = np.linalg.lstsq(design, ln_y, rcond=None)
    resid = ln_y - design @ coef
    return coef, float(resid @ resid)


def _initial_theta(variant, r, y, n):
    ln_y = np.log(y)
    ones = np.ones(len(r))
    ln_r = np.log(r)
    if variant is RankVariant.ZIPF:
        coef, _ = _logspace_ols(np.column_stack([ones, -ln_r]), ln_y)
        return np.array([coef[0], coef[1]])
    if variant is RankVariant.YULE_SIMON:
        coef, _ = _logspace_ols(np.column_stack([ones, -ln_r, -r]), ln_y)
        return np.array([coef[0], coef[1], coef[2]])
    if variant is RankVariant.LAV3:
        coef, _ = _logspace_ols(
            np.column_stack([ones, -ln_r, -np.log(n - r + 1.0)]), ln_y
        )
        return np.array([coef[0], coef[1], coef[2]])
    if variant is RankVariant.LAV5:
        base = _initial_theta(RankVariant.LAV3, r, y, n)
        return np.array([base[0], base[1], base[2], 0.0, 0.0])
    if variant is RankVariant.LAV4:
        def profile(psi: float) -> float:
            design = np.column_stack([ones, -np.log(n - r + psi), ln_r])
            return _logspace_ols(design, ln_y)[1]

        psi = golden_min(profile, 1e-8, PSI_BRACKET[1])
        coef, _ = _logspace_ols(
            np.column_stack([ones, -np.log(n - r + psi), ln_r]), ln_y
        )
        return np.array([coef[0], coef[1], coef[2], psi])
    raise UnsupportedVariantError(f"unknown variant {variant}")


def _sse(variant, theta, r, y, n) -> float:
    try:
        f = _eval_vec(variant, theta, r, n)
    except FitDomainError:
        return math.inf
    if not np.all(np.isfinite(f)):
        return math.inf
    d = y - f
    return float(d @ d)


def _gauss_newton(variant, theta0, r, y, n, max_iter=200):
    theta = theta0.copy()
    sse = _sse(variant, theta, r, y, n)
    converged = False
    for _ in range(max_iter):
        f, jac = _jacobian(variant, theta, r, n)
        resid = y - f
        try:
            step = np.linalg.solve(jac.T @ jac, jac.T @ resid)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        new_theta = None
        new_sse = math.inf
        for _ in range(40):
            cand = theta + lam * step
            cand_sse = _sse(variant, cand, r, y, n)
            if cand_sse < sse:
                new_theta, new_sse = cand, cand_sse
                break
            lam *= 0.5
        if new_theta is None:
            converged = True  # no descent direction left: at a minimum
            break
        drop = sse - new_sse
        theta, sse = new_theta, new_sse
        if drop <= 1e-14 * max(sse, 1e-300):
            converged = True
            break
    else:
        converged = False
    return theta, sse, converged


def _raw_std_errors(variant, theta, r, y, n, sse):
    # Jacobian with respect to the raw parameters (scale itself, not its log).
    f, jac = _jacobian(variant, theta, r, n)
    scale = math.exp(theta[0])
    jac = jac.copy()
    jac[:, 0] = jac[:, 0] / scale  # d f / d scale = f / scale
    k = jac.shape[1]
    dof = len(y) - k
    sigma2 = sse / dof if dof > 0 else 0.0
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
        diag = np.clip(np.diag(cov), 0.0, None)
    except np.linalg.LinAlgError:
        diag = np.clip(np.diag(sigma2 * np.linalg.pinv(jac.T @ jac)), 0.0, None)
    return tuple(float(math.sqrt(v)) for v in diag)


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
    r = np.arange(1.0, n + 1.0)
    theta0 = _initial_theta(variant, r, y, n)
    init_sse = _sse(variant, theta0, r, y, n)
    theta, sse, converged = _gauss_newton(variant, theta0, r, y, n)
    if not math.isfinite(sse) or sse > init_sse:
        theta, sse, converged = theta0, init_sse, False

    params = (math.exp(theta[0]),) + tuple(float(v) for v in theta[1:])
    spec = RankModelSpec(variant, params)
    ses = _raw_std_errors(variant, theta, r, y, n, sse)
    return RankFitResult(
        spec=spec,
        std_errors=ses,
        r_squared=r_squared(y, sse),
        sse=sse,
        n=n,
        converged=converged,
        profile_sse=init_sse,
    )


def fitted_values(result: RankFitResult) -> list[float]:
    spec = result.spec
    return [eval_rank_model(spec, rank, result.n) for rank in range(1, result.n + 1)]


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
