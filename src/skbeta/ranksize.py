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
the offsets phi and psi.  Evaluation, the Jacobian and the start are all
built on it.  Each fit starts from one log-space least-squares solve with
the offsets at zero (``lav4``'s psi at 1), then fits the raw values by
variable projection (``_numeric.separable_fit``, the scale projected out)
and records why it stopped; its raw-space SSE never exceeds the start's.
R^2 is reported in raw space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._numeric import lstsq, r_squared, rescale, separable_fit, std_errors, unit_scale
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
        object.__setattr__(self, "variant", RankVariant(self.variant))
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
    stop: str  # why separable_fit stopped: "tolerance", "no descent" or "max_iter"
    iterations: int

    @property
    def converged(self) -> bool:
        return self.stop == "tolerance"


def rank_ascending(values) -> RankedSeries:
    """Stable ascending sort; rank 1 is the smallest value."""
    if isinstance(values, RankedSeries):
        return values
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyInputError("cannot rank an empty series")
    return RankedSeries(tuple(sorted(vals)))


def _log_terms(variant: RankVariant, p, r: np.ndarray, n: int):
    """The rank-model table: ``(g, dlog)`` for the parameters ``p`` after the
    scale, the exponents first and the offsets (lav5's phi and psi, lav4's
    psi) last.  ``ln f = ln(scale) + sum_j p[j] * g[j]`` over the exponents,
    and ``dlog`` holds d ln f / d(offset) for each offset.
    """
    if variant is RankVariant.ZIPF:
        return [-np.log(r)], []
    if variant is RankVariant.YULE_SIMON:
        return [-np.log(r), -r], []
    if variant is RankVariant.LAV3:
        return [-np.log(r), -np.log(n - r + 1.0)], []
    if variant is RankVariant.LAV5:
        b1, b2 = _positive(r + p[2], n + 1.0 - r + p[3])
        return [-np.log(b1), -np.log(b2)], [-p[0] / b1, -p[1] / b2]
    if variant is RankVariant.LAV4:
        (b2,) = _positive(n - r + p[2])
        return [-np.log(b2), np.log(r)], [-p[0] / b2]


def _positive(*bases: np.ndarray):
    for b in bases:
        if b.min() <= 0.0:
            raise FitDomainError(f"nonpositive base {b.min()} in a rank-model power")
    return bases


def _ln_model(variant: RankVariant, theta, r: np.ndarray, n: int):
    """ln of the model values at fit-space ``theta`` (ln(scale) first), with
    the table's ``g`` and ``dlog``."""
    g, dlog = _log_terms(variant, theta[1:], r, n)
    return sum((t * col for t, col in zip(theta[1:], g)), theta[0]), g, dlog


def _spec_values(spec: RankModelSpec, r: np.ndarray, n: int) -> np.ndarray:
    theta = (math.log(spec.params[0]),) + spec.params[1:]
    return np.exp(_ln_model(spec.variant, theta, r, n)[0])


def eval_rank_model(spec: RankModelSpec, r: int, n: int) -> float:
    """Evaluate one rank model at rank r for a series of length n."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {r}")
    return float(_spec_values(spec, np.array([float(r)]), n)[0])


def _initial_theta(variant, r, y, n):
    """Log-space least squares of ln(scale) and the exponents, with every
    offset at zero except lav4's psi at 1 (its base N - r + psi is psi at r = N)."""
    theta = np.zeros(len(PARAM_NAMES[variant]))
    if variant is RankVariant.LAV4:
        theta[3] = 1.0
    g, _ = _log_terms(variant, theta[1:], r, n)
    coef = lstsq(np.column_stack([np.ones(len(r))] + g), np.log(y))[0]
    theta[: len(coef)] = coef
    return theta


def _columns(variant, r, n):
    """``separable_fit``'s model in the exponents and offsets ``p``: the column
    h = exp(ln f - shift), shift = max ln f at ln(scale) = 0, and dh/dp; None
    where a base is nonpositive or the scale, coef e^-shift, leaves the float range."""

    def columns(p):
        try:
            ln_h, g, dlog = _ln_model(variant, [0.0, *p], r, n)
        except FitDomainError:
            return None
        if abs(ln_h.max()) > 700.0:
            return None
        h = np.exp(ln_h - ln_h.max())
        return h[:, None], (np.array(g + dlog) * h)[:, :, None]

    return columns


def fit_rank_model(values, variant) -> RankFitResult:
    """Fit one rank-model variant to a value series (ranking is internal)."""
    variant = RankVariant(variant)
    series = rank_ascending(values)
    raw = np.asarray(series.values, dtype=float)
    y, e = unit_scale(raw)
    n = series.n
    names = PARAM_NAMES[variant]
    if np.any(y <= 0.0):  # a value that is not positive, or underflows at unit scale
        bad, top = float(raw[y <= 0.0][0]), float(np.abs(raw).max())
        raise FitDomainError(
            f"rank fit requires positive values; found {bad} in the series" if bad <= 0.0
            else f"rank fit cannot scale the series: {bad} underflows to 0 beside {top}"
        )
    if n < len(names) + 2:
        raise ValueError(
            f"{variant.value} fit needs at least {len(names) + 2} values, got {n}"
        )
    r = np.arange(1.0, n + 1.0)
    p0 = _initial_theta(variant, r, y, n)[1:]
    p, (c,), _, sse, jac, stop, iterations = separable_fit(_columns(variant, r, n), p0, y)
    # f = c h = scale e^shift h, so d f / d scale = h e^shift; d f / d p is c dh already.
    unit = math.exp(-_ln_model(variant, [0.0, *p], r, n)[0].max())
    jac[:, 0] /= unit
    ses = std_errors(jac, sse)
    r2 = r_squared(y, sse)
    scale, se_scale, sse = rescale([c * unit, ses[0], sse], [1, 1, 2], e)
    return RankFitResult(
        spec=RankModelSpec(variant, (scale,) + tuple(float(v) for v in p)),
        std_errors=(se_scale,) + tuple(float(v) for v in ses[1:]),
        r_squared=r2,
        sse=sse,
        n=n,
        stop=stop,
        iterations=iterations,
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
