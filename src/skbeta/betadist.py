"""Beta-distribution machinery: special functions, shape moments, the
moment-based (S, K) -> (a, b) calibration, and the Yule-Simon / urn limit laws.

Parameterization notes
----------------------
* ``beta_skewness``/``beta_kurtosis`` use the standard Johnson & Kotz
  expressions; kurtosis is non-excess (normal limit -> 3).
* ``urn_limit_pmf(k; k0, a, b)`` decays like ``k**-b`` for large ``k``.  The
  same law written as a Yule-Simon pmf ``rho * B(k, rho + 1)`` carries
  parameter ``rho = b - 1`` and is usually quoted with tail exponent
  ``1 + rho`` -- the identical number.  Keep the two parameterizations apart.
* ``help_variable(s, k)`` equals ``a + b`` whenever ``(s, k)`` are the
  skewness and kurtosis of some Beta law; its pole ``6 + 3 s^2 - 2 k = 0``
  is exactly the Gamma-limit boundary of the Beta family, and the value can
  be negative or zero for moment pairs outside the family.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleMomentPairError,
    InternalCheckError,
    NonNormalizableError,
    NotBetaRepresentableError,
)

__all__ = [
    "BetaParams",
    "BetaCalibration",
    "ln_gamma",
    "beta_function",
    "beta_pdf",
    "beta_cdf",
    "beta_skewness",
    "beta_kurtosis",
    "help_variable",
    "calibrate_from_sk",
    "yule_simon_pmf",
    "urn_limit_pmf",
    "urn_limit_pmfs",
    "cdf_curve",
    "cdf_curve_csv",
    "calibration_block",
]


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta(a, b) law; both must be positive."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(
                f"Beta shape parameters must be positive, got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class BetaCalibration:
    """Artifacts of the moment inversion from a (S, K) pair.

    ``roots`` holds the two solutions of ``x * (rho - x) = ab`` as
    (smaller, larger); ``selected`` assigns them to (a, b) by the sign of
    the input skewness.
    """

    s_in: float
    k_in: float
    rho: float
    ab_product: float
    roots: tuple[float, float]
    selected: BetaParams


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta_function(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_function requires positive arguments, got ({a}, {b})")
    return math.exp(_ln_beta(a, b))


def beta_pdf(x: float, params: BetaParams) -> float:
    """Density x^(a-1) (1-x)^(b-1) / B(a, b).

    Outside [0, 1] the density is 0 by convention.  At an endpoint the
    limiting value is returned, which is ``inf`` when the local exponent is
    negative (integrable singularity).
    """
    a, b = params.a, params.b
    if x < 0.0 or x > 1.0:
        return 0.0
    if x == 0.0:
        if a < 1.0:
            return math.inf
        return float(b) if a == 1.0 else 0.0
    if x == 1.0:
        if b < 1.0:
            return math.inf
        return float(a) if b == 1.0 else 0.0
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - _ln_beta(a, b))


def _beta_contfrac(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # Continued fraction for the regularized incomplete Beta at every point
    # of x, evaluated with the modified Lentz scheme (Thompson & Barnett 1986,
    # J. Comput. Phys. 64:490).  Converges fast for x < (a+1)/(a+b+2).  Each
    # point stops at its own convergence and meets the float operations of a
    # loop over the points in the same order, so its value is that loop's.
    # Near the mode the iterations grow about like a**(1/3): 515 at a = 1e6,
    # 2358 at a = 1e8.  A fixed cap bounds the time a hopeless curve takes.
    max_iter = 10_000
    eps = 1e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    todo = np.arange(x.size)
    c = np.ones_like(x)
    d = _floor(1.0 - qab * x / qap, fpmin)
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = _floor(1.0 + aa * d, fpmin)
        c = _floor(1.0 + aa / c, fpmin)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = _floor(1.0 + aa * d, fpmin)
        c = _floor(1.0 + aa / c, fpmin)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < eps
        if done.any():
            out[todo[done]] = h[done]
            keep = ~done
            todo, x, c, d, h = todo[keep], x[keep], c[keep], d[keep], h[keep]
        if not todo.size:
            return out
    raise InternalCheckError(
        f"incomplete-beta continued fraction failed to converge for a={a}, b={b}, x={x[0]}"
    )


def _floor(v: np.ndarray, fpmin: float) -> np.ndarray:
    """``v`` with each entry of magnitude below ``fpmin`` set to ``fpmin``, in place."""
    np.putmask(v, np.abs(v) < fpmin, fpmin)
    return v


def beta_cdf(x: float, params: BetaParams) -> float:
    """Regularized incomplete Beta I_x(a, b) via continued fraction.

    Uses the symmetry I_x(a, b) = 1 - I_(1-x)(b, a) to stay on the
    fast-converging branch.  The absolute error against
    ``scipy.special.betainc`` grows with the shapes: it measured 1.8e-12 on
    512-point curves with a, b from 1e-3 to 3e3, and 1.35e-10, 7.5e-10 and
    3.8e-7 at a = 1e5, 1e6 and 1e9 (b = 256a/255).
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"beta_cdf requires x in [0, 1], got {x}")
    return _cdf([x], params.a, params.b, _ln_beta(params.a, params.b))[0]


def _cdf(xs: list[float], a: float, b: float, ln_b: float) -> list[float]:
    """``beta_cdf`` at each x of ``xs`` in [0, 1] with ln B(a, b) given: one
    continued-fraction pass per branch, the prefactor from ``math`` per point."""
    split = (a + 1.0) / (a + b + 2.0)
    out = [0.0 if x == 0.0 else 1.0 for x in xs]
    for lower in (True, False):
        idx = [i for i, x in enumerate(xs) if 0.0 < x < 1.0 and (x < split) == lower]
        x = np.array([xs[i] for i in idx], dtype=float)
        cf = _beta_contfrac(a, b, x) if lower else _beta_contfrac(b, a, 1.0 - x)
        for i, f in zip(idx, cf.tolist()):
            front = math.exp(a * math.log(xs[i]) + b * math.log1p(-xs[i]) - ln_b)
            out[i] = front * f / a if lower else 1.0 - front * f / b
    return out


def beta_skewness(params: BetaParams) -> float:
    """Skewness 2 (b - a) sqrt(a + b + 1) / ((a + b + 2) sqrt(a b))."""
    a, b = params.a, params.b
    return 2.0 * (b - a) * math.sqrt(a + b + 1.0) / ((a + b + 2.0) * math.sqrt(a * b))


def beta_kurtosis(params: BetaParams) -> float:
    """Non-excess kurtosis 3 (s+1) (2 s^2 + ab (s-6)) / (ab (s+2) (s+3)), s = a + b."""
    a, b = params.a, params.b
    s = a + b
    return (
        3.0
        * (s + 1.0)
        * (2.0 * s * s + a * b * (s - 6.0))
        / (a * b * (s + 2.0) * (s + 3.0))
    )


def help_variable(s: float, k: float) -> float:
    """rho = 6 (K - S^2 - 1) / (6 + 3 S^2 - 2 K); equals a + b on the Beta family."""
    denom = 6.0 + 3.0 * s * s - 2.0 * k
    if denom <= 0.0:
        raise NotBetaRepresentableError(
            f"help variable undefined: denominator 6 + 3 S^2 - 2 K = {denom} <= 0 "
            f"for (S, K) = ({s}, {k})"
        )
    return 6.0 * (k - s * s - 1.0) / denom


def calibrate_from_sk(s: float, k: float) -> BetaCalibration:
    """Invert a (skewness, kurtosis) pair to Beta shape parameters.

    The shape-parameter sum is the help variable rho; the product follows
    from the kurtosis; the individual parameters are the roots of
    ``x (rho - x) = ab``.  When the skewness is positive the larger root is
    b, when negative it is a, and the roots coincide for a symmetric pair.
    """
    rho = help_variable(s, k)
    if rho <= 0.0:
        raise InfeasibleMomentPairError(
            f"moment pair (S, K) = ({s}, {k}) implies a + b = {rho} <= 0",
            rho=rho,
        )
    denom = (rho + 2.0) * (rho + 3.0) * k - 3.0 * (rho - 6.0) * (rho + 1.0)
    if denom <= 0.0:
        raise InfeasibleMomentPairError(
            f"shape-product denominator {denom} <= 0 for (S, K) = ({s}, {k})",
            rho=rho,
        )
    ab = 6.0 * rho * rho * (rho + 1.0) / denom
    if ab <= 0.0:
        raise InfeasibleMomentPairError(
            f"shape product ab = {ab} <= 0 for (S, K) = ({s}, {k})",
            rho=rho,
            ab=ab,
        )
    disc = 1.0 - 4.0 * ab / (rho * rho)
    if disc < 0.0:
        if disc < -1e-12:
            raise InfeasibleMomentPairError(
                f"negative discriminant {disc} for (S, K) = ({s}, {k})",
                rho=rho,
                discriminant=disc,
                ab=ab,
            )
        disc = 0.0  # symmetric pair up to roundoff
    root_hi = 0.5 * rho * (1.0 + math.sqrt(disc))
    root_lo = ab / root_hi  # rho (1 - sqrt(disc)) / 2 cancels when ab << rho^2

    if s > 0.0:
        a_sel, b_sel = root_lo, root_hi
    elif s < 0.0:
        a_sel, b_sel = root_hi, root_lo
    else:
        a_sel = b_sel = 0.5 * rho

    try:
        selected = BetaParams(a_sel, b_sel)
    except ValueError as exc:
        raise InfeasibleMomentPairError(
            f"selected root is not positive for (S, K) = ({s}, {k}): {exc}",
            rho=rho,
            discriminant=disc,
            ab=ab,
        ) from exc

    s_back = beta_skewness(selected)
    k_back = beta_kurtosis(selected)
    if abs(s_back - s) > 1e-9 * max(1.0, abs(s)) or abs(k_back - k) > 1e-9 * max(
        1.0, abs(k)
    ):
        raise InfeasibleMomentPairError(
            f"inversion did not close for (S, K) = ({s}, {k}); "
            f"round trip gave ({s_back}, {k_back})",
            rho=rho,
            discriminant=disc,
            ab=ab,
        )
    return BetaCalibration(
        s_in=float(s),
        k_in=float(k),
        rho=rho,
        ab_product=ab,
        roots=(root_lo, root_hi),
        selected=selected,
    )


def _stirling_tail(y: float) -> float:
    # correction series of ln Gamma(y) beyond (y - 1/2) ln y - y + ln(2 pi)/2;
    # truncation error < 1/(1188 y^9), i.e. < 2e-15 for y >= 20
    y2 = y * y
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * y2)) / y2) / y2) / y


def _lgamma_diff(x: float, c: float) -> float:
    """ln Gamma(x) - ln Gamma(x + c) without large-term cancellation.

    For large x the two log-gammas grow like x ln x while their difference
    stays O(c ln x); subtracting direct lgamma values then loses ~x ln x * eps
    of absolute accuracy, which breaks pmf ratio identities at the 1e-12
    level.  The Stirling form keeps every term at the size of the result.
    """
    if x < 20.0:
        return math.lgamma(x) - math.lgamma(x + c)
    return (
        -(x - 0.5) * math.log1p(c / x)
        - c * math.log(x + c)
        + c
        + _stirling_tail(x)
        - _stirling_tail(x + c)
    )


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b), accurate when one argument is large (see ``_lgamma_diff``)."""
    lo, hi = (a, b) if a <= b else (b, a)
    return math.lgamma(lo) + _lgamma_diff(hi, lo)


def yule_simon_pmf(k: int, b: float) -> float:
    """Yule-Simon pmf b * B(k, b + 1) on k >= 1: the urn limit law at k0 = 1, a = 0."""
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"yule_simon_pmf requires k >= 1, got {k}")
    if not b > 0.0:
        raise ValueError(f"yule_simon_pmf requires b > 0, got {b}")
    return _urn_law(k, 0.0, b + 1.0, *_urn_norm(1, 0.0, b))


def urn_limit_pmf(k: int, k0: int, a: float, b: float) -> float:
    """Long-time urn-occupancy law B(k + a, b) / B(k0 + a, b - 1).

    Normalized over k >= k0 (zero below k0); requires b > 1 for the
    normalization constant to exist.  Decays like k**-b in the tail.
    """
    k = operator.index(k)
    k0 = _urn_k0(k0, a, b)
    if k < k0:
        return 0.0
    return _urn_law(k, a, b, *_urn_norm(k0, a, b - 1.0))


def urn_limit_pmfs(ks, k0: int, a: float, b: float) -> list[float]:
    """``urn_limit_pmf`` at each integer k of ``ks``, bit for bit, with the
    arguments checked and the k-free terms computed once."""
    k0 = _urn_k0(k0, a, b)
    norm = _urn_norm(k0, a, b - 1.0)
    return [_urn_law(k, a, b, *norm) if k >= k0 else 0.0 for k in map(operator.index, ks)]


def _urn_k0(k0: int, a: float, b: float) -> int:
    """``k0`` as an int, once the urn law's arguments are checked."""
    k0 = operator.index(k0)
    if k0 < 0:
        raise ValueError(f"urn_limit_pmf requires k0 >= 0, got {k0}")
    if a < -k0 or not k0 + a > 0.0:
        raise ValueError(
            f"urn_limit_pmf requires a >= -k0 with k0 + a > 0, got k0={k0}, a={a}"
        )
    if not b > 1.0:
        raise NonNormalizableError(
            f"urn limit pmf does not normalize for b = {b} <= 1"
        )
    return k0


def _urn_norm(k0: int, a: float, b_minus_1: float) -> tuple[float, float]:
    """The k-free terms of the urn law's log, with b - 1 given exactly."""
    return _lgamma_diff(k0 + a, b_minus_1), math.log(b_minus_1)  # lgamma(b) - lgamma(b-1)


def _urn_law(k: int, a: float, b: float, ln_head: float, ln_b_ratio: float) -> float:
    """``urn_limit_pmf`` at k >= k0, unchecked, from the terms of ``_urn_norm``."""
    return math.exp(_lgamma_diff(k + a, b) - ln_head + ln_b_ratio)


def cdf_curve(params: BetaParams, n_points: int = 512) -> list[tuple[float, float]]:
    """Sample the CDF at n_points uniform x values on [0, 1]."""
    if n_points < 2:
        raise ValueError("cdf_curve needs at least 2 points")
    step = 1.0 / (n_points - 1)
    xs = [i * step for i in range(n_points - 1)] + [1.0]
    return list(zip(xs, _cdf(xs, params.a, params.b, _ln_beta(params.a, params.b))))


def cdf_curve_csv(params: BetaParams, n_points: int = 512) -> str:
    """CDF curve as CSV text with the shape parameters in a metadata header."""
    lines = [f"# a={params.a!r}", f"# b={params.b!r}", "x,cdf"]
    for x, c in cdf_curve(params, n_points):
        lines.append(f"{x!r},{c!r}")
    return "\n".join(lines) + "\n"


def calibration_block(cal: BetaCalibration) -> str:
    """Key-value rendering of a calibration, full precision."""
    root_lo, root_hi = cal.roots
    lines = [
        f"S_in: {cal.s_in!r}",
        f"K_in: {cal.k_in!r}",
        f"rho: {cal.rho!r}",
        f"ab: {cal.ab_product!r}",
        f"root_low: {root_lo!r}",
        f"root_high: {root_hi!r}",
        f"a: {cal.selected.a!r}",
        f"b: {cal.selected.b!r}",
        f"skewness_roundtrip: {beta_skewness(cal.selected)!r}",
        f"kurtosis_roundtrip: {beta_kurtosis(cal.selected)!r}",
    ]
    return "\n".join(lines) + "\n"
