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

import functools
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


# Lentz steps whose coefficients ``_beta_contfrac`` forms at once, as one
# (steps x points) array per parity.  A point that converges inside a block
# runs to its end; those steps are discarded.
_CF_BLOCK = 16

# The modified Lentz scheme's floor on |d| and |c|.
_FPMIN = 1e-300


def _beta_contfrac(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Continued fraction for the regularized incomplete Beta at every point
    # of x, each with its own shapes a and b, evaluated with the modified
    # Lentz scheme (Thompson & Barnett 1986, J. Comput. Phys. 64:490).
    # Converges fast for x < (a+1)/(a+b+2).  Each step records h and delta;
    # a point's value is h at its first step with |delta - 1| < eps, and the
    # points so found drop out between blocks.  Every point meets the float
    # operations of a loop over the points in the same order, so its value
    # is that loop's.  Near the mode the iterations grow about like
    # a**(1/3): 515 at a = 1e6, 2358 at a = 1e8.  A fixed cap bounds the time
    # a hopeless curve takes.
    max_iter = 10_000
    eps = 1e-16
    out = np.empty_like(x)
    todo = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    h = 1.0 / _floor(1.0 - qab * x / qap)
    # one row per point value: x, a, b, a + b, a + 1, a - 1 and the state d, c, h
    pts = np.array([x, a, b, qab, qap, a - 1.0, h, np.ones_like(x), h])
    m0 = 1
    while todo.size and m0 <= max_iter:
        x, a, b, qab, qap, qam, d, c, h = pts
        dc = pts[6:8]
        m = np.arange(m0, min(m0 + _CF_BLOCK, max_iter + 1), dtype=float)[:, None]
        m2 = 2.0 * m
        odd = m * (b - m) * x / ((qam + m2) * (a + m2))
        even = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        deltas = np.empty_like(odd)
        hs = np.empty_like(odd)
        for j in range(len(m)):
            _lentz_update(odd[j], d, c, dc)
            h = h * (d * c)
            _lentz_update(even[j], d, c, dc)
            h = np.multiply(h, np.multiply(d, c, out=deltas[j]), out=hs[j])
        pts[8] = h
        m0 += len(m)
        conv = np.abs(deltas - 1.0) < eps
        done = conv.any(axis=0)
        if done.any():
            out[todo[done]] = hs[conv.argmax(axis=0)[done], done.nonzero()[0]]
            keep = ~done
            todo, pts = todo[keep], pts[:, keep]
    if todo.size:
        x, a, b = pts[:3, 0].tolist()
        raise InternalCheckError(
            f"incomplete-beta continued fraction failed to converge for a={a}, b={b}, x={x}"
        )
    return out


def _lentz_update(aa: np.ndarray, d: np.ndarray, c: np.ndarray, dc: np.ndarray) -> None:
    """One half-step of the modified Lentz scheme, in place: d becomes
    1 / floor(1 + aa d) and c becomes floor(1 + aa / c); ``dc`` stacks d over c."""
    np.multiply(aa, d, d)
    np.divide(aa, c, c)
    dc += 1.0
    _floor(dc)
    np.divide(1.0, d, d)


def _floor(v: np.ndarray) -> np.ndarray:
    """``v`` with each entry of magnitude below ``_FPMIN`` set to ``_FPMIN``, in
    place.  The smallest magnitude is tested in one reduction, which a NaN
    entry makes NaN, so a tiny entry beside a NaN is floored."""
    if not np.minimum.reduce(np.abs(v), axis=None, initial=np.inf) >= _FPMIN:
        np.putmask(v, np.abs(v) < _FPMIN, _FPMIN)
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
    xs = np.array([x], dtype=float)
    return _cdf(xs, *_logs(xs), params.a, params.b, _ln_beta(params.a, params.b))[0]


def _cdf(
    xs: np.ndarray, ln_x: np.ndarray, ln_1mx: np.ndarray, a: float, b: float, ln_b: float
) -> list[float]:
    """``beta_cdf`` at each x of ``xs`` in [0, 1], with ln x, ln(1 - x) (read
    at interior points only) and ln B(a, b) given: one continued-fraction
    pass over the interior points of both branches, the prefactor's
    ``exp`` from ``math`` per point."""
    inner = (0.0 < xs) & (xs < 1.0)
    below = xs < (a + 1.0) / (a + b + 2.0)
    lower, upper = np.flatnonzero(inner & below), np.flatnonzero(inner & ~below)
    sizes = (lower.size, upper.size)
    cf = _beta_contfrac(
        np.repeat([a, b], sizes),
        np.repeat([b, a], sizes),
        np.concatenate([xs[lower], 1.0 - xs[upper]]),
    )
    idx = np.concatenate([lower, upper])
    ln_front = a * ln_x[idx] + b * ln_1mx[idx] - ln_b
    cf *= _each(math.exp, ln_front)  # front * cf
    cf[: sizes[0]] /= a
    cf[sizes[0] :] = 1.0 - cf[sizes[0] :] / b
    out = np.where(xs == 0.0, 0.0, 1.0)
    out[idx] = cf
    return out.tolist()


def _logs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln x and ln(1 - x) at each x of ``xs``, by ``math``; nan outside (0, 1)."""
    inner = np.where((0.0 < xs) & (xs < 1.0), xs, math.nan)
    return _each(math.log, inner), _each(math.log1p, -inner)


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
    """rho = 6 (K - S^2 - 1) / (6 + 3 S^2 - 2 K); equals a + b on the Beta family.

    Where 3 S^2 or 2 K overflows, the ratio is taken in S 2^-e, K 4^-e and
    the constants times 4^-e, with e = max(exponent of S, half that of K):
    exact powers of two, so every rho that is finite unscaled keeps its bits.
    """
    scale = 1.0
    if not (math.isfinite(3.0 * s * s) and math.isfinite(2.0 * k)):
        scale = math.ldexp(1.0, -max(math.frexp(s)[1], (math.frexp(k)[1] + 1) // 2))
    sc, kc, one = s * scale, k * scale * scale, scale * scale
    denom = 6.0 * one + 3.0 * sc * sc - 2.0 * kc
    if denom <= 0.0:
        raise NotBetaRepresentableError(
            f"help variable undefined: denominator 6 + 3 S^2 - 2 K = {denom / scale / scale} <= 0 "
            f"for (S, K) = ({s}, {k})"
        )
    return 6.0 * (kc - sc * sc - one) / denom


def calibrate_from_sk(s: float, k: float) -> BetaCalibration:
    """Invert a (skewness, kurtosis) pair to Beta shape parameters.

    The shape-parameter sum is the help variable rho, and the roots of
    ``x (rho - x) = ab`` follow from rho and S alone.  The Beta skewness
    gives S^2 (rho+2)^2 ab = 4 (rho+1) (rho^2 - 4ab); with t = |S| (rho+2),
    u = 4 sqrt(rho+1) and h = hypot(t, u), (b - a) / rho = t / h, so the
    roots are rho (1 + t/h) / 2 and rho (u/h) (u/(h+t)) / 2.  No term
    cancels, and the roots are equal for S = 0.  When the skewness is
    negative the larger root is a, else b.  The kurtosis enters through rho
    and the round trip, which must close to 1e-9.
    """
    rho = help_variable(s, k)
    if rho <= 0.0:
        raise InfeasibleMomentPairError(
            f"moment pair (S, K) = ({s}, {k}) implies a + b = {rho} <= 0",
            rho=rho,
        )
    t, u = abs(s) * (rho + 2.0), 4.0 * math.sqrt(rho + 1.0)
    h = math.hypot(t, u)
    root_hi = 0.5 * rho * (1.0 + t / h)
    root_lo = 0.5 * rho * (u / h) * (u / (h + t))  # rho u^2 / (2h (h+t)) overflows
    ab = root_lo * root_hi
    diagnosis = {"rho": rho, "ab": ab}
    if not ab > 0.0:  # an underflow, or NaN
        raise InfeasibleMomentPairError(
            f"shape product ab = {ab} is not positive for (S, K) = ({s}, {k})", **diagnosis
        )
    selected = BetaParams(*((root_hi, root_lo) if s < 0.0 else (root_lo, root_hi)))
    s_back = beta_skewness(selected)
    k_back = beta_kurtosis(selected)
    if not (
        abs(s_back - s) <= 1e-9 * max(1.0, abs(s)) and abs(k_back - k) <= 1e-9 * max(1.0, abs(k))
    ):
        raise InfeasibleMomentPairError(
            f"inversion did not close for (S, K) = ({s}, {k}); "
            f"round trip gave ({s_back}, {k_back})",
            **diagnosis,
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
    return -(x - 0.5) * math.log1p(c / x) - c * math.log(x + c) + c + _stirling_tail(x) - _stirling_tail(x + c)


def _each(f, v: np.ndarray) -> np.ndarray:
    """``math`` function ``f`` at each entry of ``v``."""
    return np.fromiter(map(f, v.tolist()), float, v.size)


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b), accurate when one argument is large (see ``_lgamma_diff``)."""
    lo, hi = (a, b) if a <= b else (b, a)
    return math.lgamma(lo) + _lgamma_diff(hi, lo)


def yule_simon_pmf(k: int, b: float) -> float:
    """Yule-Simon pmf b * B(k, b + 1) on k >= 1: the urn limit law at k0 = 1,
    a = 0.  b itself is the law's b - 1 term, not (b + 1) - 1, so the pmf is
    exact to rounding at small b."""
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


@functools.lru_cache(maxsize=4, typed=True)
def _grid(n_points: int) -> tuple:
    """The x values of an n_points curve, their ``repr`` texts, ln x and
    ln(1 - x), made once per process and size; the arrays are read-only."""
    if n_points < 2:
        raise ValueError("cdf_curve needs at least 2 points")
    step = 1.0 / (n_points - 1)
    xs = np.array([i * step for i in range(n_points - 1)] + [1.0])
    arrays = (xs, *_logs(xs))
    for v in arrays:
        v.flags.writeable = False
    return arrays[0], tuple(map(repr, xs.tolist())), *arrays[1:]


def _curve(params: BetaParams, n_points: int) -> tuple[np.ndarray, tuple, list[float]]:
    """The grid's x values, their texts and the CDF at each."""
    xs, texts, ln_x, ln_1mx = _grid(n_points)
    a, b = params.a, params.b
    return xs, texts, _cdf(xs, ln_x, ln_1mx, a, b, _ln_beta(a, b))


def cdf_curve(params: BetaParams, n_points: int = 512) -> list[tuple[float, float]]:
    """Sample the CDF at n_points uniform x values on [0, 1]."""
    xs, _, cdf = _curve(params, n_points)
    return list(zip(xs.tolist(), cdf))


def cdf_curve_csv(params: BetaParams, n_points: int = 512) -> str:
    """CDF curve as CSV text with the shape parameters in a metadata header."""
    _, texts, cdf = _curve(params, n_points)
    lines = [f"# a={params.a!r}", f"# b={params.b!r}", "x,cdf"]
    lines += [f"{x},{c!r}" for x, c in zip(texts, cdf)]
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
