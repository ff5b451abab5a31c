"""Descriptive statistics per value list: central moments, shape moments
(skewness and non-excess kurtosis), grouped (S, K) extraction, 2-sigma
outlier flags, and equal-width histograms.

All moments use the population convention (divide by n, no bias
correction), computed in two passes for numerical stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import betadist
from .errors import (
    DegenerateSampleError,
    EmptyInputError,
    EmptyResultError,
    NotBetaRepresentableError,
    UndefinedShapeError,
    ZeroVarianceError,
)

__all__ = [
    "MomentSummary",
    "SKPoint",
    "SkippedGroup",
    "GroupSKResult",
    "central_moments",
    "shape_moments",
    "summarize",
    "group_sk_points",
    "detect_outliers",
    "histogram",
    "sk_points_to_csv",
    "summary_block",
    "histogram_to_csv",
]


@dataclass(frozen=True)
class MomentSummary:
    """Full descriptive battery for one value list.

    ``rho`` is the Beta help variable of (skewness, kurtosis) and is None
    when the pair falls on or beyond the Gamma-limit pole; ``cv`` is
    sigma/mu (NaN for zero mean) while ``mu_over_sigma`` is its inverse.
    """

    n: int
    min: float
    max: float
    sum: float
    mean: float
    median: float
    rms: float
    std_dev: float
    variance: float
    std_err: float
    skewness: float
    kurtosis: float
    mu_over_sigma: float
    cv: float
    nonparam_skew: float
    rho: float | None
    outlier_low: float
    outlier_high: float


@dataclass(frozen=True)
class SKPoint:
    """Per-group (skewness, kurtosis) pair.

    Points computed by :func:`shape_moments` always satisfy the Pearson
    bound k >= s**2 + 1; externally supplied points are stored as given.
    """

    group_key: str
    s: float
    k: float
    n: int


@dataclass(frozen=True)
class SkippedGroup:
    group_key: str
    n: int
    reason: str


@dataclass(frozen=True)
class GroupSKResult:
    points: tuple[SKPoint, ...]
    skipped: tuple[SkippedGroup, ...]


def _as_floats(values: Iterable[float]) -> list[float]:
    xs = [float(v) for v in values]
    if not xs:
        raise EmptyInputError("value list is empty")
    return xs


def central_moments(values: Iterable[float], order: int = 4) -> list[float]:
    """Centered moments mu_1..mu_order, mu_i = (1/n) sum (x - mean)^i.

    Population convention; two passes (mean first, then centered powers).
    """
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    xs = _as_floats(values)
    n = len(xs)
    if n == 1:
        raise DegenerateSampleError(
            f"need at least 2 values for moments of order >= 2, got {n}"
        )
    first = xs[0]
    if all(x == first for x in xs):
        raise ZeroVarianceError("all values are equal; variance is zero")
    mean = math.fsum(xs) / n
    devs = [x - mean for x in xs]
    mus = []
    for i in range(1, order + 1):
        mus.append(math.fsum(d**i for d in devs) / n)
    return mus


def shape_moments(values: Iterable[float]) -> tuple[float, float]:
    """Skewness mu3 / mu2^(3/2) and non-excess kurtosis mu4 / mu2^2."""
    try:
        _, m2, m3, m4 = central_moments(values, order=4)
    except ZeroVarianceError as exc:
        raise UndefinedShapeError(str(exc)) from exc
    s = m3 / m2**1.5
    k = m4 / (m2 * m2)
    return s, k


def summarize(values: Iterable[float]) -> MomentSummary:
    """Populate every :class:`MomentSummary` field for one value list."""
    xs = _as_floats(values)
    n = len(xs)
    s, k = shape_moments(xs)  # validates n >= 2 and positive variance
    mean = math.fsum(xs) / n
    variance = central_moments(xs, order=2)[1]
    std_dev = math.sqrt(variance)
    ordered = sorted(xs)
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    rms = math.sqrt(math.fsum(x * x for x in xs) / n)
    try:
        rho: float | None = betadist.help_variable(s, k)
    except NotBetaRepresentableError:
        rho = None
    return MomentSummary(
        n=n,
        min=ordered[0],
        max=ordered[-1],
        sum=math.fsum(xs),
        mean=mean,
        median=median,
        rms=rms,
        std_dev=std_dev,
        variance=variance,
        std_err=std_dev / math.sqrt(n),
        skewness=s,
        kurtosis=k,
        mu_over_sigma=mean / std_dev,
        cv=std_dev / mean if mean != 0.0 else math.nan,
        nonparam_skew=3.0 * (mean - median) / std_dev,
        rho=rho,
        outlier_low=mean - 2.0 * std_dev,
        outlier_high=mean + 2.0 * std_dev,
    )


def group_sk_points(data, min_n: int = 4) -> GroupSKResult:
    """One SKPoint per group with at least ``min_n`` values.

    ``data`` may be a GroupedDataset or any mapping group_key -> values.
    Groups below the threshold (never below 2, the fewest values with a
    shape) or with zero variance are listed in the skipped report; raises
    EmptyResultError when nothing survives.
    """
    groups: Mapping[str, Sequence[float]] = getattr(data, "groups", data)
    floor = max(min_n, 2)
    points: list[SKPoint] = []
    skipped: list[SkippedGroup] = []
    for key, vals in groups.items():
        n = len(vals)
        if n < floor:
            skipped.append(SkippedGroup(key, n, f"fewer than {floor} values"))
            continue
        try:
            s, k = shape_moments(vals)
        except ZeroVarianceError:
            skipped.append(SkippedGroup(key, n, "zero variance"))
            continue
        points.append(SKPoint(group_key=key, s=s, k=k, n=n))
    if not points:
        exc = EmptyResultError(
            f"no group met the min_n={min_n} threshold "
            f"({len(skipped)} groups skipped)"
        )
        exc.skipped = tuple(skipped)  # for degraded-mode reporting
        raise exc
    return GroupSKResult(points=tuple(points), skipped=tuple(skipped))


def detect_outliers(values: Iterable[float], mean: float, std_dev: float) -> list[int]:
    """Indices of values strictly outside the open interval (mean - 2 sigma, mean + 2 sigma)."""
    if not std_dev > 0.0:
        raise ValueError(f"std_dev must be positive, got {std_dev}")
    lo = mean - 2.0 * std_dev
    hi = mean + 2.0 * std_dev
    return [i for i, v in enumerate(values) if v < lo or v > hi]


def histogram(
    values: Iterable[float], n_bins: int
) -> list[tuple[float, float, int]]:
    """Equal-width bins spanning [min, max]; right-open except the last.

    Constant input collapses to a single bin holding every value.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    xs = _as_floats(values)
    lo, hi = min(xs), max(xs)
    if lo == hi:
        return [(lo, hi, len(xs))]
    span = hi - lo
    edges = [lo + i * span / n_bins for i in range(n_bins)] + [hi]
    counts = [0] * n_bins
    for x in xs:
        idx = min(int((x - lo) / span * n_bins), n_bins - 1)
        counts[idx] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(n_bins)]


def sk_points_to_csv(points: Iterable[SKPoint]) -> str:
    lines = ["group,s,k,n"]
    for p in points:
        lines.append(f"{p.group_key},{p.s!r},{p.k!r},{p.n}")
    return "\n".join(lines) + "\n"


def histogram_to_csv(bins: Iterable[tuple[float, float, int]]) -> str:
    lines = ["bin_low,bin_high,count"]
    for lo, hi, c in bins:
        lines.append(f"{lo!r},{hi!r},{c}")
    return "\n".join(lines) + "\n"


_SUMMARY_ROWS: tuple[tuple[str, str], ...] = (
    ("Min.", "min"),
    ("Max.", "max"),
    ("Sum", "sum"),
    ("N_p", "n"),
    ("Mean (μ)", "mean"),
    ("Median (m)", "median"),
    ("RMS", "rms"),
    ("St. Dev. (σ)", "std_dev"),
    ("Variance", "variance"),
    ("Std Err.", "std_err"),
    ("Skewn.", "skewness"),
    ("Kurt.", "kurtosis"),
    ("μ/σ", "mu_over_sigma"),
    ("CV (σ/μ)", "cv"),
    ("3(μ−m)/σ", "nonparam_skew"),
    ("ρ", "rho"),
    ("μ−2σ", "outlier_low"),
    ("μ+2σ", "outlier_high"),
)


def summary_block(columns: Mapping[str, MomentSummary], sig: int = 5) -> str:
    """Side-by-side text table of summaries, one column per input label.

    Values are rounded to ``sig`` significant digits; this is the only
    human-readable (rounded) output in the package.
    """
    labels = list(columns)
    width = 16
    header = f"{'statistic':<14}" + "".join(f"{lab:>{width}}" for lab in labels)
    lines = [header]
    for row_name, attr in _SUMMARY_ROWS:
        cells = []
        for lab in labels:
            v = getattr(columns[lab], attr)
            if v is None:
                cells.append(f"{'undefined':>{width}}")
            elif attr == "n":
                cells.append(f"{v:>{width}d}")
            else:
                cells.append(f"{v:>{width}.{sig}g}")
        lines.append(f"{row_name:<14}" + "".join(cells))
    return "\n".join(lines) + "\n"
