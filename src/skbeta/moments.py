"""Descriptive statistics per value list: central moments, shape moments
(skewness and non-excess kurtosis), grouped (S, K) extraction, 2-sigma
outlier flags, and equal-width histograms.

All moments use the population convention (divide by n, no bias
correction) and come from one segmented kernel, :func:`segment_moments`,
which computes every group of a grouped value array at once; that layout,
:class:`GroupedDataset`, is defined here and built by ``ingest``.
Shapes are scale-free and finite at any value scale; a statistic in the
values' own units that lies beyond the float range (a variance of values
near 1e200, say) raises OverflowError, as ``statistics.pvariance`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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
    "GroupedDataset",
    "MomentSummary",
    "SKPoint",
    "SkippedGroup",
    "GroupSKResult",
    "SegmentMoments",
    "segment_moments",
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


class GroupedDataset:
    """Province-keyed values.

    ``values`` is one float64 array holding the groups one after another,
    in first-appearance order, each group's values in file order;
    ``counts[i]`` values belong to ``keys[i]``.  ``GroupedDataset(groups,
    value_label)`` builds one from a mapping of key -> values.
    """

    def __init__(
        self,
        groups: Mapping[str, Iterable[float]] | None = None,
        value_label: str = "value",
        *,
        keys: Sequence[str] = (),
        counts=(),
        values=(),
    ):
        if groups is not None:
            keys = tuple(groups)
            runs = [np.asarray(v, dtype=float) for v in groups.values()]
            counts = [len(run) for run in runs]
            values = np.concatenate(runs) if runs else ()
        self.keys = tuple(keys)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        self.value_label = value_label

    def runs(self) -> Iterator[tuple[str, np.ndarray]]:
        """Each key with its run of ``values``, in order."""
        start = 0
        for key, n in zip(self.keys, self.counts.tolist()):
            yield key, self.values[start : start + n]
            start += n

    @cached_property
    def groups(self) -> dict[str, tuple[float, ...]]:
        """Each key's values as a tuple of Python floats."""
        return {key: tuple(run.tolist()) for key, run in self.runs()}

    @property
    def n_groups(self) -> int:
        return len(self.keys)

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, GroupedDataset):
            return NotImplemented
        return (
            (self.keys, self.value_label) == (other.keys, other.value_label)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None


def _as_array(values: Iterable[float]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        x = values.astype(float, copy=False)
    else:
        x = np.fromiter(values, dtype=float)
    if not len(x):
        raise EmptyInputError("value list is empty")
    return x


# A segment whose standard deviation is at most this share of |mean| has
# deviations that resolve fewer than ten bits: they are the rounding noise
# of the values and their mean, so its variance counts as zero.
REL_STD_FLOOR = 2.0**-42


class SegmentMoments(NamedTuple):
    """Per-segment moments from :func:`segment_moments`, one entry per segment.

    ``mu2``..``mu4`` are the central moments of the deviations scaled by
    ``2**-exp``, so the k-th central moment is ``mu_k * 2**(k * exp)``;
    skewness and kurtosis need no unscaling.  ``flat`` marks the segments
    below the variance floor.
    """

    n: np.ndarray
    mean: np.ndarray
    exp: np.ndarray
    mu2: np.ndarray
    mu3: np.ndarray
    mu4: np.ndarray
    flat: np.ndarray

    def shape(self) -> tuple[np.ndarray, np.ndarray]:
        """Skewness mu3 / mu2^(3/2) and kurtosis mu4 / mu2^2 (meaningless where flat)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.mu3 / self.mu2**1.5, self.mu4 / (self.mu2 * self.mu2)

    def central(self, order: int) -> np.ndarray:
        """mu_order in the values' own units (inf where it overflows)."""
        mu = (self.mu2, self.mu3, self.mu4)[order - 2]
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(mu, order * self.exp)


def segment_moments(values: np.ndarray, counts) -> SegmentMoments:
    """n, mean and mu2..mu4 of each run of ``values``; ``counts`` (each >= 1)
    gives the run lengths in order.

    Each run is first scaled by a power of two near its largest |x|, which
    is exact and keeps sums finite and out of the subnormal range.  The mean
    of the scaled run is corrected once by the mean of its deviations, and
    the moments are taken about the corrected mean (the binomial shift of
    Chan, Golub and LeVeque's corrected two-pass algorithm).  Deviations are
    scaled by a power of two near their largest |d| before taking powers.
    """
    x = np.asarray(values, dtype=float)
    n = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(n) - n

    def per_value(a):
        return np.repeat(a, n)

    def run_mean(a):
        return np.add.reduceat(a, starts) / n

    ex = np.frexp(np.maximum.reduceat(np.abs(x), starts))[1]
    xs = np.ldexp(x, per_value(-ex))
    m0 = run_mean(xs)
    d = xs - per_value(m0)
    del xs
    r = run_mean(d)
    mean = m0 + r
    ed = np.frexp(np.maximum.reduceat(np.abs(d), starts))[1]
    d = np.ldexp(d, per_value(-ed), out=d)
    r = np.ldexp(r, -ed)
    d2 = d * d
    p2 = run_mean(d2)
    p3 = run_mean(d2 * d)
    p4 = run_mean(np.square(d2, out=d2))
    mu2 = p2 - r * r
    mu3 = p3 - 3.0 * r * p2 + 2.0 * r**3
    mu4 = p4 - 4.0 * r * p3 + 6.0 * r * r * p2 - 3.0 * r**4
    with np.errstate(under="ignore"):
        std = np.ldexp(np.sqrt(np.maximum(mu2, 0.0)), ed)
    flat = std <= REL_STD_FLOOR * np.abs(mean)
    return SegmentMoments(n, np.ldexp(mean, ex), ex + ed, mu2, mu3, mu4, flat)


def _moments(values: Iterable[float], flat_error=ZeroVarianceError):
    """The values as an array and their moments; fewer than 2 values is a
    DegenerateSampleError and a variance below the floor a ``flat_error``."""
    x = _as_array(values)
    if len(x) == 1:
        raise DegenerateSampleError(
            f"need at least 2 values for moments of order >= 2, got {len(x)}"
        )
    m = segment_moments(x, [len(x)])
    if m.flat[0]:
        equal = "all values are equal" if x.min() == x.max() else "values are equal to rounding"
        raise flat_error(f"{equal}; variance is zero")
    return x, m


def _check_range(stats: Mapping[str, float]) -> None:
    """Raise OverflowError naming every statistic that is not finite."""
    over = [name for name, v in stats.items() if not math.isfinite(v)]
    if over:
        raise OverflowError(f"{', '.join(over)} of the values beyond the float range")


def central_moments(values: Iterable[float], order: int = 4) -> list[float]:
    """Centered moments mu_1..mu_order, mu_i = (1/n) sum (x - mean)^i.

    Population convention, from :func:`segment_moments`; mu_1 is 0 by
    definition.
    """
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    _, m = _moments(values)
    mus = [float(m.central(i)[0]) for i in range(2, order + 1)]
    _check_range({f"mu{i}": mu for i, mu in enumerate(mus, 2)})
    return [0.0] + mus


def shape_moments(values: Iterable[float]) -> tuple[float, float]:
    """Skewness mu3 / mu2^(3/2) and non-excess kurtosis mu4 / mu2^2."""
    _, m = _moments(values, UndefinedShapeError)
    s, k = m.shape()
    return float(s[0]), float(k[0])


def summarize(values: Iterable[float]) -> MomentSummary:
    """Populate every :class:`MomentSummary` field for one value list.

    Raises OverflowError when a field (the variance, first) is beyond the
    float range; a field below it underflows to 0 as float arithmetic does.
    """
    x, m = _moments(values, UndefinedShapeError)
    s, k = (float(v[0]) for v in m.shape())
    n = len(x)
    mean = float(m.mean[0])
    variance = float(m.central(2)[0])
    # sigma from the scaled mu2, where the variance of tiny values underflows
    std_dev = float(np.ldexp(np.sqrt(m.mu2[0]), m.exp[0]))
    with np.errstate(over="ignore"):  # an overflowing sum is raised below
        total = float(x.sum())
    mid = n // 2
    part = np.partition(x, [mid - 1, mid])
    median = float(part[mid]) if n % 2 else 0.5 * (float(part[mid - 1]) + float(part[mid]))
    try:
        rho: float | None = betadist.help_variable(s, k)
    except NotBetaRepresentableError:
        rho = None
    summary = MomentSummary(
        n=n,
        min=float(x.min()),
        max=float(x.max()),
        sum=total,
        mean=mean,
        median=median,
        rms=math.hypot(mean, std_dev),
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
    fields = vars(summary)
    _check_range({f: fields[f] for f in fields if f not in ("cv", "rho")})  # cv is NaN at mean 0
    return summary


def group_sk_points(data, min_n: int = 4) -> GroupSKResult:
    """One SKPoint per group with at least ``min_n`` values.

    ``data`` may be a GroupedDataset or any mapping group_key -> values.
    Groups below the threshold (never below 2, the fewest values with a
    shape) or with zero variance are listed in the skipped report; raises
    EmptyResultError when nothing survives.
    """
    if isinstance(data, Mapping):
        data = GroupedDataset(data)
    floor = max(min_n, 2)
    counts = data.counts
    kept = counts >= floor
    shapes: Iterator = iter(())
    if kept.any():
        values = data.values if kept.all() else data.values[np.repeat(kept, counts)]
        m = segment_moments(values, counts[kept])
        s, k = m.shape()
        shapes = zip(s.tolist(), k.tolist(), m.flat.tolist())
    points: list[SKPoint] = []
    skipped: list[SkippedGroup] = []
    for key, n, enough in zip(data.keys, counts.tolist(), kept.tolist()):
        if not enough:
            skipped.append(SkippedGroup(key, n, f"fewer than {floor} values"))
            continue
        s_i, k_i, flat = next(shapes)
        if flat:
            skipped.append(SkippedGroup(key, n, "zero variance"))
        else:
            points.append(SKPoint(group_key=key, s=s_i, k=k_i, n=n))
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
    x = _as_array(values)
    xs = x.tolist()
    lo, hi = min(xs), max(xs)
    if lo == hi:
        return [(lo, hi, len(xs))]
    span = hi - lo
    edges = [lo + i * span / n_bins for i in range(n_bins)] + [hi]
    idx = np.minimum(((x - lo) / span * n_bins).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).tolist()
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
