"""Preferential-attachment urn simulation.

One urn of k0 balls seeds the process.  Each step either creates a fresh
urn of k0 balls (probability alpha) or drops one ball into an existing urn
chosen with probability proportional to its size plus ``a_shift``.

Urn i weighs (k0 + a_shift) + (k_i - k0): a base weight every urn shares,
plus one unit per ball that attach steps added to it.  ``run`` keeps the
urn of each added ball in a list, so an attach step picks in O(1) from one
uniform over U (k0 + a_shift) + (added balls): below U (k0 + a_shift) it
names an urn by base weight, above it an added ball and so that ball's urn.
Since k0 + a_shift > 0, the pick is exact for every allowed ``a_shift``,
negative ones included, with no rejection step.

The random source is numpy's PCG64 generator, seeded explicitly: identical
seeds give bit-identical trajectories across platforms.  Each step draws
one uniform for the create/attach decision and, on attach steps only, a
second uniform for the weighted pick.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import betadist
from .errors import InsufficientDataError, UnsupportedDerivationError

__all__ = [
    "UrnConfig",
    "SimResult",
    "run",
    "predicted_b",
    "empirical_tail_slope",
    "tv_distance_to_limit",
    "sim_csv",
    "sim_block",
]


@dataclass(frozen=True)
class UrnConfig:
    """Simulation parameters.

    ``alpha`` accepts the degenerate endpoints 0 and 1 (attach-only /
    create-only runs) and ``steps`` may be 0, in which case the result is
    the single seed urn.
    """

    k0: int = 1
    a_shift: float = 0.0
    alpha: float = 0.5
    steps: int = 0
    seed: int = 0

    def __post_init__(self):
        k0 = operator.index(self.k0)
        if k0 < 1:
            raise ValueError(f"k0 must be a positive integer, got {self.k0}")
        if self.a_shift < -k0 or not k0 + self.a_shift > 0.0:
            raise ValueError(
                f"a_shift must satisfy a_shift >= -k0 and k0 + a_shift > 0, "
                f"got k0={k0}, a_shift={self.a_shift}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if operator.index(self.steps) < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class SimResult:
    urn_sizes: tuple[int, ...]
    n_urns: int
    total_balls: int
    empirical_pmf: dict[int, float]

    @classmethod
    def from_sizes(cls, sizes) -> "SimResult":
        sizes = tuple(int(s) for s in sizes)
        n = len(sizes)
        if n == 0:
            raise ValueError("SimResult needs at least one urn")
        counts = Counter(sizes)
        pmf = {k: counts[k] / n for k in sorted(counts)}
        return cls(
            urn_sizes=sizes,
            n_urns=n,
            total_balls=sum(sizes),
            empirical_pmf=pmf,
        )


def run(config: UrnConfig) -> SimResult:
    """Run ``config.steps`` steps from the single-urn initial state."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    k0, alpha, base = config.k0, config.alpha, config.k0 + config.a_shift
    sizes = [k0]
    owners: list[int] = []  # the urn of each ball an attach step added
    for _ in range(config.steps):
        if rng.random() < alpha:
            sizes.append(k0)
            continue
        n = len(sizes)
        urn_mass = n * base
        v = rng.random() * (urn_mass + len(owners))
        # min() guards the rounding corners where v lands on a range end
        if v < urn_mass:
            i = min(int(v / base), n - 1)
        else:
            i = owners[min(int(v - urn_mass), len(owners) - 1)]
        sizes[i] += 1
        owners.append(i)
    return SimResult.from_sizes(sizes)


def predicted_b(config: UrnConfig) -> float:
    """Closed-form limit-law exponent parameter for k0 = 1.

    Derived from the stationary master equation of the process: with
    creation rate alpha and attachment weight k + a, the stationary size
    fractions satisfy p_k / p_(k-1) = (k - 1 + a) / (k + a + 1/beta) with
    beta = (1 - alpha) / (alpha k0 + 1 - alpha + a alpha), which matches
    the limit pmf ratio with b = 1 + 1/beta.  For k0 = 1 this reduces to
    b = 1 + (1 + a alpha) / (1 - alpha); the general-k0 expression
    b = 2 + alpha (k0 + a) / (1 - alpha) follows from the same route but is
    not exposed until validated by simulation.
    """
    if config.k0 != 1:
        raise UnsupportedDerivationError(
            f"predicted_b is derived for k0 = 1 only, got k0 = {config.k0}"
        )
    if not 0.0 < config.alpha < 1.0:
        raise ValueError(f"predicted_b requires alpha in (0, 1), got {config.alpha}")
    return 1.0 + (1.0 + config.a_shift * config.alpha) / (1.0 - config.alpha)


def _log_bin_edges(lo: int, hi: int, per_decade: int = 6) -> list[int]:
    g = 10.0 ** (1.0 / per_decade)
    edges = [lo]
    t = float(lo)
    while edges[-1] <= hi:
        t *= g
        edges.append(max(edges[-1] + 1, math.ceil(t)))
    edges[-1] = hi + 1  # clamp: keep the last bin fully covered by data range
    if len(edges) >= 2 and edges[-1] <= edges[-2]:
        edges.pop()
    return edges


def empirical_tail_slope(result: SimResult, k_min: int) -> float:
    """Log-log slope of the binned empirical size distribution for k >= k_min.

    Counts are aggregated in logarithmic bins and divided by bin width
    (per-size density), so a pmf proportional to k**-g regresses to slope
    -g.  The regression is count-weighted: the variance of a log count is
    roughly 1/count, and unweighted sparse tail bins bias the slope
    shallow.  Requires at least 10 distinct sizes above the threshold.
    """
    tail = [s for s in result.urn_sizes if s >= k_min]
    distinct = sorted(set(tail))
    if len(distinct) < 10:
        raise InsufficientDataError(
            f"need >= 10 distinct sizes >= {k_min}, got {len(distinct)}"
        )
    edges = _log_bin_edges(k_min, distinct[-1])
    counts = [0] * (len(edges) - 1)
    for s in tail:
        # bins are [edges[j], edges[j+1]); edges are strictly increasing ints
        j = _bisect_bin(edges, s)
        counts[j] += 1
    xs = []
    ys = []
    ws = []
    for j, c in enumerate(counts):
        if c == 0:
            continue
        lo, hi = edges[j], edges[j + 1]
        center = math.sqrt(lo * (hi - 1)) if hi - 1 > lo else float(lo)
        density = c / (result.n_urns * (hi - lo))
        xs.append(math.log(center))
        ys.append(math.log(density))
        ws.append(float(c))
    if len(xs) < 3:
        raise InsufficientDataError(
            f"only {len(xs)} nonempty log bins above k_min={k_min}"
        )
    x = np.array(xs)
    y = np.array(ys)
    w = np.array(ws)
    total = w.sum()
    xc = x - (w @ x) / total
    yc = y - (w @ y) / total
    return float((w * xc) @ yc / ((w * xc) @ xc))


def _bisect_bin(edges: list[int], value: int) -> int:
    lo, hi = 0, len(edges) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if edges[mid] <= value:
            lo = mid
        else:
            hi = mid
    return lo


def tv_distance_to_limit(result: SimResult, config: UrnConfig, b: float | None = None) -> float:
    """Total-variation distance between the empirical pmf and the limit law.

    The limit mass beyond the largest observed size is counted in full
    (the empirical pmf is zero there).
    """
    if b is None:
        b = predicted_b(config)
    kmax = max(result.urn_sizes)
    acc = []
    limit_mass = 0.0
    for k in range(config.k0, kmax + 1):
        pk = betadist.urn_limit_pmf(k, config.k0, config.a_shift, b)
        limit_mass += pk
        acc.append(abs(result.empirical_pmf.get(k, 0.0) - pk))
    return 0.5 * (math.fsum(acc) + max(1.0 - limit_mass, 0.0))


def sim_csv(result: SimResult, config: UrnConfig, b: float | None = None) -> str:
    """k,count,frequency,limit_pmf rows over the observed support."""
    counts = Counter(result.urn_sizes)
    lines = ["k,count,frequency,limit_pmf"]
    for k in sorted(counts):
        freq = result.empirical_pmf[k]
        if b is None:
            limit = ""
        else:
            limit = repr(betadist.urn_limit_pmf(k, config.k0, config.a_shift, b))
        lines.append(f"{k},{counts[k]},{freq!r},{limit}")
    return "\n".join(lines) + "\n"


def sim_block(result: SimResult, config: UrnConfig) -> str:
    lines = [
        f"k0: {config.k0}",
        f"a_shift: {config.a_shift!r}",
        f"alpha: {config.alpha!r}",
        f"steps: {config.steps}",
        f"seed: {config.seed}",
        f"n_urns: {result.n_urns}",
        f"total_balls: {result.total_balls}",
        f"max_size: {max(result.urn_sizes)}",
    ]
    try:
        b = predicted_b(config)
        lines.append(f"predicted_b: {b!r}")
        lines.append(f"tv_to_limit: {tv_distance_to_limit(result, config, b)!r}")
    except (UnsupportedDerivationError, ValueError) as exc:
        lines.append(f"predicted_b: unavailable ({exc})")
    return "\n".join(lines) + "\n"
