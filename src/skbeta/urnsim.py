"""Preferential-attachment urn simulation.

One urn of k0 balls seeds the process.  Each step either creates a fresh
urn of k0 balls (probability alpha) or drops one ball into an existing urn
chosen with probability proportional to its size plus ``a_shift``.

Urn i weighs (k0 + a_shift) + (k_i - k0): a base weight every urn shares,
plus one unit per ball that attach steps added to it.  So an attach step
picks from one uniform over U (k0 + a_shift) + (added balls): below
U (k0 + a_shift) it names an urn by base weight, above it an added ball and
so that ball's urn.  Since k0 + a_shift > 0, the pick is exact for every
allowed ``a_shift``, negative ones included, with no rejection step.

The random source is numpy's PCG64 generator, seeded explicitly: identical
seeds give bit-identical trajectories across platforms.  The process reads
the stream one step at a time: a decision uniform (create below alpha) and,
on attach steps only, a pick uniform right after it.  ``run`` replays that
stream with array operations, chunk by chunk:

* A uniform is a pick exactly when the one before it is an attach decision.
  The uniform after a value below alpha is always a decision, so each run
  of values >= alpha starts on a decision, and decision and pick alternate
  from there.  ``np.maximum.accumulate`` finds the start of each run.
* The urn count U and ball count before each attach step are counts of the
  decisions before it, so every pick is resolved with the float operations
  a step-by-step loop uses, in the same order: the same uniforms meet the
  same arithmetic, hence the same urns.
* A pick that names a ball from an earlier chunk reads that ball's urn from
  an int32 owner array; one from the same chunk follows the chain of balls
  it names, resolved for the whole chunk at once by pointer jumping.
* A chunk that ends on an attach decision draws that step's pick at once,
  so the next chunk starts on a decision and no state crosses chunks.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import betadist
from ._numeric import lstsq
from .errors import InsufficientDataError

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
        if not math.isfinite(self.a_shift) or self.a_shift < -k0 or not k0 + self.a_shift > 0.0:
            raise ValueError(
                f"a_shift must be finite with a_shift >= -k0 and k0 + a_shift > 0, "
                f"got k0={k0}, a_shift={self.a_shift}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0 <= operator.index(self.steps) < 2**31:  # ball indices are int32
            raise ValueError(f"steps must lie in [0, 2**31), got {self.steps}")
        if k0 + self.steps >= 2**63:  # sizes are int64 and grow by at most one a step
            raise ValueError(f"k0 + steps must be < 2**63, got k0={k0}, steps={self.steps}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class SimResult:
    """An urn run's outcome.  ``sizes`` is a read-only int64 array with one
    size per urn, in order of creation; ``ks`` holds the distinct sizes in
    ascending order and ``counts`` the number of urns of each size.  Every
    other view of the run is derived from that table."""

    sizes: np.ndarray
    ks: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_sizes(cls, sizes) -> "SimResult":
        """The result of any int sequence of sizes; a read-only int64 array
        is kept as it is, anything else is copied into one."""
        frozen = isinstance(sizes, np.ndarray) and sizes.dtype == np.int64 and not sizes.flags.writeable
        if not frozen:
            sizes = np.array(sizes, dtype=np.int64)
            sizes.flags.writeable = False
        if sizes.size == 0:
            raise ValueError("SimResult needs at least one urn")
        lo = int(sizes.min())
        counts = np.bincount(sizes - lo)  # bounded by the spread, not the largest size
        ks = counts.nonzero()[0]
        return cls(sizes, ks + lo, counts[ks])

    @property
    def n_urns(self) -> int:
        return self.sizes.size

    @property
    def total_balls(self) -> int:
        return sum(map(operator.mul, self.ks.tolist(), self.counts.tolist()))  # exact past 2**63

    @property
    def empirical_pmf(self) -> dict[int, float]:
        return dict(zip(self.ks.tolist(), (self.counts / self.n_urns).tolist()))

    @property
    def urn_sizes(self) -> tuple[int, ...]:
        return tuple(self.sizes.tolist())

    def __eq__(self, other):
        if not isinstance(other, SimResult):
            return NotImplemented
        return np.array_equal(self.sizes, other.sizes)


# Uniforms drawn at a time.  No step takes more than two, so a chunk of
# twice the steps left always finishes the run, and a short run draws little.
# A chunk's arrays stay L2-sized: at 2^15 drawing and resolving one peak at
# ~0.9 MB (tracemalloc), under the 2 MiB L2 of one core of a Xeon host.
_CHUNK = 1 << 15


def _draw_steps(rng, alpha: float, left: int):
    """One chunk of the stream: the number of steps it holds (at most
    ``left``) and, for each attach step among them, its step number within
    the chunk and its pick uniform."""
    x = rng.random(min(_CHUNK, 2 * left))
    idx = np.arange(1, x.size + 1, dtype=np.int32)
    # 1 + the index of the last value below alpha at or before each value
    last = np.maximum.accumulate((x < alpha) * idx)
    # attach decisions lie an odd distance into a run of values >= alpha
    pos = ((idx - last) & 1).astype(bool).nonzero()[0]
    if pos.size and pos[-1] == x.size - 1:  # the chunk ends on an attach decision
        x = np.append(x, rng.random())
    # every attach decision before pos[i] took a pick: the rest were steps
    q = pos - np.arange(pos.size)
    steps = min(left, x.size - pos.size)
    n = q.searchsorted(steps)  # only the last chunk has attach steps past ``left``
    return steps, q[:n], x[pos[:n] + 1]


def _resolve_picks(owners, n_urns: int, n_balls: int, base: float, q, u) -> None:
    """Write the urn of each attach step's ball into ``owners[n_balls:]``.

    Attach step i of the chunk comes after q[i] - i creates and i attaches
    of the chunk; ``owners`` holds ~j for a ball that names ball j until it
    is resolved.
    """
    k = np.arange(q.size)
    urns = n_urns + q - k
    balls = n_balls + k
    urn_mass = urns * base
    v = u * (urn_mass + balls)
    # an urn by base weight, unless v lands among the added balls; the min()
    # clamps guard the rounding corners where v lands on a range end
    seg = owners[n_balls : n_balls + q.size]
    np.copyto(seg, np.minimum(v / base, urns - 1), casting="unsafe")
    todo = (v >= urn_mass).nonzero()[0]
    seg[todo] = ~np.minimum(v[todo] - urn_mass[todo], balls[todo] - 1).astype(np.int32)
    while todo.size:  # pointer jumping: each pass halves every chain
        nxt = owners[~seg[todo]]
        seg[todo] = nxt
        todo = todo[nxt < 0]


def run(config: UrnConfig) -> SimResult:
    """Run ``config.steps`` steps from the single-urn initial state."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    base = config.k0 + config.a_shift
    owners = np.empty(config.steps, np.int32)  # the urn of each added ball
    n_urns, n_balls, left = 1, 0, config.steps
    while left:
        steps, q, u = _draw_steps(rng, config.alpha, left)
        _resolve_picks(owners, n_urns, n_balls, base, q, u)
        n_urns += steps - q.size
        n_balls += q.size
        left -= steps
    sizes = np.bincount(owners[:n_balls], minlength=n_urns)
    del owners  # not held while the result is built
    sizes += config.k0
    sizes.flags.writeable = False
    return SimResult.from_sizes(sizes)


def predicted_b(config: UrnConfig) -> float:
    """Closed-form limit-law exponent parameter b = 2 + alpha (k0 + a) / (1 - alpha).

    Derived from the stationary master equation of the process: with
    creation rate alpha and attachment weight k + a, the stationary size
    fractions satisfy p_k / p_(k-1) = (k - 1 + a) / (k + a + 1/beta) with
    beta = (1 - alpha) / (alpha k0 + 1 - alpha + a alpha), which matches
    the limit pmf ratio with b = 1 + 1/beta.  Seeded 2e6-step runs at
    k0 = 2, 3 and 5, with both signs of a, come within a TV distance of
    0.005 of the limit law at this b, as k0 = 1 runs do.
    It is evaluated as 1 + (1 + alpha (k0 - 1 + a)) / (1 - alpha), which at
    k0 = 1 is the classic b = 1 + (1 + a alpha) / (1 - alpha) to the bit.
    """
    if not 0.0 < config.alpha < 1.0:
        raise ValueError(f"predicted_b requires alpha in (0, 1), got {config.alpha}")
    return 1.0 + (1.0 + (config.k0 - 1 + config.a_shift) * config.alpha) / (1.0 - config.alpha)


_PER_DECADE = 6  # log bins per decade of size in ``empirical_tail_slope``


def _log_bin_edges(lo: int, hi: int) -> np.ndarray:
    g = 10.0 ** (1.0 / _PER_DECADE)
    edges = [lo]
    t = float(lo)
    while edges[-1] <= hi:
        t *= g
        edges.append(max(edges[-1] + 1, math.ceil(t)))
    edges[-1] = hi + 1  # clamp to the data; the loop left edges[-2] <= hi
    return np.array(edges, dtype=float)


def empirical_tail_slope(result: SimResult, k_min: int) -> float:
    """Log-log slope of the binned empirical size distribution for k >= k_min.

    Counts are aggregated in logarithmic bins and divided by bin width
    (per-size density), so a pmf proportional to k**-g regresses to slope
    -g.  The regression is count-weighted: the variance of a log count is
    roughly 1/count, and unweighted sparse tail bins bias the slope
    shallow.  Requires ``k_min >= 1`` and at least 10 distinct sizes above
    the threshold.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    tail = result.ks >= k_min
    ks = result.ks[tail]
    if ks.size < 10:
        raise InsufficientDataError(f"need >= 10 distinct sizes >= {k_min}, got {ks.size}")
    edges = _log_bin_edges(k_min, int(ks[-1]))
    # bins are [edges[j], edges[j+1]); edges are strictly increasing integers
    bin_of_k = np.searchsorted(edges, ks, side="right") - 1
    c = np.bincount(bin_of_k, weights=result.counts[tail])
    full = c.nonzero()[0]
    if full.size < 3:
        raise InsufficientDataError(f"only {full.size} nonempty log bins above k_min={k_min}")
    lo, hi = edges[full], edges[full + 1]
    center = np.where(hi - 1.0 > lo, np.sqrt(lo * (hi - 1.0)), lo)
    density = c[full] / (result.n_urns * (hi - lo))
    # weighted least squares: each row of the line y = p + s x scaled by sqrt(count)
    w = np.sqrt(c[full])
    coef = lstsq(np.column_stack([w, w * np.log(center)]), w * np.log(density))[0]
    return float(coef[1])


def tv_distance_to_limit(result: SimResult, config: UrnConfig, b: float | None = None) -> float:
    """Total-variation distance between the empirical pmf and the limit law.

    The limit mass beyond the largest observed size is counted in full
    (the empirical pmf is zero there).
    """
    if b is None:
        b = predicted_b(config)
    ks = range(config.k0, int(result.ks[-1]) + 1)
    limit = betadist.urn_limit_pmfs(ks, config.k0, config.a_shift, b)
    limit_mass = functools.reduce(operator.add, limit, 0.0)  # in order: sum() is not, from 3.12
    freq = np.zeros(len(ks))
    seen = result.ks >= config.k0
    freq[result.ks[seen] - config.k0] = result.counts[seen] / result.n_urns
    return 0.5 * (math.fsum(np.abs(freq - limit).tolist()) + max(1.0 - limit_mass, 0.0))


def sim_csv(result: SimResult, config: UrnConfig, b: float | None = None) -> str:
    """k,count,frequency,limit_pmf rows over the observed support."""
    ks = result.ks.tolist()
    if b is None:
        limits = [""] * len(ks)
    else:
        limits = map(repr, betadist.urn_limit_pmfs(ks, config.k0, config.a_shift, b))
    freqs = (result.counts / result.n_urns).tolist()
    lines = ["k,count,frequency,limit_pmf"]
    for k, count, freq, limit in zip(ks, result.counts.tolist(), freqs, limits):
        lines.append(f"{k},{count},{freq!r},{limit}")
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
        f"max_size: {result.ks[-1]}",
    ]
    try:
        b = predicted_b(config)
        lines.append(f"predicted_b: {b!r}")
        lines.append(f"tv_to_limit: {tv_distance_to_limit(result, config, b)!r}")
    except ValueError as exc:
        lines.append(f"predicted_b: unavailable ({exc})")
    return "\n".join(lines) + "\n"
