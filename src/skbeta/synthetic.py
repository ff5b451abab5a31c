"""Seeded synthetic data generators used by the CLI pipeline and tests."""

from __future__ import annotations

import numpy as np

from .ingest import GroupedDataset
from .moments import SKPoint
from .ranksize import RankModelSpec, RankVariant, eval_rank_model

__all__ = [
    "synthetic_grouped_dataset",
    "synthetic_sk_points",
    "lav4_series",
]


def synthetic_grouped_dataset(
    n_groups: int = 110,
    seed: int = 0,
    min_size: int = 30,
    max_size: int = 300,
) -> GroupedDataset:
    """Lognormal groups with varying shape, giving positive-S, positive-K clouds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    groups: dict[str, np.ndarray] = {}
    for i in range(n_groups):
        n = int(rng.integers(min_size, max_size + 1))
        sigma = 0.4 + 1.0 * float(rng.random())
        groups[f"G{i:03d}"] = rng.lognormal(mean=10.0, sigma=sigma, size=n)
    return GroupedDataset(groups=groups, value_label="value")


def synthetic_sk_points(
    n: int = 110,
    p: float = 1.05,
    q: float = 0.4,
    nu: float = 2.0,
    noise: float = 0.5,
    seed: int = 12345,
    s_range: tuple[float, float] = (0.5, 17.0),
) -> list[SKPoint]:
    """(S, K) cloud built from K = p S^nu + q plus seeded Gaussian noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s = np.linspace(s_range[0], s_range[1], n)
    k = p * s**nu + q + rng.normal(0.0, noise, n)
    return [
        SKPoint(group_key=f"G{i:03d}", s=float(s[i]), k=float(k[i]), n=100)
        for i in range(n)
    ]


def lav4_series(
    kappa: float, gamma: float, xi: float, psi: float, n: int
) -> list[float]:
    """Noiseless series generated by the four-parameter rank model."""
    spec = RankModelSpec(RankVariant.LAV4, (kappa, gamma, xi, psi))
    return [eval_rank_model(spec, r, n) for r in range(1, n + 1)]
