"""Seeded inputs for each workload and the reference values its checks use.

Each builder writes its input files under ``work`` and returns the CLI
calls of one workload run.  ``skbeta.synthetic`` and ``write_grouped_csv``
only generate inputs here; that time is never part of a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skbeta.ingest import write_grouped_csv
from skbeta.synthetic import synthetic_grouped_dataset

# (a_shift, alpha) legs of urn_sweep; a_shift < 0 takes a different path
# through the sampler than a_shift >= 0.
URN_LEGS = ((0.0, 0.5), (1.0, 0.3), (-0.5, 0.5))
URN_STEPS = 500_000
PAPER_FILES = 100
MICRO_SK_SAMPLE = 32
PAPER_SK_SAMPLE = 4


@dataclass
class Inputs:
    calls: list[dict]
    files: int
    rows: int
    groups: int
    bytes: int
    work: int  # input rows ingested, or urn steps, per workload run


def derived_seeds(seed: int, tag: str, n: int) -> list[int]:
    """``n`` independent 32-bit seeds for one workload from the run's seed."""
    entropy = [seed, *tag.encode()]
    return [int(x) for x in np.random.SeedSequence(entropy).generate_state(n)]


def sk_reference(values) -> tuple[float, float]:
    """Skewness and kurtosis by two passes in numpy ``longdouble``."""
    x = np.asarray(values, dtype=np.longdouble)
    d = x - x.mean()
    m2, m3, m4 = ((d**i).mean() for i in (2, 3, 4))
    return float(m3 / m2**1.5), float(m4 / (m2 * m2))


def _pipeline_call(dataset, path: Path, out: Path, seed: int, n_sample: int) -> dict:
    write_grouped_csv(dataset, path)
    keys = list(dataset.groups)
    picks = np.random.default_rng(seed).choice(len(keys), size=n_sample, replace=False)
    sample = sorted(keys[i] for i in picks)
    return {
        "kind": "pipeline",
        "argv": ["pipeline", "--input", str(path), "--out-dir", str(out)],
        "out_dir": str(out),
        "expect": {
            "rows": dataset.n_rows,
            "sk_ref": {g: sk_reference(dataset.groups[g]) for g in sample},
        },
    }


def _grouped(datasets, work: Path, n_sample: int, seeds) -> Inputs:
    calls, rows, groups, nbytes = [], 0, 0, 0
    for i, (dataset, seed) in enumerate(zip(datasets, seeds)):
        path = work / f"input_{i:03d}.csv"
        calls.append(_pipeline_call(dataset, path, work / "out" / str(i), seed, n_sample))
        rows += dataset.n_rows
        groups += dataset.n_groups
        nbytes += path.stat().st_size
    return Inputs(calls, len(calls), rows, groups, nbytes, rows)


def microdata(seed: int, work: Path) -> Inputs:
    (s,) = derived_seeds(seed, "microdata", 1)
    dataset = synthetic_grouped_dataset(n_groups=8000, seed=s, min_size=60, max_size=190)
    return _grouped([dataset], work, MICRO_SK_SAMPLE, [s])


def paper_sweep(seed: int, work: Path) -> Inputs:
    seeds = derived_seeds(seed, "paper_sweep", PAPER_FILES)
    datasets = (synthetic_grouped_dataset(seed=s) for s in seeds)
    return _grouped(datasets, work, PAPER_SK_SAMPLE, seeds)


def urn_sweep(seed: int, work: Path) -> Inputs:
    calls = []
    for i, ((a_shift, alpha), s) in enumerate(zip(URN_LEGS, derived_seeds(seed, "urn_sweep", 3))):
        out = work / "out" / str(i)
        argv = ["simulate", "--k0", "1", "--a-shift", repr(a_shift), "--alpha", repr(alpha),
                "--steps", str(URN_STEPS), "--seed", str(s), "--out-dir", str(out)]
        calls.append(
            {
                "kind": "simulate",
                "argv": argv,
                "out_dir": str(out),
                "expect": {"k0": 1, "steps": URN_STEPS},
            }
        )
    return Inputs(calls, 0, 0, 0, 0, URN_STEPS * len(calls))


WORKLOADS = {"microdata": microdata, "paper_sweep": paper_sweep, "urn_sweep": urn_sweep}
