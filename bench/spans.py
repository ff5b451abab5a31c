"""In-memory span recorder that times a program's layers from outside.

``Recorder.wrap`` replaces a module attribute with a wrapper that records
one span per call: its name, start, end, parent span and the CLI call it
belongs to.  Counts are taken from the wrapped call's arguments and return
value, never from the program's internals.  Spans stay in memory until the
run ends; ``layer_metrics`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# Metric group -> span names whose time it sums.  A span nested inside
# another span of the same group is not counted twice.
TIME_GROUPS = {
    "ingest.parse_s": ("ingest.parse_city_csv",),
    "moments.summarize_s": ("moments.summarize",),
    "moments.group_sk_points_s": ("moments.group_sk_points",),
    "ksfit.fit_s": ("ksfit.fit_quadratic", "ksfit.fit_power"),
    "ksfit.render_s": ("ksfit.result_block", "ksfit.residuals_csv", "ksfit.curve_csv"),
    "ranksize.fit_s": ("ranksize.fit_rank_model",),
    "ranksize.render_s": ("ranksize.result_block", "ranksize.series_csv"),
    "betadist.calibrate_s": ("betadist.calibrate_from_sk",),
    "betadist.cdf_s": ("betadist.cdf_curve_csv",),
    "urnsim.run_s": ("urnsim.run",),
    "urnsim.limit_s": ("urnsim.tv_distance_to_limit", "urnsim.sim_csv"),
}

LAYERS = ("ingest", "moments", "ksfit", "ranksize", "betadist", "urnsim", "cli")

ROOT = "cli.main"

# Counts reported as the largest value seen rather than summed.
MAX_COUNTS = ("urnsim.max_size", "urnsim.tv")


def _tv_counts(args, kwargs, tv):
    result, config = args[0], args[1]
    return {"urnsim.pmf_evals": max(result.urn_sizes) - config.k0 + 1, "urnsim.tv": tv}


def _sim_csv_counts(args, kwargs, text):
    if kwargs.get("b", args[2] if len(args) > 2 else None) is None:
        return {}
    return {"urnsim.pmf_evals": text.count("\n") - 1}


# Public functions that ``skbeta.cli`` calls, by module, each with an
# optional hook mapping (args, kwargs, return value) to counts.
# ``parse_city_csv`` is bound by name inside ``skbeta.cli``, so it is
# patched there.
HOOKS = {
    ("cli", "parse_city_csv"): lambda a, kw, ds: {
        "ingest.rows": ds.n_rows,
        "ingest.bytes": os.path.getsize(a[0]),
    },
    ("moments", "summarize"): None,
    ("moments", "group_sk_points"): lambda a, kw, r: {
        "moments.groups": len(r.points) + len(r.skipped)
    },
    ("moments", "shape_moments"): None,
    ("moments", "histogram"): None,
    ("moments", "sk_points_to_csv"): None,
    ("moments", "histogram_to_csv"): None,
    ("moments", "summary_block"): None,
    ("ksfit", "fit_quadratic"): lambda a, kw, r: {"ksfit.points": r.n_points},
    ("ksfit", "fit_power"): lambda a, kw, r: {"ksfit.points": r.n_points},
    ("ksfit", "result_block"): None,
    ("ksfit", "residuals_csv"): None,
    ("ksfit", "curve_csv"): None,
    ("ranksize", "rank_ascending"): None,
    ("ranksize", "fit_rank_model"): lambda a, kw, r: {
        "ranksize.points": r.n,
        "ranksize.converged": int(r.converged),
    },
    ("ranksize", "result_block"): None,
    ("ranksize", "series_csv"): None,
    ("ranksize", "rank_fit_to_beta"): None,
    ("betadist", "calibrate_from_sk"): None,
    ("betadist", "calibration_block"): None,
    ("betadist", "cdf_curve_csv"): lambda a, kw, text: {
        "betadist.cdf_points": text.count("\n") - 1
    },
    ("urnsim", "run"): lambda a, kw, r: {
        "urnsim.steps": a[0].steps,
        "urnsim.n_urns": r.n_urns,
        "urnsim.max_size": max(r.urn_sizes),
    },
    ("urnsim", "predicted_b"): None,
    ("urnsim", "tv_distance_to_limit"): _tv_counts,
    ("urnsim", "sim_csv"): _sim_csv_counts,
    ("urnsim", "sim_block"): None,
    ("urnsim", "empirical_tail_slope"): None,
}


class Recorder:
    """Collects spans ``[name, start, end, parent, call]`` and their counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict] = []
        self.call = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.call]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                self.counts.append(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self, cli_module) -> None:
        """Patch ``cli.main`` and every function in ``HOOKS`` in place."""
        modules = {"cli": cli_module}
        for mod in ("moments", "ksfit", "ranksize", "betadist", "urnsim"):
            modules[mod] = getattr(cli_module, mod)
        for (mod, attr), hook in HOOKS.items():
            layer = "ingest" if attr == "parse_city_csv" else mod
            target = modules[mod]
            setattr(target, attr, self.wrap(f"{layer}.{attr}", getattr(target, attr), hook))
        cli_module.main = self.wrap(ROOT, cli_module.main)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans come from one thread's call stack, so a span's children never
    overlap and lie inside it: the part they cover is their summed duration.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer times and counts summed over every span of one run."""
    out: dict[str, float] = defaultdict(float)
    names = [s[0] for s in spans]
    for i, t in enumerate(self_times(spans)):
        out[names[i].split(".", 1)[0] + ".self_s"] += t
    for metric, members in TIME_GROUPS.items():
        out[metric] = 0.0
        for name, start, end, parent, _ in spans:
            if name not in members:
                continue
            p = parent
            while p >= 0 and names[p] not in members:
                p = spans[p][3]
            if p < 0:
                out[metric] += end - start
    out["cli.main_s"] = sum(s[2] - s[1] for s in spans if s[0] == ROOT)
    out["moments.shape_moments_calls"] = float(names.count("moments.shape_moments"))
    for c in counts:
        for key, value in c.items():
            out[key] = max(out[key], value) if key in MAX_COUNTS else out[key] + value
    fits = names.count("ranksize.fit_rank_model")
    out["ranksize.converged_ratio"] = _rate(out.pop("ranksize.converged", 0.0), fits)
    out["ingest.rows_per_s"] = _rate(out["ingest.rows"], out["ingest.parse_s"])
    out["urnsim.steps_per_s"] = _rate(out["urnsim.steps"], out["urnsim.run_s"])
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_s", 0.0)
    return dict(out)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0
