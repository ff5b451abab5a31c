"""Command-line front end.

Subcommands: stats, fit, rank-fit, beta-calibrate, simulate, pipeline.
The exit code is 0, 3 for a partial pipeline, the ``exit_code`` of the
``SkbetaError`` raised (see ``errors``), or 4 for a violated precondition.
All outputs are deterministic given (input bytes, config, seed); machine
files carry full-precision numbers, only the human-readable summary rounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, betadist, ksfit, moments, ranksize, synthetic, urnsim
from .errors import (
    EmptyResultError,
    InsufficientDataError,
    InternalCheckError,
    ParseError,
    SchemaError,
    SkbetaError,
)
from .ingest import parse_city_csv, read_sk_points, read_text, read_value_column


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n")


def _read_config(path: str | None, keys: set[str]) -> dict[str, str]:
    """``key = value`` lines of a config file; a key outside ``keys`` is a ParseError."""
    if not path:
        return {}
    out: dict[str, str] = {}
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: config line without '=': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ParseError(f"{path}: unknown config key {key!r}; known: {sorted(keys)}")
        out[key] = value.strip()
    return out


def _resolve(flag_value, config: dict[str, str], key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    try:
        return cast(config[key])
    except ValueError as exc:
        raise ParseError(f"config key {key!r}: {exc}") from exc


def _switch(value: str) -> bool:
    """A config on/off value: exactly 1/true/yes or 0/false/no."""
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1, true, yes, 0, false or no, got {value!r}")


def _check_counts(min_n: int, bins: int) -> None:
    for name, value in (("min_n", min_n), ("bins", bins)):
        if value < 1:
            raise ParseError(f"{name} must be >= 1, got {value}")
    if bins > 2**20:  # each bin is a row of the histogram files
        raise ParseError(f"bins must be <= 2**20, got {bins}")


def _urn_config(**fields) -> urnsim.UrnConfig:
    """The ``UrnConfig`` of flag or config values; an out-of-range one is a ParseError."""
    try:
        return urnsim.UrnConfig(**fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _column_map(args) -> dict[str, str]:
    cmap = {args.group_by: "province", args.value_column: "value"}
    if args.city_column is not None:
        cmap[args.city_column] = "city"
    return cmap


def _sk_summary(s_vals, k_vals) -> str:
    """Side-by-side S and K summaries, or why either is unavailable."""
    summaries, notes = {}, ""
    for label, values in (("S", s_vals), ("K", k_vals)):
        try:
            summaries[label] = moments.summarize(values)
        except SkbetaError as exc:
            notes += f"{label}: summary unavailable ({exc})\n"
    return notes or moments.summary_block(summaries)


# Section writers.  Each writes one section's files into ``out`` and returns
# (result, names of the files the pipeline manifest lists); JSON files are
# written only for ``fmt == "json"`` and are not listed.


def _pooled_stats(out: Path, values, fmt: str):
    pooled = moments.summarize(values)
    _write(out / "pooled_summary.txt", moments.summary_block({"value": pooled}))
    if fmt == "json":
        _write_json(out / "pooled_stats.json", dataclasses.asdict(pooled))
    return pooled, ["pooled_summary.txt"]


def _write_skipped(out: Path, skipped) -> None:
    lines = ["group,n,reason"] + [f"{g.group_key},{g.n},{g.reason}" for g in skipped]
    _write(out / "skipped_groups.csv", "\n".join(lines) + "\n")


def _group_stats(out: Path, groups: moments.GroupSKResult, bins: int, fmt: str):
    points = list(groups.points)
    _write(out / "sk_points.csv", moments.sk_points_to_csv(points))
    _write_skipped(out, groups.skipped)
    s_vals = [p.s for p in points]
    k_vals = [p.k for p in points]
    _write(out / "summary.txt", _sk_summary(s_vals, k_vals))
    _write(out / "hist_s.csv", moments.histogram_to_csv(moments.histogram(s_vals, bins)))
    _write(out / "hist_k.csv", moments.histogram_to_csv(moments.histogram(k_vals, bins)))
    if fmt == "json":
        payload = {
            "points": [dataclasses.asdict(p) for p in points],
            "skipped": [dataclasses.asdict(g) for g in groups.skipped],
        }
        _write_json(out / "sk_points.json", payload)
    files = ["sk_points.csv", "skipped_groups.csv", "summary.txt", "hist_s.csv", "hist_k.csv"]
    return points, files


def _ks_fit(out: Path, points, model: str, fmt: str):
    result = getattr(ksfit, f"fit_{model}")(points)
    stem = f"fit_{model}"
    _write(out / f"{stem}.txt", ksfit.result_block(result))
    _write(out / f"{stem}_residuals.csv", ksfit.residuals_csv(result))
    _write(out / f"{stem}_curve.csv", ksfit.curve_csv(result))
    if fmt == "json":
        _write_json(out / f"{stem}.json", dataclasses.asdict(result))
    return result, [f"{stem}.txt", f"{stem}_residuals.csv", f"{stem}_curve.csv"]


def _rank_fit(out: Path, values, variant: str, stem: str, fmt: str):
    series = ranksize.rank_ascending(values)
    result = ranksize.fit_rank_model(series, variant)
    _write(out / f"{stem}.txt", ranksize.result_block(result))
    _write(out / f"{stem}_series.csv", ranksize.series_csv(result, series))
    if fmt == "json":
        payload = {
            "variant": result.spec.variant.value,
            "params": result.spec.named(),
            "std_errors": dict(zip(ranksize.PARAM_NAMES[result.spec.variant], result.std_errors)),
            "r_squared": result.r_squared,
            "sse": result.sse,
            "n": result.n,
            "converged": result.converged,
            "stop": result.stop,
            "iterations": result.iterations,
        }
        _write_json(out / f"{stem}.json", payload)
    return result, [f"{stem}.txt", f"{stem}_series.csv"]


def _calibrate(out: Path, s: float, k: float, stem: str, cdf: str, fmt: str):
    cal = betadist.calibrate_from_sk(s, k)
    _write(out / f"{stem}.txt", betadist.calibration_block(cal))
    _write(out / cdf, betadist.cdf_curve_csv(cal.selected))
    if fmt == "json":
        _write_json(out / f"{stem}.json", dataclasses.asdict(cal))
    return cal, [f"{stem}.txt", cdf]


def _beta_moments(out: Path, values, stem: str, fmt: str):
    s, k = moments.shape_moments(values)
    return _calibrate(out, s, k, stem, f"{stem}_cdf.csv", fmt)


def _beta_rank(out: Path, fit: ranksize.RankFitResult, stem: str, fmt: str):
    params = ranksize.rank_fit_to_beta(fit)
    source = "lav4 exponent correspondence (a = xi + 1, b = gamma + 1)"
    _write(out / f"{stem}.txt", f"a: {params.a!r}\nb: {params.b!r}\nsource: {source}\n")
    _write(out / f"{stem}_cdf.csv", betadist.cdf_curve_csv(params))
    if fmt == "json":
        _write_json(out / f"{stem}.json", {**dataclasses.asdict(params), "source": source})
    return params, [f"{stem}.txt", f"{stem}_cdf.csv"]


def _simulate(out: Path, cfg: urnsim.UrnConfig, k_min: int | None, fmt: str):
    """The urn run; ``k_min`` adds the tail-slope line to the summary."""
    result = urnsim.run(cfg)
    try:
        b = urnsim.predicted_b(cfg)
    except ValueError:
        b = None
    _write(out / "sim_hist.csv", urnsim.sim_csv(result, cfg, b))
    block = urnsim.sim_block(result, cfg)
    if k_min is not None:
        try:
            block += f"tail_slope_kmin_{k_min}: {urnsim.empirical_tail_slope(result, k_min)!r}\n"
        except InsufficientDataError as exc:
            block += f"tail_slope_kmin_{k_min}: unavailable ({exc})\n"
    _write(out / "sim_summary.txt", block)
    if fmt == "json":
        payload = {
            "config": dataclasses.asdict(cfg),
            "n_urns": result.n_urns,
            "total_balls": result.total_balls,
            "predicted_b": b,
            "empirical_pmf": {str(k): v for k, v in result.empirical_pmf.items()},
        }
        _write_json(out / "sim_result.json", payload)
    return result, ["sim_hist.csv", "sim_summary.txt"]


def _rank_series(args) -> list[float]:
    if args.target:
        return [p.s if args.target == "s" else p.k for p in read_sk_points(args.input)]
    return read_value_column(args.input, args.value_column)


def cmd_stats(args) -> int:
    _check_counts(args.min_n, args.bins)
    dataset = parse_city_csv(args.input, _column_map(args))
    groups = moments.group_sk_points(dataset, min_n=args.min_n)
    _group_stats(Path(args.out_dir), groups, args.bins, args.format)
    return 0


def cmd_fit(args) -> int:
    if args.model.startswith("rank:"):  # the same run as ``rank-fit --variant <v>``
        args.variant = args.model.split(":", 1)[1]
        return cmd_rank_fit(args)
    _ks_fit(Path(args.out_dir), read_sk_points(args.input), args.model, args.format)
    return 0


def cmd_rank_fit(args) -> int:
    stem = f"rank_{args.variant}" + (f"_{args.target}" if args.target else "")
    _rank_fit(Path(args.out_dir), _rank_series(args), args.variant, stem, args.format)
    return 0


def cmd_beta_calibrate(args) -> int:
    out = Path(args.out_dir)
    _calibrate(out, args.skew, args.kurt, "calibration", "beta_cdf.csv", args.format)
    return 0


def cmd_simulate(args) -> int:
    config_file = _read_config(args.config, {"k0", "a_shift", "alpha", "steps", "seed", "k_min"})
    cfg = _urn_config(
        k0=_resolve(args.k0, config_file, "k0", 1, int),
        a_shift=_resolve(args.a_shift, config_file, "a_shift", 0.0, float),
        alpha=_resolve(args.alpha, config_file, "alpha", 0.5, float),
        steps=_resolve(args.steps, config_file, "steps", 10000, int),
        seed=_resolve(args.seed, config_file, "seed", 0, int),
    )
    k_min = _resolve(args.k_min, config_file, "k_min", 10, int)
    _simulate(Path(args.out_dir), cfg, k_min, args.format)
    return 0


def cmd_pipeline(args) -> int:
    config_file = _read_config(
        args.config,
        {"min_n", "bins", "seed", "simulate", "sim_k0", "sim_a_shift", "sim_alpha", "sim_steps"},
    )
    min_n = _resolve(args.min_n, config_file, "min_n", 4, int)
    bins = _resolve(args.bins, config_file, "bins", 10, int)
    seed = _resolve(args.seed, config_file, "seed", 0, int)
    _check_counts(min_n, bins)
    do_sim = _resolve(None, config_file, "simulate", False, _switch) or args.simulate
    sim_cfg = None
    if do_sim:
        sim_cfg = _urn_config(
            k0=_resolve(None, config_file, "sim_k0", 1, int),
            a_shift=_resolve(None, config_file, "sim_a_shift", 0.0, float),
            alpha=_resolve(None, config_file, "sim_alpha", 0.5, float),
            steps=_resolve(None, config_file, "sim_steps", 20000, int),
            seed=seed,
        )
    out = Path(args.out_dir)  # made by the first write, after the input parsed
    fmt = args.format
    if args.synthetic:
        dataset = synthetic.synthetic_grouped_dataset(seed=seed)
        source = f"synthetic(seed={seed})"
    else:
        if not args.input:
            raise SchemaError("pipeline needs --input or --synthetic")
        dataset = parse_city_csv(args.input, _column_map(args))
        source = str(args.input)

    sections: list[tuple[str, str, list[str]]] = []

    def run(name: str, unmet: str, writer, *inputs):
        """Record ``ok`` and the files ``writer(*inputs)`` wrote, or why the
        section was skipped: ``unmet`` (a missing input) or the error."""
        result, files, status = None, [], f"skipped: {unmet}"
        if not unmet:
            try:
                result, files = writer(*inputs)
                status = "ok"
            except InternalCheckError:
                raise
            except (SkbetaError, ValueError) as exc:
                status = f"skipped: {exc}"
        sections.append((name, status, files))
        return result

    run("pooled_stats", "", _pooled_stats, out, dataset.values, fmt)

    try:
        groups = moments.group_sk_points(dataset, min_n=min_n)
    except EmptyResultError as exc:
        groups = moments.GroupSKResult((), exc.skipped)
        _write_skipped(out, exc.skipped)
    points = groups.points
    no_points = "" if points else "insufficient group sizes"
    run("group_stats", no_points, _group_stats, out, groups, bins, fmt)
    series = (("s", [p.s for p in points]), ("k", [p.k for p in points]))

    for model in ("quadratic", "power"):
        run(f"fit_{model}", no_points, _ks_fit, out, points, model, fmt)
    rank_fits = {
        t: run(f"rank_{t}", no_points, _rank_fit, out, vals, "lav4", f"rank_{t}", fmt)
        for t, vals in series
    }
    for t, vals in series:
        run(f"beta_moments_{t}", no_points, _beta_moments, out, vals, f"beta_moments_{t}", fmt)
    for t, _ in series:
        unmet = no_points or ("" if rank_fits[t] else "lav4 fit unavailable")
        run(f"beta_rank_{t}", unmet, _beta_rank, out, rank_fits[t], f"beta_rank_{t}", fmt)

    run("simulate", "" if do_sim else "not requested", _simulate, out, sim_cfg, None, fmt)

    failed = any(status not in ("ok", "skipped: not requested") for _, status, _ in sections)
    manifest = [
        f"skbeta_version: {__version__}",
        f"source: {source}",
        f"seed: {seed}",
        f"min_n: {min_n}",
        f"bins: {bins}",
        "moment_convention: population (divide by n)",
        "fit_space: raw",
        "r2_space: raw",
        "ranking: ascending (rank 1 = smallest)",
        "nu_bracket: [{:g}, {:g}]".format(*ksfit.NU_BRACKET),
        "psi_bracket: ({:g}, {:g}]".format(*ranksize.PSI_BRACKET),
        "",
        "sections:",
    ]
    for name, status, files in sections:
        manifest.append(f"  {name}: {status}")
        manifest.extend(f"    - {f}" for f in files)
    status_line = "partial (see skipped sections)" if failed else "complete"
    manifest += ["", f"status: {status_line}"]
    _write(out / "manifest.txt", "\n".join(manifest) + "\n")
    if fmt == "json":
        meta = {"version": __version__, "source": source, "seed": seed, "status": status_line}
        rows = [{"name": n, "status": s, "files": f} for n, s, f in sections]
        _write_json(out / "manifest.json", {**meta, "sections": rows})
    return EmptyResultError.exit_code if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skbeta",
        description=(
            "Grouped skewness/kurtosis statistics, K-S relation fits, rank-size "
            "laws, Beta moment calibration, and an urn simulator."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    variants = tuple(v.value for v in ranksize.RankVariant)

    def add_common(p, func):
        p.add_argument("--out-dir", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)

    p_stats = sub.add_parser("stats", help="per-group S/K statistics from microdata")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--group-by", default="province")
    p_stats.add_argument("--value-column", default="value")
    p_stats.add_argument("--city-column", default=None)
    p_stats.add_argument("--min-n", type=int, default=4)
    p_stats.add_argument("--bins", type=int, default=10)
    add_common(p_stats, cmd_stats)

    p_fit = sub.add_parser("fit", help="fit the K-S relation or a rank model")
    p_fit.add_argument("--input", required=True)
    models = ("quadratic", "power") + tuple(f"rank:{v}" for v in variants)
    p_fit.add_argument("--model", required=True, choices=models)
    p_fit.add_argument("--target", choices=("s", "k"), default=None)
    p_fit.add_argument("--value-column", default="value")
    add_common(p_fit, cmd_fit)

    p_rank = sub.add_parser("rank-fit", help="fit a rank-size model to a series")
    p_rank.add_argument("--input", required=True)
    p_rank.add_argument("--variant", choices=variants, default="lav4")
    p_rank.add_argument("--target", choices=("s", "k"), default=None)
    p_rank.add_argument("--value-column", default="value")
    add_common(p_rank, cmd_rank_fit)

    p_beta = sub.add_parser("beta-calibrate", help="invert (S, K) to Beta shapes")
    p_beta.add_argument("--skew", type=float, required=True)
    p_beta.add_argument("--kurt", type=float, required=True)
    add_common(p_beta, cmd_beta_calibrate)

    p_sim = sub.add_parser("simulate", help="run the preferential-attachment urn")
    p_sim.add_argument("--k0", type=int, default=None)
    p_sim.add_argument("--a-shift", type=float, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--k-min", type=int, default=None)
    p_sim.add_argument("--config", default=None)
    add_common(p_sim, cmd_simulate)

    p_pipe = sub.add_parser("pipeline", help="full analysis chain into one directory")
    p_pipe.add_argument("--input", default=None)
    p_pipe.add_argument("--synthetic", action="store_true")
    p_pipe.add_argument("--group-by", default="province")
    p_pipe.add_argument("--value-column", default="value")
    p_pipe.add_argument("--city-column", default=None)
    p_pipe.add_argument("--min-n", type=int, default=None)
    p_pipe.add_argument("--bins", type=int, default=None)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--config", default=None)
    p_pipe.add_argument("--simulate", action="store_true")
    add_common(p_pipe, cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SkbetaError as exc:
        label = "internal error" if isinstance(exc, InternalCheckError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:  # violated preconditions (too few points, bad flags)
        print(f"error: {exc}", file=sys.stderr)
        return SkbetaError.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
