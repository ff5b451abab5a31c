"""Command-line front end.

Subcommands: stats, fit, rank-fit, beta-calibrate, simulate, pipeline.
The exit code is 0, 3 for a partial pipeline, the ``exit_code`` of the
``SkbetaError`` raised (see ``errors``), or 4 for a violated precondition.
All outputs are deterministic given (input bytes, config, seed); machine
files carry full-precision numbers, only the human-readable summary rounds.
Every subcommand and every pipeline section is one section function whose
files ``_emit`` writes; a section that fails writes none.  After the S/K
points, ``pipeline`` runs its sections one after the other, in manifest order.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
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
from .ingest import parse_city_csv, read_lines, read_sk_points, read_value_column


def _jsonable(obj):
    """``obj`` for ``json.dumps``: a dataclass as the dict of its fields, and
    null for a float that is not finite, which strict JSON cannot write."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(out: Path, fmt: str, section, *inputs):
    """Run ``section(*inputs)`` and write its files into ``out``.

    A section returns (result, {listed file: text}, {JSON file: object}) and
    builds every text before this writes the first, so a section that raises
    leaves no file.  The JSON files are written only for ``--format json``
    and never listed.  Returns (result, the listed file names)."""
    result, files, objects = section(*inputs)
    listed = list(files)
    if fmt == "json":
        for name, obj in objects.items():
            text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
            files[name] = text + "\n"
    if files:
        out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="\n")
    return result, listed


def _read_config(path: str | None, keys: set[str]) -> dict[str, str]:
    """``key = value`` lines of a config file; a key outside ``keys`` is a ParseError."""
    if not path:
        return {}
    out: dict[str, str] = {}
    with read_lines(path) as lines:
        for raw in lines:
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


_URN_FIELDS = ("k0", "a_shift", "alpha", "steps")


def _urn_config(flags: dict, config: dict[str, str], prefix: str, steps: int, seed: int):
    """The ``UrnConfig`` whose four urn fields come from ``flags``, else the
    config key ``prefix + field``, else their defaults (``steps`` given); an
    out-of-range value is a ParseError."""
    # each config value is cast to the type of ``UrnConfig``'s default
    fields = {
        f: _resolve(flags.get(f), config, prefix + f, d, type(d))
        for f, d in vars(urnsim.UrnConfig(steps=steps)).items() if f in _URN_FIELDS
    }
    try:
        return urnsim.UrnConfig(**fields, seed=seed)
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


# Sections.  Each takes its inputs and returns (result, {file: text}, {JSON
# file: object}) for ``_emit``; the pipeline manifest lists the text files.


def _pooled_stats(values):
    pooled = moments.summarize(values)
    text = moments.summary_block({"value": pooled})
    return pooled, {"pooled_summary.txt": text}, {"pooled_stats.json": pooled}


def _skipped_groups(skipped):
    lines = ["group,n,reason"] + [f"{g.group_key},{g.n},{g.reason}" for g in skipped]
    return skipped, {"skipped_groups.csv": "\n".join(lines) + "\n"}, {}


def _group_stats(groups: moments.GroupSKResult, bins: int):
    s_vals = [p.s for p in groups.points]
    k_vals = [p.k for p in groups.points]
    files = {
        "sk_points.csv": moments.sk_points_to_csv(groups.points),
        **_skipped_groups(groups.skipped)[1],
        "summary.txt": _sk_summary(s_vals, k_vals),
        "hist_s.csv": moments.histogram_to_csv(moments.histogram(s_vals, bins)),
        "hist_k.csv": moments.histogram_to_csv(moments.histogram(k_vals, bins)),
    }
    return groups, files, {"sk_points.json": groups}


def _ks_fit(points, model: str):
    result = getattr(ksfit, f"fit_{model}")(points)
    stem = f"fit_{model}"
    files = {
        f"{stem}.txt": ksfit.result_block(result),
        f"{stem}_residuals.csv": ksfit.residuals_csv(result),
        f"{stem}_curve.csv": ksfit.curve_csv(result),
    }
    return result, files, {f"{stem}.json": result}


def _rank_fit(values, variant: str, stem: str):
    series = ranksize.rank_ascending(values)
    result = ranksize.fit_rank_model(series, variant)
    files = {
        f"{stem}.txt": ranksize.result_block(result),
        f"{stem}_series.csv": ranksize.series_csv(result, series),
    }
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
    return result, files, {f"{stem}.json": payload}


def _calibrate(s: float, k: float, stem: str, cdf: str):
    cal = betadist.calibrate_from_sk(s, k)
    files = {
        f"{stem}.txt": betadist.calibration_block(cal),
        cdf: betadist.cdf_curve_csv(cal.selected),
    }
    return cal, files, {f"{stem}.json": cal}


def _beta_moments(values, stem: str):
    s, k = moments.shape_moments(values)
    return _calibrate(s, k, stem, f"{stem}_cdf.csv")


def _beta_rank(fit: ranksize.RankFitResult, stem: str):
    params = ranksize.rank_fit_to_beta(fit)
    source = "lav4 exponent correspondence (a = xi + 1, b = gamma + 1)"
    files = {
        f"{stem}.txt": f"a: {params.a!r}\nb: {params.b!r}\nsource: {source}\n",
        f"{stem}_cdf.csv": betadist.cdf_curve_csv(params),
    }
    return params, files, {f"{stem}.json": {**dataclasses.asdict(params), "source": source}}


def _simulate(cfg: urnsim.UrnConfig, k_min: int | None):
    """The urn run; ``k_min`` adds the tail-slope line to the summary."""
    result = urnsim.run(cfg)
    try:
        b = urnsim.predicted_b(cfg)
    except ValueError:
        b = None
    hist = urnsim.sim_csv(result, cfg, b)
    block = urnsim.sim_block(result, cfg)
    if k_min is not None:
        try:
            block += f"tail_slope_kmin_{k_min}: {urnsim.empirical_tail_slope(result, k_min)!r}\n"
        except InsufficientDataError as exc:
            block += f"tail_slope_kmin_{k_min}: unavailable ({exc})\n"
    payload = {
        "config": cfg,
        "n_urns": result.n_urns,
        "total_balls": result.total_balls,
        "predicted_b": b,
        "empirical_pmf": {str(k): v for k, v in result.empirical_pmf.items()},
    }
    return result, {"sim_hist.csv": hist, "sim_summary.txt": block}, {"sim_result.json": payload}


def _manifest(sections, source: str, seed: int, min_n: int, bins: int):
    """The pipeline's manifest; its result is whether a requested section failed."""
    failed = any(status not in ("ok", "skipped: not requested") for _, status, _ in sections)
    lines = [
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
        "",
        "sections:",
    ]
    for name, status, files in sections:
        lines.append(f"  {name}: {status}")
        lines.extend(f"    - {f}" for f in files)
    status_line = "partial (see skipped sections)" if failed else "complete"
    lines += ["", f"status: {status_line}"]
    meta = {"version": __version__, "source": source, "seed": seed, "status": status_line}
    rows = [{"name": n, "status": s, "files": f} for n, s, f in sections]
    text = "\n".join(lines) + "\n"
    return failed, {"manifest.txt": text}, {"manifest.json": {**meta, "sections": rows}}


def _rank_series(args) -> list[float]:
    if args.target:
        return [p.s if args.target == "s" else p.k for p in read_sk_points(args.input)]
    return read_value_column(args.input, args.value_column)


def cmd_stats(args) -> int:
    _check_counts(args.min_n, args.bins)
    dataset = parse_city_csv(args.input, _column_map(args))
    groups = moments.group_sk_points(dataset, min_n=args.min_n)
    _emit(Path(args.out_dir), args.format, _group_stats, groups, args.bins)
    return 0


def cmd_fit(args) -> int:
    if args.model.startswith("rank:"):  # the same run as ``rank-fit --variant <v>``
        args.variant = args.model.split(":", 1)[1]
        return cmd_rank_fit(args)
    _emit(Path(args.out_dir), args.format, _ks_fit, read_sk_points(args.input), args.model)
    return 0


def cmd_rank_fit(args) -> int:
    stem = f"rank_{args.variant}" + (f"_{args.target}" if args.target else "")
    _emit(Path(args.out_dir), args.format, _rank_fit, _rank_series(args), args.variant, stem)
    return 0


def cmd_beta_calibrate(args) -> int:
    for name, value in (("skew", args.skew), ("kurt", args.kurt)):
        if not math.isfinite(value):
            raise ParseError(f"{name} must be finite, got {value}")
    out = Path(args.out_dir)
    _emit(out, args.format, _calibrate, args.skew, args.kurt, "calibration", "beta_cdf.csv")
    return 0


def cmd_simulate(args) -> int:
    config_file = _read_config(args.config, {*_URN_FIELDS, "seed", "k_min"})
    seed = _resolve(args.seed, config_file, "seed", 0, int)
    cfg = _urn_config(vars(args), config_file, "", 10000, seed)
    k_min = _resolve(args.k_min, config_file, "k_min", 10, int)
    if k_min < 1:  # the tail's log bins start at k_min
        raise ParseError(f"k_min must be >= 1, got {k_min}")
    _emit(Path(args.out_dir), args.format, _simulate, cfg, k_min)
    return 0


def cmd_pipeline(args) -> int:
    keys = {"min_n", "bins", "seed", "simulate", *(f"sim_{f}" for f in _URN_FIELDS)}
    config_file = _read_config(args.config, keys)
    min_n = _resolve(args.min_n, config_file, "min_n", 4, int)
    bins = _resolve(args.bins, config_file, "bins", 10, int)
    seed = _resolve(args.seed, config_file, "seed", 0, int)
    if not 0 <= seed < 2**64:  # as ``UrnConfig`` checks the seed of ``simulate``
        raise ParseError(f"seed must be an unsigned 64-bit integer, got {seed}")
    _check_counts(min_n, bins)
    do_sim = _resolve(None, config_file, "simulate", False, _switch) or args.simulate
    sim_cfg = _urn_config({}, config_file, "sim_", 20000, seed) if do_sim else None
    out = Path(args.out_dir)  # made by the first write, after the input parsed
    if args.synthetic:
        dataset = synthetic.synthetic_grouped_dataset(seed=seed)
        source = f"synthetic(seed={seed})"
    else:
        if not args.input:
            raise SchemaError("pipeline needs --input or --synthetic")
        dataset = parse_city_csv(args.input, _column_map(args))
        source = str(args.input)

    sections: list[tuple[str, str, list[str]]] = []

    def run(name: str, unmet: str, section, *inputs):
        """Append the manifest row of ``section(*inputs)``: ``ok`` and the
        files it wrote, or why it was skipped: ``unmet`` (a missing input) or
        the error."""
        result, files, status = None, [], f"skipped: {unmet}"
        if not unmet:
            try:
                result, files = _emit(out, args.format, section, *inputs)
                status = "ok"
            except InternalCheckError:
                raise
            except (SkbetaError, ValueError) as exc:
                status = f"skipped: {exc}"
        sections.append((name, status, files))
        return result

    try:
        groups = moments.group_sk_points(dataset, min_n=min_n)
    except EmptyResultError as exc:
        groups = moments.GroupSKResult((), exc.skipped)
    points = groups.points
    no_points = "" if points else "insufficient group sizes"
    run("pooled_stats", "", _pooled_stats, dataset.values)
    if points:
        run("group_stats", "", _group_stats, groups, bins)
    else:  # the skipped-groups report is still written, and listed
        _, files = _emit(out, args.format, _skipped_groups, groups.skipped)
        sections.append(("group_stats", f"skipped: {no_points}", files))
    for model in ("quadratic", "power"):
        run(f"fit_{model}", no_points, _ks_fit, points, model)
    # ascending, as ``rank_ascending`` orders them: the Beta moments do not see the group order
    series = (("s", sorted(p.s for p in points)), ("k", sorted(p.k for p in points)))
    rank_fits = {
        t: run(f"rank_{t}", no_points, _rank_fit, vals, "lav4", f"rank_{t}") for t, vals in series
    }
    for t, vals in series:
        run(f"beta_moments_{t}", no_points, _beta_moments, vals, f"beta_moments_{t}")
    for t, _ in series:
        unmet = no_points or ("" if rank_fits[t] else "lav4 fit unavailable")
        run(f"beta_rank_{t}", unmet, _beta_rank, rank_fits[t], f"beta_rank_{t}")
    run("simulate", "" if do_sim else "not requested", _simulate, sim_cfg, None)

    failed, _ = _emit(out, args.format, _manifest, sections, source, seed, min_n, bins)
    return EmptyResultError.exit_code if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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

    # flags that several subcommands share
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out-dir", required=True)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    columns = argparse.ArgumentParser(add_help=False)
    columns.add_argument("--group-by", default="province")
    columns.add_argument("--value-column", default="value")
    columns.add_argument("--city-column", default=None)
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--input", required=True)
    series.add_argument("--target", choices=("s", "k"), default=None)
    series.add_argument("--value-column", default="value")

    def add(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, output])
        p._negative_number_matcher = re.compile(r"-\.?\d")  # "-1e-5" is a value, as on Python 3.13
        p.set_defaults(func=func)
        return p

    p_stats = add("stats", cmd_stats, "per-group S/K statistics from microdata", columns)
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--min-n", type=int, default=4)
    p_stats.add_argument("--bins", type=int, default=10)

    p_fit = add("fit", cmd_fit, "fit the K-S relation or a rank model", series)
    models = ("quadratic", "power") + tuple(f"rank:{v}" for v in variants)
    p_fit.add_argument("--model", required=True, choices=models)

    p_rank = add("rank-fit", cmd_rank_fit, "fit a rank-size model to a series", series)
    p_rank.add_argument("--variant", choices=variants, default="lav4")

    p_beta = add("beta-calibrate", cmd_beta_calibrate, "invert (S, K) to Beta shapes")
    p_beta.add_argument("--skew", type=float, required=True)
    p_beta.add_argument("--kurt", type=float, required=True)

    p_sim = add("simulate", cmd_simulate, "run the preferential-attachment urn")
    for flag, cast in (("--k0", int), ("--a-shift", float), ("--alpha", float), ("--steps", int),
                       ("--seed", int), ("--k-min", int)):
        p_sim.add_argument(flag, type=cast, default=None)
    p_sim.add_argument("--config", default=None)

    p_pipe = add("pipeline", cmd_pipeline, "full analysis chain into one directory", columns)
    p_pipe.add_argument("--input", default=None)
    p_pipe.add_argument("--synthetic", action="store_true")
    p_pipe.add_argument("--min-n", type=int, default=None)
    p_pipe.add_argument("--bins", type=int, default=None)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--config", default=None)
    p_pipe.add_argument("--simulate", action="store_true")
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
