import contextlib
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import skbeta
from skbeta import betadist, cli, ksfit, moments, ranksize, urnsim
from skbeta.cli import main
from skbeta.errors import InternalCheckError, SkbetaError
from skbeta.ingest import GroupedDataset, bundled_fixture_path, write_grouped_csv
from skbeta.synthetic import lav4_series, synthetic_grouped_dataset

MICRO = (
    "province,city,value\n"
    "AA,c1,1\nAA,c2,2\nAA,c3,3\nAA,c4,4\nAA,c5,9\n"
    "BB,d1,2\nBB,d2,4\nBB,d3,8\nBB,d4,16\nBB,d5,32\nBB,d6,64\n"
)


def run_cli(*argv):
    return main(list(argv))


class TestStats:
    def test_valid_microdata(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(MICRO)
        out = tmp_path / "out"
        assert run_cli("stats", "--input", str(src), "--out-dir", str(out)) == 0
        for name in ("summary.txt", "sk_points.csv", "hist_s.csv", "hist_k.csv"):
            assert (out / name).exists()
        rows = (out / "sk_points.csv").read_text().strip().splitlines()
        assert rows[0] == "group,s,k,n"
        assert len(rows) == 3

    def test_missing_value_column(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("province,city,amount\nAA,c,1\n")
        assert run_cli("stats", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 2

    def test_single_group(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("province,city,value\n" + "".join(f"AA,c{i},{i + 1}\n" for i in range(6)))
        out = tmp_path / "out"
        assert run_cli("stats", "--input", str(src), "--out-dir", str(out)) == 0
        rows = (out / "sk_points.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_json_format(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(MICRO + "CC,e1,5\n")
        out = tmp_path / "out"
        assert run_cli("stats", "--input", str(src), "--out-dir", str(out), "--format", "json") == 0
        payload = json.loads((out / "sk_points.json").read_text())
        assert set(payload) == {"points", "skipped"}
        rows = [r.split(",") for r in (out / "sk_points.csv").read_text().splitlines()[1:]]
        assert [[p["group_key"], repr(p["s"]), repr(p["k"]), str(p["n"])] for p in payload["points"]] == rows
        assert payload["skipped"] == [{"group_key": "CC", "n": 1, "reason": "fewer than 4 values"}]

    def test_all_groups_below_threshold(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("province,city,value\nAA,c1,1\nBB,c2,2\n")
        assert run_cli("stats", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 3


class TestFit:
    def test_exact_quadratic_fixture(self, tmp_path):
        src = tmp_path / "skp.csv"
        src.write_text("group,s,k,n\na,0.0,3.0,9\nb,1.0,5.0,9\nc,2.0,11.0,9\n")
        out = tmp_path / "out"
        assert run_cli("fit", "--input", str(src), "--model", "quadratic", "--out-dir", str(out)) == 0
        block = (out / "fit_quadratic.txt").read_text()
        assert "p: 2.0" in block and "q: 3.0" in block and "R^2: 1.0" in block
        assert (out / "fit_quadratic_residuals.csv").exists()
        assert (out / "fit_quadratic_curve.csv").exists()

    @pytest.mark.parametrize("model", ["quadratic", "power"])
    def test_json_format(self, tmp_path, model):
        src = tmp_path / "skp.csv"
        s_vals = (0.5, 1.0, 2.0, 3.0, 4.0)
        nu = 2.0 if model == "quadratic" else 1.5
        src.write_text("group,s,k,n\n" + "".join(f"g{i},{s!r},{2 * s**nu + 3!r},9\n" for i, s in enumerate(s_vals)))
        out = tmp_path / "out"
        assert run_cli("fit", "--input", str(src), "--model", model, "--out-dir", str(out), "--format", "json") == 0
        payload = json.loads((out / f"fit_{model}.json").read_text())
        assert set(payload) == {f.name for f in dataclasses.fields(ksfit.KSFitResult)}
        assert (payload["model"], payload["n_points"], payload["warnings"]) == (model, 5, [])
        assert [p["group_key"] for p in payload["points"]] == [f"g{i}" for i in range(5)]
        assert len(payload["residuals"]) == 5
        assert payload["p"] == pytest.approx(2.0, rel=1e-9)
        assert payload["q"] == pytest.approx(3.0, rel=1e-9)
        assert payload["nu"] == pytest.approx(nu, rel=1e-9)
        assert (payload["se_nu"] == 0.0) == (model == "quadratic")
        block = (out / f"fit_{model}.txt").read_text()
        for key in ("p", "se_p", "q", "se_q", "se_nu", "sse"):
            assert f"\n{key}: {payload[key]!r}\n" in block
        assert f"\nR^2: {payload['r_squared']!r}\n" in block

    def test_json_files_are_strict_json(self, tmp_path):
        """A number beyond the float range is null in the JSON files, which
        strict JSON requires; the text file keeps ``inf``."""
        syn = tmp_path / "syn"
        run_cli("pipeline", "--synthetic", "--seed", "0", "--out-dir", str(syn))
        header, *lines = (syn / "sk_points.csv").read_text().splitlines()
        src = tmp_path / "k1e200.csv"
        rows = (line.split(",") for line in lines)
        src.write_text(header + "\n" + "".join(f"{g},{s},{float(k) * 1e200!r},{n}\n" for g, s, k, n in rows))
        out = tmp_path / "out"
        calls = (["fit", "--model", "quadratic"], ["fit", "--model", "power"], ["rank-fit", "--target", "k"])
        for args in calls:
            run_cli(*args, "--input", str(src), "--out-dir", str(out), "--format", "json")

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        payloads = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in out.glob("*.json")}
        assert sorted(payloads) == ["fit_power.json", "fit_quadratic.json", "rank_lav4_k.json"]
        for name, payload in payloads.items():
            assert payload["sse"] is None, name
            assert "\nsse: inf\n" in (out / name.replace(".json", ".txt")).read_text()

    @pytest.mark.parametrize("model", ["quadratic", "power"])
    def test_two_points_exits_4(self, tmp_path, capsys, model):
        src = tmp_path / "skp.csv"
        src.write_text("group,s,k,n\na,0.5,3.0,9\nb,1.0,5.0,9\n")
        out = tmp_path / "out"
        assert run_cli("fit", "--input", str(src), "--model", model, "--out-dir", str(out)) == 4
        assert "needs at least" in capsys.readouterr().err
        assert not out.exists()

    def test_power_zero_s_exits_4(self, tmp_path):
        src = tmp_path / "skp.csv"
        src.write_text("group,s,k,n\na,0.0,3.0,9\nb,1.0,5.0,9\nc,2.0,11.0,9\nd,3.0,21.0,9\n")
        assert run_cli("fit", "--input", str(src), "--model", "power", "--out-dir", str(tmp_path / "o")) == 4

    def test_rank_model_through_fit(self, tmp_path):
        values = lav4_series(3.1426, 0.2884, 0.8853, 0.2649, 110)
        src = tmp_path / "series.csv"
        src.write_text("value\n" + "\n".join(repr(v) for v in values) + "\n")
        out = tmp_path / "out"
        rc = run_cli(
            "fit", "--input", str(src), "--model", "rank:lav4",
            "--value-column", "value", "--out-dir", str(out),
        )
        assert rc == 0
        block = (out / "rank_lav4.txt").read_text()
        fitted = {
            line.split(":")[0]: float(line.split(":")[1])
            for line in block.splitlines()
            if line.split(":")[0] in ("kappa", "gamma", "xi", "psi")
        }
        assert fitted["kappa"] == pytest.approx(3.1426, abs=1e-4)
        assert fitted["gamma"] == pytest.approx(0.2884, abs=1e-4)
        assert fitted["xi"] == pytest.approx(0.8853, abs=1e-4)
        assert fitted["psi"] == pytest.approx(0.2649, abs=1e-4)

    def test_rank_model_target_in_file_names(self, tmp_path):
        src = tmp_path / "skp.csv"
        src.write_text(
            "group,s,k,n\n"
            + "\n".join(f"g{i},{0.5 + 0.1 * i},{2.0 + 0.3 * i * i},9" for i in range(20))
            + "\n"
        )
        out = tmp_path / "out"
        for target in ("s", "k"):
            rc = run_cli(
                "fit", "--input", str(src), "--model", "rank:lav4",
                "--target", target, "--out-dir", str(out),
            )
            assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "rank_lav4_k.txt", "rank_lav4_k_series.csv", "rank_lav4_s.txt", "rank_lav4_s_series.csv",
        ]
        rank_fit_out = tmp_path / "rank_fit"
        assert run_cli("rank-fit", "--input", str(src), "--target", "k", "--out-dir", str(rank_fit_out)) == 0
        for name in ("rank_lav4_k.txt", "rank_lav4_k_series.csv"):
            assert (out / name).read_bytes() == (rank_fit_out / name).read_bytes()

    def test_missing_input_columns(self, tmp_path):
        src = tmp_path / "skp.csv"
        src.write_text("g,s\nx,1\n")
        assert run_cli("fit", "--input", str(src), "--model", "quadratic", "--out-dir", str(tmp_path / "o")) == 2


class TestRankFit:
    def test_target_from_sk_points(self, tmp_path):
        src = tmp_path / "skp.csv"
        src.write_text(
            "group,s,k,n\n"
            + "\n".join(f"g{i},{0.5 + 0.1 * i},{2.0 + 0.3 * i},9" for i in range(20))
            + "\n"
        )
        out = tmp_path / "out"
        rc = run_cli(
            "rank-fit", "--input", str(src), "--variant", "lav4",
            "--target", "k", "--out-dir", str(out),
        )
        assert rc == 0
        assert (out / "rank_lav4_k.txt").exists()
        assert (out / "rank_lav4_k_series.csv").exists()

    def test_json_reports_stop_reason(self, tmp_path):
        src = tmp_path / "values.csv"
        src.write_text("value\n" + "\n".join(str(1.0 + 0.2 * i * i) for i in range(30)) + "\n")
        out = tmp_path / "out"
        rc = run_cli(
            "rank-fit", "--input", str(src), "--out-dir", str(out), "--format", "json",
        )
        assert rc == 0
        payload = json.loads((out / "rank_lav4.json").read_text())
        assert payload["stop"] in ("tolerance", "no descent", "max_iter")
        assert payload["converged"] == (payload["stop"] == "tolerance")
        assert payload["iterations"] >= 1
        block = (out / "rank_lav4.txt").read_text()
        assert f"stop: {payload['stop']}\n" in block
        assert f"iterations: {payload['iterations']}\n" in block

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["zipf", "yule_simon", "lav4"])
    def test_value_that_underflows_at_unit_scale_exits_4(self, tmp_path, capsys, variant):
        """1e-320 beside 1.7e308 scales to 0: a domain error, with no numpy warning."""
        src = tmp_path / "v.csv"
        src.write_text("v\n1e308\n1.7e308\n1e-320\n5\n6\n7\n8\n9\n")
        out = tmp_path / "out"
        argv = ["--input", str(src), "--value-column", "v", "--variant", variant]
        assert run_cli("rank-fit", *argv, "--out-dir", str(out)) == 4
        assert capsys.readouterr().err == (
            "error: rank fit cannot scale the series: 1e-320 underflows to 0 beside 1.7e+308\n"
        )
        assert not out.exists()


class TestBetaCalibrate:
    def test_hand_pair(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "beta-calibrate", "--skew", "0.565685424949238", "--kurt", "2.4",
            "--out-dir", str(out),
        )
        assert rc == 0
        block = (out / "calibration.txt").read_text()
        assert "rho: 3.0" in block
        cdf_lines = (out / "beta_cdf.csv").read_text().splitlines()
        assert cdf_lines[2] == "x,cdf"
        assert len(cdf_lines) == 3 + 512

    def test_infeasible_pair_exits_4(self, tmp_path):
        rc = run_cli(
            "beta-calibrate", "--skew", "0.0", "--kurt", "3.5",
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 4

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "beta-calibrate", "--skew", "0.0", "--kurt", "1.8",
            "--out-dir", str(out), "--format", "json",
        )
        assert rc == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["selected"]["a"] == pytest.approx(1.0, abs=1e-9)


class TestSimulate:
    def test_run_and_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "simulate", "--steps", "5000", "--alpha", "0.5", "--seed", "9",
            "--out-dir", str(out),
        )
        assert rc == 0
        summary = (out / "sim_summary.txt").read_text()
        assert "predicted_b: 3.0" in summary
        header = (out / "sim_hist.csv").read_text().splitlines()[0]
        assert header == "k,count,frequency,limit_pmf"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("steps = 1000\nalpha = 0.25\nseed = 4\n")
        out = tmp_path / "out"
        rc = run_cli(
            "simulate", "--config", str(cfg), "--steps", "2000",
            "--out-dir", str(out),
        )
        assert rc == 0
        summary = (out / "sim_summary.txt").read_text()
        assert "steps: 2000" in summary  # flag wins
        assert "alpha: 0.25" in summary  # config applies


    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_alpha_at_the_ends_has_no_predicted_b(self, tmp_path, alpha):
        out = tmp_path / "out"
        rc = run_cli(
            "simulate", "--steps", "50", "--alpha", alpha, "--seed", "1",
            "--out-dir", str(out), "--format", "json",
        )
        assert rc == 0
        summary = (out / "sim_summary.txt").read_text()
        assert f"predicted_b: unavailable (predicted_b requires alpha in (0, 1), got {float(alpha)!r})\n" in summary
        rows = (out / "sim_hist.csv").read_text().splitlines()
        assert rows == ["k,count,frequency,limit_pmf", "51,1,1.0," if alpha == "0" else "1,51,1.0,"]
        assert json.loads((out / "sim_result.json").read_text())["predicted_b"] is None

    def test_config_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("# urn settings\n\n  steps = 300\n   # indented comment\n\nseed=2\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 0
        summary = (out / "sim_summary.txt").read_text()
        assert "steps: 300\nseed: 2\n" in summary

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_config_line_without_equals_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# settings\n\nseed = 2\nalpha\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out-dir", str(out)]
        assert run_cli(*argv, *(["--synthetic"] if command == "pipeline" else [])) == 2
        assert capsys.readouterr().err == f"error: {cfg}: config line without '=': 'alpha'\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["beta-calibrate", "--skew", "-1.0950354976675177e-05", "--kurt", "2.9999882585658235"], 0),
        (["beta-calibrate", "--skew", "0.5", "--kurt", "-2E0"], 4),
        (["simulate", "--a-shift", "-5e-1", "--steps", "100", "--seed", "3"], 0),
        (["simulate", "--alpha", "-.5e-3", "--steps", "100"], 2),
    ],
)
def test_negative_exponent_values_read_as_after_equals(tmp_path, capsys, argv, rc):
    """``--flag -1e-5`` is the value -1e-5, as ``--flag=-1e-5`` is."""
    runs = []
    for form in ("spaced", "equals"):
        flags = argv[1:] if form == "spaced" else map("=".join, zip(argv[1::2], argv[2::2]))
        out = tmp_path / form
        runs.append((run_cli(argv[0], *flags, "--out-dir", str(out)), capsys.readouterr().err,
                     _tree(out) if out.exists() else {}))
    assert runs[0] == runs[1]
    assert runs[0][0] == rc


class TestPipeline:
    def test_synthetic_full_report(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("pipeline", "--synthetic", "--seed", "0", "--out-dir", str(out))
        assert rc == 0
        manifest = (out / "manifest.txt").read_text()
        for section in (
            "pooled_stats: ok",
            "group_stats: ok",
            "fit_quadratic: ok",
            "fit_power: ok",
            "rank_s: ok",
            "rank_k: ok",
            "beta_moments_s: ok",
            "beta_moments_k: ok",
            "beta_rank_s: ok",
            "beta_rank_k: ok",
        ):
            assert section in manifest
        assert "status: complete" in manifest

    def test_fixture_degrades_with_reason(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            "pipeline", "--input", str(bundled_fixture_path()),
            "--group-by", "province", "--value-column", "ati_eur",
            "--out-dir", str(out),
        )
        assert rc == 3
        manifest = (out / "manifest.txt").read_text()
        assert "pooled_stats: ok" in manifest
        assert manifest.count("insufficient group sizes") >= 9
        assert "status: partial" in manifest
        assert (out / "pooled_summary.txt").exists()
        assert (out / "skipped_groups.csv").read_text().count("\n") == 111

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("pipeline", "--synthetic", "--seed", "3", "--out-dir", str(out1)) in (0, 3)
        assert run_cli("pipeline", "--synthetic", "--seed", "3", "--out-dir", str(out2)) in (0, 3)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_manifest_brackets_follow_the_search_constants(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run_cli("pipeline", "--synthetic", "--out-dir", str(out)) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "nu_bracket: [0.5, 4]\n\n" in manifest
        monkeypatch.setattr(ksfit, "NU_BRACKET", (0.25, 6.5))
        assert run_cli("pipeline", "--synthetic", "--out-dir", str(out)) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "nu_bracket: [0.25, 6.5]\n\n" in manifest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["synthetic", "tiny"])
    def test_manifest_lists_every_file(self, tmp_path, fmt, source):
        if source == "synthetic":
            argv, rc = ("--synthetic", "--simulate"), 0
        else:  # every group skipped: only skipped_groups.csv is written
            src = tmp_path / "tiny.csv"
            src.write_text("province,city,value\n" + "".join(f"AA,c{i},1e-310\n" for i in range(6)))
            argv, rc = ("--input", str(src)), 3
        out = tmp_path / "out"
        assert run_cli("pipeline", *argv, "--format", fmt, "--out-dir", str(out)) == rc
        listed = {
            line.strip()[2:] for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith("    - ")
        }
        written = {p.name for p in out.iterdir()} - {"manifest.txt", "manifest.json"}
        assert {f for f in written if not f.endswith(".json")} == listed

    def test_json_format(self, tmp_path):
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        argv = ("pipeline", "--synthetic", "--seed", "0", "--simulate")
        assert run_cli(*argv, "--out-dir", str(csv_out)) == 0
        assert run_cli(*argv, "--out-dir", str(json_out), "--format", "json") == 0
        csv_files = {p.name for p in csv_out.iterdir()}
        json_files = {p.name for p in json_out.iterdir()}
        sections = [
            "pooled_stats", "sk_points", "fit_quadratic", "fit_power", "rank_s", "rank_k",
            "beta_moments_s", "beta_moments_k", "beta_rank_s", "beta_rank_k", "sim_result",
            "manifest",
        ]
        assert json_files - csv_files == {f"{name}.json" for name in sections}
        for name in csv_files:
            assert (csv_out / name).read_bytes() == (json_out / name).read_bytes(), name
        manifest = json.loads((json_out / "manifest.json").read_text())
        assert set(manifest) == {"version", "source", "seed", "status", "sections"}
        assert (manifest["source"], manifest["seed"], manifest["status"]) == ("synthetic(seed=0)", 0, "complete")
        text = (json_out / "manifest.txt").read_text()
        assert f"skbeta_version: {manifest['version']}\n" in text
        for row in manifest["sections"]:
            assert set(row) == {"name", "status", "files"}
            listed = f"  {row['name']}: {row['status']}\n" + "".join(f"    - {f}\n" for f in row["files"])
            assert listed in text
            assert not any(f.endswith(".json") for f in row["files"])
        assert [r["name"] for r in manifest["sections"]][-1] == "simulate"
        fit = json.loads((json_out / "fit_power.json").read_text())
        assert f"p: {fit['p']!r}\n" in (json_out / "fit_power.txt").read_text()
        pooled = json.loads((json_out / "pooled_stats.json").read_text())
        assert f"\nN_p{pooled['n']:>27d}\n" in (json_out / "pooled_summary.txt").read_text()
        for t in "sk":
            beta = json.loads((json_out / f"beta_rank_{t}.json").read_text())
            text = f"a: {beta['a']!r}\nb: {beta['b']!r}\nsource: {beta['source']}\n"
            assert (json_out / f"beta_rank_{t}.txt").read_text() == text

    def test_neither_input_nor_synthetic_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("pipeline", "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == "error: pipeline needs --input or --synthetic\n"
        assert not out.exists()

    def test_simulation_section_on_request(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("simulate = 1\nsim_steps = 2000\n")
        out = tmp_path / "out"
        rc = run_cli(
            "pipeline", "--synthetic", "--seed", "0", "--config", str(cfg),
            "--out-dir", str(out),
        )
        assert rc == 0
        assert (out / "sim_summary.txt").exists()
        assert "simulate: ok" in (out / "manifest.txt").read_text()


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.mark.parametrize("exc_type", sorted(_all_subclasses(SkbetaError), key=lambda c: c.__name__))
def test_every_error_type_has_its_exit_code(tmp_path, monkeypatch, capsys, exc_type):
    assert exc_type.exit_code in (2, 3, 4, 5)

    def fail(s, k):
        raise exc_type("boom")

    monkeypatch.setattr(betadist, "calibrate_from_sk", fail)
    rc = run_cli("beta-calibrate", "--skew", "0", "--kurt", "1.8", "--out-dir", str(tmp_path))
    assert rc == exc_type.exit_code
    assert capsys.readouterr().err.endswith("error: boom\n")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--input", "{missing}"),
            ("fit", "--input", "{missing}", "--model", "power"),
            ("rank-fit", "--input", "{missing}"),
            ("simulate", "--config", "{missing}"),
            ("pipeline", "--input", "{missing}"),
            ("pipeline", "--synthetic", "--config", "{missing}"),
        ],
    )
    def test_missing_file_exits_2(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "absent") for a in argv]
        assert run_cli(*argv, "--out-dir", str(tmp_path / "o")) == 2
        assert "cannot read file" in capsys.readouterr().err

    def test_non_utf8_input_exits_2(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_bytes("province,city,value\nAA,S\xe3o,1\n".encode("latin-1"))
        assert run_cli("stats", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 2

    def test_delimiter_only_input_exits_3(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(",,\n,,\n")
        assert run_cli("stats", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 3

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("steps = abc\n")
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
        assert "'steps'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "pipeline"])
    def test_missing_city_column_exits_2(self, tmp_path, capsys, command):
        src = tmp_path / "m.csv"
        src.write_text(MICRO)
        out = tmp_path / "out"
        assert run_cli(command, "--input", str(src), "--city-column", "town", "--out-dir", str(out)) == 2
        assert "missing column 'town' (role 'city')" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_line_counted_in_sk_points_error(self, tmp_path, capsys):
        src = tmp_path / "skp.csv"
        src.write_text("group,s,k,n\na,0.0,3.0,9\n\nb,x,5.0,9\n")
        out = str(tmp_path / "o")
        assert run_cli("fit", "--input", str(src), "--model", "quadratic", "--out-dir", out) == 2
        assert "line 4" in capsys.readouterr().err

    def test_zero_bins_exits_2_before_output(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(MICRO)
        out = tmp_path / "o"
        assert run_cli("stats", "--input", str(src), "--bins", "0", "--out-dir", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["bins = 0", "min_n = 0"])
    def test_pipeline_zero_count_in_config_exits_2(self, tmp_path, line):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        rc = run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--steps", "-1"), ("--alpha", "1.5"), ("--k0", "0"), ("--a-shift", "-1"), ("--seed", "-1"),
            ("--a-shift", "inf"),
        ],
    )
    def test_bad_urn_flag_exits_2_before_output(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert run_cli("simulate", *flags, "--out-dir", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, seed",
        [
            (("--synthetic", "--seed", "-1"), "-1"),
            (("--input", "{src}", "--seed", "-1"), "-1"),
            (("--input", "{src}", "--seed", "18446744073709551616"), "18446744073709551616"),
            (("--input", "{src}", "--config", "{cfg}"), "-1"),  # seed = -1 in the config
        ],
        ids=["synthetic", "input", "past_2_64", "config"],
    )
    def test_pipeline_bad_seed_exits_2_before_output(self, tmp_path, capsys, flags, seed):
        src, cfg, out = tmp_path / "m.csv", tmp_path / "p.cfg", tmp_path / "o"
        src.write_text(MICRO)
        cfg.write_text("seed = -1\n")
        flags = [f.format(src=src, cfg=cfg) for f in flags]
        assert run_cli("pipeline", *flags, "--out-dir", str(out)) == 2
        err = f"error: seed must be an unsigned 64-bit integer, got {seed}\n"
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, err",
        [(["--skew", "nan", "--kurt", "3"], "skew must be finite, got nan"),
         (["--skew", "inf", "--kurt", "3"], "skew must be finite, got inf"),
         (["--skew", "0.5", "--kurt", "nan"], "kurt must be finite, got nan"),
         (["--skew", "0.5", "--kurt=-inf"], "kurt must be finite, got -inf")],
        ids=["skew_nan", "skew_inf", "kurt_nan", "kurt_minus_inf"],
    )
    def test_non_finite_beta_calibrate_exits_2_before_output(self, tmp_path, capsys, flags, err):
        out = tmp_path / "o"
        assert run_cli("beta-calibrate", *flags, "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_steps_past_int32_exit_2_before_output(self, tmp_path, monkeypatch, capsys):
        # a run would ask for ~12 GB here: validation must stop it first
        def no_run(cfg):
            raise AssertionError("the urn ran")

        monkeypatch.setattr(urnsim, "run", no_run)
        out = tmp_path / "o"
        assert run_cli("simulate", "--steps", "3000000000", "--alpha", "1", "--out-dir", str(out)) == 2
        assert "steps must lie in [0, 2**31)" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "p.cfg"
        cfg.write_text("simulate = 1\nsim_steps = 3000000000\n")
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 2
        assert not out.exists()

    def test_bins_past_2_20_exit_2_before_output(self, tmp_path, monkeypatch, capsys):
        # ~1e9 bins would build rows for every bin: validation must stop it first
        def no_histogram(values, n_bins):
            raise AssertionError("the histogram was built")

        monkeypatch.setattr(moments, "histogram", no_histogram)
        src = tmp_path / "m.csv"
        src.write_text(MICRO)
        out = tmp_path / "o"
        assert run_cli("stats", "--input", str(src), "--bins", "1000000000", "--out-dir", str(out)) == 2
        assert "bins must be <= 2**20" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "p.cfg"
        cfg.write_text("bins = 1000000000\n")
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [("--steps", "20000", "--k-min", "-5000"), ("--k-min", "0"), ("--k-min", "-1")]
    )
    def test_k_min_below_one_exits_2_before_output(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert run_cli("simulate", *flags, "--out-dir", str(out)) == 2
        assert "k_min must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"k_min = {flags[-1]}\n")
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("k0", [2**63 - 3, 10**20])
    def test_sizes_past_int64_exit_2_before_output(self, tmp_path, capsys, k0):
        out = tmp_path / "o"
        assert run_cli("simulate", "--k0", str(k0), "--steps", "10", "--out-dir", str(out)) == 2
        assert "k0 + steps must be < 2**63" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"simulate = 1\nsim_k0 = {k0}\n")
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 2
        assert not out.exists()

    def test_huge_k0_runs(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--k0", "3000000000", "--steps", "10", "--out-dir", str(out)) == 0
        assert "k0: 3000000000\n" in (out / "sim_summary.txt").read_text()

    @pytest.mark.parametrize("line", ["sim_alpha = 1.5", "sim_steps = -1", "sim_k0 = 0"])
    def test_pipeline_bad_urn_config_exits_2_before_output(self, tmp_path, line):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"simulate = 1\n{line}\n")
        out = tmp_path / "o"
        rc = run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["True", "on", "2", "", "yes please"])
    def test_pipeline_bad_simulate_value_exits_2_before_output(self, tmp_path, capsys, value):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"simulate = {value}\n")
        out = tmp_path / "o"
        for flag in ((), ("--simulate",)):
            rc = run_cli("pipeline", "--synthetic", *flag, "--config", str(cfg), "--out-dir", str(out))
            assert rc == 2
            assert "config key 'simulate'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "value, section",
        [("1", "ok"), ("true", "ok"), ("yes", "ok"), ("0", "skipped: not requested"),
         ("false", "skipped: not requested"), ("no", "skipped: not requested")],
    )
    def test_pipeline_simulate_values(self, tmp_path, value, section):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"simulate = {value}\nsim_steps = 200\n")
        out = tmp_path / "o"
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert f"  simulate: {section}\n" in (out / "manifest.txt").read_text()

    def test_pipeline_bad_urn_config_ignored_without_simulate(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("sim_alpha = 1.5\n")
        out = tmp_path / "o"
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 0
        assert "simulate: skipped: not requested" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize(
        "command, key",
        [("simulate", "stepz"), ("simulate", "sim_steps"), ("pipeline", "steps"), ("pipeline", "k_min")],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"seed = 1\n{key} = 5\n")
        out = tmp_path / "o"
        extra = ("--synthetic",) if command == "pipeline" else ()
        assert run_cli(command, *extra, "--config", str(cfg), "--out-dir", str(out)) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_exits_2_before_output(self, tmp_path, capsys, cell):
        src = tmp_path / "m.csv"
        src.write_text(MICRO + f"BB,d7,{cell}\n")
        for command in ("stats", "pipeline"):
            out = tmp_path / command
            assert run_cli(command, "--input", str(src), "--out-dir", str(out)) == 2
            assert "line 13" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("model", ["quadratic", "power"])
    def test_non_finite_point_exits_2_before_output(self, tmp_path, capsys, model):
        src = tmp_path / "p.csv"
        src.write_text("group,s,k,n\na,0.5,2.5,9\nb,nan,4.0,9\nc,1.0,inf,9\nd,2.0,8.0,9\n")
        out = tmp_path / "o"
        assert run_cli("fit", "--input", str(src), "--model", model, "--out-dir", str(out)) == 2
        assert "line 3: non-finite number 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_bom_input_reads_like_plain_utf8(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(MICRO, encoding="utf-8")
        bom.write_text(MICRO, encoding="utf-8-sig")
        for src in (plain, bom):
            assert run_cli("stats", "--input", str(src), "--out-dir", str(tmp_path / src.stem)) == 0
        for name in ("sk_points.csv", "summary.txt", "hist_s.csv", "hist_k.csv"):
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_unknown_rank_model_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run_cli("fit", "--input", "x.csv", "--model", "rank:foo", "--out-dir", str(tmp_path))
        assert ei.value.code == 2


def _sk_points(out):
    rows = (out / "sk_points.csv").read_text().splitlines()[1:]
    return {g: (float(sv), float(kv)) for g, sv, kv, _ in (r.split(",") for r in rows)}


class TestNumericRange:
    """Group values anywhere from 1e-300 to 1e300, and near-constant groups."""

    @staticmethod
    def write_scaled(path, scale):
        groups = (("AA", (1, 2, 3, 4, 9)), ("BB", (2, 4, 8, 16, 32, 64)))
        rows = [f"{g},c{i},{v * scale!r}" for g, vals in groups for i, v in enumerate(vals)]
        path.write_text("province,city,value\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("scale", [1e-300, 1e200, 1e300])
    def test_stats_shape_is_scale_free(self, tmp_path, capsys, scale):
        for name, factor in (("unit", 1.0), ("scaled", scale)):
            self.write_scaled(tmp_path / f"{name}.csv", factor)
            argv = ("stats", "--input", str(tmp_path / f"{name}.csv"), "--out-dir", str(tmp_path / name))
            assert run_cli(*argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        unit, scaled = _sk_points(tmp_path / "unit"), _sk_points(tmp_path / "scaled")
        assert unit.keys() == scaled.keys() == {"AA", "BB"}
        for g in unit:
            assert scaled[g] == (pytest.approx(unit[g][0], rel=1e-13), pytest.approx(unit[g][1], rel=1e-13))

    def test_near_constant_group_skipped_as_zero_variance(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(MICRO + "CC,e1,1\nCC,e2,1.000000000000001\nCC,e3,1\nCC,e4,1\n")
        out = tmp_path / "out"
        assert run_cli("stats", "--input", str(src), "--out-dir", str(out)) == 0
        assert (out / "skipped_groups.csv").read_text() == "group,n,reason\nCC,4,zero variance\n"
        assert set(_sk_points(out)) == {"AA", "BB"}

    @pytest.mark.parametrize("scale", [1e-300, 1e100])
    def test_pipeline_runs_every_section_at_tiny_and_large_scales(self, tmp_path, capsys, scale):
        ds = synthetic_grouped_dataset(n_groups=12, seed=1)
        src = tmp_path / "m.csv"
        write_grouped_csv(GroupedDataset({g: np.multiply(v, scale) for g, v in ds.groups.items()}), src)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(out)) == 0
        assert "status: complete" in (out / "manifest.txt").read_text()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_rank_fit_is_scale_free(self, tmp_path, scale):
        noise = np.random.default_rng(17).lognormal(0, 0.05, 110)
        values = np.array(lav4_series(3.1426, 0.2884, 0.8853, 0.2649, 110)) * noise
        blocks = {}
        for name, factor in (("unit", 1.0), ("scaled", scale)):
            src = tmp_path / f"{name}.csv"
            src.write_text("value\n" + "".join(f"{float(v) * factor!r}\n" for v in values))
            assert run_cli("rank-fit", "--input", str(src), "--out-dir", str(tmp_path / name)) == 0
            text = (tmp_path / name / "rank_lav4.txt").read_text()
            assert "nan" not in text
            blocks[name] = dict(line.split(": ", 1) for line in text.splitlines())
        unit, scaled = blocks["unit"], blocks["scaled"]
        assert float(scaled["R^2"]) == pytest.approx(float(unit["R^2"]), rel=1e-12)
        assert scaled["converged"] == "True"
        # Parameters agree to the ~1e-8 that Gauss-Newton's stop rule fixes
        # (see test_ranksize.TestScaleFree).
        for key in ("gamma", "se_gamma", "xi", "se_xi", "psi", "se_psi"):
            assert float(scaled[key]) == pytest.approx(float(unit[key]), rel=1e-6), key
        for key in ("kappa", "se_kappa"):
            assert float(scaled[key]) == pytest.approx(float(unit[key]) * scale, rel=1e-6, abs=0.0), key

    def test_pooled_variance_beyond_float_range_raises(self, tmp_path):
        src = tmp_path / "huge.csv"
        src.write_text("province,city,value\n" + "".join(f"A,a{i},{i}e200\n" for i in range(1, 6)))
        assert run_cli("stats", "--input", str(src), "--out-dir", str(tmp_path / "stats")) == 0
        s, k = _sk_points(tmp_path / "stats")["A"]
        assert (s, k) == (pytest.approx(0.0, abs=1e-15), pytest.approx(1.7, rel=1e-14))
        with pytest.raises(OverflowError, match="variance"):
            run_cli("pipeline", "--input", str(src), "--out-dir", str(tmp_path / "pipe"))

    def test_all_equal_tiny_values_exit_3(self, tmp_path, capsys):
        src = tmp_path / "tiny.csv"
        src.write_text("province,city,value\n" + "".join(f"AA,c{i},1e-310\n" for i in range(6)))
        out = tmp_path / "out"
        assert run_cli("stats", "--input", str(src), "--out-dir", str(out)) == 3
        assert "no group met" in capsys.readouterr().err
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(out)) == 3
        assert (out / "skipped_groups.csv").read_text() == "group,n,reason\nAA,6,zero variance\n"
        assert "pooled_stats: skipped: all values are equal; variance is zero" in (out / "manifest.txt").read_text()


class TestMinNOne:
    def test_stats_skips_single_value_group(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(MICRO + "CC,e1,5\n")
        out = tmp_path / "out"
        assert run_cli("stats", "--input", str(src), "--min-n", "1", "--out-dir", str(out)) == 0
        assert (out / "skipped_groups.csv").read_text() == (
            "group,n,reason\nCC,1,fewer than 2 values\n"
        )
        assert len((out / "sk_points.csv").read_text().splitlines()) == 3

    def test_pipeline_config_min_n_1(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(MICRO + "CC,e1,5\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_text("min_n = 1\n")
        out = tmp_path / "out"
        rc = run_cli("pipeline", "--input", str(src), "--config", str(cfg), "--out-dir", str(out))
        assert rc == 3  # two groups are too few for the fits
        manifest = (out / "manifest.txt").read_text()
        assert "group_stats: ok" in manifest
        assert "CC,1,fewer than 2 values" in (out / "skipped_groups.csv").read_text()


class TestSectionRunner:
    def test_internal_check_error_in_a_section_exits_5(self, tmp_path, monkeypatch, capsys):
        def fail(s, k):
            raise InternalCheckError("round trip did not close")

        monkeypatch.setattr(betadist, "calibrate_from_sk", fail)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--synthetic", "--seed", "0", "--out-dir", str(out)) == 5
        assert capsys.readouterr().err == "internal error: round trip did not close\n"
        assert not (out / "manifest.txt").exists()

    def test_failing_subcommand_writes_no_file(self, tmp_path, monkeypatch, capsys):
        def fail(params, n_points=512):
            raise InternalCheckError("no convergence")

        monkeypatch.setattr(betadist, "cdf_curve_csv", fail)
        out = tmp_path / "out"
        rc = run_cli("beta-calibrate", "--skew", "0.5", "--kurt", "3.1", "--out-dir", str(out))
        assert rc == 5
        assert capsys.readouterr().err == "internal error: no convergence\n"
        assert not (out / "calibration.txt").exists()

    def test_skipped_section_writes_no_file(self, tmp_path, monkeypatch):
        def fail(result, n_grid=200):
            raise SkbetaError("no curve")

        monkeypatch.setattr(ksfit, "curve_csv", fail)
        out = tmp_path / "out"
        assert run_cli("pipeline", "--synthetic", "--seed", "0", "--out-dir", str(out)) == 3
        manifest = (out / "manifest.txt").read_text()
        assert "  fit_quadratic: skipped: no curve\n  fit_power: skipped: no curve\n" in manifest
        assert not list(out.glob("fit_*"))
        assert "rank_s: ok" in manifest

    def test_stats_and_pipeline_write_identical_group_files(self, tmp_path):
        src = tmp_path / "m.csv"
        write_grouped_csv(synthetic_grouped_dataset(seed=5), src)
        a, b = tmp_path / "stats", tmp_path / "pipe"
        assert run_cli("stats", "--input", str(src), "--out-dir", str(a)) == 0
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(b)) in (0, 3)
        names = ["sk_points.csv", "skipped_groups.csv", "summary.txt", "hist_s.csv", "hist_k.csv"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert "group_stats: ok\n" + "".join(f"    - {n}\n" for n in names) in (
            b / "manifest.txt"
        ).read_text()


def _tree(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_second_call_in_a_process_matches_a_lone_run(tmp_path):
    """The parser is built once per process; one call leaves nothing for the next."""
    src = tmp_path / "m.csv"
    src.write_text(MICRO + "CC,e1,5\n")
    first, second, lone = tmp_path / "first", tmp_path / "second", tmp_path / "lone"
    argv = ["pipeline", "--input", str(src), "--seed", "7", "--format", "json"]
    assert run_cli("stats", "--input", str(src), "--min-n", "6", "--bins", "3",
                   "--out-dir", str(first)) == 0
    rc = run_cli(*argv, "--out-dir", str(second))
    env = dict(os.environ, PYTHONPATH=str(Path(skbeta.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "skbeta.cli", *argv, "--out-dir", str(lone)],
                          env=env, capture_output=True)
    assert done.returncode == rc
    assert _tree(second) == _tree(lone)
    assert "sk_points.csv" in _tree(second)


@contextlib.contextmanager
def section_fork(cpus=2, min_points=16):
    """Run ``pipeline``'s rank-size and Beta chain in a forked child from
    ``min_points`` S/K points, with ``cpus`` usable CPUs.  Yields a spy on
    ``os.fork``."""
    with mock.patch.object(cli, "_FORK_MIN_POINTS", min_points), mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(cpus))
    ), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def _no_fork(error=AssertionError("forked")):
    return mock.patch.object(os, "fork", side_effect=error)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSectionFork:
    """Large pipeline calls run the rank-size and Beta sections in a forked
    child; every out-dir, exit code and stderr is the serial path's."""

    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "m.csv"
        dataset = synthetic_grouped_dataset(n_groups=24, seed=2, min_size=8, max_size=20)
        write_grouped_csv(dataset, path)
        return path

    @pytest.fixture
    def skewed(self, tmp_path):
        """Four of 24 groups have S < 0: fit_power, rank_s and beta_rank_s skip."""
        rng = np.random.default_rng(4)
        groups = {f"G{i:02d}": rng.lognormal(10.0, 1.0, 12) for i in range(20)}
        groups.update({f"N{i}": 1e6 - rng.lognormal(10.0, 1.0, 12) for i in range(4)})
        path = tmp_path / "skewed.csv"
        write_grouped_csv(GroupedDataset(groups, "value"), path)
        return path

    @staticmethod
    def both(tmp_path, capsys, src, *flags):
        """(exit code, stderr, files) of the serial and the forked run."""
        runs = []
        for forked in (False, True):
            out = tmp_path / ("forked" if forked else "serial")
            argv = ["pipeline", "--input", str(src), "--out-dir", str(out), *flags]
            if forked:
                with section_fork() as fork:
                    rc = run_cli(*argv)
                assert fork.call_count == 1
            else:
                with _no_fork():
                    rc = run_cli(*argv)
            runs.append((rc, capsys.readouterr().err, _tree(out) if out.exists() else {}))
        _no_child_left()
        return runs

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("simulate", [[], ["--simulate"]])
    def test_forked_out_dir_is_the_serial_one(self, tmp_path, capsys, src, fmt, simulate):
        serial, forked = self.both(tmp_path, capsys, src, "--format", fmt, *simulate)
        assert serial == forked
        assert serial[0] == 0 and "beta_rank_k_cdf.csv" in serial[2]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_skipped_section_exit_3(self, tmp_path, capsys, skewed, fmt):
        serial, forked = self.both(tmp_path, capsys, skewed, "--format", fmt)
        assert serial == forked
        assert serial[0] == 3
        manifest = serial[2]["manifest.txt"].decode()
        assert "  rank_s: skipped: rank fit requires positive values" in manifest
        assert "  beta_rank_s: skipped: lav4 fit unavailable\n" in manifest

    def test_internal_check_error_in_the_child_chain_exits_5(
        self, tmp_path, capsys, monkeypatch, src
    ):
        def fail(params, n_points=512):
            raise InternalCheckError("continued fraction did not converge")

        monkeypatch.setattr(betadist, "cdf_curve_csv", fail)
        serial, forked = self.both(tmp_path, capsys, src)
        assert serial == forked
        rc, err, files = serial
        assert (rc, err) == (5, "internal error: continued fraction did not converge\n")
        assert {"fit_power.txt", "rank_s.txt", "rank_k_series.csv"} <= set(files)
        assert "beta_moments_s.txt" not in files and "manifest.txt" not in files

    @pytest.mark.parametrize("failure", ["raise", "exit", "short"])
    def test_failed_child_chain_is_run_by_the_parent(
        self, tmp_path, capsys, monkeypatch, cut_stream, src, failure
    ):
        parent, fit, parent_fits = os.getpid(), ranksize.fit_rank_model, []

        def fit_in_child(*args):
            if os.getpid() == parent:
                parent_fits.append(args[1])
            elif failure == "raise":
                raise RuntimeError("child failed")
            elif failure == "exit":
                os._exit(3)
            return fit(*args)

        monkeypatch.setattr(ranksize, "fit_rank_model", fit_in_child)
        if failure == "short":  # the child's pickle is cut
            cut_stream()
        serial, forked = self.both(tmp_path, capsys, src)
        assert serial == forked and serial[0] == 0
        assert len(parent_fits) == 4  # rank_s and rank_k, serially and in the rerun

    def test_failed_fork_runs_the_chain_in_the_parent(self, tmp_path, capsys, src):
        out = tmp_path / "serial"
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(out)) == 0
        failed = tmp_path / "failed"
        with section_fork(), _no_fork(BlockingIOError(11, "EAGAIN")):
            assert run_cli("pipeline", "--input", str(src), "--out-dir", str(failed)) == 0
        assert _tree(failed) == _tree(out)
        assert capsys.readouterr().err == ""

    def test_one_usable_cpu_never_forks(self, tmp_path, src):
        out, one = tmp_path / "serial", tmp_path / "one"
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(out)) == 0
        with section_fork(cpus=1), _no_fork():
            assert run_cli("pipeline", "--input", str(src), "--out-dir", str(one)) == 0
        assert _tree(one) == _tree(out)

    def test_below_the_point_floor_never_forks(self, tmp_path, src):
        with section_fork(min_points=25), _no_fork():
            assert run_cli("pipeline", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 0

    def test_no_child_is_left_unreaped(self, tmp_path, src):
        with section_fork() as fork:
            assert run_cli("pipeline", "--input", str(src), "--out-dir", str(tmp_path / "o")) == 0
        assert fork.call_count == 1
        _no_child_left()

    def test_forked_lapack_with_two_blas_threads_returns(self, tmp_path, src):
        serial = tmp_path / "serial"
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(serial)) == 0
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from skbeta import cli\n"
            "x = np.random.default_rng(0).normal(size=(400, 400))\n"
            "np.linalg.pinv(x @ x)  # the BLAS threads are up before the fork\n"
            "cli._FORK_MIN_POINTS = 16\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "real_fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "rc = cli.main(sys.argv[1:])\n"
            "sys.exit(rc if forks == [1] else 9)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(skbeta.__file__).parents[1]))
        env["OPENBLAS_NUM_THREADS"] = "2"
        forked = tmp_path / "forked"
        argv = ["pipeline", "--input", str(src), "--out-dir", str(forked)]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert _tree(forked) == _tree(serial)
