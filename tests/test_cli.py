import csv
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import skbeta
from skbeta import betadist, cli, ksfit, moments, urnsim
from skbeta.cli import main
from skbeta.errors import InternalCheckError, SkbetaError
from skbeta.ingest import GroupedDataset, bundled_fixture_path, write_grouped_csv
from skbeta.synthetic import lav4_series, synthetic_grouped_dataset

MICRO = (
    "province,city,value\n"
    "AA,c1,1\nAA,c2,2\nAA,c3,3\nAA,c4,4\nAA,c5,9\n"
    "BB,d1,2\nBB,d2,4\nBB,d3,8\nBB,d4,16\nBB,d5,32\nBB,d6,64\n"
)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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

    LONG = "x" * 200_000  # past csv's field size limit (131072)
    ROWS = "".join(f"P{g},c{g}_{i},{1.5 + i + g}\n" for g in range(3) for i in range(10))

    def test_long_field_in_row_mode_exits_2(self, tmp_path, capsys):
        """A quoted cell sends the planned parse to row mode, which keeps
        csv's field limit; unquoted, the column-wise parse reads the cell."""
        src, out = tmp_path / "m.csv", tmp_path / "o"
        src.write_text(f'province,city,value\n{self.ROWS}P0,"{self.LONG}",3.0\n')
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == f"error: {src}: line 32: field larger than field limit (131072)\n"
        assert not out.exists()
        src.write_text(f"province,city,value\n{self.ROWS}P0,{self.LONG},3.0\n")
        assert run_cli("pipeline", "--input", str(src), "--out-dir", str(out)) == 3

    def test_long_field_from_a_pipe_exits_2(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(skbeta.__file__).parents[1]))
        argv = ["stats", "--input", "/dev/stdin", "--out-dir", str(tmp_path / "o")]
        done = subprocess.run([sys.executable, "-m", "skbeta.cli", *argv], env=env, capture_output=True,
                              input=f"province,city,value\n{self.ROWS}P0,{self.LONG},3.0\n", text=True)
        assert (done.returncode, done.stderr) == (
            2, "error: /dev/stdin: line 32: field larger than field limit (131072)\n"
        )

    def test_long_group_key_in_points_exits_2(self, tmp_path, capsys):
        src = tmp_path / "skp.csv"
        src.write_text(f"group,s,k,n\na,0.5,3.0,9\nb,1.0,5.0,9\nc,2.0,11.0,9\n{self.LONG},3.0,21.0,9\n")
        out = str(tmp_path / "o")
        assert run_cli("fit", "--input", str(src), "--model", "quadratic", "--out-dir", out) == 2
        assert capsys.readouterr().err == f"error: {src}: line 5: field larger than field limit (131072)\n"

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

    def test_steps_that_cannot_be_allocated_exit_4(self, tmp_path, monkeypatch, capsys):
        # the owner array of 2**31 - 1 steps is ~8.6 GB: the allocator refuses
        # that size only, and a run that gets past it trips the first draw
        steps, empty = 2**31 - 1, np.empty

        def no_room(shape, *args, **kwargs):
            if shape == steps:
                raise MemoryError(f"Unable to allocate 8.00 GiB for an array with shape ({steps},)")
            return empty(shape, *args, **kwargs)

        def no_draw(*args):
            raise AssertionError("the urn ran")

        monkeypatch.setattr(np, "empty", no_room)
        monkeypatch.setattr(urnsim, "_draw_steps", no_draw)
        out = tmp_path / "o"
        assert run_cli("simulate", "--steps", str(steps), "--out-dir", str(out)) == 4
        err = f"cannot allocate the {4 * steps} bytes that {steps} steps need"
        assert capsys.readouterr().err == f"error: {err}\n"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"simulate = 1\nsim_steps = {steps}\n")
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 3
        assert f"simulate: skipped: {err}\n" in (out / "manifest.txt").read_text()

    def test_sizes_that_cannot_be_allocated_exit_4(self, tmp_path, monkeypatch, capsys):
        # at alpha = 1 every step makes an urn: the owner array is allocated
        # and the allocator refuses the 1001 sizes only
        steps, urns, full = 1000, 1001, np.full

        def no_room(shape, fill_value, *args, **kwargs):
            if shape == urns and fill_value == 7:
                raise MemoryError(f"Unable to allocate 7.82 KiB for an array with shape ({urns},)")
            return full(shape, fill_value, *args, **kwargs)

        monkeypatch.setattr(np, "full", no_room)
        out = tmp_path / "o"
        argv = ["--k0", "7", "--alpha", "1", "--steps", str(steps), "--out-dir", str(out)]
        assert run_cli("simulate", *argv) == 4
        err = f"cannot allocate the {8 * urns} bytes that {urns} urns need"
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"simulate = 1\nsim_k0 = 7\nsim_alpha = 1\nsim_steps = {steps}\n")
        assert run_cli("pipeline", "--synthetic", "--config", str(cfg), "--out-dir", str(out)) == 3
        assert f"simulate: skipped: {err}\n" in (out / "manifest.txt").read_text()

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

    @pytest.mark.parametrize("e", [-1000, -300, 300])
    def test_pipeline_files_are_scale_free_by_powers_of_two(self, tmp_path, capsys, e):
        """Values times 2**e give the same files, bit for bit, but the pooled
        summary (in the values' units) and the manifests' source line."""
        ds = synthetic_grouped_dataset(seed=3)
        runs = []
        for name, factor in (("unit", 1.0), ("scaled", 2.0**e)):
            src = tmp_path / f"{name}.csv"
            write_grouped_csv(GroupedDataset({g: np.multiply(v, factor) for g, v in ds.groups.items()}), src)
            out = tmp_path / name
            rc = run_cli("pipeline", "--input", str(src), "--out-dir", str(out), "--format", "json")
            files = _tree(out)
            for manifest in ("manifest.txt", "manifest.json"):
                lines = files[manifest].decode().splitlines()
                files[manifest] = [line for line in lines if str(src) not in line]
            for pooled in ("pooled_summary.txt", "pooled_stats.json"):
                files[pooled] = None
            runs.append((rc, capsys.readouterr().err, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 3 and "fit_power.json" in runs[0][2]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pipeline_files_do_not_see_the_group_order(self, tmp_path, capsys, fmt):
        """Groups in another order give the same files, bit for bit, but
        ``sk_points`` (the same rows in another order), the manifests' source
        line and the pooled sums of ``pooled_stats.json`` (in file order)."""
        groups = synthetic_grouped_dataset(seed=3).groups
        order = list(groups)
        random.Random(5).shuffle(order)
        runs = []
        for name, keys in (("file", list(groups)), ("shuffled", order)):
            src = tmp_path / f"{name}.csv"
            write_grouped_csv(GroupedDataset({g: groups[g] for g in keys}), src)
            out = tmp_path / name
            rc = run_cli("pipeline", "--input", str(src), "--out-dir", str(out), "--format", fmt)
            files = _tree(out)
            for manifest in {"manifest.txt", "manifest.json"} & set(files):
                lines = files[manifest].decode().splitlines()
                files[manifest] = [line for line in lines if str(src) not in line]
            files["sk_points.csv"] = sorted(files["sk_points.csv"].splitlines())
            if fmt == "json":
                points = json.loads(files.pop("sk_points.json"))
                files["sk_points"] = sorted(map(repr, points.pop("points"))), points
                pooled = json.loads(files.pop("pooled_stats.json"))
                files["pooled_stats"] = {k: pytest.approx(v, rel=1e-12) for k, v in pooled.items()}
            runs.append((rc, capsys.readouterr().err, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 3 and f"beta_moments_k.{'txt' if fmt == 'csv' else 'json'}" in runs[0][2]

    @staticmethod
    def cells(path):
        """``(field, value)`` pairs of one output file, a value a number or else
        its text: CSV cells by column, JSON leaves by key path (``.points[].k``),
        and the numbers in any other line or string by the text with its
        numbers masked."""
        def numbers(at, text):
            masked = at + NUMBER.sub("#", text)
            return [(masked, float(v)) for v in NUMBER.findall(text)] or [(masked, "")]

        def leaves(value, at):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from leaves(item, f"{at}.{key}")
            elif isinstance(value, list):
                for item in value:
                    yield from leaves(item, at + "[]")
            else:
                yield from numbers(at + ": ", value) if isinstance(value, str) else [(at, value)]

        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            return list(leaves(json.loads(text), ""))
        cells, rows = [], []
        for line in text.splitlines():
            if path.suffix == ".csv" and not line.startswith("#"):
                rows.append(line)
            else:
                cells += numbers("", line)
        if rows:
            header, *body = csv.reader(rows)
            for row in body:
                for column, cell in zip(header, row, strict=True):
                    cells.append((column, float(cell) if NUMBER.fullmatch(cell) else cell))
        return cells

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("relation", ["reversed", "repeated"])
    def test_pipeline_files_do_not_see_row_order_or_repeats(self, tmp_path, monkeypatch, capsys, fmt, relation):
        """Each group's rows reversed, or its values repeated twice, leave the
        population S and K as they are: every number of every file agrees
        within 1e-12 relative, fitted values and residuals within 1e-12 of the
        file's largest data value (its K, or a rank series' values).  Under
        repeats the group sizes ``n`` are exactly
        doubled and the pooled files (sums over every value) are left out."""
        groups = synthetic_grouped_dataset(seed=3).groups
        change = {"reversed": lambda v: v[::-1], "repeated": lambda v: np.tile(v, 2)}[relation]
        runs = {}
        for name, data in (("file", groups), (relation, {g: change(np.asarray(v)) for g, v in groups.items()})):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # relative paths: the manifests' source lines agree
            write_grouped_csv(GroupedDataset(data), "in.csv")
            rc = run_cli("pipeline", "--input", "in.csv", "--out-dir", "out", "--format", fmt)
            runs[name] = rc, capsys.readouterr().err, sorted(p.name for p in Path("out").iterdir())
        assert runs["file"] == runs[relation] and runs["file"][0] == 3
        doubled = {"n", ".points[].n", ".skipped[].n"} if relation == "repeated" else set()
        for name in runs["file"][2]:
            if relation == "repeated" and name.startswith("pooled_"):
                continue
            base, other = (self.cells(tmp_path / run / "out" / name) for run in ("file", relation))
            assert [f for f, _ in base] == [f for f, _ in other], name
            top = max((abs(v) for f, v in base if f in ("k", ".points[].k", "value")), default=0.0)
            for (field, x), (_, y) in zip(base, other):
                if field in doubled:
                    assert y == 2 * x, (name, field)
                elif isinstance(x, (str, bool, type(None))):
                    assert x == y, (name, field)
                elif field in ("fitted", "residual", ".residuals[]"):
                    assert abs(x - y) <= 1e-12 * top, (name, field, x, y)
                else:
                    assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (name, field, x, y)

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

    def test_json_object_that_json_cannot_write_raises(self, tmp_path, monkeypatch):
        """A value that ``_jsonable`` leaves alone and ``json`` cannot write (a
        numpy integer) raises ``TypeError`` under ``--format json`` and writes
        no file; it is not written as its ``str``."""
        pooled_stats = cli._pooled_stats

        def pooled(values):
            result, files, _ = pooled_stats(values)
            return result, files, {"pooled_stats.json": {"n": np.int64(len(values))}}

        monkeypatch.setattr(cli, "_pooled_stats", pooled)
        argv = ("pipeline", "--synthetic", "--seed", "0", "--out-dir")
        assert run_cli(*argv, str(tmp_path / "csv")) == 0
        out = tmp_path / "json"
        with pytest.raises(TypeError, match="int64"):
            run_cli(*argv, str(out), "--format", "json")
        assert not out.exists()

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


def _no_fork():
    return mock.patch.object(os, "fork", side_effect=AssertionError("forked"))


class TestSerialSections:
    """``pipeline`` runs every section in the caller's process, one after the
    other, in manifest order."""

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
    def pipeline(tmp_path, capsys, src, *flags):
        """(exit code, stderr, files) of a ``pipeline`` run that may not fork."""
        out = tmp_path / "out"
        with _no_fork():
            rc = run_cli("pipeline", "--input", str(src), "--out-dir", str(out), *flags)
        return rc, capsys.readouterr().err, _tree(out) if out.exists() else {}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_skipped_section_exit_3(self, tmp_path, capsys, skewed, fmt):
        rc, _, files = self.pipeline(tmp_path, capsys, skewed, "--format", fmt)
        assert rc == 3
        manifest = files["manifest.txt"].decode()
        assert "  rank_s: skipped: rank fit requires positive values" in manifest
        assert "  beta_rank_s: skipped: lav4 fit unavailable\n" in manifest

    def test_internal_check_error_in_a_cdf_exits_5(self, tmp_path, capsys, monkeypatch, src):
        def fail(params, n_points=512):
            raise InternalCheckError("continued fraction did not converge")

        monkeypatch.setattr(betadist, "cdf_curve_csv", fail)
        rc, err, files = self.pipeline(tmp_path, capsys, src)
        assert (rc, err) == (5, "internal error: continued fraction did not converge\n")
        assert {"fit_power.txt", "rank_s.txt", "rank_k_series.csv"} <= set(files)
        assert "beta_moments_s.txt" not in files and "manifest.txt" not in files

    def test_pooled_stats_first_and_simulate_last_in_the_callers_process(
        self, tmp_path, capsys, monkeypatch, src
    ):
        pids = {}

        def spy(name, section):
            def logged(*inputs):
                pids[name] = os.getpid()
                return section(*inputs)

            return logged

        for name in ("pooled_stats", "simulate"):
            monkeypatch.setattr(cli, f"_{name}", spy(name, getattr(cli, f"_{name}")))
        rc, _, files = self.pipeline(tmp_path, capsys, src, "--simulate")
        assert rc == 0
        assert pids == {"pooled_stats": os.getpid(), "simulate": os.getpid()}
        lines = files["manifest.txt"].decode().splitlines()
        names = [line.split(":")[0].strip() for line in lines if line.startswith("  ") and line[2] != " "]
        assert names[0] == "pooled_stats" and names[-1] == "simulate"

    def test_pooled_overflow_raises_before_any_file(self, tmp_path, src):
        """The pooled variance of values near 1e200 overflows in the first
        section, so the call raises and leaves no out-dir."""
        huge = tmp_path / "huge.csv"
        lines = src.read_text().splitlines()
        rows = (line.rsplit(",", 1) for line in lines[1:])
        huge.write_text(lines[0] + "\n" + "".join(f"{k},{float(v) * 1e200!r}\n" for k, v in rows))
        out = tmp_path / "out"
        with _no_fork(), pytest.raises(OverflowError, match="variance"):
            run_cli("pipeline", "--input", str(huge), "--out-dir", str(out))
        assert not out.exists()

    def test_many_groups_never_fork(self, tmp_path, capsys):
        """2400 groups of 30-60 values, under the 8 MiB from which the parse forks."""
        rng = np.random.default_rng(2)
        groups = {f"M{g:04d}": rng.lognormal(10.0, 1.2, rng.integers(30, 61)) for g in range(2400)}
        src = tmp_path / "many_groups.csv"
        write_grouped_csv(GroupedDataset(groups, "value"), src)
        assert src.stat().st_size < 8 << 20
        rc, err, files = self.pipeline(tmp_path, capsys, src)
        assert (rc, err) == (0, "")
        assert files["sk_points.csv"].decode().count("\n") == 2401
