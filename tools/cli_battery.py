"""Run a fixed battery of skbeta CLI calls and keep everything they leave.

Usage: python tools/cli_battery.py OUTDIR [SRC]

SRC is the ``src`` directory of the checkout to run (default: the one next
to this script), so one copy of this script can drive an older checkout too.
Each of the 38 calls runs ``python -m skbeta.cli`` with OUTDIR as its working
directory and relative paths only, once with ``--format csv`` and once with
``--format json``; call NAME in format FMT writes into OUTDIR/NAME-FMT, and
its exit code and stderr go to the files ``exit_code`` and ``stderr`` there.
The inputs are made first, under OUTDIR/inputs: a seeded microdata file,
a seeded ~9.6 MB one with interleaved provinces (large enough that
``parse_city_csv`` parses it in forked parts on a host with 2 or more
usable CPUs), the same file with CRLF line ends, the same file with
every province key quoted and the same file with only its header quoted,
a seeded one whose province keys are not ASCII,
a small seeded one with a BOM and every field quoted (an escaped quote, a
quoted delimiter and a quoted line break among them, a blank line and a
lone CR), a seeded one with 2400 groups (enough S/K points that
``pipeline`` runs its rank-size and Beta sections in a forked child on such
a host), the all-equal tiny file, the bundled province table, the S/K
points of ``pipeline --synthetic --seed 0`` and the same points with K
scaled by 1e-300 and 1e200.  Two checkouts' batteries compare with
``diff -r``.
Standard library only.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

POINTS = "inputs/synthetic/sk_points.csv"
FIXTURE = "inputs/province_summary.csv"

CALLS = {
    "pipeline_synthetic_0": ["pipeline", "--synthetic", "--seed", "0", "--simulate"],
    "pipeline_synthetic_3": ["pipeline", "--synthetic", "--seed", "3", "--simulate"],
    "pipeline_fixture": ["pipeline", "--input", FIXTURE, "--value-column", "ati_eur"],
    "pipeline_micro": ["pipeline", "--input", "inputs/micro.csv"],
    "pipeline_large": ["pipeline", "--input", "inputs/large.csv"],
    "pipeline_large_crlf": ["pipeline", "--input", "inputs/large_crlf.csv"],
    "pipeline_quoted": ["pipeline", "--input", "inputs/quoted.csv"],
    "pipeline_quoted_header": ["pipeline", "--input", "inputs/quoted_header.csv"],
    "pipeline_quoted_all": ["pipeline", "--input", "inputs/quoted_all.csv"],
    "pipeline_utf8_keys": ["pipeline", "--input", "inputs/utf8_keys.csv"],
    "pipeline_many_groups": ["pipeline", "--input", "inputs/many_groups.csv"],
    "pipeline_tiny": ["pipeline", "--input", "inputs/tiny.csv"],
    "pipeline_seed_negative": ["pipeline", "--synthetic", "--seed", "-1"],
    "stats_micro": ["stats", "--input", "inputs/micro.csv"],
    "stats_tiny": ["stats", "--input", "inputs/tiny.csv"],
    "fit_quadratic": ["fit", "--input", POINTS, "--model", "quadratic"],
    "fit_power": ["fit", "--input", POINTS, "--model", "power"],
    "fit_rank_lav5_s": ["fit", "--input", POINTS, "--model", "rank:lav5", "--target", "s"],
    "rank_fit_lav4_s": ["rank-fit", "--input", POINTS, "--target", "s"],
    "rank_fit_lav4_k": ["rank-fit", "--input", POINTS, "--target", "k"],
    "rank_fit_zipf_k": ["rank-fit", "--input", POINTS, "--target", "k", "--variant", "zipf"],
    "rank_fit_yule_simon_k": [
        "rank-fit", "--input", POINTS, "--target", "k", "--variant", "yule_simon",
    ],
    "rank_fit_lav3_k": ["rank-fit", "--input", POINTS, "--target", "k", "--variant", "lav3"],
    "rank_fit_ati": ["rank-fit", "--input", FIXTURE, "--value-column", "ati_eur"],
    "rank_fit_population": ["rank-fit", "--input", FIXTURE, "--value-column", "population"],
    "beta_calibrate": ["beta-calibrate", "--skew", "0.5656854249492381", "--kurt", "2.4"],
    "beta_calibrate_sub_unit": ["beta-calibrate", "--skew", "0.3", "--kurt", "1.7"],
    "beta_calibrate_near_normal": [
        "beta-calibrate", "--skew", "1.0950354976675177e-05", "--kurt", "2.9999882585658235",
    ],
    "beta_calibrate_negative_exponent": [
        "beta-calibrate", "--skew", "-1.0950354976675177e-05", "--kurt", "2.9999882585658235",
    ],
    "beta_calibrate_nan": ["beta-calibrate", "--skew", "nan", "--kurt", "3"],
    "simulate": ["simulate", "--steps", "200000", "--seed", "42"],
    "simulate_negative_shift": [
        "simulate", "--a-shift", "-0.5", "--steps", "50000", "--seed", "3", "--k-min", "5",
    ],
    "simulate_negative_exponent": ["simulate", "--a-shift", "-5e-1", "--steps", "100"],
    "fit_quadratic_k1e-300": ["fit", "--input", "inputs/k1e-300.csv", "--model", "quadratic"],
    "fit_power_k1e-300": ["fit", "--input", "inputs/k1e-300.csv", "--model", "power"],
    "fit_quadratic_k1e200": ["fit", "--input", "inputs/k1e200.csv", "--model", "quadratic"],
    "fit_power_k1e200": ["fit", "--input", "inputs/k1e200.csv", "--model", "power"],
    "rank_fit_lav4_k1e200": ["rank-fit", "--input", "inputs/k1e200.csv", "--target", "k"],
}


def cli(root: Path, src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "skbeta.cli", *args],
        cwd=root, env=env, capture_output=True, text=True,
    )


def make_inputs(root: Path, src: Path) -> None:
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    shutil.copy(src / "skbeta" / "data" / "province_summary.csv", root / FIXTURE)
    (inputs / "tiny.csv").write_text(
        "province,city,value\n" + "".join(f"AA,c{i},1e-310\n" for i in range(6))
    )
    rng = random.Random(0)
    rows = [
        f"P{g:02d},c{g}_{i},{rng.lognormvariate(10.0, 1.0)!r}\n"
        for g in range(12) for i in range(30 + 5 * g)
    ]
    (inputs / "micro.csv").write_text("province,city,value\n" + "".join(rows))
    # 40 provinces in random order, ten of them only in the second half
    rng = random.Random(1)
    rows = [
        f"L{rng.randrange(30 + 10 * (i >= 160_000)):02d},c{i},{rng.lognormvariate(10.0, 1.5)!r}\n"
        for i in range(320_000)
    ]
    (inputs / "large.csv").write_text("province,city,value\n" + "".join(rows))
    (inputs / "large_crlf.csv").write_text("province,city,value\n" + "".join(rows), newline="\r\n")
    quoted = "".join('"' + row.replace(",", '",', 1) for row in rows)
    (inputs / "quoted.csv").write_text("province,city,value\n" + quoted)
    (inputs / "quoted_header.csv").write_text('"province","city","value"\n' + "".join(rows))
    # every field quoted, the header too, after a BOM
    rng = random.Random(4)
    rows = [
        f'"Q{g:02d}","c{g}_{i}","{rng.lognormvariate(10.0, 1.0)!r}"'
        for g in range(12) for i in range(30 + 5 * g)
    ]
    rows[3] = rows[3].replace('"c0_3"', '"c0 ""3"""')
    rows[40] = rows[40].replace('"c1_10"', '"c1, 10"')
    rows[80] = rows[80].replace('"c2_15"', '"c2\n15"')
    rows[120] = ""
    text = '\ufeff"province","city","value"\n' + "\n".join(rows[:200]) + "\r" + "\n".join(rows[200:])
    (inputs / "quoted_all.csv").write_text(text + "\n", encoding="utf-8", newline="")
    # province keys of two-, three- and four-byte UTF-8 characters
    rng = random.Random(3)
    names = ["Forlì-Cesena", "Zé", "€x", "Bolzano/Bozen", "Vallée", "Ωμέγα", "𝔸b"]
    rows = [
        f"{name}{g},c{i},{rng.lognormvariate(10.0, 1.0)!r}\n"
        for g in range(3) for name in names for i in range(20 + rng.randrange(40))
    ]
    (inputs / "utf8_keys.csv").write_text("province,city,value\n" + "".join(rows), encoding="utf-8")
    # 2400 groups of 30-60 values: above the S/K point count from which
    # ``pipeline`` runs its rank-size and Beta sections in a forked child
    rng = random.Random(2)
    rows = [
        f"M{g:04d},c{i},{rng.lognormvariate(10.0, 1.2)!r}\n"
        for g in range(2400) for i in range(rng.randrange(30, 61))
    ]
    (inputs / "many_groups.csv").write_text("province,city,value\n" + "".join(rows))
    done = cli(root, src, ["pipeline", "--synthetic", "--seed", "0", "--out-dir", "inputs/synthetic"])
    if done.returncode != 0:
        raise SystemExit(f"making {POINTS} failed:\n{done.stderr}")
    header, *lines = (root / POINTS).read_text().splitlines()
    for label, scale in (("1e-300", 1e-300), ("1e200", 1e200)):
        scaled = []
        for line in lines:
            group, s, k, n = line.split(",")
            scaled.append(f"{group},{s},{float(k) * scale!r},{n}\n")
        (inputs / f"k{label}.csv").write_text(header + "\n" + "".join(scaled))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    src = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    if root.exists():
        raise SystemExit(f"{root} exists; give a new directory")
    make_inputs(root, src)
    for name, args in CALLS.items():
        for fmt in ("csv", "json"):
            out = f"{name}-{fmt}"
            done = cli(root, src, [*args, "--out-dir", out, "--format", fmt])
            (root / out).mkdir(exist_ok=True)
            (root / out / "exit_code").write_text(f"{done.returncode}\n")
            (root / out / "stderr").write_text(done.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
