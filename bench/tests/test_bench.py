"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from skbeta.synthetic import synthetic_grouped_dataset  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def _inputs(builder, seed, work: Path):
    work.mkdir()
    inputs = builder(seed, work)
    calls = json.loads(json.dumps(inputs.calls).replace(str(work), "<work>"))
    return _tree(work), calls, (inputs.rows, inputs.groups, inputs.bytes, inputs.work)


@pytest.mark.parametrize("name", ["microdata", "paper_sweep", "urn_sweep"])
def test_same_seed_gives_identical_inputs(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_FILES", 3)
    builder = workloads.WORKLOADS[name]
    first = _inputs(builder, 7, tmp_path / "a")
    assert first == _inputs(builder, 7, tmp_path / "b")
    assert first[1] != _inputs(builder, 8, tmp_path / "c")[1]


def test_microdata_scale(tmp_path):
    inputs = workloads.microdata(3, tmp_path)
    assert inputs.groups == 8000
    assert 0.95e6 < inputs.rows < 1.05e6


def _child(tmp_path: Path, calls, trace=False) -> dict:
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    spans_path = tmp_path / "spans.jsonl"
    spec.write_text(json.dumps({"calls": calls, "trace": trace, "spans_path": str(spans_path)}))
    env = run.Run(ROOT, "test", 0).env()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec), str(result)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    if trace:
        out["spans"] = [json.loads(line) for line in spans_path.read_text().splitlines()]
    return out


def _paper_call(tmp_path: Path, seed: int = 5) -> dict:
    dataset = synthetic_grouped_dataset(seed=seed)
    return workloads._pipeline_call(dataset, tmp_path / "in.csv", tmp_path / "out", seed, 4)


def test_traced_spans_nest_and_self_times_are_nonnegative(tmp_path):
    out = _child(tmp_path, [_paper_call(tmp_path)], trace=True)
    assert out["calls"][0]["problems"] == []
    tree = out["spans"]
    assert tree[0][0] == spans.ROOT and tree[0][3] == -1
    for i, (name, start, end, parent, call) in enumerate(tree):
        assert start <= end and call == 0
        if parent >= 0:
            assert parent < i
            assert tree[parent][1] <= start and end <= tree[parent][2]
    assert all(t >= 0.0 for t in spans.self_times(tree))
    layers = out["layers"]
    selfs = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert selfs == pytest.approx(layers["cli.main_s"], rel=1e-9)
    for layer in spans.LAYERS:
        assert layers[f"{layer}.self_s"] > 0.0 or layer == "urnsim"
    assert layers["moments.groups"] == 110
    assert layers["betadist.cdf_points"] > 0


def test_self_time_subtracts_the_children():
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["moments.summarize", 1.0, 4.0, 0, 0],
        ["moments.shape_moments", 2.0, 3.0, 1, 0],
        ["ksfit.fit_power", 5.0, 9.0, 0, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    layers = spans.layer_metrics(tree, [])
    assert layers["moments.self_s"] == 3.0
    assert layers["moments.summarize_s"] == 3.0
    assert layers["cli.main_s"] == 10.0


def test_malformed_input_is_a_failed_call_not_a_crash(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("province,city,value\nA,a1,1\nA,a2,not-a-number\n")
    huge = tmp_path / "huge.csv"
    huge.write_text("province,city,value\n" + "".join(f"A,a{i},{i}e200\n" for i in range(1, 6)))
    good = _paper_call(tmp_path)
    calls = []
    for i, path in enumerate((bad, huge)):
        out = tmp_path / f"out{i}"
        calls.append(dict(good, argv=["pipeline", "--input", str(path), "--out-dir", str(out)],
                          out_dir=str(out)))
    calls.append(good)
    bench = run.Run(ROOT, "test", 0)
    bench.work = tmp_path
    result = bench.child(calls)
    problems = [c["problems"] for c in result["calls"]]
    assert problems[0] and problems[1] and problems[2] == []
    assert any("OverflowError" in p for p in problems[1])
    assert (bench.attempted, bench.failed) == (3, 2)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(spans.TIME_GROUPS) <= set(layers)
