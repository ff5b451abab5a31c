"""skbeta benchmark: run one workload for a set time and print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload microdata --seed 1 --seconds 30 --trace 0

The run generates its inputs from ``--seed`` (untimed), then starts fresh
single-process Python children one after another (a closed loop, no
threads).  Each child imports ``skbeta`` cold and makes every CLI call of
one workload run through ``skbeta.cli.main``; every call's outputs are
checked.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced children, prints the end-to-end metrics as
well, and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# Single-threaded BLAS in every process; the machine may have few cores.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "items/s",
    "call_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "ingest.bytes": "bytes",
    "ingest.rows_per_s": "rows/s",
    "ingest.self_s": "s",
    "moments.summarize_s": "s",
    "moments.group_sk_points_s": "s",
    "moments.shape_moments_calls": "count",
    "moments.groups": "count",
    "moments.max_rel_err": "ratio",
    "moments.self_s": "s",
    "ksfit.fit_s": "s",
    "ksfit.render_s": "s",
    "ksfit.points": "count",
    "ksfit.self_s": "s",
    "ranksize.fit_s": "s",
    "ranksize.render_s": "s",
    "ranksize.points": "count",
    "ranksize.converged_ratio": "ratio",
    "ranksize.self_s": "s",
    "betadist.calibrate_s": "s",
    "betadist.cdf_s": "s",
    "betadist.cdf_points": "count",
    "betadist.self_s": "s",
    "urnsim.run_s": "s",
    "urnsim.steps": "count",
    "urnsim.steps_per_s": "steps/s",
    "urnsim.n_urns": "count",
    "urnsim.max_size": "count",
    "urnsim.limit_s": "s",
    "urnsim.pmf_evals": "count",
    "urnsim.tv": "ratio",
    "urnsim.self_s": "s",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "cli.main_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 10  # set-up-only children per run, besides the workload children
MIN_CHILDREN = 2  # so that every call is repeated at least once
HARD_LIMIT_S = 150.0  # start no child that could end after this


class Run:
    """One invocation: its work directory, child results and failures."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
        self.spans_path = root / ".bench_work" / f"spans-{workload}.jsonl"
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.t0 = time.perf_counter()

    def env(self) -> dict:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
        return env

    def child(self, calls: list[dict], trace: bool = False) -> dict | None:
        """Run one fresh child; returns its result with ``wall_s`` added."""
        n = len(self.children)
        spec_path = self.work / f"spec_{n}.json"
        result_path = self.work / f"result_{n}.json"
        spec = {"calls": calls, "trace": trace, "spans_path": str(self.spans_path)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(5.0, HARD_LIMIT_S + 20.0 - (time.perf_counter() - self.t0))
        cmd = [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)]
        t = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env(), cwd=self.root, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
            why = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
            ok = proc.returncode == 0 and result_path.is_file()
        except subprocess.TimeoutExpired:
            why, ok = f"child killed after {timeout:.0f} s", False
        lifetime = time.perf_counter() - t
        self.attempted += len(calls)
        if not ok:
            self.failed += len(calls)
            self.failures.append(why)
            self.children.append({"failed": True, "lifetime": lifetime})
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        expected = (self.root / "src" / "skbeta").resolve()
        if Path(result["skbeta_file"]).resolve().parent != expected:
            raise SystemExit(f"error: child imported {result['skbeta_file']}, not {expected}")
        result.update(trace=trace, lifetime=lifetime, wall_s=lifetime - result["overhead_s"])
        for i, call in enumerate(result["calls"]):
            first = self.first_digest.setdefault(i, call["digest"])
            if call["digest"] != first:
                call["problems"].append("--out-dir differs from the first run of this call")
            if call["problems"]:
                self.failed += 1
                self.failures.append(f"call {i}: " + "; ".join(call["problems"]))
        self.children.append(result)
        return result


def measure(run: Run, calls: list[dict], seconds: float, trace: bool) -> None:
    """Closed loop of workload children until ``seconds`` are used up."""
    run.child([])  # untimed warm-up: byte-compiles the sources once
    run.children.pop()
    for _ in range(SETUP_PROBES):
        run.child([])
    start = time.perf_counter()
    lifetimes = []
    counts = {False: 0, True: 0}
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            enough = counts[False] >= 1 and counts[True] >= 1
        else:
            enough = counts[False] >= MIN_CHILDREN
        typical = statistics.median(lifetimes) if lifetimes else 0.0
        if enough and elapsed + typical > seconds:
            break
        if time.perf_counter() - run.t0 + typical > HARD_LIMIT_S:
            break
        traced = trace and counts[True] < counts[False]
        run.child(calls, trace=traced)
        lifetimes.append(run.children[-1]["lifetime"])
        counts[traced] += 1


def _deciles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 9
    return statistics.quantiles(values, n=10, method="inclusive")


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest value.

    A shared host can switch between a fast and a slower CPU state, so that
    short timings are bimodal.  A median of them jumps from one mode to the
    other when the share of slow samples crosses one half; a mean moves in
    proportion to that share.  ``wall_s`` is a plain mean for that reason.
    """
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1] if len(ordered) > 2 else ordered)


def end_to_end(run: Run, work: int) -> dict[str, float]:
    good = [c for c in run.children if not c.get("failed")]
    timed = [c for c in good if c["calls"] and not c["trace"]]
    if not timed:
        raise SystemExit("error: no workload child completed; no metrics")
    call_s = [x["seconds"] for c in timed for x in c["calls"]]
    return {
        "wall_s": statistics.mean(c["wall_s"] for c in timed),
        "setup_s": _trimmed_mean([c["setup_s"] for c in good]),
        "work_per_s": work * len(timed) / sum(call_s),
        "call_p90_s": _deciles(call_s)[8],
        "peak_rss_mb": statistics.median(c["maxrss_mb"] for c in timed),
    }


def per_layer(run: Run, e2e: dict[str, float]) -> dict[str, float]:
    traced = [c for c in run.children if not c.get("failed") and c["trace"]]
    if not traced:
        raise SystemExit("error: no traced child completed; no metrics")
    rows = []
    for c in traced:
        layers = dict(c["layers"])
        layers["cli.files_written"] = sum(x["files"] for x in c["calls"])
        layers["cli.bytes_written"] = sum(x["bytes"] for x in c["calls"])
        layers["moments.max_rel_err"] = max(x["max_rel_err"] for x in c["calls"])
        layers["trace.wall_s"] = c["wall_s"]
        rows.append(layers)
    out = {k: statistics.median(r.get(k, 0.0) for r in rows) for k in PER_LAYER}
    out["trace.overhead_s"] = out["trace.wall_s"] - e2e["wall_s"]
    return out


def environment(root: Path) -> dict[str, str]:
    import numpy

    env = {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": _cpu_model(),
        "blas_threads": str(BLAS_THREADS),
    }
    env.update(_cache_sizes())
    return env


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src = root / "src"
    if not (src / "skbeta" / "__init__.py").is_file():
        print(f"error: no skbeta sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    run = Run(root, args.workload, args.seed)
    run.work.mkdir(parents=True)
    try:
        t = time.perf_counter()
        inputs = workloads.WORKLOADS[args.workload](args.seed, run.work)
        gen_s = time.perf_counter() - t
        measure(run, inputs.calls, args.seconds, bool(args.trace))
        e2e = end_to_end(run, inputs.work)
        metrics = per_layer(run, e2e) if args.trace else e2e
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    env = environment(root)
    caches = ", ".join(f"{k} {v}" for k, v in env.items() if k.startswith("L"))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(
        f"# inputs files={inputs.files} rows={inputs.rows} groups={inputs.groups} "
        f"bytes={inputs.bytes} ({inputs.bytes / 1e6:.1f} MB against caches {caches}) "
        f"work_per_run={inputs.work} generate_s={gen_s:.3f}"
    )
    kids = [c for c in run.children if c.get("calls")]
    failed = run.failed
    print(
        f"# children={len(kids)} (+{SETUP_PROBES} set-up probes) attempted={run.attempted} "
        f"failed={failed} failed_ratio={failed / max(run.attempted, 1):.6g}"
    )
    call_s = [x["seconds"] for c in kids if not c["trace"] for x in c["calls"]]
    deciles = _deciles(call_s)
    print(f"# call latency over {len(call_s)} untraced calls: p50={deciles[4]!r} s p90={deciles[8]!r} s")
    walls = " ".join(f"{c['wall_s']:.3f}" + "T" * c["trace"] for c in kids)
    print(f"# child wall_s: {walls}")
    for why in run.failures[:20]:
        print(f"# FAILED {why}")
    for name, value in e2e.items():
        print(f"metric {name} {value!r} {END_TO_END[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"metric {name} {value!r} {PER_LAYER[name]}")
        selfs = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"# layer self times sum to {selfs!r} s of {metrics['cli.main_s']!r} s in cli.main")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
