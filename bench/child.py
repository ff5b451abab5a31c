"""One workload run in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

The spec lists CLI calls (argv and the checks that apply to each).  The
child imports ``skbeta.cli`` cold, times that as set-up, then makes the
calls one after another in this process, exactly as the ``skbeta``
command would.  After each call it checks the outputs, hashes and removes
the call's ``--out-dir``; that bookkeeping is timed apart as ``overhead_s``
so that the caller can take it out of the run's wall time.  With
``"trace": true`` it first wraps the layers' public functions (see
``spans.py``) and reports per-layer metrics.
"""

import sys
import time

T_SETUP = time.perf_counter()
import skbeta.cli as cli  # noqa: E402  (set-up is timed from here)

cli.build_parser()
SETUP_S = time.perf_counter() - T_SETUP

import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

# Reasons for which ``pipeline`` may skip a section, and so exit 3, on
# valid input: the domain errors that skbeta documents for data that a
# model cannot represent.  Any other reason fails the call.
DOMAIN_REASONS = re.compile(
    "|".join(
        (
            r"not requested$",
            r"help variable undefined: ",
            r"moment pair \(S, K\) = .* implies a \+ b = ",
            r"shape-product denominator ",
            r"shape product ab = ",
            r"negative discriminant ",
            r"selected root is not positive ",
            r"inversion did not close ",
            r"power fit requires S > 0",
            r"rank fit requires positive values",
            r"lav4 fit unavailable$",
        )
    )
)

# Relative bound of ``test_matches_brute_force_reference``; S is
# dimensionless, so its error is taken relative to max(|S|, 1).
SK_REL_TOL = 1e-10
TV_LIMIT = 0.02


def _rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1.0)


def _summary_fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def check_pipeline(rc, out: Path, expect: dict) -> tuple[list[str], float]:
    """Problems found in one ``pipeline`` call, and the worst S/K error."""
    problems = []
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    skips = re.findall(r"^  (\w+): skipped: (.*)$", manifest, re.M)
    bad = [f"{name}: {why}" for name, why in skips if not DOMAIN_REASONS.search(why)]
    if rc not in (0, 3) or bad or (rc == 3) != any(n != "simulate" for n, _ in skips):
        problems.append(f"exit {rc}, skipped sections {bad or [n for n, _ in skips]}")
    pooled = (out / "pooled_summary.txt").read_text(encoding="utf-8")
    n_p = re.search(r"^N_p\s+(\d+)\s*$", pooled, re.M)
    if n_p is None or int(n_p.group(1)) != expect["rows"]:
        problems.append(f"pooled N_p {n_p and n_p.group(1)} != {expect['rows']} rows")
    points = {}
    for line in (out / "sk_points.csv").read_text(encoding="utf-8").splitlines()[1:]:
        group, s, k, _ = line.split(",")
        points[group] = (float(s), float(k))
    worst = 0.0
    for group, ref in expect["sk_ref"].items():
        if group not in points:
            problems.append(f"group {group} missing from sk_points.csv")
            continue
        worst = max(worst, *(_rel_err(x, r) for x, r in zip(points[group], ref)))
    if worst > SK_REL_TOL:
        problems.append(f"S/K relative error {worst:.3g} > {SK_REL_TOL}")
    return problems, worst


def check_simulate(rc, out: Path, expect: dict) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    fields = _summary_fields((out / "sim_summary.txt").read_text(encoding="utf-8"))
    n_urns, balls = int(fields["n_urns"]), int(fields["total_balls"])
    want = expect["k0"] * n_urns + (expect["steps"] - n_urns + 1)
    problems = [] if balls == want else [f"total_balls {balls} != {want}"]
    tv = float(fields["tv_to_limit"])
    if not tv < TV_LIMIT:
        problems.append(f"TV distance {tv} >= {TV_LIMIT}")
    return problems


def digest_dir(out: Path) -> tuple[str, int, int]:
    """Hash of every file's relative path and bytes; file and byte counts."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
        files += 1
        nbytes += len(data)
    return h.hexdigest(), files, nbytes


def run_call(argv) -> tuple[object, str]:
    """Exit code of one CLI call; an escaped exception becomes an error name."""
    try:
        return cli.main(argv), ""
    except SystemExit as exc:
        return exc.code, "SystemExit"
    except Exception as exc:  # the run must go on: count it as a failed call
        return None, type(exc).__name__


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.Recorder()
        recorder.install(cli)
    calls, overhead = [], 0.0
    for i, call in enumerate(spec["calls"]):
        out = Path(call["out_dir"])
        if recorder is not None:
            recorder.call = i
        t = time.perf_counter()
        rc, error = run_call(call["argv"])
        seconds = time.perf_counter() - t
        t = time.perf_counter()
        problems, worst = ([f"raised {error}"] if error else []), 0.0
        if not error:
            try:
                if call["kind"] == "pipeline":
                    found, worst = check_pipeline(rc, out, call["expect"])
                else:
                    found = check_simulate(rc, out, call["expect"])
                problems += found
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"exit {rc}, outputs unreadable: {exc!r}")
        digest, files, nbytes = digest_dir(out) if out.is_dir() else ("", 0, 0)
        shutil.rmtree(out, ignore_errors=True)
        calls.append(
            {
                "seconds": seconds,
                "problems": problems,
                "digest": digest,
                "files": files,
                "bytes": nbytes,
                "max_rel_err": worst,
            }
        )
        overhead += time.perf_counter() - t
    t = time.perf_counter()
    result = {
        "setup_s": SETUP_S,
        "skbeta_file": cli.__file__,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans, recorder.counts)
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w", encoding="utf-8") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")
    result["overhead_s"] = overhead + (time.perf_counter() - t)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
