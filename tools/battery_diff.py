"""Compare two ``tools/cli_battery.py`` out-dirs field by field.

Usage: python tools/battery_diff.py PARENT CHANGE

Prints the files that exist on one side only, every ``exit_code`` and
``stderr`` that differs, and, per field, the largest relative change
|a - b| / max(|a|, |b|) with the file where it occurs.  A field is a
``key:`` line of a ``.txt`` file, a JSON leaf (list indices kept) or a CSV
column, named after the file's base name (``rank_k.txt:se_xi``), so one
field gathers the same file kind across all calls.  Any difference that is
not a change of one finite number into another (a changed word, a new row
or key, a number that turned inf or nan, a file of another kind) is
printed as it is.  Exit code 0 if the out-dirs are byte-identical, else 1.
Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def number(text):
    """``text`` as a finite float, or None."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


class Report:
    def __init__(self):
        self.largest: dict[str, tuple[float, str]] = {}
        self.other: list[str] = []

    def pair(self, field: str, where: str, a, b) -> None:
        """Record one field's values on the two sides."""
        if a == b:
            return
        x, y = number(a), number(b)
        if x is None or y is None or isinstance(a, bool) or isinstance(b, bool):
            self.other.append(f"{where}: {field}: {a!r} -> {b!r}")
            return
        rel = abs(x - y) / max(abs(x), abs(y))
        if rel > self.largest.get(field, (-1.0, ""))[0]:
            self.largest[field] = (rel, where)


def txt_fields(text: str):
    for i, line in enumerate(text.splitlines(), start=1):
        key, sep, value = line.partition(": ")
        yield (key, value.strip(), "") if sep else (f"line {i}", line, "")


def json_fields(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_fields(item, f"{path}[{i}]")
    else:
        yield path, value, ""


def csv_fields(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    for i, row in enumerate(rows[1:], start=2):
        for j, cell in enumerate(row):
            yield (header[j] if j < len(header) else f"column {j + 1}"), cell, f" row {i}"


READERS = {
    ".txt": txt_fields,
    ".csv": csv_fields,
    ".json": lambda text: json_fields(json.loads(text)),
}


def compare(report: Report, rel: str, a: bytes, b: bytes) -> None:
    path = Path(rel)
    if path.name in ("exit_code", "stderr"):
        report.other.append(f"{rel}:\n  parent: {a.decode()!r}\n  change: {b.decode()!r}")
        return
    try:
        read = READERS[path.suffix]
        fa, fb = list(read(a.decode())), list(read(b.decode()))
    except KeyError:
        report.other.append(f"{rel}: differs (no field reader for {path.suffix or 'this file'})")
        return
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        report.other.append(f"{rel}: differs ({exc})")
        return
    if [(f, at) for f, _, at in fa] != [(f, at) for f, _, at in fb]:
        report.other.append(f"{rel}: the fields or rows differ ({len(fa)} -> {len(fb)} values)")
    elif all(va == vb for (_, va, _), (_, vb, _) in zip(fa, fb)):
        report.other.append(f"{rel}: differs in layout only")
    else:
        for (field, va, at), (_, vb, _) in zip(fa, fb):
            report.pair(f"{path.name}:{field}", rel + at, va, vb)


def files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (files(Path(a)) for a in argv)
    report = Report()
    for side, only in (("parent", parent.keys() - change.keys()), ("change", change.keys() - parent.keys())):
        for rel in sorted(only):
            report.other.append(f"only in {side}: {rel}")
    same = 0
    for rel in sorted(parent.keys() & change.keys()):
        a, b = parent[rel].read_bytes(), change[rel].read_bytes()
        if a == b:
            same += 1
        else:
            compare(report, rel, a, b)
    print(f"{same} of {len(parent.keys() | change.keys())} files byte-identical")
    if report.largest:
        print("largest relative change per field:")
        for field, (rel, where) in sorted(report.largest.items(), key=lambda kv: -kv[1][0]):
            print(f"  {rel:.3g}  {field}  ({where})")
    for line in report.other:
        print(line)
    return 0 if same == len(parent.keys() | change.keys()) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
