"""Ingestion of delimited city-level data and the bundled province summary.

Microdata schema: header ``province,city,value`` (comma default, tab
accepted), UTF-8 with or without a BOM, decimal-point numerals; values are
finite and nonnegative.  Province fixture schema:
``province,ati_eur,population,n_cities`` with ATI in absolute EUR.  Every
delimited file, the ``group,s,k[,n]`` point files and single value columns
included, is read by ``_read_rows``; numbers in them must be finite.
``parse_city_csv`` first tries a columnar fast path on plain files and
falls back to ``_read_rows`` for anything else.  A plain file of at least
two ``_FORK_MIN_CHARS`` of body is parsed in up to ``_MAX_PARTS`` parts at
once, one per usable CPU, in ``os.fork`` children started by the package's
one fork helper, ``_fork.in_parts``; the dataset has the same bytes as a
parse in one part.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from ._fork import in_parts, usable_cpus
from .errors import EmptyInputError, IntegrityError, ParseError, SchemaError
from .moments import GroupedDataset, SKPoint

__all__ = [
    "CityRecord",
    "GroupedDataset",
    "ProvinceSummaryRow",
    "read_text",
    "parse_city_csv",
    "read_sk_points",
    "read_value_column",
    "write_grouped_csv",
    "load_province_summary",
    "load_bundled_province_summary",
    "bundled_fixture_path",
    "EXPECTED_PROVINCE_ROWS",
]

EXPECTED_PROVINCE_ROWS = 110

_ROLES = ("province", "city", "value")


@dataclass(frozen=True)
class CityRecord:
    province_code: str
    city_name: str
    value: float

    def __post_init__(self):
        if not self.province_code:
            raise ValueError("province_code must be nonempty")
        if not 0.0 <= self.value < math.inf:  # nan fails it too
            raise ValueError(f"value must be nonnegative and finite, got {self.value}")


@dataclass(frozen=True)
class ProvinceSummaryRow:
    province_code: str
    ati_total: float
    n_inhab: int
    n_cities: int

    def __post_init__(self):
        if self.n_cities < 1:
            raise ValueError(f"n_cities must be >= 1, got {self.n_cities}")
        if self.n_inhab < 1:
            raise ValueError(f"n_inhab must be >= 1, got {self.n_inhab}")


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line and "," not in header_line else ","


def read_text(path) -> str:
    """The UTF-8 text of a file, less a leading BOM; a missing, unreadable or
    non-UTF-8 file is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc


def _read_rows(
    path, text: str | None = None
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header, and an iterator over ``(line number, cells)`` of
    the later rows, parsed as they are consumed.  All-blank rows are skipped;
    line numbers count every physical line, blank ones included.  ``text``
    is the file's text where the caller has read it already.
    """
    lines = (read_text(path) if text is None else text).splitlines()
    reader = csv.reader(lines, delimiter=_detect_delimiter(lines[0] if lines else ""))
    rows = ((reader.line_num, row) for row in reader if any(cell.strip() for cell in row))
    first = next(rows, None)
    if first is None:
        raise EmptyInputError(f"{path}: file is empty")
    return [h.strip() for h in first[1]], rows


def _columns(path, header: list[str], names) -> list[int]:
    for name in names:
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r} in header {header}")
    return [header.index(name) for name in names]


def _records(path, body, make) -> list:
    """``make(cells)`` for each row; a bad or short row is a line-numbered ParseError."""
    out = []
    for lineno, row in body:
        try:
            out.append(make(row))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _city_columns(
    header: list[str], column_map: Mapping[str, str] | None
) -> tuple[dict[str, int], str]:
    """Header index of each mapped role, and the value column's name; a bad
    role or a missing column is a SchemaError."""
    if column_map is None:
        column_map = {role: role for role in _ROLES}
    role_to_name = {}
    for name, role in column_map.items():
        if role not in _ROLES:
            raise SchemaError(f"unknown column role {role!r} for column {name!r}")
        role_to_name[role] = name
    for role in ("province", "value"):
        if role not in role_to_name:
            raise SchemaError(f"column_map does not assign a column to role {role!r}")
    indices = {}
    for role, name in role_to_name.items():
        if name not in header:
            raise SchemaError(f"missing column {name!r} (role {role!r}) in header {header}")
        indices[role] = header.index(name)
    return indices, role_to_name["value"]


def parse_city_csv(path, column_map: Mapping[str, str] | None = None) -> GroupedDataset:
    """Group city-level values by province code.

    ``column_map`` maps file column names to the roles ``province``,
    ``city`` and ``value``; by default the roles double as column names.
    The ``city`` role is informative only and may be left unmapped, in
    which case city names are synthesized from the line number.

    A plain file is read column-wise (see ``_columnar``); any other text,
    and any text that fails a check there, goes through ``_parse_rows``,
    which gives the same dataset or a line-numbered error.
    """
    text = read_text(path)
    dataset = _columnar(text, column_map)
    return dataset if dataset is not None else _parse_rows(path, text, column_map)


# Characters that only ``_read_rows`` reads right: the quote, NUL (which
# ``csv`` rejects before Python 3.11), and every line break of
# ``str.splitlines`` but "\n" (``read_text`` has made "\r\n" and "\r" "\n").
_NOT_PLAIN = ('"', "\0", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# A chunk's copies stay in L2; 1 MB chunks parsed slower and peaked higher.
_CHUNK_CHARS = 1 << 16
# Body characters per forked part: starting a child costs ~8-17 ms, and a
# ~4.3 MB body parsed no faster in two parts than in one (2-vCPU host).
_FORK_MIN_CHARS = 4 << 20
_MAX_PARTS = 4


def _columnar(text: str, column_map: Mapping[str, str] | None) -> GroupedDataset | None:
    """The dataset of a plain file, or None where ``_parse_rows`` must decide.

    Plain means: no character of ``_NOT_PLAIN`` (checked on the whole text
    first), a nonblank first line as the header, every later line with
    exactly the header's number of cells, province cells nonempty and
    already stripped, and values that ``float`` reads as finite and
    nonnegative.  The body is cut at line breaks into one part per usable
    CPU (up to ``_MAX_PARTS``, each of at least ``_FORK_MIN_CHARS``), all but
    the first parsed in forked children by ``_fork.in_parts``; each part
    fills its own slice of the arrays, 64K characters at a time.
    """
    stop = len(text)  # trailing blank lines are skipped, as ``_read_rows`` does
    while stop and text[stop - 1] == "\n":
        stop -= 1
    pos = text.find("\n") + 1
    if not 0 < pos < stop or any(c in text for c in _NOT_PLAIN):
        return None
    head = text[: pos - 1]
    delim = _detect_delimiter(head)
    header = [h.strip() for h in head.split(delim)]
    if not any(header):
        return None
    try:
        columns, label = _city_columns(header, column_map)
    except SchemaError:
        return None
    layout = delim, len(header), columns["province"], columns["value"]
    n_parts = max(1, min(usable_cpus(), _MAX_PARTS, (stop - pos) // _FORK_MIN_CHARS))
    cuts = [pos]
    for i in range(1, n_parts):
        cut = text.find("\n", pos + (stop - pos) * i // n_parts, stop) + 1
        if cut > cuts[-1]:
            cuts.append(cut)
    cuts.append(stop)
    rows = [0]
    for start, end in zip(cuts, cuts[1:]):
        rows.append(rows[-1] + text.count("\n", start, end))
    rows[-1] += 1  # the last line has no line break left
    group = np.empty(rows[-1], np.int64)
    values = np.empty(rows[-1])
    slices = [(group[lo:hi], values[lo:hi]) for lo, hi in zip(rows, rows[1:])]
    keys = in_parts(
        lambda i: _runs(text, cuts[i], cuts[i + 1], layout, *slices[i]), len(slices), arrays=slices
    )
    if None in keys:  # a part is not plain
        return None
    codes: dict[str, int] = {}
    for (part, _), part_keys in zip(slices, keys):  # part codes -> first-appearance codes
        remap = np.array([codes.setdefault(key, len(codes)) for key in part_keys])
        if not np.array_equal(remap, np.arange(len(remap))):
            part[:] = remap[part]
    if not ((values >= 0.0) & (values < np.inf)).all():  # nan fails it too
        return None
    if (group[1:] < group[:-1]).any():
        values = values[np.argsort(group, kind="stable")]
    counts = np.bincount(group, minlength=len(codes))
    return GroupedDataset(keys=tuple(codes), counts=counts, values=values, value_label=label)


def _runs(text: str, start: int, end: int, layout, group, values) -> list[str] | None:
    """Parse the lines of ``text[start:end]`` into ``group`` and ``values``.

    ``group`` gets codes in the order of first appearance in this part.
    Returns the keys in that order, or None where the text is not plain.
    """
    delim, width, p, v = layout
    codes: dict[str, int] = {}
    row = 0
    while start < end:
        cut = text.find("\n", start + _CHUNK_CHARS, end)
        cut = end if cut < 0 else cut + 1
        chunk = text[start:cut].removesuffix("\n")
        start = cut
        if not _cells_per_line(chunk, delim, width):
            return None
        cells = chunk.replace("\n", delim).split(delim)
        provinces = cells[p::width]
        for key in dict.fromkeys(provinces):
            if key not in codes:
                if not key or key != key.strip():
                    return None
                codes[key] = len(codes)
        n = len(provinces)
        group[row : row + n] = np.fromiter(map(codes.__getitem__, provinces), np.int64, n)
        try:
            values[row : row + n] = np.fromiter(map(float, cells[v::width]), float, n)
        except ValueError:
            return None
        row += n
    return list(codes)


def _cells_per_line(chunk: str, delim: str, width: int) -> bool:
    """Whether every line of ``chunk`` has exactly ``width`` cells.

    Holds when there are ``width - 1`` delimiters per line in all and, line
    by line, the first delimiter of each line follows the line break before
    it and the last one precedes the break after it.
    """
    raw = np.frombuffer(chunk.encode(), np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    delims = np.flatnonzero(raw == ord(delim))
    k = width - 1
    return (
        len(delims) == (len(breaks) + 1) * k
        and bool((delims[k::k] > breaks).all())
        and bool((delims[k - 1 : -1 : k] < breaks).all())
    )


def _parse_rows(path, text: str, column_map: Mapping[str, str] | None) -> GroupedDataset:
    """``parse_city_csv`` row by row through ``_read_rows``."""
    header, body = _read_rows(path, text)
    indices, label = _city_columns(header, column_map)
    groups: dict[str, list[float]] = {}
    needed = max(indices.values())
    city_idx = indices.get("city")
    for lineno, row in body:
        if len(row) <= needed:
            raise ParseError(f"{path}: line {lineno}: expected {needed + 1} columns, got {len(row)}")
        province = row[indices["province"]].strip()
        raw = row[indices["value"]].strip()
        try:
            value = float(raw)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: non-numeric value {raw!r}") from exc
        city = row[city_idx].strip() if city_idx is not None else f"row{lineno}"
        try:
            record = CityRecord(province, city, value)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        groups.setdefault(record.province_code, []).append(record.value)
    if not groups:
        raise EmptyInputError(f"{path}: no data rows")
    return GroupedDataset(groups, label)


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell.strip()!r}")
    return value


def read_sk_points(path) -> list[SKPoint]:
    """Points of a ``group,s,k[,n]`` file such as the ``sk_points.csv`` of ``stats``."""
    header, body = _read_rows(path)
    g, s, k = _columns(path, header, ("group", "s", "k"))
    n = header.index("n") if "n" in header else None

    def point(row):
        size = int(row[n]) if n is not None and row[n] else 0
        return SKPoint(row[g], _finite(row[s]), _finite(row[k]), size)

    points = _records(path, body, point)
    if not points:
        raise EmptyInputError(f"{path}: no data rows")
    return points


def read_value_column(path, column: str) -> list[float]:
    """The values of one numeric column, in file order."""
    header, body = _read_rows(path)
    (i,) = _columns(path, header, (column,))
    values = _records(path, body, lambda row: _finite(row[i]))
    if not values:
        raise EmptyInputError(f"{path}: no data rows")
    return values


def write_grouped_csv(dataset: GroupedDataset, path) -> None:
    """Serialize a grouped dataset back to the microdata schema.

    City names are synthesized (they are not retained in the dataset);
    parsing the output reproduces the dataset field by field.  The file is
    written one group at a time.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"province,city,{dataset.value_label}\n")
        for key, run in dataset.runs():
            fh.write("".join(f"{key},{key}_{i},{v!r}\n" for i, v in enumerate(run.tolist(), 1)))


def load_province_summary(path, strict: bool = False) -> list[ProvinceSummaryRow]:
    """Load a province summary file; ``strict`` enforces the 110-row count."""
    header, body = _read_rows(path)
    p, a, pop, n = _columns(path, header, ("province", "ati_eur", "population", "n_cities"))
    rows = _records(
        path,
        body,
        lambda row: ProvinceSummaryRow(row[p].strip(), _finite(row[a]), int(row[pop]), int(row[n])),
    )
    if strict and len(rows) != EXPECTED_PROVINCE_ROWS:
        raise IntegrityError(
            f"{path}: expected {EXPECTED_PROVINCE_ROWS} province rows, got {len(rows)}"
        )
    return rows


def bundled_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "province_summary.csv"


def load_bundled_province_summary(strict: bool = True) -> list[ProvinceSummaryRow]:
    return load_province_summary(bundled_fixture_path(), strict=strict)
