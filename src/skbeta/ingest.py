"""Ingestion of delimited city-level data and the bundled province summary.

Microdata schema: header ``province,city,value`` (comma default, tab
accepted), UTF-8 with or without a BOM, decimal-point numerals; values are
finite and nonnegative.  Province fixture schema:
``province,ati_eur,population,n_cities`` with ATI in absolute EUR.  Every
delimited file, the ``group,s,k[,n]`` point files and single value columns
included, is read by ``_read_rows``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .errors import EmptyInputError, IntegrityError, ParseError, SchemaError
from .moments import SKPoint

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
class GroupedDataset:
    """Province-keyed value lists, in file order within each group."""

    groups: dict[str, tuple[float, ...]]
    value_label: str

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_rows(self) -> int:
        return sum(len(v) for v in self.groups.values())


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


def _read_rows(path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header, and an iterator over ``(line number, cells)`` of
    the later rows, parsed as they are consumed.  All-blank rows are skipped;
    line numbers count every physical line, blank ones included.
    """
    lines = read_text(path).splitlines()
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


def parse_city_csv(path, column_map: Mapping[str, str] | None = None) -> GroupedDataset:
    """Group city-level values by province code.

    ``column_map`` maps file column names to the roles ``province``,
    ``city`` and ``value``; by default the roles double as column names.
    The ``city`` role is informative only and may be left unmapped, in
    which case city names are synthesized from the line number.
    """
    header, body = _read_rows(path)
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
    return GroupedDataset(
        groups={k: tuple(v) for k, v in groups.items()},
        value_label=role_to_name["value"],
    )


def read_sk_points(path) -> list[SKPoint]:
    """Points of a ``group,s,k[,n]`` file such as the ``sk_points.csv`` of ``stats``."""
    header, body = _read_rows(path)
    g, s, k = _columns(path, header, ("group", "s", "k"))
    n = header.index("n") if "n" in header else None

    def point(row):
        size = int(row[n]) if n is not None and row[n] else 0
        return SKPoint(row[g], float(row[s]), float(row[k]), size)

    points = _records(path, body, point)
    if not points:
        raise EmptyInputError(f"{path}: no data rows")
    return points


def read_value_column(path, column: str) -> list[float]:
    """The values of one numeric column, in file order."""
    header, body = _read_rows(path)
    (i,) = _columns(path, header, (column,))
    values = _records(path, body, lambda row: float(row[i]))
    if not values:
        raise EmptyInputError(f"{path}: no data rows")
    return values


def write_grouped_csv(dataset: GroupedDataset, path) -> None:
    """Serialize a grouped dataset back to the microdata schema.

    City names are synthesized (they are not retained in the dataset);
    parsing the output reproduces the dataset field by field.
    """
    lines = [f"province,city,{dataset.value_label}"]
    for key, values in dataset.groups.items():
        for i, v in enumerate(values, start=1):
            lines.append(f"{key},{key}_{i},{v!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_province_summary(path, strict: bool = False) -> list[ProvinceSummaryRow]:
    """Load a province summary file; ``strict`` enforces the 110-row count."""
    header, body = _read_rows(path)
    p, a, pop, n = _columns(path, header, ("province", "ati_eur", "population", "n_cities"))
    rows = _records(
        path,
        body,
        lambda row: ProvinceSummaryRow(row[p].strip(), float(row[a]), int(row[pop]), int(row[n])),
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
