"""Ingestion of delimited city-level data and the bundled province summary.

Microdata schema: header ``province,city,value`` (comma default, tab
accepted), UTF-8 with or without a BOM, decimal-point numerals; values are
finite and nonnegative.  Province fixture schema:
``province,ati_eur,population,n_cities`` with ATI in absolute EUR.  Every
file is read ``_CHUNK_BYTES`` at a time by ``_chunks``, never whole, and
reads as ``csv.reader`` over the ``str.splitlines`` lines of its decoded
text would; numbers in point files, value columns and the province table
must be finite.  ``parse_city_csv`` reads a regular file whose first line
is one complete header record into two arrays on anonymous shared mappings,
in up to ``_MAX_PARTS`` parts at once (``_fork.in_parts``) that write in
place: column-wise while a part's chunks are plain, then row by row
(``_fill``).  A pipe, or a file whose first line is not such a header, is
read row by row from byte 0 (``_read_rows``).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import mmap
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from ._fork import in_parts, usable_cpus
from .errors import EmptyInputError, IntegrityError, ParseError, SchemaError, SkbetaError
from .moments import GroupedDataset, SKPoint

__all__ = [
    "GroupedDataset",
    "ProvinceSummaryRow",
    "read_lines",
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
_BOM = b"\xef\xbb\xbf"


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


def _chunks(fh, start: int = 0, end: int = 1 << 62) -> Iterator[tuple[int, bytes]]:
    """``(offset, bytes)`` of ``fh`` from byte ``start`` to ``end`` (or the end
    of the file) in runs of whole lines: a ``_CHUNK_BYTES`` read and the rest
    of its last line, line breaks kept."""
    if start:
        fh.seek(start)
    while start < end and (chunk := fh.read(min(_CHUNK_BYTES, end - start))):
        chunk += fh.readline(end - start - len(chunk))
        yield start, chunk
        start += len(chunk)


def _lines(path, chunks, count: list[int], bom: int = 0) -> Iterator[str]:
    """The ``str.splitlines`` lines of ``chunks``, decoded a chunk at a time,
    less a BOM at byte 0 (``bom`` is the length of the file's); each chunk
    adds its number of lines to ``count[0]`` first.  An undecodable byte is
    the ParseError that a decode of the whole file gives."""
    for offset, chunk in chunks:
        if offset == 0 and chunk.startswith(_BOM):
            chunk, offset, bom = chunk[len(_BOM) :], len(_BOM), len(_BOM)
        try:
            lines = chunk.decode().splitlines()
        except UnicodeDecodeError as exc:
            at, end = offset - bom + exc.start, offset - bom + exc.end - 1
            where = f"byte 0x{chunk[exc.start]:02x} in position {at}"
            where = f"bytes in position {at}-{end}" if end > at else where
            raise ParseError(
                f"{path}: cannot read file: 'utf-8' codec can't decode {where}: {exc.reason}"
            ) from exc
        count[0] += len(lines)
        yield from lines


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc


@contextlib.contextmanager
def read_lines(path) -> Iterator[Iterator[str]]:
    """The ``str.splitlines`` lines of a UTF-8 file, less a leading BOM, read
    a chunk at a time; a missing, unreadable or non-UTF-8 file is a
    ParseError.  Where the ``with`` body raises a package error, the rest of
    the file is decoded first: an undecodable byte anywhere wins."""
    with _open(path) as fh:
        lines = _lines(path, _chunks(fh), [0])
        try:
            yield lines
        except SkbetaError:
            for _ in lines:
                pass
            raise


@contextlib.contextmanager
def _read_rows(path):
    """The stripped header, and an iterator over ``(line number, cells)`` of
    the later rows (see ``read_lines``).  All-blank rows are skipped; line
    numbers count every physical line, blank ones included.  A ``csv`` error
    (a field past ``csv``'s field size limit, say) is a line-numbered
    ParseError."""
    with read_lines(path) as lines:
        first = next(lines, "")
        reader = csv.reader(itertools.chain([first], lines), delimiter=_detect_delimiter(first))
        rows = _csv_rows(path, reader)
        header = next(rows, None)
        if header is None:
            raise EmptyInputError(f"{path}: file is empty")
        yield [h.strip() for h in header[1]], rows


def _csv_rows(path, reader):
    try:
        for row in reader:
            if any(map(str.strip, row)):
                yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc


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
    The ``city`` role is informative only and may be left unmapped.  A row
    with too few cells, an empty province code, or a value that ``float``
    does not read as finite and nonnegative is a line-numbered ParseError.
    """
    plan = _plan(path, column_map) if os.path.isfile(path) else None
    if plan is None:  # a pipe, or a first line that is not one header record
        group, values = np.empty(0, np.int64), np.empty(0)
        with _read_rows(path) as (header, body):
            columns, label = _city_columns(header, column_map)
            codes, extra = {}, (array("q"), array("d"))
            rows, fault = _fill(body, columns, codes, group, values, 0, extra, [math.inf])
            if fault:
                raise ParseError(f"{path}: line {fault[0]}: {fault[1]}")
        parts, slices = [(list(codes), rows, extra, 0, None)], [(group, values)]
    else:
        layout, label, cuts, rows = plan  # forked parts write into the shared arrays
        group, values = (np.frombuffer(mmap.mmap(-1, 8 * rows[-1]), t) for t in (np.int64, float))
        slices = [(group[lo:hi], values[lo:hi]) for lo, hi in zip(rows, rows[1:])]
        parts = in_parts(
            lambda i: _part(path, cuts[i], cuts[i + 1], layout, *slices[i], i < len(slices) - 1),
            len(slices),
        )
        fault = next((part[-1] for part in parts if part[-1]), None)
        if fault and fault[1] is None:  # a quoted line break crosses a cut
            slices = [(group, values)]
            parts = [_part(path, cuts[0], cuts[-1], layout, group, values, False)]
        line = 1  # the header's
        for *_, lines, fault in parts:
            if fault:
                raise ParseError(f"{path}: line {line + fault[0]}: {fault[1]}")
            line += lines
    return _dataset(path, parts, group, values, slices, label)


# The characters that switch a part to its row mode, once each "\r\n" is
# "\n": the quote (first: a header may hold it), U+FFFD (which stands for
# bytes that are not UTF-8), a CR, NUL, and every other ``str.splitlines``
# break.
_NOT_PLAIN = "\"\ufffd\r\0\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# A chunk's copies stay in L2; 1 MB chunks parsed slower and peaked higher.
_CHUNK_BYTES = 1 << 16
# Body bytes per forked part: starting a child costs ~8-17 ms, and a ~4.3 MB
# body parsed no faster in two parts than in one (2-vCPU host).
_FORK_MIN_BYTES = 4 << 20
_MAX_PARTS = 4


def _plan(path, column_map: Mapping[str, str] | None):
    """``(layout, label, cuts, rows)``, or None where there is no body or
    the first line is not one CSV record that names the mapped columns, with
    no character of ``_NOT_PLAIN`` but the quote.  The body is cut at line
    breaks into one part per usable CPU (up to ``_MAX_PARTS`` of at least
    ``_FORK_MIN_BYTES``): bytes ``cuts[i]`` to ``cuts[i + 1]``, of ``rows[i +
    1] - rows[i]`` lines (blank lines at the end aside)."""
    with _open(path) as fh:
        head = fh.readline(1 << 16)  # a longer first line is read as rows
        bom = len(_BOM) if head.startswith(_BOM) else 0
        pos, size = fh.tell(), os.fstat(fh.fileno()).st_size
        fh.seek(max(pos, size - _CHUNK_BYTES))
        tail = fh.read()  # blank lines at the end add no rows
        stop = size - len(tail) + len(tail.rstrip(b"\r\n"))
        text = head[bom:].decode(errors="replace").removesuffix("\n").removesuffix("\r")
        if stop <= pos or not head.endswith(b"\n") or any(c in text for c in _NOT_PLAIN[1:]):
            return None
        delim = _detect_delimiter(text)
        try:  # one complete record, quoted fields and all
            header = [h.strip() for h in next(csv.reader([text], delimiter=delim, strict=True))]
            columns, label = _city_columns(header, column_map)
        except (csv.Error, SchemaError):
            return None
        n_parts = max(1, min(usable_cpus(), _MAX_PARTS, (stop - pos) // _FORK_MIN_BYTES))
        cuts = [pos]
        for i in range(1, n_parts):
            fh.seek(pos + (stop - pos) * i // n_parts)
            cut = fh.tell() + len(fh.readline())
            if cuts[-1] < cut < stop:
                cuts.append(cut)
        rows = [0]
        for start, end in zip(cuts, [*cuts[1:], stop]):  # the last line of all may lack its "\n"
            raw = (np.frombuffer(chunk, np.uint8) for _, chunk in _chunks(fh, start, end))
            lines = sum(int(np.count_nonzero(run == ord("\n"))) for run in raw)
            rows.append(rows[-1] + lines + (end == stop))
    layout = delim, len(header), columns, bom
    return layout, label, [*cuts, size], rows


def _part(path, start: int, end: int, layout, group, values, sentinel: bool):
    """Parse bytes ``start`` to ``end`` of ``path`` into ``group`` and
    ``values``, and past their end into arrays of its own: column-wise up to
    the first chunk that is not plain (``_plain``), then through ``csv``
    (``_fill``) with a blank ``sentinel`` line after the last where a part
    follows.  Returns ``(keys, rows, extra, lines, fault)``: the keys in
    order of first appearance, the rows, the extra (codes, values), the
    lines, and None or the first fault ``(line, message)``, lines counted
    from 1 at ``start``; message None says that a quoted field runs on past
    ``end``.  An undecodable byte raises, after a fault too."""
    delim, width, columns, bom = layout
    codes: dict[str, int] = {}
    extra = array("q"), array("d")
    row = 0
    with open(path, "rb") as fh:
        chunks = _chunks(fh, start, end)
        for offset, chunk in chunks:
            body = chunk
            if not sentinel and offset + len(chunk) == end:  # blank lines at the end add no rows
                body = chunk.rstrip(b"\r\n")
            n = _plain(body, delim, width, columns, codes, group[row:], values[row:]) if body else 0
            if n is None:
                break
            row += n
        else:
            return list(codes), row, extra, row, None
        count, base = [row], row  # the lines so far, one row each
        lines = _lines(path, itertools.chain([(offset, chunk)], chunks), count, bom)
        reader = csv.reader(itertools.chain(lines, [""] if sentinel else []), delimiter=delim)
        rows = ((base + reader.line_num, cells) for cells in reader)
        try:
            row, fault = _fill(rows, columns, codes, group, values, row, extra, count)
        except csv.Error as exc:
            fault = base + reader.line_num, str(exc)
        if fault:
            for _ in lines:  # a byte that is not UTF-8 later on wins
                pass
    return list(codes), row, extra, count[0], fault


def _plain(chunk: bytes, delim: str, width: int, columns, codes, group, values) -> int | None:
    """Parse a plain chunk into the start of ``group`` (codes from ``codes``,
    which gains each new key) and ``values`` and return its rows; or return
    None, changing nothing, where it does not fit or is not plain.  Plain
    means: UTF-8 with no character of ``_NOT_PLAIN`` once each "\\r\\n" is
    "\\n", ``width`` cells on every line, nonempty and stripped province
    cells, and values that ``float`` reads as finite and nonnegative."""
    chunk = chunk.removesuffix(b"\n")
    text = chunk.decode(errors="replace")
    if "\r" in text:  # the last CR is the one of the chunk's final "\r\n"
        text = text.replace("\r\n", "\n").removesuffix("\r")
    if any(c in text for c in _NOT_PLAIN) or not _cells_per_line(chunk, delim, width):
        return None
    cells = text.replace("\n", delim).split(delim)
    provinces = cells[columns["province"] :: width]
    n = len(provinces)
    try:
        run = np.fromiter(map(float, cells[columns["value"] :: width]), float, n)
    except ValueError:
        return None
    new = [key for key in dict.fromkeys(provinces) if key not in codes]
    in_range = ((run >= 0.0) & (run < np.inf)).all()  # nan fails it too
    if n > len(group) or not in_range or not all(key and key == key.strip() for key in new):
        return None
    for key in new:
        codes[key] = len(codes)
    group[:n] = np.fromiter(map(codes.__getitem__, provinces), np.int64, n)
    values[:n] = run
    return n


def _cells_per_line(chunk: bytes, delim: str, width: int) -> bool:
    """Whether every line of ``chunk`` has exactly ``width`` cells: ``width -
    1`` delimiters per line in all, and on each line the first after the
    break before it and the last before the break after it."""
    raw = np.frombuffer(chunk, np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    delims = np.flatnonzero(raw == ord(delim))
    k = width - 1
    return (
        len(delims) == (len(breaks) + 1) * k
        and bool((delims[k::k] > breaks).all())
        and bool((delims[k - 1 : -1 : k] < breaks).all())
    )


def _fill(rows, columns, codes, group, values, row: int, extra, count: list[int]):
    """Check each ``(line, cells)`` of ``rows`` and write its code and value
    into ``group`` and ``values`` from index ``row`` on, then into ``extra``;
    all-blank rows are skipped.  Returns the next index and None, or the
    first fault ``(line, message)``.  A row past line ``count[0]`` is the
    sentinel's: empty, or a quoted field ran on into it (message None)."""
    needed, p, v = max(columns.values()), columns["province"], columns["value"]
    group, values = memoryview(group), memoryview(values)
    for line, cells in rows:
        if line > count[0]:
            return row, ((line, None) if cells else None)
        if not any(map(str.strip, cells)):
            continue
        if len(cells) <= needed:
            return row, (line, f"expected {needed + 1} columns, got {len(cells)}")
        key, raw = cells[p].strip(), cells[v].strip()
        try:
            value = float(raw)
        except ValueError:
            return row, (line, f"non-numeric value {raw!r}")
        if not key:
            return row, (line, "province_code must be nonempty")
        if not 0.0 <= value < math.inf:  # nan fails it too
            return row, (line, f"value must be nonnegative and finite, got {value}")
        code = codes.setdefault(key, len(codes))
        if row < len(group):
            group[row], values[row] = code, value
        else:
            extra[0].append(code)
            extra[1].append(value)
        row += 1
    return row, None


def _dataset(path, parts, group, values, slices, label: str) -> GroupedDataset:
    """The dataset of the parts' results: codes remapped in place to first
    appearance in the file, arrays joined anew where a part did not fill
    exactly its slice, and ``values`` read-only (later forks share them)."""
    codes, pieces = {}, []
    for (keys, rows, extra, *_), (part, part_values) in zip(parts, slices):
        remap = np.array([codes.setdefault(key, len(codes)) for key in keys], np.int64)
        written = part[:rows]
        if not np.array_equal(remap, np.arange(len(remap))):
            np.take(remap, written, out=written, mode="clip")  # in place: "raise" would copy
        pieces.append((written, part_values[:rows]))
        if extra[0]:
            pieces.append((remap[np.frombuffer(extra[0], np.int64)], np.frombuffer(extra[1])))
    if any(rows != len(part) for (_, rows, *_), (part, _) in zip(parts, slices)):
        group, values = (np.concatenate(arrays) for arrays in zip(*pieces))
    if not codes:
        raise EmptyInputError(f"{path}: no data rows")
    if (group[1:] < group[:-1]).any():
        values = values[np.argsort(group, kind="stable")]
    counts = np.bincount(group, minlength=len(codes))
    values.flags.writeable = False
    return GroupedDataset(keys=tuple(codes), counts=counts, values=values, value_label=label)


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell.strip()!r}")
    return value


def read_sk_points(path) -> list[SKPoint]:
    """Points of a ``group,s,k[,n]`` file such as the ``sk_points.csv`` of ``stats``."""
    with _read_rows(path) as (header, body):
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
    with _read_rows(path) as (header, body):
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
    with _read_rows(path) as (header, body):
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
