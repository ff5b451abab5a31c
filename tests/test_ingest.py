import contextlib
import csv
import hashlib
import math
import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skbeta import ingest
from skbeta.cli import main
from skbeta.errors import (
    EmptyInputError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from skbeta.ingest import (
    EXPECTED_PROVINCE_ROWS,
    GroupedDataset,
    bundled_fixture_path,
    load_bundled_province_summary,
    load_province_summary,
    parse_city_csv,
    read_sk_points,
    read_value_column,
    write_grouped_csv,
)
from skbeta.moments import group_sk_points, sk_points_to_csv
from skbeta.synthetic import synthetic_grouped_dataset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_text(path):
    """The whole text of a file, decoded at once: the reference for read errors."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc


def reference_parse_rows(path, column_map=None):
    """``parse_city_csv`` as one loop over the ``csv`` rows of the whole
    decoded text: the reference for its datasets and errors."""
    lines = read_text(path).splitlines()
    reader = csv.reader(lines, delimiter=ingest._detect_delimiter(lines[0] if lines else ""))
    rows = ((reader.line_num, row) for row in reader if any(cell.strip() for cell in row))
    first = next(rows, None)
    if first is None:
        raise EmptyInputError(f"{path}: file is empty")
    indices, label = ingest._city_columns([h.strip() for h in first[1]], column_map)
    needed = max(indices.values())
    groups: dict[str, list[float]] = {}
    for lineno, row in rows:
        if len(row) <= needed:
            raise ParseError(f"{path}: line {lineno}: expected {needed + 1} columns, got {len(row)}")
        province, raw = row[indices["province"]].strip(), row[indices["value"]].strip()
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric value {raw!r}") from None
        if not province:
            raise ParseError(f"{path}: line {lineno}: province_code must be nonempty")
        if not 0.0 <= value < math.inf:
            raise ParseError(
                f"{path}: line {lineno}: value must be nonnegative and finite, got {value}"
            )
        groups.setdefault(province, []).append(value)
    if not groups:
        raise EmptyInputError(f"{path}: no data rows")
    return GroupedDataset(groups, label)


@contextlib.contextmanager
def row_mode():
    """A spy on ``ingest._fill``, the row mode; it sees the calls made in
    this process only, not those of forked parts."""
    with mock.patch.object(ingest, "_fill", wraps=ingest._fill) as spy:
        yield spy


class TestParseCityCsv:
    def test_basic_grouping(self, tmp_path):
        path = write(
            tmp_path, "m.csv", "province,city,value\nAA,c1,1\nAA,c2,2\nBB,c3,5\n"
        )
        ds = parse_city_csv(path)
        assert ds.groups == {"AA": (1.0, 2.0), "BB": (5.0,)}
        assert ds.value_label == "value"
        assert ds.n_groups == 2
        assert ds.n_rows == 3

    def test_missing_province_column(self, tmp_path):
        path = write(tmp_path, "m.csv", "prov,city,value\nAA,c,1\n")
        with pytest.raises(SchemaError, match="province"):
            parse_city_csv(path)

    def test_custom_column_map(self, tmp_path):
        path = write(tmp_path, "m.csv", "area,town,ati\nAA,c1,7\n")
        ds = parse_city_csv(
            path, {"area": "province", "town": "city", "ati": "value"}
        )
        assert ds.groups == {"AA": (7.0,)}
        assert ds.value_label == "ati"

    def test_city_role_optional(self, tmp_path):
        path = write(tmp_path, "m.csv", "province,value\nAA,1\nAA,2\n")
        ds = parse_city_csv(path, {"province": "province", "value": "value"})
        assert ds.groups == {"AA": (1.0, 2.0)}

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = write(tmp_path, "m.csv", "province,city,value\nAA,c1,1\nAA,c2,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_city_csv(path)
        # a blank line still counts as a line of the file
        path = write(tmp_path, "b.csv", "province,city,value\nAA,c1,1\n\nAA,c2,oops\n")
        with pytest.raises(ParseError, match="line 4"):
            parse_city_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "province,city,value\nAA,c1,-4\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_city_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        path = write(tmp_path, "m.csv", f"province,city,value\nAA,c1,1\nAA,c2,{cell}\n")
        with pytest.raises(ParseError, match="line 3: value must be nonnegative and finite"):
            parse_city_csv(path)

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbfprovince,city,value\nAA,c1,1\nBB,c2,2\n")
        assert parse_city_csv(path).groups == {"AA": (1.0,), "BB": (2.0,)}

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "m.csv", "")
        with pytest.raises(EmptyInputError):
            parse_city_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_city_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("name", ["absent.csv", "."])
    def test_missing_file_or_directory_is_read_texts_error(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ParseError) as expected:
            read_text(path)
        with pytest.raises(ParseError) as got:
            parse_city_csv(path)
        assert str(got.value) == str(expected.value)

    @staticmethod
    @contextlib.contextmanager
    def fifo_of(tmp_path, data: bytes):
        """A FIFO that a thread writes ``data`` into; the writer must finish
        without a broken pipe."""
        fifo, failed = tmp_path / "m.fifo", []
        os.mkfifo(fifo)

        def feed():
            try:
                fifo.write_bytes(data)
            except OSError as exc:
                failed.append(exc)

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            yield fifo
        finally:
            feeder.join(10)
        assert not feeder.is_alive() and not failed

    def test_fifo_gives_the_regular_files_dataset(self, tmp_path):
        text = "province,city,value\n" + "".join(f"Zé,c{i},{i}\nA,c{i},0.5\n" for i in range(500))
        with self.fifo_of(tmp_path, text.encode()) as fifo:
            got = parse_city_csv(fifo)
        assert got == parse_city_csv(write(tmp_path, "m.csv", text))

    def test_quoted_fifo_gives_the_regular_files_dataset(self, tmp_path):
        text = '\ufeff"province","city","value"\n' + "".join(
            f'"Zé",c{i},{i}\n"A","c,""{i}""",0.5\n\n' for i in range(500)
        )
        with self.fifo_of(tmp_path, text.encode()) as fifo:
            got = parse_city_csv(fifo)
        assert bits(got) == bits(parse_city_csv(write(tmp_path, "m.csv", text)))

    @pytest.mark.parametrize("tail", [b"", b"A,c,1\n\xff\n"])
    def test_fifo_with_a_bad_row_raises_after_reading_to_its_end(self, tmp_path, tail):
        """The rest of the pipe is read for a byte that is not UTF-8, which
        wins as in a decode of the whole file; so the writer never blocks."""
        data = b"province,city,value\nA,c,x\n" + b"A,c,1\n" * 40000 + tail
        regular = tmp_path / "m.csv"
        regular.write_bytes(data)
        with pytest.raises(ParseError) as expected:
            reference_parse_rows(regular)
        with self.fifo_of(tmp_path, data) as fifo, pytest.raises(ParseError) as got:
            parse_city_csv(fifo)
        assert str(got.value) == str(expected.value).replace(str(regular), str(fifo))
        assert ("0xff" in str(got.value)) == bool(tail)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("province,city,value\nAA,S\xe3o,1\n".encode("latin-1"))
        with pytest.raises(ParseError, match="utf-8"):
            parse_city_csv(path)

    def test_delimiters_only(self, tmp_path):
        path = write(tmp_path, "m.csv", ",,\n,,\n")
        with pytest.raises(EmptyInputError):
            parse_city_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "m.csv", "province,city,value\n")
        with pytest.raises(EmptyInputError):
            parse_city_csv(path)

    def test_tab_delimiter(self, tmp_path):
        path = write(tmp_path, "m.tsv", "province\tcity\tvalue\nAA\tc1\t3\n")
        ds = parse_city_csv(path)
        assert ds.groups == {"AA": (3.0,)}

    def test_crlf(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"province,city,value\r\nAA,c1,1\r\nBB,c2,2\r\n")
        ds = parse_city_csv(path)
        assert ds.groups == {"AA": (1.0,), "BB": (2.0,)}

    def test_rows_partition_into_groups(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "province,city,value\n"
            + "\n".join(f"P{i % 7},c{i},{i}" for i in range(40))
            + "\n",
        )
        ds = parse_city_csv(path)
        assert sum(len(v) for v in ds.groups.values()) == 40

    def test_parse_serialize_parse_idempotent(self, tmp_path):
        path = write(
            tmp_path, "m.csv", "province,city,value\nAA,c1,1.5\nAA,c2,2\nBB,c3,5e2\n"
        )
        first = parse_city_csv(path)
        out = tmp_path / "roundtrip.csv"
        write_grouped_csv(first, out)
        second = parse_city_csv(out, {"province": "province", "value": first.value_label})
        assert second.groups == first.groups
        assert second.value_label == first.value_label


class TestProvinceFixture:
    def test_loads_110_rows_strict(self):
        rows = load_bundled_province_summary(strict=True)
        assert len(rows) == EXPECTED_PROVINCE_ROWS

    def test_rm_row_exact(self):
        rows = load_bundled_province_summary()
        rm = next(r for r in rows if r.province_code == "RM")
        assert rm.ati_total == 59.68562e9
        assert rm.n_inhab == 4042676
        assert rm.n_cities == 121

    def test_city_count_total(self):
        rows = load_bundled_province_summary()
        assert sum(r.n_cities for r in rows) == 8092

    def test_city_count_extremes(self):
        rows = load_bundled_province_summary()
        by_code = {r.province_code: r for r in rows}
        assert by_code["TS"].n_cities == 6
        assert min(r.n_cities for r in rows) == 6
        assert by_code["TO"].n_cities == 315
        assert max(r.n_cities for r in rows) == 315

    def test_population_extremes_and_total(self):
        rows = load_bundled_province_summary()
        assert min(r.n_inhab for r in rows) == 57492  # OG
        assert max(r.n_inhab for r in rows) == 4042676  # RM
        # reference total, quoted at five significant digits
        assert abs(sum(r.n_inhab for r in rows) - 5.9571e7) <= 500

    def test_city_count_mean_median(self):
        rows = load_bundled_province_summary()
        counts = sorted(r.n_cities for r in rows)
        assert sum(counts) / len(counts) == pytest.approx(73.564, abs=5e-4)
        assert 0.5 * (counts[54] + counts[55]) == 60

    def test_ati_total_stable(self):
        rows = load_bundled_province_summary()
        assert math.fsum(r.ati_total for r in rows) == pytest.approx(
            704_972_966_000.0, rel=1e-12
        )

    def test_vs_row_reading(self):
        rows = load_bundled_province_summary()
        vs = next(r for r in rows if r.province_code == "VS")
        assert vs.ati_total == 0.342572e9

    def test_rows_in_file_order(self):
        rows = load_bundled_province_summary()
        codes = [r.province_code for r in rows]
        assert codes == sorted(codes)
        assert codes[0] == "AG" and codes[-1] == "VV"

    def test_strict_count_enforced(self, tmp_path):
        rows = bundled_fixture_path().read_text().splitlines()
        truncated = tmp_path / "short.csv"
        truncated.write_text("\n".join(rows[:50]) + "\n")
        with pytest.raises(IntegrityError):
            load_province_summary(truncated, strict=True)
        assert len(load_province_summary(truncated, strict=False)) == 49

    def test_grouping_fixture_as_microdata(self):
        ds = parse_city_csv(
            bundled_fixture_path(), {"province": "province", "ati_eur": "value"}
        )
        assert ds.n_groups == 110
        assert all(len(v) == 1 for v in ds.groups.values())

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_ati_rejected(self, tmp_path, cell):
        path = write(tmp_path, "s.csv", f"province,ati_eur,population,n_cities\nAA,1e9,5,2\nBB,{cell},5,2\n")
        with pytest.raises(ParseError, match=f"line 3: non-finite number '{cell}'"):
            load_province_summary(path)

    def test_missing_column_in_summary(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("province,ati_eur,population\nAA,1,2\n")
        with pytest.raises(SchemaError, match="n_cities"):
            load_province_summary(path)


class TestPointAndColumnReaders:
    def test_sk_points(self, tmp_path):
        path = write(tmp_path, "p.csv", "group,s,k,n\na,0.5,2.5,9\nb,1.0,4.0,\n")
        points = read_sk_points(path)
        assert [(p.group_key, p.s, p.k, p.n) for p in points] == [
            ("a", 0.5, 2.5, 9),
            ("b", 1.0, 4.0, 0),
        ]

    def test_sk_points_without_n_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "group,s,k\na,0.5,2.5\n")
        assert read_sk_points(path)[0].n == 0

    def test_sk_points_line_number_after_blank_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "group,s,k,n\na,0.5,2.5,9\n\nb,x,4.0,9\n")
        with pytest.raises(ParseError, match="line 4"):
            read_sk_points(path)

    def test_sk_points_missing_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "group,s\na,0.5\n")
        with pytest.raises(SchemaError, match="'k'"):
            read_sk_points(path)

    def test_value_column(self, tmp_path):
        path = write(tmp_path, "v.csv", "value\n3\n\n1.5\n")
        assert read_value_column(path, "value") == [3.0, 1.5]

    def test_value_column_short_row(self, tmp_path):
        path = write(tmp_path, "v.csv", "a,value\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            read_value_column(path, "value")

    @pytest.mark.parametrize("reader", [read_sk_points, lambda p: read_value_column(p, "value")])
    def test_header_only_is_empty(self, tmp_path, reader):
        path = write(tmp_path, "p.csv", "group,s,k,value\n")
        with pytest.raises(EmptyInputError):
            reader(path)

    @pytest.mark.parametrize(
        "s, k, cell",
        [("nan", "4.0", "nan"), ("1.0", "inf", "inf"), ("-Infinity", "4.0", "-Infinity"),
         ("1.0", "1e400", "1e400"), ("NaN", "nan", "NaN")],
    )
    def test_sk_points_non_finite_rejected(self, tmp_path, s, k, cell):
        path = write(tmp_path, "p.csv", f"group,s,k,n\na,0.5,2.5,9\nb,{s},{k},9\n")
        with pytest.raises(ParseError, match=f"line 3: non-finite number '{cell}'"):
            read_sk_points(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " Infinity ", "1e400"])
    def test_value_column_non_finite_rejected(self, tmp_path, cell):
        path = write(tmp_path, "v.csv", f"value\n3\n\n{cell}\n")
        with pytest.raises(ParseError, match=f"line 4: non-finite number '{cell.strip()}'"):
            read_value_column(path, "value")


def test_grouped_dataset_accessors():
    ds = GroupedDataset(groups={"A": (1.0, 2.0)}, value_label="v")
    assert ds.n_groups == 1 and ds.n_rows == 2


def test_grouped_dataset_layout():
    ds = GroupedDataset({"B": [3.0, 1.0], "A": (2.5,), "E": []}, "v")
    assert ds.keys == ("B", "A", "E")
    assert ds.counts.tolist() == [2, 1, 0]
    assert ds.values.dtype == np.float64 and ds.values.tolist() == [3.0, 1.0, 2.5]
    assert ds.groups == {"B": (3.0, 1.0), "A": (2.5,), "E": ()}
    assert all(type(v) is float for vals in ds.groups.values() for v in vals)
    assert ds == GroupedDataset({"B": (3.0, 1.0), "A": [2.5], "E": ()}, "v")
    assert ds != GroupedDataset({"B": (3.0, 1.0), "A": [2.5]}, "v")
    assert ds != GroupedDataset({"B": (3.0, 1.0), "A": [2.5], "E": ()}, "w")


_PLAIN_FORMS = [("\n", ",", b""), ("\r\n", ",", b""), ("\n", "\t", b""), ("\r\n", "\t", b"\xef\xbb\xbf")]


def _plain_file(tmp_path, newline, delim, bom):
    """A small synthetic dataset and a plain file of it."""
    ds = synthetic_grouped_dataset(n_groups=7, seed=2, min_size=3, max_size=9)
    lines = [delim.join(("province", "city", "value"))] + [
        delim.join((key, f"c{i}", repr(v)))
        for key, vals in ds.groups.items()
        for i, v in enumerate(vals)
    ]
    path = tmp_path / "m.csv"
    path.write_bytes(bom + newline.join(lines).encode() + newline.encode())
    return ds, path


class TestColumnarFastPath:
    """``parse_city_csv`` reads plain files column-wise and anything else
    through its row mode, ``_fill``; both give the reference's dataset."""

    @staticmethod
    def both(path, column_map=None):
        """The parse, which must not take the row mode, and the reference."""
        with row_mode() as spy:
            fast = parse_city_csv(path, column_map)
        assert not spy.called
        return fast, reference_parse_rows(path, column_map)

    @pytest.mark.parametrize("newline, delim, bom", _PLAIN_FORMS)
    def test_plain_files_take_the_fast_path(self, tmp_path, newline, delim, bom):
        ds, path = _plain_file(tmp_path, newline, delim, bom)
        fast, slow = self.both(path)
        assert fast == slow == ds

    def test_interleaved_groups_keep_first_appearance_and_file_order(self, tmp_path):
        path = write(tmp_path, "m.csv", "province,city,value\nB,x,1\nA,x,2\nB,x,3\nC,x,4\nA,x,5\n")
        fast, slow = self.both(path)
        assert fast == slow
        assert fast.groups == {"B": (1.0, 3.0), "A": (2.0, 5.0), "C": (4.0,)}

    def test_small_chunks_give_the_same_dataset(self, tmp_path):
        path = tmp_path / "m.csv"
        write_grouped_csv(synthetic_grouped_dataset(n_groups=12, seed=4), path)
        with mock.patch.object(ingest, "_CHUNK_BYTES", 37):
            fast, slow = self.both(path)
        assert fast == slow

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("blank_lines", [1, 2, 3])
    def test_trailing_blank_lines_take_the_fast_path(self, tmp_path, newline, blank_lines):
        path = tmp_path / "m.csv"
        write_grouped_csv(synthetic_grouped_dataset(n_groups=5, seed=6), path)
        text = path.read_text().replace("\n", newline) + newline * blank_lines
        path.write_bytes(text.encode())
        with mock.patch.object(ingest, "_CHUNK_BYTES", 37):
            fast, slow = self.both(path)
        assert fast == slow

    @pytest.mark.parametrize(
        "body",
        [
            "AA,c,1\nAA,c\nAA,c,2,3\n",  # a short line next to a long one
            "AA,c,2,3\nAA,c\nAA,c,1\n",  # a long line next to a short one
            "AA,c\n5,BB,c,7\n",  # the same, cells that still parse when realigned
            "AA,c,1\n\nAA,c,2\n",  # a blank line
            "AA,c,1\n \n",  # a trailing whitespace-only line
            " AA,c,1\n",  # a padded key
            ",c,1\n",  # an empty key
            'AA,c,"1"\n',  # a quote
            "AA,c,nan\n",
            *(f"AA,c,1\nAA,c{char}d,1\n" for char in '"\0\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r\ufffd'),
            "AA,c,1\rAA,c,2\n",  # a lone CR ending a line
            "AA,c,1\r\r\nAA,c,2\n",  # a CR before a CRLF
        ],
    )
    def test_anything_else_falls_back(self, tmp_path, body):
        path = write(tmp_path, "m.csv", "province,city,value\n" + body)
        with row_mode() as spy:
            got = _outcome(lambda: parse_city_csv(path))
        assert spy.called
        assert got == _outcome(lambda: reference_parse_rows(path))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 11, 64])
    def test_multibyte_keys_in_small_chunks(self, tmp_path, chunk):
        """Reads end beside, and inside, the two- and three-byte characters."""
        path = write(tmp_path, "m.csv", _lines(["Forlì-Cesena", "Zé", "€x", "A"] * 9))
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            fast, slow = self.both(path)
        assert bits(fast) == bits(slow)
        assert fast.keys == ("Forlì-Cesena", "Zé", "€x", "A")


def _outcome(parse):
    try:
        return parse()
    except (ParseError, SchemaError, EmptyInputError) as exc:
        return type(exc).__name__, str(exc)


# A valid file plus at most two defects, so that each check of the fast path
# meets files that pass every other check.
_valid_rows = st.lists(
    st.tuples(
        st.sampled_from(["AA", "BB", "C c", "Zé"]),
        st.sampled_from(["c", " c", ""]),
        st.sampled_from(["1", "2.5", "0", "-0", "1e-300", "7e300", "1e5", "3"]),
    ).map(list),
    min_size=1,
    max_size=10,
)
_DEFECTS = [
    *((2, v) for v in ("nan", "inf", "1e400", "-1", "x", "", '"4"', "1_000", " 3 ", "0x10")),
    *((0, k) for k in ("", " AA", "AA ", '"AA"', '"A,A"', '"A\tA"', '"A""A"', '"A\nA"')),
    *((1, c) for c in ("c\rd", "c\x0bd", "c\x85d", "c\x00d", "c\u2028d", '"c"', " c ")),
    # quoted cells with a delimiter, an escaped quote or a line break; an
    # unclosed quote; a byte that is not UTF-8 (written by surrogateescape)
    *((1, c) for c in ('"c,d"', '"c\td"', '"c""d"', '"c\nd"', '"c\r\nd"', '"c', "c\udcffd")),
    *(("line", kind) for kind in ("short", "long", "blank", "spaces", "empty cells")),
]
_defects = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from(_DEFECTS)), max_size=2
)


def _damage(rows, defects):
    rows = [list(r) for r in rows]
    for at, (where, what) in sorted(defects, key=lambda d: d[1][0] == "line"):
        i = at % len(rows)
        if where != "line":
            rows[i][where] = what
        elif what == "short":
            rows[i] = rows[i][:-1]
        elif what == "long":
            rows[i] = rows[i] + ["x"]
        else:
            rows.insert(i, {"blank": [""], "spaces": ["  "], "empty cells": ["", " ", ""]}[what])
    return rows


def _property_file(
    tmp_path_factory, rows, defects, delim, newline, bom, trailing, extra, quoted_header, leading
):
    header = ["province", "city", "value"] + (["extra"] if extra else [])
    header = [f'"{name}"' for name in header] if quoted_header else header
    body = [row + ["x"] if extra and len(row) == 3 else row for row in _damage(rows, defects)]
    lines = [""] * leading + [delim.join(header)] + [delim.join(row) for row in body]
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if trailing else "")
    path = tmp_path_factory.mktemp("prop") / "m.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


_file_args = dict(
    rows=_valid_rows,
    defects=_defects,
    delim=st.sampled_from([",", "\t"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
    trailing=st.booleans(),
    extra=st.booleans(),
    quoted_header=st.booleans(),
    leading=st.sampled_from([0, 0, 1, 2]),  # blank lines before the header
)


@given(**_file_args, chunk=st.sampled_from([1, 5, 40, 1 << 20]))
@settings(max_examples=400, deadline=None)
def test_fast_path_agrees_with_row_reader(tmp_path_factory, chunk, **file_args):
    path = _property_file(tmp_path_factory, **file_args)
    expected = _outcome(lambda: reference_parse_rows(path))
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        assert _outcome(lambda: parse_city_csv(path)) == expected


@contextlib.contextmanager
def in_parts(n):
    """Parse plain files in ``n`` parts, however small: ``n`` usable CPUs and
    no size floor.  Yields a spy on ``os.fork``."""
    with mock.patch.object(ingest, "_FORK_MIN_BYTES", 1), mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(n))
    ), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def bits(dataset):
    return dataset.keys, dataset.counts.tobytes(), dataset.values.tobytes(), dataset.value_label


@given(**_file_args, parts=st.sampled_from([1, 2, 3]), chunk=st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=80, deadline=None)
def test_forked_parts_agree_with_row_reader(tmp_path_factory, parts, chunk, **file_args):
    path = _property_file(tmp_path_factory, **file_args)
    expected = _outcome(lambda: reference_parse_rows(path))
    with in_parts(parts), mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        assert _outcome(lambda: parse_city_csv(path)) == expected


def _lines(keys):
    return "province,city,value\n" + "".join(f"{k},c{i},{i % 97 * 0.25!r}\n" for i, k in enumerate(keys))


_PART_CASES = {
    "grouped": _lines(["A"] * 40 + ["B"] * 30 + ["C"] * 50),
    "recurring": _lines(["A", "B"] * 60),  # both provinces in every part
    "late_first": _lines(["A"] * 80 + ["B", "A"] * 20),  # B first appears in the last part
    "reordered": _lines(["A", "B", "C"] * 10 + ["C", "B"] * 20 + ["D", "A"] * 20),
    "interleaved_tab": _lines(["P1", "P2", "P3", "P4", "P5"] * 30).replace(",", "\t"),
}


class TestForkedParts:
    """Parts parsed in forked children give the serial dataset, bit for bit."""

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("case", list(_PART_CASES))
    def test_parts_equal_one_part(self, tmp_path, parts, case):
        path = write(tmp_path, "m.csv", _PART_CASES[case])
        with row_mode() as spy:
            serial = parse_city_csv(path)
        assert not spy.called
        with in_parts(parts) as fork:
            forked = parse_city_csv(path)
        assert fork.call_count == parts - 1
        assert bits(forked) == bits(serial)
        assert forked == reference_parse_rows(path)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("newline, delim, bom", _PLAIN_FORMS)
    def test_plain_files(self, tmp_path, parts, newline, delim, bom):
        ds, path = _plain_file(tmp_path, newline, delim, bom)
        with in_parts(parts) as fork:
            forked = parse_city_csv(path)
        assert fork.call_count == parts - 1
        assert bits(forked) == bits(ds)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_small_chunks_and_trailing_blank_lines(self, tmp_path, parts, blank_lines):
        path = tmp_path / "m.csv"
        write_grouped_csv(synthetic_grouped_dataset(n_groups=12, seed=4), path)
        path.write_text(path.read_text() + "\n" * blank_lines)
        serial = parse_city_csv(path)
        with in_parts(parts) as fork, mock.patch.object(ingest, "_CHUNK_BYTES", 37):
            forked = parse_city_csv(path)
        assert fork.call_count == parts - 1
        assert bits(forked) == bits(serial)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("where", [0.1, 0.5, 0.95])
    @pytest.mark.parametrize("line", ["B,c,-1", "B,c,x", "B,c"])
    def test_one_bad_line_keeps_its_line_number(self, tmp_path, parts, where, line):
        """A bad line in the parent's part, a child's or the last one; the
        file is large enough that each child fills its pipe."""
        lines = _lines(["A", "B", "C"] * 6000).splitlines(keepends=True)
        bad = int(len(lines) * where)
        lines[bad] = line + "\n"
        path = write(tmp_path, "m.csv", "".join(lines))
        with pytest.raises(ParseError) as serial:
            parse_city_csv(path)
        with in_parts(parts) as fork, pytest.raises(ParseError) as forked:
            parse_city_csv(path)
        assert fork.call_count == parts - 1
        assert str(forked.value) == str(serial.value)
        assert f"line {bad + 1}:" in str(serial.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "case, parts, source",
    [
        ("grouped", 1, "file"),
        ("grouped", 2, "file"),
        ("recurring", 2, "file"),  # values sorted into a new array
        ("grouped", 1, "blank_first_line"),
        ("recurring", 1, "fifo"),
    ],
)
def test_parsed_values_are_read_only(tmp_path, case, parts, source):
    """On the planned path, in parts or not, and in the row mode from byte 0."""
    text = ("\n" if source == "blank_first_line" else "") + _PART_CASES[case]
    with contextlib.ExitStack() as stack:
        if source == "fifo":
            path = stack.enter_context(TestParseCityCsv.fifo_of(tmp_path, text.encode()))
        else:
            path = write(tmp_path, "m.csv", text)
        fork = stack.enter_context(in_parts(parts))
        spy = stack.enter_context(row_mode())
        got = parse_city_csv(path)
    assert fork.call_count == parts - 1
    assert spy.called == (source != "file")
    assert not got.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got.values[0] = 1.0
    assert bits(got) == bits(reference_parse_rows(write(tmp_path, "copy.csv", text)))


class TestQuotedHeader:
    """A first line that is one complete CSV record, quotes and all, keeps
    the planned path: shared arrays, in parts where the body is large."""

    BODY = _lines(["A", "B", "C"] * 300).split("\n", 1)[1]

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize(
        "header, column_map",
        [
            ('"province","city","value"', None),
            ('province,"city",value', None),
            ('"province","city, town","value"', {"province": "province", "value": "value"}),
        ],
        ids=["all", "one", "delimiter"],
    )
    def test_quoted_header_takes_no_row_mode(self, tmp_path, parts, header, column_map):
        plain = parse_city_csv(write(tmp_path, "plain.csv", "province,city,value\n" + self.BODY))
        path = write(tmp_path, "m.csv", header + "\n" + self.BODY)
        with in_parts(parts) as fork, row_mode() as spy:
            got = parse_city_csv(path, column_map)
        assert not spy.called
        assert fork.call_count == parts - 1
        assert bits(got) == bits(plain) == bits(reference_parse_rows(path, column_map))

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize(
        "head",
        [
            'province,city,value,"note\n',  # a quoted field left open
            '"a\nb",province,city,value\n',  # closed on the next line
            '"prov"ince,city,value\n',  # text after a closing quote
        ],
        ids=["open", "line_break", "after_quote"],
    )
    def test_header_that_is_not_one_record_is_read_as_rows(self, tmp_path, parts, head):
        lines = self.BODY.splitlines(keepends=True)
        body = "".join("z," + line for line in lines) if "a\nb" in head else self.BODY
        path = write(tmp_path, "m.csv", head + body)
        with in_parts(parts) as fork, row_mode() as spy:
            got = _outcome(lambda: parse_city_csv(path))
        assert fork.call_count == 0
        assert got == _outcome(lambda: reference_parse_rows(path))
        if isinstance(got, GroupedDataset):  # from byte 0, in this process
            assert spy.called and got.n_rows == len(lines)


class TestStreamedParts:
    """Each part reads, checks and decodes only its own chunks."""

    FILE = _lines(["Zé", "€x", "A"] * 3000)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 64, 1 << 16])
    def test_multibyte_keys_at_every_cut(self, tmp_path, parts, chunk):
        path = write(tmp_path, "m.csv", self.FILE)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            with row_mode() as spy:
                serial = parse_city_csv(path)
            with in_parts(parts) as fork:
                forked = parse_city_csv(path)
        assert not spy.called
        assert fork.call_count == parts - 1
        assert bits(forked) == bits(serial) == bits(reference_parse_rows(path))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_bad_utf8_in_the_last_part_is_read_texts_error(self, tmp_path, parts):
        data = self.FILE.encode()
        path = tmp_path / "m.csv"
        path.write_bytes(data[:-12] + b"\xff" + data[-11:])
        with pytest.raises(ParseError) as expected:
            read_text(path)
        with in_parts(parts), pytest.raises(ParseError) as got:
            parse_city_csv(path)
        assert str(got.value) == str(expected.value)
        assert "can't decode byte 0xff" in str(got.value)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("last", ['A,"c",1', "A,c\0d,1", "A,c,1\rA,c,2"])
    def test_not_plain_only_in_the_last_chunk_falls_back(self, tmp_path, parts, last):
        path = write(tmp_path, "m.csv", self.FILE + last + "\n")
        with mock.patch.object(ingest, "_CHUNK_BYTES", 4096):
            with row_mode() as spy:
                serial = parse_city_csv(path)
            with in_parts(parts):
                got = parse_city_csv(path)
        assert spy.call_count == 1  # the last chunk's rows only
        assert bits(got) == bits(serial) == bits(reference_parse_rows(path))

    @pytest.mark.parametrize("parts", [2, 3])
    def test_quoted_line_break_across_a_cut_parses_again_in_one_part(self, tmp_path, parts):
        lines = self.FILE.splitlines(keepends=True)
        lines[100:-100] = ['A,"' + "".join(lines[100:-100]) + '",1\n']  # over every cut
        path = write(tmp_path, "m.csv", "".join(lines))
        with in_parts(parts), mock.patch.object(ingest, "_part", wraps=ingest._part) as part:
            got = parse_city_csv(path)
        assert [call.args[1:3] for call in part.call_args_list[1:]] == [
            (part.call_args_list[0].args[1], path.stat().st_size)
        ]
        assert bits(got) == bits(reference_parse_rows(path))

    @pytest.mark.parametrize(
        "parts, quoted",
        [(1, False), (2, False), (1, True), (2, True)],
        ids=["1", "2", "1-quoted", "2-quoted"],
    )
    def test_parse_never_holds_the_file(self, tmp_path, parts, quoted):
        """The traced peak stays below half the file: a chunk per part, not
        the file's bytes or text, nor its rows as Python objects (the arrays
        lie on shared mappings, which ``tracemalloc`` does not see).  With
        every province key quoted the row mode fills the same arrays."""
        path = tmp_path / "m.csv"
        dataset = synthetic_grouped_dataset(n_groups=2200, seed=5, min_size=60, max_size=190)
        write_grouped_csv(dataset, path)
        if quoted:
            head, *body = path.read_text().splitlines(keepends=True)
            path.write_text(head + "".join('"' + line.replace(",", '",', 1) for line in body))
            del head, body
        size, rows = path.stat().st_size, dataset.n_rows
        del dataset
        assert size >= 8 << 20
        with in_parts(parts) as fork:
            tracemalloc.start()
            try:
                got = parse_city_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert fork.call_count == parts - 1
        assert got.n_rows == rows
        assert peak < size / 2


class TestForkedPartsRobustness:
    FILE = _lines(["A", "B", "C", "A", "D"] * 4000)

    @pytest.fixture
    def path(self, tmp_path):
        return write(tmp_path, "m.csv", self.FILE)

    @staticmethod
    def in_children(action):
        """``ingest._part`` that runs ``action`` in a forked child instead."""
        parent, part = os.getpid(), ingest._part

        def patched(*args):
            return action() if os.getpid() != parent else part(*args)

        return mock.patch.object(ingest, "_part", patched)

    @staticmethod
    def fail(failure):
        if failure == "raise":
            raise RuntimeError("child failed")
        os._exit(3)

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_child_part_is_parsed_by_the_parent(self, path, failure):
        serial = parse_city_csv(path)
        with in_parts(3) as fork, self.in_children(lambda: self.fail(failure)):
            forked = parse_city_csv(path)
        assert fork.call_count == 2
        assert bits(forked) == bits(serial)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_childs_garbage_is_parsed_over(self, path, failure):
        """Part 1's child fills its shared slices with garbage and then
        fails: the parent sees the garbage and parses part 1 over it."""
        serial = parse_city_csv(path)
        parent, part, garbled = os.getpid(), ingest._part, []

        def garble(*args):
            slices = [array.view(np.uint8) for array in args[4:6]]  # group, values
            if os.getpid() == parent:
                garbled.append(all((raw == 0xA5).all() for raw in slices))
                return part(*args)
            for raw in slices:
                raw.fill(0xA5)
            self.fail(failure)

        with in_parts(2) as fork, mock.patch.object(ingest, "_part", garble):
            forked = parse_city_csv(path)
        assert fork.call_count == 1
        assert garbled == [False, True]  # part 0 as mapped; part 1 as its child left it
        assert bits(forked) == bits(serial)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_short_data_is_parsed_by_the_parent(self, path, cut_stream):
        """Part 1's child sends a cut pickle: the parent parses part 1
        itself, to the serial dataset."""
        serial = parse_city_csv(path)
        parent, part, starts = os.getpid(), ingest._part, []

        def spy(*args):
            if os.getpid() == parent:
                starts.append(args[1])
            return part(*args)

        cut_stream()
        with in_parts(2) as fork, mock.patch.object(ingest, "_part", spy):
            forked = parse_city_csv(path)
        assert fork.call_count == 1
        assert len(starts) == 2 and starts[0] < starts[1]  # parts 0 and 1
        assert bits(forked) == bits(serial)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_is_left_unreaped(self, path):
        with in_parts(3) as fork:
            parse_city_csv(path)
        assert fork.call_count == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_usable_cpu_never_forks(self, path):
        serial = parse_city_csv(path)
        with in_parts(1), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            assert bits(parse_city_csv(path)) == bits(serial)

    def test_failed_fork_parses_in_the_parent(self, path):
        serial = parse_city_csv(path)
        with in_parts(3), mock.patch.object(os, "fork", side_effect=BlockingIOError(11, "EAGAIN")):
            assert bits(parse_city_csv(path)) == bits(serial)


class TestPinnedBytes:
    """The benchmark's inputs, the S/K point file and the urn artifacts keep their bytes."""

    def test_synthetic_microdata_digest(self, tmp_path):
        path = tmp_path / "m.csv"
        write_grouped_csv(synthetic_grouped_dataset(seed=0), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "e9b369b4b3e234d3ade8b1f6ad48b91c9f1e1bada15b6cef371eac6b21591c9f"

    def test_sk_points_csv_digest(self):
        groups = {"a": [1, 2, 3, 4, 9], "b": [2, 4, 8, 16, 32, 64], "c": [0.5, 0.25, 0.125, 4.0]}
        text = sk_points_to_csv(group_sk_points(groups).points)
        assert "np." not in text
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "e4c72c503b5d37a6dc7441342eea444dd574a728cb93c24adddb718a2ffa1779"

    @pytest.mark.parametrize(
        "a_shift, alpha, digests",
        [
            (
                "-0.5",
                "0.5",
                {
                    "sim_hist.csv": "585a6d00dda4a4689cf5b024d07e165bff04673b7475ec0d0ecbd8238321075c",
                    "sim_summary.txt": "50be628af7c01dccfbd63fac22bfd25f47b05ef80774bb91ffd4a6d2149d32aa",
                    "sim_result.json": "9d717462b3deaf6c75f68b12b7f64af7935d90e99885c4de95a371c506dfe44b",
                },
            ),
            (
                "1.0",
                "0.3",
                {
                    "sim_hist.csv": "e1bdbd0e7d89ad9f1305f165a52ec29bf32c9d52c7fa4da889099c434850e218",
                    "sim_summary.txt": "c47bd93dc87528c49e4a692538c6bc84c80235f9660eb1243cef0198a42b89da",
                    "sim_result.json": "13fd8242fc4a79b61c49e9cb231c3c2356fa2a2dcfa52ed312d6f8096176a1a5",
                },
            ),
        ],
    )
    def test_simulate_digests(self, tmp_path, a_shift, alpha, digests):
        out = tmp_path / "out"
        argv = ["simulate", "--k0", "1", "--a-shift", a_shift, "--alpha", alpha,
                "--steps", "200000", "--seed", "11", "--format", "json", "--out-dir", str(out)]
        assert main(argv) == 0
        for name, digest in digests.items():
            data = (out / name).read_bytes()
            # a numpy 2 scalar reprs as np.float64(...); none may reach a file
            assert b"np." not in data, name
            assert hashlib.sha256(data).hexdigest() == digest, name


def test_public_names():
    """``skbeta.__all__`` names each public name once, and each resolves."""
    import skbeta

    assert sorted(skbeta.__all__) == sorted(set(skbeta.__all__)) == sorted(
        """__version__ BetaCalibration BetaParams beta_cdf beta_function beta_kurtosis
        beta_pdf beta_skewness calibrate_from_sk help_variable ln_gamma urn_limit_pmf
        urn_limit_pmfs yule_simon_pmf GroupedDataset ProvinceSummaryRow
        load_bundled_province_summary load_province_summary parse_city_csv KSFitResult
        fit_power fit_quadratic help_variable_from_pq GroupSKResult MomentSummary SKPoint
        central_moments detect_outliers group_sk_points histogram shape_moments summarize
        RankFitResult RankModelSpec RankVariant RankedSeries eval_rank_model fit_rank_model
        rank_ascending rank_fit_to_beta SimResult UrnConfig empirical_tail_slope predicted_b
        run tv_distance_to_limit""".split()
    )
    namespace: dict = {}
    exec("from skbeta import *", namespace)
    assert all(namespace[name] is getattr(skbeta, name) for name in skbeta.__all__)
