import math

import pytest

from skbeta.errors import (
    EmptyInputError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from skbeta.ingest import (
    EXPECTED_PROVINCE_ROWS,
    CityRecord,
    GroupedDataset,
    bundled_fixture_path,
    load_bundled_province_summary,
    load_province_summary,
    parse_city_csv,
    read_sk_points,
    read_value_column,
    write_grouped_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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


class TestCityRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            CityRecord("", "x", 1.0)
        with pytest.raises(ValueError):
            CityRecord("AA", "x", -1.0)


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


def test_grouped_dataset_accessors():
    ds = GroupedDataset(groups={"A": (1.0, 2.0)}, value_label="v")
    assert ds.n_groups == 1 and ds.n_rows == 2
