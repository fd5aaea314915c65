import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from adherence.artifact import canonical_json, read_csv, read_json, write_csv, write_csv_lines


def test_read_csv_numbers_each_row_by_its_last_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'\xef\xbb\xbfa,b\r\n1,"two\r\nlines"\r\n\r\n3,4\r\n')
    assert list(read_csv(path)) == [(1, ["a", "b"]), (3, ["1", "two\r\nlines"]), (4, []), (5, ["3", "4"])]


def test_read_csv_names_the_line_of_a_csv_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3," + "4" * 131_073 + "\n")
    with pytest.raises(ValueError) as info:
        list(read_csv(path))
    assert str(info.value).startswith(f"{path}: line 3: field larger than field limit")


def test_read_csv_names_the_file_of_a_decode_error_but_no_line(tmp_path):
    """The text is decoded a chunk ahead of the rows, so no line number would be exact."""
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"\xff\n")
    with pytest.raises(ValueError) as info:
        list(read_csv(path))
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"{\"a\": \xff}", "not UTF-8 text (invalid start byte)"),
        (b"{\"a\": 1,}", "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["not-utf8", "trailing-comma", "empty"],
)
def test_read_json_names_the_file(tmp_path, data, message):
    path = tmp_path / "t.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        read_json(path)
    assert str(info.value) == f"{path}: {message}"


def test_read_json_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "t.json"
    path.write_bytes(b'\xef\xbb\xbf{"a": [1, 2.5, null]}')
    assert read_json(path) == {"a": [1, 2.5, None]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
def test_canonical_json_refuses_what_json_has_no_text_for(value):
    """RFC 8259 JSON holds no NaN or infinity, so no file the program writes may."""
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json({"a": [1.0, value]})


NUMERIC_CELL = st.one_of(
    st.just(""),
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "-0", "inf", "-inf", "1e+16", "5e-324", "0.30000000000000004"]),
)
HEADER_NAME = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from(',"\r\n')), max_size=6)


@st.composite
def joined_table(draw):
    """(header, rows, block size): 1-6 numeric or empty cells per row, and maybe a 0/1 label cell after them."""
    width = draw(st.integers(1, 6))
    labeled = draw(st.booleans())
    rows = draw(st.lists(
        st.tuples(st.lists(NUMERIC_CELL, min_size=width, max_size=width), st.sampled_from(["0", "1"])).map(
            lambda r: r[0] + [r[1]] if labeled else r[0]),
        max_size=12,
    ))
    header = draw(st.lists(HEADER_NAME, min_size=width + labeled, max_size=width + labeled))
    return header, rows, draw(st.integers(1, 5))


@given(joined_table())
def test_joined_lines_write_the_csv_writers_bytes(table):
    header, rows, block = table
    lines = [",".join(row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        write_csv_lines(Path(tmp) / "joined.csv", header, (lines[i : i + block] for i in range(0, len(lines), block)),
                        len(header))
        write_csv(Path(tmp) / "writer.csv", header, rows)
        assert (Path(tmp) / "joined.csv").read_bytes() == (Path(tmp) / "writer.csv").read_bytes()


def test_joined_lines_quote_a_lone_empty_cell_and_the_header(tmp_path):
    write_csv_lines(tmp_path / "t.csv", ["a,b", 'say "hi"', "two\nlines"], [["1,,2", ",,"]], 3)
    assert (tmp_path / "t.csv").read_bytes() == b'"a,b","say ""hi""","two\nlines"\r\n1,,2\r\n,,\r\n'
    write_csv_lines(tmp_path / "one.csv", ["x"], [["1", ""], [""]], 1)
    assert (tmp_path / "one.csv").read_bytes() == b'x\r\n1\r\n""\r\n""\r\n'
