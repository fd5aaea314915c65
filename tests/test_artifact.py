import math

import pytest

from adherence.artifact import canonical_json, read_csv, read_json


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
