"""The byte format of every file the program writes, and the decoding of every file it reads.

CSV files are UTF-8 with CRLF row endings (the csv module's default dialect),
and None is written as an empty cell. JSON files hold sorted-key text and end
in a newline; values JSON has no type for (dates, paths) are written as their
``str()``; NaN and infinities, which JSON has no text for, are refused. Input
files are read as UTF-8, a leading byte-order mark skipped; a file that will
not decode raises one ValueError that names it.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from pathlib import Path


def canonical_json(doc, indent: int | None = None) -> str:
    """Sorted-key JSON text; the compact form (indent None) is what fingerprints hash. NaN and +-inf raise."""
    return json.dumps(doc, sort_keys=True, indent=indent, default=str, allow_nan=False)


def write_csv(path: str | Path, header: list, rows: Iterable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_csv_lines(path: str | Path, header: list, blocks: Iterable[list[str]], width: int) -> None:
    """write_csv of rows whose width cells are already joined by ",": each block a list of lines, one per row.

    The cells must be text that needs no quoting, such as numbers or the empty cell, so that a
    line is the row as csv.writer would write it; the one row it writes otherwise is a lone
    empty cell, as "", which keeps that line from being blank. The header is quoted as needed.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lines in blocks:
            if width == 1:
                lines = [line or '""' for line in lines]
            if lines:
                fh.write("\r\n".join(lines))
                fh.write("\r\n")


def write_json(path: str | Path, doc, indent: int | None = 2) -> None:
    Path(path).write_text(canonical_json(doc, indent) + "\n", encoding="utf-8")


def read_csv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each row, header first; a row that spans lines gives its last."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:  # e.g. a cell longer than the csv module's field limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded a text chunk ahead of the rows, so no line
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
