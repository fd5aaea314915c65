"""The byte format of every file the program writes.

CSV files are UTF-8 with CRLF row endings (the csv module's default dialect),
and None is written as an empty cell. JSON files hold sorted-key text and end
in a newline; values JSON has no type for (dates, paths) are written as their
``str()``.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from pathlib import Path


def canonical_json(doc, indent: int | None = None) -> str:
    """Sorted-key JSON text; the compact form (indent None) is what fingerprints hash."""
    return json.dumps(doc, sort_keys=True, indent=indent, default=str)


def write_csv(path: str | Path, header: list, rows: Iterable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, doc, indent: int | None = 2) -> None:
    Path(path).write_text(canonical_json(doc, indent) + "\n", encoding="utf-8")
