"""Print the size of a source tree: its lines, counted as `wc -l` counts them, and its `ast.stmt` nodes.

Usage: python tools/src_size.py [directory]

The directory defaults to the repository's src/; every *.py file under it is counted.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def src_size(root: Path) -> tuple[int, int]:
    """(newline characters, ast.stmt nodes) summed over the *.py files under root."""
    lines = statements = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_bytes()
        lines += text.count(b"\n")
        statements += sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text, filename=str(path))))
    return lines, statements


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    lines, statements = src_size(root)
    print(f"{lines} lines, {statements} ast.stmt nodes")
