"""Print the size of a source tree: its lines, counted as `wc -l` counts them, and its `ast.stmt` nodes.

Usage: python tools/src_size.py [directory] [--against REV]

The directory defaults to the repository's src/; every *.py file under it is counted. With
--against, it also counts the *.py files of that directory at git revision REV, read through
`git ls-tree` and `git show` with no checkout, and prints both counts and their change.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from collections.abc import Iterable
from pathlib import Path


def count(files: Iterable[tuple[str, bytes]]) -> tuple[int, int]:
    """(newline characters, ast.stmt nodes) summed over (name, text) pairs of Python files."""
    lines = statements = 0
    for name, text in files:
        lines += text.count(b"\n")
        statements += sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text, filename=name)))
    return lines, statements


def src_size(root: Path) -> tuple[int, int]:
    """count() of the *.py files under root, as they are on disk."""
    return count((str(path), path.read_bytes()) for path in sorted(root.rglob("*.py")))


def src_size_at(root: Path, rev: str) -> tuple[int, int]:
    """count() of the *.py files under root as git holds them at rev."""
    def git(*args: str) -> bytes:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True)
        if proc.returncode != 0:
            sys.exit(f"error: git {' '.join(args)}: {proc.stderr.decode(errors='replace').strip()}")
        return proc.stdout

    names = git("ls-tree", "-r", "-z", "--name-only", rev, "--", ".").decode().split("\0")
    return count((f"{rev}:{name}", git("show", f"{rev}:./{name}")) for name in names if name.endswith(".py"))


def _size(lines: int, statements: int) -> str:
    return f"{lines} lines, {statements} ast.stmt nodes"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--against", metavar="REV", help="also count the directory at this git revision")
    args = parser.parse_args(argv)
    now = src_size(args.directory)
    if args.against is None:
        print(_size(*now))
        return 0
    then = src_size_at(args.directory, args.against)
    print(f"{args.against}: {_size(*then)}")
    print(f"working tree: {_size(*now)}")
    print(f"change: {now[0] - then[0]:+d} lines, {now[1] - then[1]:+d} ast.stmt nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
