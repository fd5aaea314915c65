"""tools/src_size.py --against over a throwaway git repository of three commits."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"

FIRST = "import os\n\n\ndef f(x):\n    return x\n"  # 5 lines, 3 statements
GROWN = FIRST + "\n\nclass C:\n    a = 1\n    b = 2\n"  # 10 lines, 6 statements
SHRUNK = "def f(x):\n    return x\n"  # 2 lines, 2 statements


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
                    *args], cwd=repo, check=True, capture_output=True)


def commit(repo, files, message):
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", message)


def src_size(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=60)


def test_counts_at_a_revision_and_in_the_working_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    commit(repo, {"src/pkg/a.py": FIRST, "src/pkg/notes.txt": "not python\n", "other.py": GROWN}, "first")
    commit(repo, {"src/pkg/a.py": GROWN, "src/pkg/sub/b.py": FIRST}, "adds lines")
    commit(repo, {"src/pkg/a.py": SHRUNK}, "removes lines")
    (repo / "src" / "pkg" / "sub" / "b.py").write_text(FIRST + "x = 1\n")  # not committed

    grown = src_size(repo / "src", "--against", "HEAD~2")
    assert grown.returncode == 0, grown.stderr
    assert grown.stdout.splitlines() == [
        "HEAD~2: 5 lines, 3 ast.stmt nodes",
        "working tree: 8 lines, 6 ast.stmt nodes",
        "change: +3 lines, +3 ast.stmt nodes",
    ]
    shrunk = src_size(repo / "src", "--against", "HEAD~1")
    assert shrunk.stdout.splitlines() == [
        "HEAD~1: 15 lines, 9 ast.stmt nodes",
        "working tree: 8 lines, 6 ast.stmt nodes",
        "change: -7 lines, -3 ast.stmt nodes",
    ]
    assert src_size(repo / "src").stdout == "8 lines, 6 ast.stmt nodes\n"


def test_unknown_revision_is_one_error_line(tmp_path):
    git(tmp_path, "init", "-q")
    commit(tmp_path, {"src/a.py": FIRST}, "first")
    proc = src_size(tmp_path / "src", "--against", "no-such-rev")
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: git ls-tree")
