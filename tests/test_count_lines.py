"""``scripts/count_lines.py`` runs on the package and counts every line and
the code lines of a file whose docstrings, comments and blank lines are
known, and the public parameters with a default of a small package whose
count is known."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "count_lines.py"


def _run(*args) -> str:
    r = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_counts_the_package_as_wc_does():
    files = sorted((ROOT / "src" / "depthlab").rglob("*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    out = _run()
    assert f"{len(files)} files, {lines} lines, " in out and out.rstrip().endswith(" code lines")


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\n# a comment\nX = (1,\n     2)  # trailing\n\n\n'
        'def f():\n    """One line."""\n    s = """not a\n    docstring"""\n    return s\n',
        encoding="utf-8")
    assert _run(str(tmp_path)).rstrip().endswith("1 files, 14 lines, 6 code lines")


def test_counts_public_parameters_with_a_default(tmp_path):
    # public top-level functions and public methods of public classes, keyword
    # defaults too; private names and nested functions count nothing
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, *, c=2, d):\n    pass\n\n\n"
        "def _g(a=1):\n    pass\n\n\n"
        "class C:\n    def m(self, x=1):\n        pass\n\n    def _n(self, y=2):\n        pass\n\n\n"
        "class _D:\n    def m(self, x=1):\n        pass\n\n\n"
        "def h(a=1):\n    def inner(b=2):\n        pass\n",
        encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("async def k(p=None, q=3):\n    pass\n", encoding="utf-8")
    first, last = _run(str(tmp_path)).splitlines()
    assert first.endswith(": 6 public parameters with a default") and " 2 files, " in last
