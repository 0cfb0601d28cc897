"""``scripts/count_lines.py`` runs on the package and counts every line and
the code lines of a file whose docstrings, comments and blank lines are
known."""

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
