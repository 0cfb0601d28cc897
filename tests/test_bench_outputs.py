"""``scripts/bench_outputs.py`` writes a benchmark run's per-instance
lines; a run compared with itself is clean, and an edited value is
reported with its instance and index."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_outputs.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), "--workload", "median", "--seed", "2", "--seconds", "1",
                           *args], capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_a_run_against_itself_is_clean_and_an_edit_is_named(tmp_path):
    first, second, edited = (str(tmp_path / f) for f in ("first.txt", "second.txt", "edited.txt"))
    r = _run("--out", first)
    assert r.returncode == 0, r.stderr
    lines = Path(first).read_text().splitlines()
    assert len(lines) == 3 * 23 and lines[0].startswith("median-") and lines[3].startswith("exact-")
    r = _run("--out", second, "--compare", first)
    assert r.returncode == 0 and r.stdout == "", r.stderr
    assert Path(second).read_text() == Path(first).read_text()
    name, *values = lines[1].split(",")
    values[2] = "0.123"
    Path(edited).write_text("\n".join([lines[0], ",".join([name, *values]), *lines[2:]]) + "\n")
    r = _run("--out", second, "--compare", edited)
    assert r.returncode == 1
    assert r.stdout.splitlines() == [f"{name}: value 2: 0.123 -> {lines[1].split(',')[3]}"]


def test_refuses_a_directory_without_the_benchmark(tmp_path):
    r = subprocess.run([sys.executable, str(SCRIPT), "--workload", "median", "--seed", "1", "--seconds", "1",
                        "--out", str(tmp_path / "o.txt")], capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert r.returncode == 2 and "run from a checkout's root" in r.stderr
