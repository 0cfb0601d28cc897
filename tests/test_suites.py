import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import depthlab.suites
from depthlab.suites import SUITES, oracle_suite, rows_to_csv, run_suite

ROOT = Path(__file__).resolve().parents[1]


def test_quick_params_bind_to_suite_signatures():
    for suite in SUITES.values():
        inspect.signature(suite.fn).bind(**suite.quick)


@pytest.mark.parametrize("params", [{"seeds": (0, 1), "dims": (2,), "trials": 2},
                                    {"seeds": (0,), "dims": (3,), "trials": 0}])
def test_tmap_rows_per_map_and_trial(params):
    csv = rows_to_csv(run_suite("tmap", params))
    assert csv.count("equivariance_hausdorff") == params["trials"]
    assert csv.count("interior_margin") == len(params["seeds"]) * len(params["dims"])


def test_oracle_suite_requires_the_oracle_bits(monkeypatch):
    # the oracle is exact, so an exact depth 4e-10 off it fails its row,
    # although its count rounds to the oracle's
    assert all(r["pass"] for r in oracle_suite(instances_per_dim=4))
    real = depthlab.suites.point_depth
    monkeypatch.setattr(depthlab.suites, "point_depth",
                        lambda m, q, **kw: SimpleNamespace(depth=real(m, q, **kw).depth + 4e-10))
    rows = oracle_suite(instances_per_dim=4)
    assert len(rows) == 8 and not any(r["pass"] for r in rows)
    assert all(r["observed"] == r["expected"] for r in rows)


_RADO_PROBE = """
import sys
from depthlab.suites import SUITES, rows_to_csv, run_suite
sys.stdout.write(rows_to_csv(run_suite("rado", SUITES["rado"].quick)))
"""


def test_quick_rado_csv_does_not_depend_on_blas_threads():
    # uniform masses are counts, and every evaluator's sums of them are
    # exact, so the medians, floors and their CSV bytes do not move with
    # the BLAS thread count
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run([sys.executable, "-c", _RADO_PROBE], capture_output=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1] and outs[0].count(b"\n") == 17


def test_verify_all_rejects_unknown_suite():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verify_all.py"), "--suites", "nope"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert r.returncode == 2
    assert all(name in r.stderr for name in SUITES)


def test_verify_all_compare_reports_every_difference(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_verify_all.py"), "--suites", "oracle", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    ref = tmp_path / "ref"
    assert run("--out", str(ref)).returncode == 0
    assert run("--out", str(tmp_path / "same"), "--compare", str(ref)).returncode == 0
    rows = (ref / "oracle.csv").read_text().splitlines(keepends=True)
    fields = [r.split(",") for r in rows]
    rows[3] = rows[3].replace("true", "false")
    rows[7] = ",".join(fields[7][:7] + ["0.123"] + fields[7][8:])
    full, rows[9] = rows[9], ",".join(fields[9][:5]) + "\n"  # a truncated row
    (ref / "oracle.csv").write_text("".join(rows[:-1]), newline="")
    r = run("--out", str(tmp_path / "new"), "--compare", str(ref))
    assert r.returncode == 1
    lines = [s.strip() for s in r.stdout.splitlines() if "DIFFERS" in s]
    assert lines == [
        f"DIFFERS line 4: {' '.join(fields[3][:3])}: observed {fields[3][7]} -> {fields[3][7]}, pass false -> true",
        f"DIFFERS line 8: {' '.join(fields[7][:3])}: observed 0.123 -> {fields[7][7]}, pass true -> true",
        f"DIFFERS line 10: {','.join(fields[9][:5])} -> {full.rstrip()}",
        f"DIFFERS line {len(rows)}: {' '.join(fields[-1][:3])}: observed - -> {fields[-1][7]}, pass - -> true",
    ]


def test_verify_all_full_runs_acceptance_sizes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verify_all.py"), "--suites", "oracle", "--full",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0
    assert (tmp_path / "oracle.csv").read_text() == rows_to_csv(run_suite("oracle"))
