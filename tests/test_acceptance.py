"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every suite runs at the
acceptance parameters of the registry ``depthlab.suites.SUITES``; tolerances,
instance counts and budgets are pinned here; shortfalls are reported per
instance, never silently passed.
"""

import time

import numpy as np
import pytest

from depthlab.suites import oracle_suite, rado_suite, rows_to_csv, run_suite

THREADS = 2


def _report(k: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {k:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")


def _failures(rows):
    return [r for r in rows if not r["pass"]]


def test_01_oracle_equivalence():
    t0 = time.perf_counter()
    rows = run_suite("oracle", threads=THREADS)
    dt = time.perf_counter() - t0
    bad = _failures(rows)
    ok = not bad and dt < 60
    _report(1, "exact depth equals brute-force oracle", ok,
            f"({len(rows)} instances, {dt:.1f}s < 60s)")
    assert not bad, bad[:3]
    assert dt < 60


def test_02_rado_median_floor():
    t0 = time.perf_counter()
    rows = run_suite("rado", threads=THREADS)
    dt = time.perf_counter() - t0
    bad = _failures(rows)
    ok = not bad and dt < 300
    worst = min(r["slack"] for r in rows)
    _report(2, "median depth >= 1/(d+1) - 2/n", ok,
            f"({len(rows)} measures, worst slack {worst:+.4f}, {dt:.0f}s < 300s)")
    assert not bad, bad[:3]
    assert dt < 300


def test_03_deep_lines_in_r3():
    t0 = time.perf_counter()
    # sequential: the profile evaluations are many small operations, which
    # thread pools only slow down on a small machine
    rows = run_suite("theorem1", threads=1)
    dt = time.perf_counter() - t0
    floor_rows = [r for r in rows if r["check"] == "line_floor"]
    quota_rows = [r for r in rows if r["check"] == "improved_quota"]
    improved = [r for r in rows if r["check"] == "line_improved"]
    floor_ok = all(r["pass"] for r in floor_rows)
    quota_ok = quota_rows[0]["pass"]
    hits = int(quota_rows[0]["observed"])
    ok = floor_ok and quota_ok and dt < 600
    _report(3, "deep lines in R^3 (floor 12/12, improved >= 10/12)", ok,
            f"(floor {sum(r['pass'] for r in floor_rows)}/12, improved {hits}/12, {dt:.0f}s < 600s)")
    for r in improved:
        if not r["pass"]:
            print(f"    shortfall: {r['instance']} depth {r['observed']:.4f} < {r['expected']:.4f}")
    assert floor_ok, _failures(floor_rows)
    assert quota_ok, f"improved-bound hits {hits} < 10"
    assert dt < 600


def test_04_cone_mass_bounds():
    rows = run_suite("bmes")
    bad = _failures(rows)
    per_instance = {r["instance"] for r in rows if r["check"] != "weight_precondition"}
    ok = not bad and len(per_instance) == 20
    worst = min(r["slack"] for r in rows)
    _report(4, "cone-mass bounds on 20 witness tuples", ok,
            f"({len(rows)} checks, min slack {worst:+.4g})")
    assert not bad, bad[:3]
    assert len(per_instance) == 20


def test_05_matching_bijection():
    rows = run_suite("bijection")
    bad = _failures(rows)
    matched = [r for r in rows if r["check"] == "matched_mass"]
    ok = not bad and len(matched) == 20
    _report(5, "unique perfect matching on 20 rotated pairs", ok,
            f"({len(rows)} checks)")
    assert not bad, bad[:3]
    assert len(matched) == 20


_shared = {}


def _shared_run(name):
    """(rows, seconds) of one sequential run of a suite whose rows serve two
    criteria."""
    if name not in _shared:
        t0 = time.perf_counter()
        rows = run_suite(name)
        _shared[name] = rows, time.perf_counter() - t0
    return _shared[name]


def test_06_central_cone_containment():
    rows = [r for r in _shared_run("central")[0] if r["check"] == "containment"]
    bad = _failures(rows)
    ok = not bad and len(rows) == 20
    _report(6, "central-cone patches and vectors inside partner cones", ok,
            f"({len(rows)} matched pairs, exact patch vertices)")
    assert not bad, bad[:3]


def test_07_central_vector_estimator():
    rows = [r for r in _shared_run("central")[0] if r["check"].startswith("estimator")]
    bad = _failures(rows)
    angles = [r["observed"] for r in rows if r["check"] == "estimator_axis_angle_deg"]
    ok = not bad and len(angles) == 3
    _report(7, "axis-symmetric estimator (angle < 2 deg, unit norm)", ok,
            f"(angles {['%.3f' % a for a in angles]} deg, exact patches)")
    assert not bad, bad[:3]


def test_08_structural_map_validity():
    # the time bound covers the whole tmap suite, equivariance rows included
    rows, dt = _shared_run("tmap")
    rows = [r for r in rows if r["check"] != "equivariance_hausdorff"]
    bad = _failures(rows)
    margins = [r["observed"] for r in rows if r["check"] == "interior_margin"]
    ok = not bad and dt < 600
    _report(8, "structural map: margin > 0, vectors on cluster directions", ok,
            f"(min margin {min(margins):.4f}, {dt:.0f}s < 600s)")
    assert not bad, bad[:3]
    assert dt < 600


def test_09_equivariance():
    rows = [r for r in _shared_run("tmap")[0] if r["check"] == "equivariance_hausdorff"]
    bad = _failures(rows)
    worst = max(r["observed"] for r in rows)
    ok = not bad and len(rows) == 10
    _report(9, "rotation equivariance of the structural map", ok,
            f"(10 trials, worst Hausdorff {worst:.4f} <= 0.05)")
    assert not bad, bad[:3]


def test_10_determinism_across_threads():
    outputs = []
    for threads in (1, 8):
        for rerun in range(2):
            a = rows_to_csv(oracle_suite(instances_per_dim=6, threads=threads))
            b = rows_to_csv(rado_suite(dims=(2,), seeds_per_dim=6, n=80, threads=threads))
            outputs.append(a + b)
    ok = all(o == outputs[0] for o in outputs)
    _report(10, "byte-identical CSV at thread counts 1 and 8", ok,
            f"({len(outputs)} runs compared)")
    assert ok
