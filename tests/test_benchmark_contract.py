"""The benchmark's contract in the tier-1 suite: round 0 of every workload in
``BENCHMARK.json`` goes through the benchmark's own timed calls and checks
(``benchmark/workloads.py``), and every check row passes.

The benchmark reads many of depthlab's result types (``ConeTuple.cones``,
``MatchReport``, ``BmesReport``, ``GeneratingTuple.rotated``,
``DepthResult.mode`` and more), so a change to one of them fails here, not
only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    # a dataclass looks its module up in sys.modules while the module
    # executes, so the module is registered before it runs
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", ROOT / "benchmark" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_zero_passes_every_check(workloads, workload):
    rows = []
    for inst in workloads.build(workload, 1, 0)[0]:
        inst_rows, _, _ = workloads.check(inst, workloads.run(inst))
        rows += inst_rows
    failed = [f"{r['instance']} {r['check']}: observed {r['observed']} vs {r['expected']}"
              for r in rows if not r["pass"]]
    assert rows and not failed, failed
