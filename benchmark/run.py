#!/usr/bin/env python3
"""Outside-in benchmark of depthlab.

    python3 benchmark/run.py --workload deep_line --seed 1 --seconds 20 --trace 0

Run from the repository root.  It builds its inputs from the seed, drives
depthlab's public functions sequentially in this process, checks every
output against its suite's bound outside the timed section, and prints a
run header (lines starting with ``#``) followed by one JSON result line.
With ``--trace 1`` it repeats the timed section with the layer functions
wrapped (see tracing.py) and prints the per-layer metrics instead of the
end-to-end ones.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()  # set-up starts before any heavy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on 2 cores a second one made the median workload at most 4%
# faster, and doubled both its CPU time and its run-to-run spread.  Set before
# numpy loads OpenBLAS; the set-up children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("deep_line", "median", "structure")
# Extra set-up samples, each in a fresh interpreter: over ten runs a single
# sample spread by 0.28 (interquartile range over median).
SETUP_CHILDREN = 4

# the line-search phases; each also reports its time including the spans it
# caused (total_s), since its own self time is a small share of it
PHASES = [f"depth.direction_profile.{p}" for p in ("scan", "rerank", "refine", "final")]
SPANS = [
    "depth.deep_line_search",
    "depth.exact_depth_value_2d",
    *PHASES,
    *(f"depth.point_depth.{c}" for c in ("exact_d2", "exact_d3", "exact_d4", "sampled")),
    "depth.certified_depth_floor",
    "measures.project_measure",
    "median.tukey_median",
    "median.balanced_median",
    "median.min_normal_set",
    "median.witness_tuple",
    "cones.tuple_weight",
    "cones.bmes_report",
    "cones.match_tuples",
    "cones.family_member_order",
    "central.sample_central_rays",
    "central.central_cone",
    "central.containment_check",
    "central.structural_map",
    "geometry.cone_contains_many",
    "geometry.sample_directions",
]
COUNTS = [
    "depth.exact_depth_value_2d.points",
    "depth.point_depth.upper_bound",
    "median.tukey_median.evals",
    "median.min_normal_set.normals",
    "median.witness_tuple.errors",
    "cones.match_tuples.errors",
    "cones.family_member_order.accepted",
    "central.sample_central_rays.rays",
    "central.central_cone.constraints",
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up alone and print it (used for the set-up samples)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(args):
    """Imports, input generation and warm-up.  Returns (workloads module,
    rounds, set-up seconds): the time from this file's first line to the
    end of input generation.  The warm-up runs after it and is not counted."""
    if not (SRC / "depthlab" / "__init__.py").is_file():
        sys.exit(f"error: no depthlab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import depthlab
    import workloads

    if Path(depthlab.__file__).resolve().parent != SRC / "depthlab":
        sys.exit(f"error: imported depthlab from {depthlab.__file__}, not from {SRC}")
    rounds = workloads.build(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - _T0
    workloads.warm_up(args.workload)
    return workloads, rounds, setup_s


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus SETUP_CHILDREN fresh interpreters,
    each in reference seconds by a calibration taken in its own process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = [first * calibrate(args.workload)]
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


_CAL_PTS = np.random.default_rng(12345).standard_normal((400, 2))
_CAL_DIRS = np.random.default_rng(54321).standard_normal((64, 2))
_CAL_RAYS = np.random.default_rng(23456).standard_normal((4000, 3))
_CAL_NORMALS = np.random.default_rng(65432).standard_normal((320, 3))
_CAL_NET = np.random.default_rng(34567).standard_normal((2048, 4)).astype(np.float32)
_CAL_P32 = np.random.default_rng(76543).standard_normal((500, 4)).astype(np.float32)


def _sweep_unit() -> float:
    """An angular sort and sweep of 400 planar points, 64 times: small-array
    numpy work, as in the planar depth kernel."""
    acc = 0.0
    for u in _CAL_DIRS:
        p = _CAL_PTS - 0.1 * u
        ang = np.mod(np.arctan2(p[:, 1], p[:, 0]), 2.0 * np.pi)
        sa = ang[np.argsort(ang, kind="stable")]
        cw = np.concatenate([[0.0], np.cumsum(p @ u)])
        acc += float(cw[np.searchsorted(sa, np.mod(sa + 1.0, 2.0 * np.pi))].min())
    return acc


def _net_unit() -> float:
    """A float32 net of 2048 normals against 500 points in R^4, 4 times:
    chunked float32 matmuls, as in the exact d = 3 prefilter and the d = 4
    certified floor."""
    return float(sum(((_CAL_NET @ _CAL_P32.T) >= 0.1 * k).sum() for k in range(4)))


def _membership_unit() -> float:
    """4000 rays against 320 half-space constraints, 8 times: large-array
    numpy work, as in central-ray sampling."""
    return float(sum(np.all(_CAL_RAYS @ _CAL_NORMALS.T <= 0.5 * k, axis=1).sum() for k in range(8)))


# Per workload: the calibration unit matching its dominant kernel, and a
# reference time for it, as measured on a 2-core machine with Python 3.11.7
# and numpy 2.4.6.  The units are benchmark code, not depthlab code, so no
# change to depthlab can move them.  Times are reported in reference seconds:
# seconds scaled by the reference time over the unit's time in the run, which
# cancels most of the drift in speed of a shared host.
CALIBRATION = {
    "deep_line": (_sweep_unit, 0.0035),
    "median": (_net_unit, 0.0050),
    "structure": (_membership_unit, 0.0150),
}


def calibrate(workload: str, reps: int = 5) -> float:
    """Speed factor from seconds to reference seconds, from the median time
    of the workload's calibration unit now."""
    unit, ref_s = CALIBRATION[workload]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return ref_s / statistics.median(times)


# The host's speed changes within seconds, so a calibration is taken at most
# TICK_S seconds of timed work apart.  Ticks come at round and instance
# boundaries, and inside the one call a deep_line round spends 7 s in, at the
# direction profiles of the search.
TICK_S = 0.3
TICK_HOOK = {"deep_line": ("depthlab.depth", "direction_profile")}


class Clock:
    """Timed work in seconds and in reference seconds.

    ``tick`` pauses the clock for a calibration.  Each stretch of work
    between two calibrations is scaled by the mean of the speeds measured at
    its two ends.  ``on_pause`` is told how long each calibration took, so a
    tracer can take it out of its spans.
    """

    def __init__(self, workload: str, on_pause=None):
        self.workload, self.on_pause = workload, on_pause
        self.wall = self.cpu = self.ref_wall = self.ref_cpu = 0.0
        self._speed = calibrate(workload)
        self._t, self._c = time.perf_counter(), time.process_time()

    def tick(self, force: bool = True) -> None:
        t, c = time.perf_counter(), time.process_time()
        if not force and t - self._t < TICK_S:
            return
        speed = calibrate(self.workload)
        f = (self._speed + speed) / 2.0
        self.wall += t - self._t
        self.cpu += c - self._c
        self.ref_wall += (t - self._t) * f
        self.ref_cpu += (c - self._c) * f
        self._speed = speed
        self._t, self._c = time.perf_counter(), time.process_time()
        if self.on_pause:
            self.on_pause(self._t - t)

    @contextlib.contextmanager
    def hooked(self):
        """Tick, when due, at each call of the workload's hook function."""
        if self.workload not in TICK_HOOK:
            yield
            return
        mod, name = TICK_HOOK[self.workload]
        mod = sys.modules[mod]
        fn = getattr(mod, name)

        def ticking(*args, **kwargs):
            self.tick(force=False)
            return fn(*args, **kwargs)

        setattr(mod, name, ticking)
        try:
            yield
        finally:
            setattr(mod, name, fn)


@dataclass
class Pass:
    outputs: list
    walls: list  # per round, seconds
    ref_walls: list  # per round, reference seconds
    ref_cpus: list  # per round, reference seconds
    ref_latencies: list  # per instance, reference seconds


def timed_pass(wl, wl_name: str, rounds, on_pause=None) -> Pass:
    """Run every round once, on a Clock.  An instance's latency runs from
    the tick before it; timed-alone instances come first in their round."""
    res = Pass([], [], [], [], [])
    clock = Clock(wl_name, on_pause)
    with clock.hooked():
        for instances in rounds:
            clock.tick()
            wall, ref_wall, ref_cpu = clock.wall, clock.ref_wall, clock.ref_cpu
            for inst in instances:
                mark = clock.ref_wall
                res.outputs.append(wl.run(inst))
                if inst.timed_alone:
                    clock.tick()
                    res.ref_latencies.append(clock.ref_wall - mark)
            clock.tick()
            res.walls.append(clock.wall - wall)
            res.ref_walls.append(clock.ref_wall - ref_wall)
            res.ref_cpus.append(clock.ref_cpu - ref_cpu)
    return res


def _fmt(x) -> str:
    """Output values at 12 significant digits, as the suites write CSVs."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def verdict(wl, instances, outputs):
    """(check rows, depth values, digest of per-instance outputs and rows)."""
    from depthlab.suites import rows_to_csv

    rows, depths, lines = [], [], []
    for inst, out in zip(instances, outputs):
        r, values, dep = wl.check(inst, out)
        rows += r
        lines.append(inst.name + "," + ",".join(_fmt(v) for v in values))
        if dep is not None:
            depths.append(dep)
    rows += wl.aggregate_rows(instances, outputs)
    text = "\n".join(lines) + "\n" + rows_to_csv(rows)
    return rows, depths, hashlib.sha256(text.encode()).hexdigest()


def tail(latencies):
    """(value, label): the highest percentile with at least ten samples
    beyond it.  Below 22 samples that percentile is not above the median, so
    the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 22:
        return xs[n - 11], f"p{100 * (n - 10) // n} of {n} instances (10 beyond)"
    return xs[-1], f"max of {n} instances (fewer than 22)"


def _git_revision() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "none (no git)"
    return res.stdout.strip() if res.returncode == 0 else "none (not a git checkout)"


def header(args, rounds, setup_s):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "depthlab").glob("*.py")):
        src_hash.update(path.read_bytes())
    kinds = {}
    for inst in (i for r in rounds for i in r):
        kinds[inst.kind] = kinds.get(inst.kind, 0) + 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": _git_revision(),
        "src_sha256": src_hash.hexdigest()[:16],
        "rounds": len(rounds),
        "instances": kinds,
        "setup_samples_s": [round(s, 4) for s in setup_s],
    }
    for key, value in info.items():
        print(f"# {key}: {value}")


def layer_metrics(tracer, traced: Pass, untraced: Pass):
    """Per-layer metrics of the traced pass.  Self times are in seconds;
    ``trace.wall_s`` and ``trace.overhead_s`` are in reference seconds, as
    ``wall_s`` is, so that drift between the two passes cancels."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = (tracer.calls.get(span, 0), "count")
        out[f"{span}.self_s"] = (tracer.self_s.get(span, 0.0), "s")
    for span in PHASES:
        out[f"{span}.total_s"] = (tracer.total_s.get(span, 0.0), "s")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    calls = tracer.calls.get("cones.family_member_order", 0)
    accepted = tracer.counts.get("cones.family_member_order.accepted", 0)
    out["cones.family_member_order.accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
    traced_wall = statistics.fmean(traced.ref_walls)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.fmean(untraced.ref_walls), "s")
    out["trace.total_s"] = (sum(traced.walls), "s")
    out["trace.unattributed_s"] = (sum(traced.walls) - tracer.top_s, "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    wl, rounds, first_setup = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup * calibrate(args.workload)}))
        return 0
    setup_s = setup_samples(args, first_setup)
    header(args, rounds, setup_s)
    instances = [i for r in rounds for i in r]

    run = timed_pass(wl, args.workload, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows, depths, digest = verdict(wl, instances, run.outputs)
    print(f"# round_s (seconds): {' '.join(f'{w:.3f}' for w in run.walls)}")
    speeds = (r / w for r, w in zip(run.ref_walls, run.walls))
    print(f"# speed (reference seconds per second): {' '.join(f'{f:.4f}' for f in speeds)}")
    print(f"# digest: {digest}")

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            traced = timed_pass(wl, args.workload, rounds, on_pause=tracer.exclude)
        t_digest = verdict(wl, instances, traced.outputs)[2]
        same = t_digest == digest
        print(f"# traced digest: {t_digest} ({'equal' if same else 'DIFFERENT'})")
        rows.append({"suite": args.workload, "check": "traced_digest_equal", "pass": same})
        metrics = layer_metrics(tracer, traced, run)
        total = sum(traced.walls)
        print(f"# trace: {total - tracer.top_s:.4f} s of {total:.4f} s outside every span")
    else:
        tail_s, label = tail(run.ref_latencies)
        print(f"# instance_s.tail: {label}")
        failed = sum(not r["pass"] for r in rows)
        metrics = {
            # the timed section per round, i.e. the time to one verdict
            "wall_s": (statistics.fmean(run.ref_walls), "s"),
            "cpu_s": (statistics.fmean(run.ref_cpus), "s"),
            "instance_s.p50": (statistics.median(run.ref_latencies), "s"),
            "instance_s.tail": (tail_s, "s"),
            "depth_mean": (statistics.fmean(depths), "mass"),
            "pass_share": (1.0 - failed / len(rows), "share"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for r in rows:
        if not r["pass"]:
            print(f"# FAIL {r['check']} {r.get('instance', '')}: observed {r.get('observed')} "
                  f"vs expected {r.get('expected')}")
    failed = sum(not r["pass"] for r in rows)
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
