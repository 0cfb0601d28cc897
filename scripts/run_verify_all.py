#!/usr/bin/env python3
"""Run every verification suite at reduced desk scale and write CSV reports.

The reduced sizes are the ``quick`` parameters of each entry in the suite
registry ``depthlab.suites.SUITES``, whose function defaults are the
acceptance sizes; this script is a quick smoke pass (a few minutes) that
exercises the same machinery.
"""

import argparse
import sys
import time
from pathlib import Path

from depthlab import suites


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="verify_out")
    # small-op suites are GIL-bound: more threads only help the GEMM-heavy ones
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--suites", nargs="*", default=list(suites.SUITES), choices=list(suites.SUITES))
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in args.suites:
        t0 = time.perf_counter()
        rows = suites.run_suite(name, suites.SUITES[name].quick, threads=args.threads)
        dt = time.perf_counter() - t0
        (out / f"{name}.csv").write_text(suites.rows_to_csv(rows), newline="")
        bad = [r for r in rows if not r["pass"]]
        failed += len(bad)
        print(f"{name:10s} {len(rows) - len(bad):3d}/{len(rows):3d} pass  ({dt:.1f}s)")
        for r in bad[:5]:
            print(f"    FAIL {r['check']} {r['instance']}: observed {r['observed']:.6g} vs {r['expected']:.6g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
