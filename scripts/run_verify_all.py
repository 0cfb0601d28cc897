#!/usr/bin/env python3
"""Run every verification suite at reduced desk scale and write CSV reports.

The reduced sizes are the ``quick`` parameters of each entry in the suite
registry ``depthlab.suites.SUITES``, whose function defaults are the
acceptance sizes; this script is a quick smoke pass (a few minutes) that
exercises the same machinery.  ``--full`` runs each suite at its
acceptance sizes instead (a few minutes for most suites, longer for
theorem1).

    python scripts/run_verify_all.py --out verify_out --compare ref_out
    python scripts/run_verify_all.py --full --suites rado --out full_out --compare full_ref

With ``--compare DIR`` it also checks that each suite's CSV is
byte-identical to ``DIR/<suite>.csv`` (say, the output of the parent
commit at the same sizes), prints the first differing row of each that is
not, and exits 1.
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
    ap.add_argument("--compare", metavar="DIR", help="require CSVs byte-identical to DIR/<suite>.csv")
    ap.add_argument("--full", action="store_true", help="acceptance sizes (the suite function defaults)")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failed = differ = 0
    for name in args.suites:
        t0 = time.perf_counter()
        rows = suites.run_suite(name, None if args.full else suites.SUITES[name].quick, threads=args.threads)
        dt = time.perf_counter() - t0
        (out / f"{name}.csv").write_text(suites.rows_to_csv(rows), newline="")
        bad = [r for r in rows if not r["pass"]]
        failed += len(bad)
        print(f"{name:10s} {len(rows) - len(bad):3d}/{len(rows):3d} pass  ({dt:.1f}s)")
        for r in bad[:5]:
            print(f"    FAIL {r['check']} {r['instance']}: observed {r['observed']:.6g} vs {r['expected']:.6g}")
        if args.compare is not None:
            diff = _first_difference(out / f"{name}.csv", Path(args.compare) / f"{name}.csv")
            if diff:
                differ += 1
                print(f"    DIFFERS {diff}")
    return 1 if failed or differ else 0


def _first_difference(path: Path, ref: Path) -> str | None:
    """None when ``path`` and ``ref`` are byte-identical, else where they
    first differ."""
    if not ref.is_file():
        return f"{ref}: missing"
    new, old = path.read_bytes(), ref.read_bytes()
    if new == old:
        return None
    a, b = new.splitlines(keepends=True), old.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    new_row, ref_row = (r[i].decode().rstrip("\r\n") if i < len(r) else "<end of file>" for r in (a, b))
    return f"from {ref} at line {i + 1}:\n      new {new_row}\n      ref {ref_row}"


if __name__ == "__main__":
    sys.exit(main())
