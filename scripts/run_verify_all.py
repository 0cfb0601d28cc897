#!/usr/bin/env python3
"""Run every verification suite at reduced desk scale and write CSV reports.

The reduced sizes are the ``quick`` parameters of each entry in the suite
registry ``depthlab.suites.SUITES``, whose function defaults are the
acceptance sizes; this script is a quick smoke pass (about 5 s on 2
shared cores) that exercises the same machinery.  ``--full`` runs each
suite at its acceptance sizes instead (about 17 s, theorem1 the longest
at 7 s).  The suites run one after another in this process; to verify in
parallel, start separate processes with disjoint ``--suites``.

    python scripts/run_verify_all.py --out verify_out --compare ref_out
    python scripts/run_verify_all.py --full --suites rado --out full_out --compare full_ref

With ``--compare DIR`` it also checks that each suite's CSV is
byte-identical to ``DIR/<suite>.csv`` (say, the output of the parent
commit at the same sizes), prints every differing row of each that is not
(line, suite, check, instance, and the old -> new observed value and pass
flag), and exits 1.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

from depthlab import suites


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="verify_out")
    ap.add_argument("--suites", nargs="*", default=list(suites.SUITES), choices=list(suites.SUITES))
    ap.add_argument("--compare", metavar="DIR", help="require CSVs byte-identical to DIR/<suite>.csv")
    ap.add_argument("--full", action="store_true", help="acceptance sizes (the suite function defaults)")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failed = differ = 0
    for name in args.suites:
        t0 = time.perf_counter()
        rows = suites.run_suite(name, None if args.full else suites.SUITES[name].quick)
        dt = time.perf_counter() - t0
        (out / f"{name}.csv").write_text(suites.rows_to_csv(rows), newline="")
        bad = [r for r in rows if not r["pass"]]
        failed += len(bad)
        print(f"{name:10s} {len(rows) - len(bad):3d}/{len(rows):3d} pass  ({dt:.1f}s)")
        for r in bad[:5]:
            print(f"    FAIL {r['check']} {r['instance']}: observed {r['observed']:.6g} vs {r['expected']:.6g}")
        if args.compare is not None:
            diffs = _differences(out / f"{name}.csv", Path(args.compare) / f"{name}.csv")
            differ += bool(diffs)
            for diff in diffs:
                print(f"    DIFFERS {diff}")
    return 1 if failed or differ else 0


def _differences(path: Path, ref: Path) -> list[str]:
    """Nothing when ``path`` and ``ref`` are byte-identical, else each row
    that differs from the row at the same line of ``ref``: its line, suite,
    check and instance, and its observed value and pass flag, ref -> new
    (``-`` for a row that one file lacks).  A row with fewer than ten
    fields is printed whole, ref -> new."""
    if not ref.is_file():
        return [f"{ref}: missing"]
    new, old = path.read_bytes(), ref.read_bytes()
    if new == old:
        return []
    a, b = (list(csv.reader(x.decode().splitlines())) for x in (new, old))
    out = []
    for i in range(max(len(a), len(b))):
        x, y = (r[i] if i < len(r) else None for r in (a, b))
        if x == y:
            continue
        if any(r is not None and len(r) < 10 for r in (x, y)):
            old_row, new_row = (",".join(r) if r is not None else "-" for r in (y, x))
            out.append(f"line {i + 1}: {old_row} -> {new_row}")
        else:
            key = " ".join((x or y)[:3])
            obs, ok = (f"{y[k] if y else '-'} -> {x[k] if x else '-'}" for k in (7, 9))
            out.append(f"line {i + 1}: {key}: observed {obs}, pass {ok}")
    return out or [f"{path} and {ref} differ outside their fields"]


if __name__ == "__main__":
    sys.exit(main())
