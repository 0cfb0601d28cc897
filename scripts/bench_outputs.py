#!/usr/bin/env python3
"""Write the per-instance output lines of a benchmark run, and compare them.

    python scripts/bench_outputs.py --workload structure --seed 1 --seconds 20 --out new.txt
    python scripts/bench_outputs.py --workload structure --seed 1 --seconds 20 --out new.txt --compare old.txt

Run it from the root of the checkout to measure (which need not hold this
script): it imports that checkout's ``benchmark/run.py`` and
``benchmark/workloads.py`` and its ``src/depthlab``, and changes nothing
there.  It builds the workload's rounds for the seed and seconds, warms up
and runs every instance once, untimed, as ``benchmark/run.py`` does, and
writes one line per instance to ``--out``: its name and its output values
at 12 significant digits (``run._fmt``), the lines that ``run.verdict``
hashes into the digest before the check rows.

With ``--compare REF`` (a file this script wrote, say in a copy of the
parent commit) it prints each instance whose line differs from the line
at the same place in REF, with the index of each differing value and
old -> new, and exits 1; a changed digest is then attributed value by
value.
"""

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", required=True, help="file for the per-instance lines")
    ap.add_argument("--compare", metavar="REF", help="report every line that differs from REF's")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "benchmark" / "workloads.py").is_file() or not (root / "src" / "depthlab").is_dir():
        ap.error(f"{root} holds no benchmark/workloads.py and src/depthlab: run from a checkout's root")
    sys.path[:0] = [str(root / "benchmark"), str(root / "src")]
    import run  # pins one BLAS thread before numpy loads, as a benchmark run does
    import workloads

    if args.workload not in run.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(run.WORKLOADS)}")
    instances = [i for r in workloads.build(args.workload, args.seed, args.seconds) for i in r]
    workloads.warm_up(args.workload)
    outputs = [workloads.run(inst) for inst in instances]
    lines = [inst.name + "," + ",".join(run._fmt(v) for v in workloads.check(inst, out)[1])
             for inst, out in zip(instances, outputs)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    if args.compare is None:
        return 0
    diffs = differences(Path(args.compare).read_text().splitlines(), lines)
    for diff in diffs:
        print(diff)
    return 1 if diffs else 0


def differences(old: list[str], new: list[str]) -> list[str]:
    """Each instance line of ``new`` that differs from the line at the same
    place in ``old``: its instance and, value by value, the index and old
    -> new (``-`` for a value or a line that one side lacks)."""
    out = []
    for i in range(max(len(old), len(new))):
        a, b = (x[i].split(",") if i < len(x) else [] for x in (old, new))
        if a == b:
            continue
        if a[:1] != b[:1]:
            out.append(f"line {i + 1}: {','.join(a) or '-'} -> {','.join(b) or '-'}")
            continue
        for j in range(1, max(len(a), len(b))):
            x, y = (v[j] if j < len(v) else "-" for v in (a, b))
            if x != y:
                out.append(f"{a[0]}: value {j - 1}: {x} -> {y}")
    return out


if __name__ == "__main__":
    sys.exit(main())
