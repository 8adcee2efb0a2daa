#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and per metric.

    python3 perfbench/compare.py A B

A and B are each a result file written by run.py, a sweep file written by
sweep.py, or a directory of such files (perfbench/baseline holds the
baseline).  For every workload and metric found on both sides it prints
each side's median and quartiles over its runs and the change of B against
A.  A gated metric (BENCHMARK.json) whose median got worse by more than its
bound is marked WORSE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from sweep import ROOT, quartiles


def load_runs(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        runs.extend(data["runs"] if "runs" in data else [data])
    grouped = {}
    for r in runs:
        grouped.setdefault((r["workload"], r["trace"]), []).append(r)
    return grouped


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gates = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_runs(argv[0]), load_runs(argv[1])
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        print(f"## {key[0]} (trace={key[1]}): A n={len(ra)}, B n={len(rb)}")
        print(f"{'metric':48} {'A median':>11} {'A q1':>11} {'A q3':>11}"
              f" {'B median':>11} {'B q1':>11} {'B q3':>11} {'change':>8}")
        names = [n for n in ra[0]["metrics"] if all(n in r["metrics"] for r in ra + rb)]
        for name in names:
            qa = quartiles([r["metrics"][name]["value"] for r in ra])
            qb = quartiles([r["metrics"][name]["value"] for r in rb])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            mark = ""
            if name in gates:
                worse = -change if better[name] == "higher" else change
                mark = " WORSE" if worse > gates[name]["bound"] else ""
            print(f"{name:48} {qa[1]:11.5g} {qa[0]:11.5g} {qa[2]:11.5g}"
                  f" {qb[1]:11.5g} {qb[0]:11.5g} {qb[2]:11.5g} {change * 100:7.1f}%{mark}")
        fa = sorted({f["id"] for r in ra for f in r["failures"]})
        fb = sorted({f["id"] for r in rb for f in r["failures"]})
        print(f"failing requests: A {len(fa)}, B {len(fb)}; "
              f"only in A {sorted(set(fa) - set(fb))}; only in B {sorted(set(fb) - set(fa))}")


if __name__ == "__main__":
    main()
