#!/usr/bin/env python3
"""Run one workload once per seed and collect the results in one file.

    python3 perfbench/sweep.py --workload quadric --seeds 1-10 \\
        [--seconds 25] [--trace 0] [--out perfbench/out/sweep-quadric.json]

Each run is ``perfbench/run.py`` in its own process, one after another.  The
sweep prints, for every metric, the median, the quartiles and the spread
(q3 - q1) / median over the runs, next to the bound of a gated metric in
BENCHMARK.json, and every failing request with its reason.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    out = args.out or HERE / "out" / f"sweep-{args.workload}-t{args.trace}.json"
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result_file = HERE / "out" / f"{args.workload}-s{seed}-t{args.trace}.json"
        runs.append(json.loads(result_file.read_text(encoding="utf-8")))
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']}", flush=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                               "seconds": seconds, "runs": runs}, indent=1) + "\n",
                   encoding="utf-8")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':48} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for name in [n for n in runs[0]["metrics"] if all(n in r["metrics"] for r in runs)]:
        q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else (
            " >bound/3" if spread <= bound else " >BOUND")
        print(f"{name:48} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
              f"{'' if bound is None else f'{bound:6.2f}'}{flag}")
    ratios = [r["failed"] / r["attempted"] for r in runs]
    print(f"fail ratio over all requests of each run: {[round(x, 4) for x in ratios]}")
    failing = {}
    for r in runs:
        for f in r["failures"]:
            failing.setdefault((f["id"], f["reason"], f["known"]), set()).add(r["env"]["seed"])
    for (rid, reason, known), seeds in sorted(failing.items()):
        print(f"failing {rid}: {reason} [{known or 'UNEXPECTED'}] seeds {sorted(seeds)}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
