#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_N.json \\
        --seed SEED [--pairs 10] [--traced 3]

PARENT_TREE and CHANGE_TREE are two source checkouts (for example a
``git archive`` of the parent commit and the working tree).  SEED should be
one the change was not measured on while it was written.  For every workload
of the change tree's BENCHMARK.json, pair i runs ``perfbench/run.py --trace 0``
for the benchmark's ``run_seconds`` once in each tree, the parent first in
odd pairs and the change first in even ones, so a drift in machine load hits
both sides alike.  Each run writes its result under its own tree's
``perfbench/out/``.

For each gated metric of BENCHMARK.json the output holds both sides' runs,
median and quartiles (``perfbench/sweep.py``'s ``quartiles``), the relative
change of the median, the pairs the change wins in the metric's direction,
whether the median gap exceeds the parent's interquartile range, and whether
the change is worse than the metric's bound.  ``sources`` names each side's
commit (when its tree is a git checkout) and the digest of its ``src/``.
``compare_py`` is the table ``perfbench/compare.py`` prints for the same
runs.  An untraced run that is not ``correct``, on either side, prints its
unexpected failures (request id and reason) and failed self-checks, and
the script exits 1 without writing the output.  With ``--traced K``, K traced quadric runs per side (alternating as
above) follow, and ``traced_quadric`` keeps the call counts and times of the
kernel layers from the last run of each side that passed every self-check
(the last run when none did), and ``attempts`` lists every attempt's
``correct`` flag, the names of its failed self-checks and its
``chow_coverage`` numbers (``wall_s``, ``overhead_s``, ``uncovered_s``,
``ok``); a traced attempt that is not ``correct`` is only recorded there, as
the traced self-checks (``chow_coverage``) can fail on a sound run.  For each
side the script prints how many traced attempts failed each self-check.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")
TRACED = [
    "polyhedron.rays_of_hcone.calls", "polyhedron.rays_of_hcone.total_s",
    "polyhedron.rays_of_hcone.self_s", "exactla.rank_and_kernel.calls",
    "exactla.rref.calls", "polyhedron.intersect.calls", "polyhedron.is_face_of.calls",
    "polyhedron.Polyhedron.from_points_rays.calls", "polyhedron.Cone.from_generators.calls",
    "polyhedron.Cone.from_generators.total_s", "divfan.validate.total_s",
    "divfan.validate.self_s", "cli.parse_fan_document.total_s",
    "complexes.PolyhedralComplex.calls", "complexes.PolyhedralComplex.total_s",
    "chow.hilbert_function.total_s", "chow.hilbert_function.self_s", "cli.main.total_s",
    "complexes.find_shelling.total_s", "complexes.verify_shelling.calls",
    "polyhedron.Polyhedron.faces.calls", "chow.is_shellable_divfan.total_s",
]
COVERAGE = ("wall_s", "overhead_s", "uncovered_s", "ok")


def load_sweep(tree):
    """``perfbench/sweep.py`` of ``tree``, loaded by path."""
    path = tree / "perfbench" / "sweep.py"
    spec = importlib.util.spec_from_file_location("perfbench_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tree, workload, seed, seconds, trace):
    """One perfbench run from ``tree``; its result dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{tree}: {workload} exit {proc.returncode}")
    out = Path(tree) / "perfbench" / "out" / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(out.read_text(encoding="utf-8"))


def require_correct(side, result):
    """Print why a run is not ``correct`` and exit 1; return if it is."""
    if result["correct"]:
        return
    for f in result["failures"]:
        if f["known"] is None:
            print(f"{side} {result['workload']}: unexpected failure {f['id']}: {f['reason']}",
                  file=sys.stderr)
    for name, check in result["selfcheck"].items():
        if not check["ok"]:
            print(f"{side} {result['workload']}: self-check {name} failed", file=sys.stderr)
    sys.exit(1)


def alternating(trees, count, workload, seed, seconds, trace):
    """count runs per side, parent first in odd rounds and change first in even.
    An untraced run that is not ``correct`` ends the comparison with exit 1."""
    runs = {side: [] for side in SIDES}
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run(trees[side], workload, seed, seconds, trace)
            runs[side].append(r)
            print(f"{workload} {i + 1}/{count} {side}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
            if trace == 0:
                require_correct(side, r)
    return runs


def summarize(gate, runs, quartiles):
    """The BENCH_*.json entry of one gated metric."""
    values = {side: [round(r["metrics"][gate["name"]]["value"], 4) for r in runs[side]]
              for side in SIDES}
    sign = 1 if gate["better"] == "higher" else -1
    entry = {"unit": gate["unit"], "better": gate["better"], "bound": gate["bound"]}
    for side in SIDES:
        q1, med, q3 = quartiles(values[side])
        entry[side] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                       "runs": values[side]}
    p, c = entry["parent"], entry["change"]
    change = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(values["parent"], values["change"]))
    entry.update({
        "change_of_median": round(change, 4),
        "change_wins": f"{wins}/{len(values['parent'])}",
        "median_gap_exceeds_parent_iqr":
            sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        "worse_beyond_bound": -sign * change > gate["bound"],
    })
    return entry


def compare_table(trees, workdir, runs_by_workload):
    """perfbench/compare.py's table for every workload, as lines."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for side in SIDES:
        paths[side] = workdir / f"pairs-{side}.json"
        runs = [r for w in runs_by_workload.values() for r in w[side]]
        paths[side].write_text(json.dumps({"runs": runs}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(paths["parent"]), str(paths["change"])],
        cwd=trees["change"], capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def traced(trees, count, seed, seconds):
    """Kernel-layer counts and times from ``count`` traced quadric runs per side."""
    runs = alternating(trees, count, "quadric", seed, seconds, 1)
    out = {}
    for side in SIDES:
        passing = [r for r in runs[side] if r["correct"]] or runs[side]
        metrics = passing[-1]["metrics"]
        out[side] = {k: round(metrics[k]["value"], 5) for k in TRACED if k in metrics}
        out[side]["attempts"] = [attempt(r) for r in runs[side]]
        failed = Counter(n for a in out[side]["attempts"] for n in a["failed_selfchecks"])
        summary = ", ".join(f"{n} failed {k}/{count}" for n, k in sorted(failed.items()))
        print(f"traced {side}: {summary or 'no self-check failed'} ({count} attempts)",
              flush=True)
    return out


def attempt(result):
    """A traced run's verdict: correct, failed self-checks, chow coverage."""
    coverage = result["selfcheck"].get("chow_coverage", {})
    return {
        "correct": result["correct"],
        "failed_selfchecks": sorted(n for n, c in result["selfcheck"].items() if not c["ok"]),
        "chow_coverage": {k: coverage[k] for k in COVERAGE if k in coverage},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    quartiles = load_sweep(trees["change"]).quartiles
    seconds = spec["run_seconds"]
    runs_by_workload = {}
    report = {
        "method": f"{args.pairs} alternating parent/change pairs per workload (odd pairs run "
                  f"the parent first, even pairs the change first), python3 perfbench/run.py "
                  f"--workload W --seed {args.seed} --seconds {seconds} --trace 0, each side "
                  f"from its own source tree; quartiles as perfbench/sweep.py; a pair is a "
                  f"win when the change's value is better in the metric's direction",
        "machine": f"{platform.machine()}, {platform.system()}, Python "
                   f"{platform.python_version()}",
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = alternating(trees, args.pairs, workload, args.seed, seconds, 0)
        runs_by_workload[workload] = runs
        report["workloads"][workload] = {
            "metrics": {g["name"]: summarize(g, runs, quartiles) for g in spec["end_to_end"]},
            "runs": {side: {"failed": sum(r["failed"] for r in runs[side]),
                            "attempted": sum(r["attempted"] for r in runs[side]),
                            "all_correct": all(r["correct"] for r in runs[side])}
                     for side in SIDES},
        }
    first = next(iter(runs_by_workload.values()))
    report["sources"] = {side: {k: first[side][0]["env"][k] for k in ("commit", "source_sha256")}
                         for side in SIDES}
    report["compare_py"] = compare_table(
        trees, trees["change"] / "perfbench" / "out", runs_by_workload)
    if args.traced:
        report["traced_quadric"] = traced(trees, args.traced, args.seed, seconds)
    args.out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:13} {name:15} {m['parent']['median']:>10} -> "
                  f"{m['change']['median']:>10} ({m['change_of_median']:+.1%}, "
                  f"wins {m['change_wins']}, gap>IQR {m['median_gap_exceeds_parent_iqr']}, "
                  f"worse>bound {m['worse_beyond_bound']})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
