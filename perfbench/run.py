#!/usr/bin/env python3
"""End-to-end benchmark of tvartop CLI requests, with per-layer traces.

    python3 perfbench/run.py --workload quadric|toric-stream|session \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A request is one ``tvartop`` command on one JSON document, sent
through ``tvartop.cli.main`` in a worker forked from this process (closed
loop, one client, one request at a time).  With ``--trace 0`` the run
measures end-to-end metrics; with ``--trace 1`` it runs the same requests
untraced and then traced, and reports per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  Results go
to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracles
import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
SHELLING_SEED = "0"
NOTE = ("shared, unpinned sandbox; other tenants may load the cores; "
        "nothing is pinned or isolated")


def _import_tvartop():
    """Import every tvartop module from this checkout's src/, or exit 2."""
    if not (SRC / "tvartop" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no tvartop sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tvartop.chow
    import tvartop.cli
    import tvartop.fixtures  # noqa: F401
    import tvartop.invariants
    import tvartop.pi1  # noqa: F401

    if Path(tvartop.__file__).resolve().parent != SRC / "tvartop":
        sys.stderr.write(f"perfbench: tvartop imported from {tvartop.__file__}\n")
        sys.exit(2)


def _write_documents(docs, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in docs.items():
        (workdir / name).write_bytes(data)


def setup_probe(workload, seed):
    """Import tvartop and generate and write the inputs; print the time taken
    and the reference burst time measured right after, in the same process."""
    start = time.perf_counter()
    _import_tvartop()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _write_documents(workloads.WORKLOADS[workload]().documents(seed), workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    burst = statistics.median(calibrate.burst() for _ in range(3))
    print(json.dumps({"setup_s": elapsed, "burst_s": burst}))


def measure_setup(workload, seed):
    """SETUP_PROBES set-ups, each in a fresh interpreter: the median of the
    calibrated times, the median raw time, and the raw samples."""
    raw, cal = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 1)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        cal.append(probe["setup_s"] * calibrate.NOMINAL_S / probe["burst_s"])
    return statistics.median(cal), statistics.median(raw), raw


def argv_for(req, workdir):
    argv = [req["cmd"], str(workdir / req["doc"])]
    return argv if req["cmd"] == "downgrade" else argv + ["--format", "json"]


class Pass:
    """One pass over a workload's rounds, with or without tracing.

    A probing pass samples the machine's speed in the workers and in this
    process while they work (``calibrate.Probe``); the samples' own time is
    taken out of every latency and of the wall time.
    """

    def __init__(self, workload, workdir, tracing=None, probe=False):
        self.w, self.workdir, self.tracing, self.probe = workload, workdir, tracing, probe
        self.records = []   # (request id, command, latency s, status)
        self.failures = []  # {"id", "reason", "known"}
        self.maxrss_kb = 0
        self.spans = []     # (request number, packed spans)
        self.keyed = {}     # worker -> cumulative keyed counts
        self.seed_env = set()
        self.probes = []    # speed samples, s
        self.wall = 0.0
        self.rounds = 0

    def run(self, rounds=None, seconds=None):
        warm = worker.Worker(self.tracing, self.probe) if self.w.warm else None
        own = calibrate.Probe().start() if self.probe else None
        start = time.perf_counter()
        try:
            while rounds is None or self.rounds < rounds:
                if seconds is not None and self.rounds and time.perf_counter() - start >= seconds:
                    break
                for req in self.w.round(self.rounds):
                    self._one(req, warm)
                self.rounds += 1
        finally:
            if own is not None:
                own.stop()
                self.probes += own.take()
            if warm is not None:
                self.maxrss_kb = max(self.maxrss_kb, warm.close())
        self.wall = time.perf_counter() - start - sum(self.probes)
        return self

    def _one(self, req, warm):
        argv = argv_for(req, self.workdir)
        t0 = time.perf_counter()
        if warm is None:
            latency, head, blob, maxrss = worker.cold_request(argv, self.tracing, self.probe)
            self.keyed[len(self.records)] = head["keyed"]
        else:
            head, blob = warm.request(argv)
            latency, maxrss = time.perf_counter() - t0, head["maxrss_kb"]
            self.keyed["warm"] = head["keyed"]
        latency -= sum(head["probes"])
        self.probes += head["probes"]
        self.maxrss_kb = max(self.maxrss_kb, maxrss)
        self.seed_env.add(head["seed_env"])
        outcome = oracles.check(req["cmd"], req["expect"], head["code"],
                                head["stdout"], head["stderr"])
        if req["produces"]:
            target = self.workdir / req["produces"]
            if head["code"] == 0:
                target.write_text(head["stdout"], encoding="utf-8")
            elif target.exists():
                target.unlink()
        if outcome.status == "failed":
            self.failures.append({"id": req["id"], "reason": outcome.reason,
                                  "known": outcome.known})
        if blob:
            self.spans.append((len(self.records), req["id"], blob))
        self.records.append((req["id"], req["cmd"], latency, outcome.status))


def tail(values):
    """Value at the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer there is none, and the maximum is reported.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(p, setup_cal, setup_raw):
    lat = [r[2] for r in p.records]
    attempted = len(p.records)
    per_cmd = {}
    for _, cmd, latency, _ in p.records:
        per_cmd.setdefault(cmd, []).append(latency)
    value, pct, n = tail(lat)
    if not p.probes:
        sys.exit("perfbench: no speed samples were taken; the run was too short")
    speed = calibrate.speed(p.probes)
    metrics = {"setup_s": (setup_cal, "s"), "raw_setup_s": (setup_raw, "s")}
    for cmd in ("validate", "invariants", "chow", "pi1", "bouquet", "downgrade"):
        if cmd in per_cmd:
            metrics[f"{cmd}_s"] = (statistics.median(per_cmd[cmd]), "s")
    metrics.update({
        "request_median_s": (statistics.median(lat), "s"),
        "request_tail_s": (value, "s"),
        "throughput_rps": (attempted / (p.wall * speed), "1/s"),
        "raw_throughput_rps": (attempted / p.wall, "1/s"),
        "fail_ratio": (len(p.failures) / attempted, "ratio"),
        "refused_ratio": (sum(r[3] == "refused" for r in p.records) / attempted, "ratio"),
        "peak_rss_mb": (p.maxrss_kb / 1024.0, "MB"),
    })
    extra = {"request_tail_percentile": pct, "request_tail_n": n,
             "samples": {cmd: len(v) for cmd, v in per_cmd.items()},
             "requests": attempted, "rounds": p.rounds, "wall_s": p.wall,
             "speed": speed, "speed_samples": len(p.probes)}
    return metrics, extra


def per_layer(p):
    table = tracer.LayerTable()
    for _, _, blob in p.spans:
        table.add(tracer.unpack(blob))
    metrics = {}
    for name, calls, total, self_s in table.rows():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in tracer.KEYED:
        calls = sum(k[name][0] for k in p.keyed.values())
        distinct = sum(k[name][1] for k in p.keyed.values())
        metrics[f"{name}.repeat_ratio"] = (1.0 - distinct / calls if calls else 0.0, "ratio")
    return metrics, table


def write_trace(name, p, table):
    """The span file and the per-layer table of a traced pass."""
    OUT.mkdir(exist_ok=True)
    origin = tracer.unpack(p.spans[0][2])[0][2] if p.spans else 0.0
    with open(OUT / f"{name}.spans.tsv", "w", encoding="utf-8") as fh:
        fh.write("request\trequest_id\tspan\tparent\tname\tstart_s\tend_s\n")
        for num, rid, blob in p.spans:
            for sid, (idx, parent, start, end) in enumerate(tracer.unpack(blob)):
                fh.write(f"{num}\t{rid}\t{sid}\t{parent}\t{tracer.NAMES[idx]}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")
    with open(OUT / f"{name}.layers.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{'layer function':48} {'calls':>9} {'total_s':>10} {'self_s':>10}\n")
        for fname, calls, total, self_s in table.rows():
            fh.write(f"{fname:48} {calls:9d} {total:10.4f} {self_s:10.4f}\n")


def isolation_check(workload, docs, workdir):
    """Two traced fresh workers running the same request give equal calls.

    The request is the first pi1 (else the first request) of round 0 that
    reads a generated document and is expected to succeed.
    """
    eligible = [r for r in workload.round(0)
                if r["doc"] in docs and not r["expect"].get("error")]
    req = next((r for r in eligible if r["cmd"] == "pi1"), eligible[0])
    argv = argv_for(req, workdir)
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            _, _, blob, _ = worker.cold_request(argv, t)
        finally:
            t.uninstall()
        table = tracer.LayerTable()
        table.add(tracer.unpack(blob))
        counts.append(table.calls_by_name())
    return {"request": req["id"], "ok": counts[0] == counts[1] and sum(counts[0].values()) > 0}


def chow_coverage(untraced, traced):
    """On quadric: the traced chow request's self times sum to its wall time
    within the tracing overhead (traced minus untraced latency)."""
    def latency(p):
        return next(r[2] for r in p.records if r[1] == "chow")

    num, rid, blob = next(s for s in traced.spans if s[1].endswith("/chow"))
    spans = tracer.unpack(blob)
    table = tracer.LayerTable()
    table.add(spans)
    self_sum = sum(table.self_)
    wall, base = latency(traced), latency(untraced)
    overhead = wall - base
    gap = wall - self_sum
    shares = {name: table.total[tracer.NAMES.index(name)] / wall
              for name in ("divfan.validate", "chow.hilbert_function")}
    return {"request": rid, "wall_s": wall, "untraced_s": base, "overhead_s": overhead,
            "self_sum_s": self_sum, "uncovered_s": gap, "share_of_wall": shares,
            "ok": 0.0 <= gap <= max(overhead, 0.0) + 0.01 * wall}


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "tvartop").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "shelling_seed": SHELLING_SEED,
        "note": NOTE,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("quadric", "toric-stream", "session"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    _import_tvartop()
    os.environ["TVARTOP_SEED"] = SHELLING_SEED
    setup_cal, setup_raw, setup_samples = measure_setup(args.workload, args.seed)
    make = workloads.WORKLOADS[args.workload]
    workload = make()
    docs = workload.documents(args.seed)
    selfcheck = {"documents_repeat": {"ok": docs == make().documents(args.seed)}}
    workdir = OUT / f"work-{os.getpid()}"
    result = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "setup_samples_s": setup_samples}
    try:
        _write_documents(docs, workdir)
        if args.trace == 0:
            main_pass = Pass(workload, workdir, probe=True).run(seconds=args.seconds)
            passes = [main_pass]
            metrics, extra = end_to_end(main_pass, setup_cal, setup_raw)
            result["end_to_end"] = extra
        else:
            # Same rounds untraced, then traced: the difference is the overhead.
            selfcheck["isolation"] = isolation_check(workload, docs, workdir)
            untraced = Pass(workload, workdir).run(rounds=workload.trace_rounds)
            t = tracer.Tracer()
            t.install()
            try:
                main_pass = Pass(workload, workdir, t).run(rounds=workload.trace_rounds)
            finally:
                t.uninstall()
            passes = [untraced, main_pass]
            metrics, table = per_layer(main_pass)
            write_trace(args.workload, main_pass, table)
            n = len(main_pass.records)
            result["tracing_overhead"] = {
                "per_request_s": (main_pass.wall - untraced.wall) / n,
                "share": main_pass.wall / untraced.wall - 1.0,
                "traced_wall_s": main_pass.wall, "untraced_wall_s": untraced.wall,
                "requests": n}
            if args.workload == "quadric":
                selfcheck["chow_coverage"] = chow_coverage(untraced, main_pass)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    selfcheck["shelling_seed_fixed"] = {
        "ok": all(p.seed_env == {SHELLING_SEED} for p in passes)}
    failures = [f for p in passes for f in p.failures]
    unknown = [f for f in failures if f["known"] is None]
    correct = not unknown and all(c["ok"] for c in selfcheck.values())
    attempted = sum(len(p.records) for p in passes)
    result.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "selfcheck": selfcheck,
        "failures": _summarize(failures),
        "correct": correct, "attempted": attempted, "failed": len(failures),
    })
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    _print_report(result)
    gated = _gated_names(args.trace)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: result["metrics"][k] for k in gated if k in result["metrics"]},
    }))
    return 0


def _summarize(failures):
    """Distinct (request, reason) pairs with their counts."""
    out = {}
    for f in failures:
        key = (f["id"], f["reason"])
        if key not in out:
            out[key] = {**f, "count": 0}
        out[key]["count"] += 1
    return sorted(out.values(), key=lambda f: f["id"])


def _gated_names(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_report(result):
    print(f"# perfbench {result['workload']} seed={result['env']['seed']} "
          f"trace={result['trace']} nproc={result['env']['nproc']} "
          f"python={result['env']['python']} commit={result['env']['commit']}")
    print(f"# {result['env']['note']}")
    for name, m in result["metrics"].items():
        if result["trace"] == 0 or not name.endswith(("total_s", "self_s")) or m["value"]:
            print(f"{name} {m['value']:.6g} {m['unit']}")
    if "end_to_end" in result:
        e = result["end_to_end"]
        print(f"# request_tail_s at p{e['request_tail_percentile']:.1f} of n={e['request_tail_n']}; "
              f"samples per command {e['samples']}; {e['rounds']} rounds in {e['wall_s']:.2f} s")
        print(f"# speed {e['speed']:.4f} of nominal over {e['speed_samples']} samples; "
              f"throughput_rps is raw_throughput_rps / speed")
    if "tracing_overhead" in result:
        o = result["tracing_overhead"]
        print(f"# tracing overhead {o['per_request_s'] * 1000:.3f} ms per request "
              f"({o['share'] * 100:.1f}% of untraced wall)")
    for name, c in result["selfcheck"].items():
        detail = {k: v for k, v in c.items() if k != "ok"}
        print(f"# selfcheck {name}: {'ok' if c['ok'] else 'FAILED'} {json.dumps(detail)}")
    for f in result["failures"]:
        print(f"# failed x{f['count']} {f['id']}: {f['reason']} "
              f"[{f['known'] or 'UNEXPECTED'}]")
    print(f"# correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


if __name__ == "__main__":
    sys.exit(main())
