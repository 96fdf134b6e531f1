"""Run the benchmark over several seeds and write one results file.

Usage (from the repository root):

    python3 perfbench/collect.py --label NAME [--workloads simulate fit cli]
        [--seeds 1 2 3 ...] [--trace-seeds 1 2 3] [--seconds S]

Each (workload, seed) runs ``run.py`` untraced; each (workload, trace seed)
also runs traced.  Runs are sequential, one at a time.  The results file
``perfbench/results/BENCH_<label>.json`` holds every run record, and per
workload the median, quartiles and spread ((q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them) of each end-to-end
metric next to its bound from BENCHMARK.json, the per-layer medians of
the traced runs, and the tracing overhead: the median traced value minus
the median untraced value of each end-to-end metric over the trace seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace, scratch):
    out = os.path.join(scratch, f"{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as fh:
        record = json.load(fh)
    record["stdout_last_line"] = proc.stdout.strip().splitlines()[-1]
    return record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def summarize(records, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    plain = [r for r in records if r["trace"] == 0]
    traced = [r for r in records if r["trace"] == 1]
    out = {"end_to_end": {}, "per_layer_median": {}, "tracing_overhead": {},
           "failed": sum(r["result"]["failed"] for r in plain),
           "attempted": sum(r["result"]["attempted"] for r in plain),
           "correct": all(r["result"]["correct"] for r in plain)}
    if len(plain) >= 2:
        for name, bound in bounds.items():
            stats = spread([r["end_to_end"][name] for r in plain])
            stats["bound"] = bound
            out["end_to_end"][name] = stats
        for key in plain[0]["summary"]:
            out.setdefault("workload_metrics", {})[key] = statistics.median(
                r["summary"][key] for r in plain)
    if traced:
        for name in traced[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in traced]
            out["per_layer_median"][name] = (
                None if None in values else statistics.median(values))
        seeds = {r["seed"] for r in traced}
        paired = [r for r in plain if r["seed"] in seeds]
        if paired:
            for name in bounds:
                t = statistics.median(r["end_to_end"][name] for r in traced)
                u = statistics.median(r["end_to_end"][name] for r in paired)
                out["tracing_overhead"][name] = {"traced": t, "untraced": u, "difference": t - u}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    results = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="_records-") as scratch:
        for workload in args.workloads:
            records = []
            for seed in args.seeds:
                records.append(run_once(workload, seed, args.seconds, 0, scratch))
                print(workload, seed, "untraced", json.dumps(records[-1]["end_to_end"]), flush=True)
            for seed in args.trace_seeds:
                records.append(run_once(workload, seed, args.seconds, 1, scratch))
                print(workload, seed, "traced", json.dumps(records[-1]["end_to_end"]), flush=True)
            results["workloads"][workload] = {"summary": summarize(records, bench),
                                              "runs": records}
            print(json.dumps(results["workloads"][workload]["summary"]["end_to_end"]), flush=True)
    results["env"] = records[0]["env"]
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "results", f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print("wrote", os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
