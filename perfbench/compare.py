"""Check that two results files of ``collect.py`` agree within the bounds.

Usage (from the repository root):

    python3 perfbench/compare.py perfbench/results/BENCH_A.json perfbench/results/BENCH_B.json
        [--out FILE]

For each workload both files hold, and each end-to-end metric, it prints
the two medians, the change of the second relative to the first
(B / A - 1), the metric's bound from BENCHMARK.json, and whether the two
agree: |change| <= bound.  It exits with code 1 if any pair disagrees.
``--out`` also writes the table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def compare(first: dict, second: dict, bounds: dict) -> list[dict]:
    rows = []
    for workload, data in first["workloads"].items():
        if workload not in second["workloads"]:
            continue
        a = data["summary"]["end_to_end"]
        b = second["workloads"][workload]["summary"]["end_to_end"]
        for name, bound in bounds.items():
            change = b[name]["median"] / a[name]["median"] - 1.0
            rows.append({"workload": workload, "metric": name,
                         "first": a[name]["median"], "second": b[name]["median"],
                         "change": change, "bound": bound, "agree": abs(change) <= bound})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", help="also write the rows as JSON to this file")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    files = []
    for path in (args.first, args.second):
        with open(path) as fh:
            files.append(json.load(fh))
    rows = compare(files[0], files[1], bounds)

    print(f"{'workload':<10} {'metric':<12} {'first':>10} {'second':>10} {'change':>8} {'bound':>6}  agree")
    for r in rows:
        print(f"{r['workload']:<10} {r['metric']:<12} {r['first']:>10.4g} {r['second']:>10.4g} "
              f"{r['change']:>+8.3f} {r['bound']:>6.2f}  {'yes' if r['agree'] else 'NO'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"first": files[0]["label"], "second": files[1]["label"], "rows": rows},
                      fh, indent=1)
    return 0 if all(r["agree"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
