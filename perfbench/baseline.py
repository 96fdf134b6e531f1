"""Re-measure the rows of the ROADMAP baseline table, each in a fresh process.

Usage (from the repository root):

    python3 perfbench/baseline.py [--repeats 3] [--out perfbench/results/BASELINE_ROWS.json]

Rows: package import (with the share of ``scipy.stats``), the tau = 1
figure-regime resolve, the cold basis draw and the projection of the
tau = 10 model with delta = 0.74 at eta = eta_max, and ``log_density`` at
n = 293 with 728 levels (peak RSS growth and tracemalloc peak).  Each row
reports the median of its repeats and every value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

ROADMAP_MQ10 = {"tau": 10.0, "delta": 0.74}


def row_import(repeat):
    t0 = time.perf_counter()
    import spheredpp  # noqa: F401

    seconds = time.perf_counter() - t0
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spheredpp"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"import_s": seconds,
            "importtime_spheredpp_s": cumulative.get("spheredpp"),
            "importtime_scipy_stats_s": cumulative.get("scipy.stats")}


def _mq10_model(sp):
    eta_max = sp.multiquadric_eta_max(ROADMAP_MQ10["tau"], ROADMAP_MQ10["delta"], 2)
    spec = sp.ModelSpec("multiquadric", dict(ROADMAP_MQ10), 2, "kernel", rho=eta_max / (4 * math.pi))
    return sp.resolve(spec)


def row_resolve_tau1(repeat):
    import spheredpp as sp
    from inputs import MODELS

    spec = sp.load_model(MODELS["mq1-400"])
    t0 = time.perf_counter()
    model = sp.resolve(spec)
    return {"resolve_s": time.perf_counter() - t0, "eta": model.kernel.eta,
            "tail_bound": model.kernel.tail_bound, "levels": len(model.kernel.values)}


def row_cold_basis(repeat):
    import spheredpp as sp

    model = _mq10_model(sp)
    t0 = time.perf_counter()
    basis = sp.draw_bernoulli_basis(model.kernel, sp.substream(repeat, "basis"))
    return {"basis_s": time.perf_counter() - t0, "levels": len(model.kernel.values),
            "eta": model.kernel.eta, "max_selected_level": basis.max_level, "basis_size": len(basis)}


def row_projection(repeat):
    import spheredpp as sp

    from layers import Tracer

    model = _mq10_model(sp)
    rng = sp.substream(repeat, "basis")
    basis = sp.draw_bernoulli_basis(model.kernel, rng)
    tracer = Tracer()
    tracer.install()
    tracer.timed = True
    sp.sample_projection(basis, rng)
    return {"projection_s": tracer.sums["projection.s"], "n": len(basis),
            "proposals_used": tracer.sums["projection.used"],
            "proposals_evaluated": tracer.sums["eval_matrix.rows"]}


def row_log_density(repeat):
    import spheredpp as sp
    import tracemalloc

    from inputs import hard_core_pattern, rng_for

    angles = hard_core_pattern(rng_for(repeat, 0), n=293)
    pattern = sp.PointPattern(2, tuple(sp.SpherePoint.s2(a, b) for a, b in angles))
    spec = sp.ModelSpec("multiquadric", dict(ROADMAP_MQ10), 2, "density", chi=1.0)
    ctx = sp.DensityContext(sp.resolve(spec).density)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    sp.log_density(pattern, ctx)
    seconds = time.perf_counter() - t0
    rss_growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - before
    tracemalloc.start()
    sp.log_density(pattern, ctx)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {"log_density_s": seconds, "levels": len(ctx.density.values), "n": len(pattern),
            "peak_rss_growth_mb": rss_growth, "tracemalloc_peak_mb": peak}


ROWS = {
    "import": row_import,
    "resolve_tau1_eta400": row_resolve_tau1,
    "cold_basis_draw_tau10": row_cold_basis,
    "projection_tau10": row_projection,
    "log_density_n293_L728": row_log_density,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default=os.path.join(BENCH_DIR, "results", "BASELINE_ROWS.json"))
    p.add_argument("--row", choices=sorted(ROWS), help=argparse.SUPPRESS)
    p.add_argument("--repeat-index", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.row:
        print(json.dumps(ROWS[args.row](args.repeat_index)))
        return 0
    env = {k: v for k, v in os.environ.items() if k != "SPHEREDPP_THREADS"}
    results = {}
    for name in ROWS:
        runs = []
        for i in range(args.repeats):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--row", name,
                                   "--repeat-index", str(i + 1)],
                                  capture_output=True, text=True, env=env, cwd=ROOT, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(name, runs[-1], flush=True)
        medians = {k: statistics.median(r[k] for r in runs)
                   for k in runs[0] if all(isinstance(r[k], (int, float)) for r in runs)}
        results[name] = {"median": medians, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
    print("wrote", os.path.relpath(args.out, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
