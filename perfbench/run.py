"""spheredpp benchmark: one workload, one closed-loop client, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload {simulate,fit,cli} --seed N --seconds S --trace {0,1}

BENCHMARK.json gates fit and cli; simulate runs by hand (README.md says why).

The package is imported from ``src/`` next to this directory; nothing is
installed.  Set-up runs SETUPS[workload] times (the last in this process,
the others in fresh processes) and ``setup_s`` is their median.  The timed
loop then repeats whole rounds until S seconds have passed.  Human-readable
lines go first; the last line of stdout is the JSON result.  With
``--trace 1`` the per-layer tracer is installed and the result holds the
per-layer metrics instead of the end-to-end ones (which are still printed
above it, so that traced minus untraced gives the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MB = 1024.0  # ru_maxrss is in KiB on Linux
# set-ups per run: a simulate set-up builds the sup table (about 10 s), the
# others take about 1 s, so they can afford more samples for their median
SETUPS = {"simulate": 3, "fit": 5, "cli": 5}
# one BLAS thread: a second one adds little on these workloads and makes the
# run sensitive to whatever else holds the machine's other core
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["simulate", "fit", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="also write the full run record (JSON) to this file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare_environment() -> None:
    """Import the package from this checkout's sources, with no package thread
    override and one BLAS thread (before numpy loads, here and in children)."""
    if not os.path.isfile(os.path.join(SRC, "spheredpp", "__init__.py")):
        sys.exit(f"error: package sources not found at {SRC}/spheredpp")
    os.environ.pop("SPHEREDPP_THREADS", None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def environment_record() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metric_units(section: str) -> dict:
    """Metric name -> unit of one section of BENCHMARK.json (what each
    end-to-end metric means per workload is in README.md)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def child_setup_seconds(args) -> float:
    """Time one set-up in a fresh process (cold import, cold caches)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", str(args.trace), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup(args, tracer, workdir):
    """Import the package (on the in-process workloads) and set the workload
    up; returns (workload, import seconds or None, set-up seconds).

    The benchmark's own numpy-importing modules load after the package, so
    the set-up time includes the import of numpy and scipy that a user pays.
    """
    from layers import import_package

    t0 = time.perf_counter()
    package, import_s = (None, None) if args.workload == "cli" else import_package(tracer)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tracer, workdir)
    workload.setup(package)
    return workload, import_s, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    from layers import Tracer

    workdir = os.path.join(BENCH_DIR, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = Tracer() if args.trace else None
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args, tracer, workdir)[2]}))
            return 0

        setup_times = [child_setup_seconds(args) for _ in range(SETUPS[args.workload] - 1)]
        workload, import_s, setup_s = setup(args, tracer, workdir)
        setup_times.append(setup_s)
        from workloads import WORKLOADS, complete, run_round

        if tracer is not None:
            tracer.timed = True
        rounds = []
        t_start = time.perf_counter()
        while True:
            rounds.append(run_round(workload, len(rounds)))
            if time.perf_counter() - t_start >= args.seconds:
                break
        timed_s = time.perf_counter() - t_start
        checks = workload.finish()
        if tracer is not None:
            tracer.timed = False

        if not complete(rounds):
            print("error: no round ran to the end; nothing to measure", file=sys.stderr)
            return 1
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        summary = WORKLOADS[args.workload].summary(complete(rounds))
        ops = [op for r in rounds for op in r] + checks
        failed = sum(op.failed for op in ops)
        e2e = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / MB,
            "round_s": summary["round_s"],
            "op_p50_s": summary["op_p50_s"],
        }
        if tracer is not None and import_s is not None:
            tracer.record_process(import_s)

        env = environment_record()
        print("env " + json.dumps(env, sort_keys=True))
        for op in ops:
            if op.failed:
                print(f"FAILED {op.kind}: {'; '.join(op.notes)}")
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"rounds {len(rounds)}  timed {timed_s:.1f} s  setups {[round(t, 3) for t in setup_times]}")
        for name, value in {**e2e, **summary}.items():
            print(f"  {name:<18} {value:.6g}")
        print(f"  {'failed_frac':<18} {failed / len(ops):.6g}  ({failed} of {len(ops)})")

        if tracer is not None:
            metrics = tracer.metrics(metric_units("per_layer"))
        else:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in metric_units("end_to_end").items()}
        result = {
            "correct": not any(op.wrong for op in ops),
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        }
        if args.out:
            record = {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "env": env, "setup_times": setup_times,
                "end_to_end": e2e, "summary": summary, "failed_frac": failed / len(ops),
                "result": result,
                "ops": [{"kind": op.kind, "seconds": op.seconds, "failed": op.failed,
                         "notes": op.notes} for op in ops],
            }
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
