"""The three workloads: simulate, fit and cli.

Each workload has a ``setup`` (timed by the caller together with the
package import, and repeated in fresh processes for ``setup_s``; it gets
the imported package, or None on ``cli``, whose commands import it), a
``round`` that the closed loop repeats until the run's time is up, and
checks on every output.  A round returns one
``Op`` per operation; ``finish`` returns run-level checks over all rounds.

``Op.failed`` marks an operation that failed any check.  ``Op.wrong``
marks the subset whose output contradicts itself or the model (wrong
point count, a log-density that disagrees with its log-likelihood,
output that does not parse); those make the run's ``correct`` false.  A
contract check that is not about consistency, such as the represented
eta falling short of the request, counts only as failed.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from inputs import (
    FIT_DELTAS,
    MODELS,
    REQUESTED_ETA,
    SIGMA_S2,
    TAIL_TOL,
    fit_model,
    hard_core_pattern,
    read_pattern_csv,
    rng_for,
    write_pattern_csv,
)

# each cli command must end well inside the run's 180 s limit
COMMAND_TIMEOUT_S = 150
VALIDATE_REPS = 40
FIT_PATTERNS = 4
RAISED = "raised"


@dataclass
class Op:
    kind: str
    seconds: float
    failed: bool = False
    wrong: bool = False
    points: int = 0
    notes: list = field(default_factory=list)


def _fail(op: Op, note: str, wrong: bool = True) -> None:
    op.failed = True
    op.wrong = op.wrong or wrong
    op.notes.append(note)


def _distinct_finite(angles: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(angles))) and len(np.unique(angles, axis=0)) == len(angles)


def _p50(values):
    return statistics.median(values) if values else float("nan")


class Simulate:
    """Warm in-process sampling of mq10-400 and mr-400, alternating."""

    name = "simulate"
    models_used = ("mq10-400", "mr-400")

    def __init__(self, seed, tracer, workdir):
        self.seed, self.tracer, self.workdir = seed, tracer, workdir
        self.counts = {m: [] for m in self.models_used}

    def setup(self, sp) -> None:
        self.sp = sp
        self.models = {m: sp.resolve(sp.load_model(MODELS[m])) for m in self.models_used}
        # one warm-up basis draw per model fills the basis caches (sup table)
        for k, m in enumerate(self.models_used):
            sp.draw_bernoulli_basis(self.models[m].kernel, rng_for(self.seed, 0, 1000 + k))

    def round(self, i: int) -> list[Op]:
        ops = []
        for k, m in enumerate(self.models_used):
            rng = rng_for(self.seed, i, k)
            t0 = time.perf_counter()
            result = self.sp.sample_dpp(self.models[m], rng)
            op = Op(m, time.perf_counter() - t0)
            angles = result.pattern.angles()
            op.points = len(angles)
            if len(angles) != result.basis_size:
                _fail(op, f"{len(angles)} points for a basis of {result.basis_size}")
            if not _distinct_finite(angles):
                _fail(op, "points not distinct and finite")
            self.counts[m].append(len(angles))
            ops.append(op)
        return ops

    def finish(self) -> list[Op]:
        """Pooled mean count of each model against the requested eta, at 4 s.e."""
        checks = []
        for m in self.models_used:
            counts = self.counts[m]
            if not counts:
                continue
            se = math.sqrt(self.models[m].kernel.count_variance / len(counts))
            mean = statistics.fmean(counts)
            op = Op(f"pooled-count:{m}", 0.0)
            if abs(mean - REQUESTED_ETA[m]) > 4.0 * se + 1e-9:
                _fail(op, f"mean count {mean:.2f} vs eta {REQUESTED_ETA[m]} (4 se = {4 * se:.2f})")
            checks.append(op)
        return checks

    @staticmethod
    def summary(rounds: list[list[Op]]) -> dict:
        mq = [r[0].seconds for r in rounds]
        mr = [r[1].seconds for r in rounds]
        points = sum(op.points for r in rounds for op in r)
        seconds = sum(op.seconds for r in rounds for op in r)
        return {
            "round_s": _p50([a + b for a, b in zip(mq, mr)]),
            "op_p50_s": _p50(mq),
            "sim_mq_p50_s": _p50(mq),
            "sim_mr_p50_s": _p50(mr),
            "sim_points_per_s": points / seconds,
            "samples": len(mq),
        }


class Fit:
    """Profile fits over the delta grid on numpy-generated hard-core patterns."""

    name = "fit"

    def __init__(self, seed, tracer, workdir):
        self.seed, self.tracer, self.workdir = seed, tracer, workdir

    def setup(self, sp) -> None:
        self.sp = sp
        self.patterns = []
        for j in range(FIT_PATTERNS):
            angles = hard_core_pattern(rng_for(self.seed, j))
            points = tuple(sp.SpherePoint.s2(float(a), float(b)) for a, b in angles)
            self.patterns.append(sp.PointPattern(2, points))

    def round(self, i: int) -> list[Op]:
        sp = self.sp
        pattern = self.patterns[i % FIT_PATTERNS]
        ops = []
        for delta in FIT_DELTAS:
            t0 = time.perf_counter()
            model = sp.resolve(sp.load_model(fit_model(delta)))
            alpha = sp.correlation_mercer(model.correlation_beta)
            fit = sp.newton_mle(pattern, sp.ScaledFitSpec.from_correlation(alpha))
            density = sp.MercerSpectrum(2, "density-kernel", fit.chi * alpha.values, alpha.tail_bound)
            value = sp.log_density(pattern, sp.DensityContext(density))
            op = Op(f"delta={delta}", time.perf_counter() - t0)
            if not fit.converged or not abs(fit.score) < 1e-8:
                _fail(op, f"Newton converged={fit.converged} score={fit.score:.3e}")
            expected = SIGMA_S2 + fit.loglik
            if not abs(value - expected) <= 1e-8 * abs(value):
                _fail(op, f"log_density {value!r} != sigma_2 + loglik {expected!r}")
            ops.append(op)
        return ops

    def finish(self) -> list[Op]:
        return []

    @staticmethod
    def summary(rounds: list[list[Op]]) -> dict:
        steps = [op.seconds for r in rounds for op in r]
        patterns = [sum(op.seconds for op in r) for r in rounds]
        # the steps of a round differ by design (L from 386 to 1668), so the
        # median single step is the middle-delta step of one or two rounds;
        # the mean step of each round uses every step the run timed
        return {
            "round_s": _p50(patterns),
            "op_p50_s": _p50([t / len(FIT_DELTAS) for t in patterns]),
            "fit_step_mean_p50_s": _p50([t / len(FIT_DELTAS) for t in patterns]),
            "fit_step_p50_s": _p50(steps),
            "fit_pattern_s": _p50(patterns),
            "samples": len(steps),
        }


class Cli:
    """A cold user session: each command is a fresh ``python -m spheredpp.cli``."""

    name = "cli"

    def __init__(self, seed, tracer, workdir):
        self.seed, self.tracer, self.workdir = seed, tracer, workdir
        self.env = dict(os.environ)
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self, sp) -> None:
        for name, spec in MODELS.items():
            with open(self._path(f"{name}.json"), "w") as fh:
                json.dump(spec, fh)
        write_pattern_csv(self._path("fit-pattern.csv"), hard_core_pattern(rng_for(self.seed, 0)))
        # the tool's cold start; it also brings the package files into the page cache
        rc, _, err, _ = self._command(["--help"], "help", record=False)
        if rc != 0:
            raise RuntimeError(f"spheredpp --help exited {rc}: {err}")

    def _command(self, args, label, record=True):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "spheredpp.cli", *args]
            stats_path = None
        else:
            stats_path = self._path(f"stats-{label}.json")
            cmd = [sys.executable, os.path.join(self.bench_dir, "traced_cli.py"), stats_path, *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=COMMAND_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if stats_path and os.path.exists(stats_path):
            if record:
                with open(stats_path) as fh:
                    self.tracer.merge(json.load(fh))
            os.remove(stats_path)
        return proc.returncode, proc.stdout, proc.stderr, seconds

    def round(self, i: int) -> list[Op]:
        seeds = rng_for(self.seed, i).integers(0, 2**31 - 1, size=2)
        steps = [
            ("coeffs", ["coeffs", "--model", "mq1-400.json", "--out", "coeffs.csv"],
             self._check_coeffs),
            ("simulate", ["simulate", "--model", "mq10-400.json", "--seed", str(seeds[0]),
                          "--out", "sim.csv"], self._check_simulate),
            ("mle", ["mle", "--model", "mq10-400.json", "--pattern", "fit-pattern.csv"],
             self._check_mle),
            ("validate", ["validate", "--model", "sp-8-1-2.json", "--reps", str(VALIDATE_REPS),
                          "--seed", str(seeds[1])], self._check_validate),
        ]
        for stale in ("coeffs.csv", "sim.csv", "sim.csv.json"):
            if os.path.exists(self._path(stale)):
                os.remove(self._path(stale))
        ops = []
        for label, args, check in steps:
            rc, out, err, seconds = self._command(args, label)
            op = Op(label, seconds)
            if rc != 0:
                _fail(op, f"exit code {rc}: {err.strip()[-200:]}", wrong=False)
            else:
                try:
                    check(op, out)
                except (ValueError, KeyError, IndexError, OSError) as exc:
                    _fail(op, f"output does not parse: {exc!r}")
            ops.append(op)
        return ops

    def _check_coeffs(self, op, out):
        eta = float(out.rsplit("eta = ", 1)[1].rstrip().rstrip(")"))
        table = np.loadtxt(self._path("coeffs.csv"), delimiter=",", skiprows=1, ndmin=2)
        levels, mults, lam = table[:, 0], table[:, 1], table[:, 3]
        if not np.array_equal(levels, np.arange(len(levels))) or not np.all(np.isfinite(lam)):
            _fail(op, "coefficient table is not a finite level table")
        if not math.isclose(float(np.sum(mults * lam)), eta, rel_tol=1e-9):
            _fail(op, f"table sums to eta {np.sum(mults * lam)!r}, stdout says {eta!r}")
        requested = REQUESTED_ETA["mq1-400"]
        if eta < (1.0 - TAIL_TOL) * requested:
            _fail(op, f"represented eta {eta:.6g} < (1 - tail_tol) * {requested:g}", wrong=False)

    def _check_simulate(self, op, out):
        angles = read_pattern_csv(self._path("sim.csv"))
        with open(self._path("sim.csv.json")) as fh:
            sidecar = json.load(fh)
        if not (len(angles) == sidecar["points"] == sidecar["basis_size"]):
            _fail(op, f"{len(angles)} rows, sidecar {sidecar['points']}/{sidecar['basis_size']}")
        if not _distinct_finite(angles):
            _fail(op, "points not distinct and finite")

    def _check_mle(self, op, out):
        fit = json.loads(out)
        if fit["converged"] is not True or not abs(fit["score"]) < 1e-8:
            _fail(op, f"Newton converged={fit['converged']} score={fit['score']!r}")
        if not math.isfinite(fit["loglik"]) or not fit["chi"] > 0:
            _fail(op, "non-finite log-likelihood or chi")

    def _check_validate(self, op, out):
        report = json.loads(out)
        if report["replicates"] != VALIDATE_REPS or not math.isfinite(report["mean_count"]):
            _fail(op, f"report for {report['replicates']} replicates, mean {report['mean_count']}")

    def finish(self) -> list[Op]:
        return []

    @staticmethod
    def summary(rounds: list[list[Op]]) -> dict:
        sessions = [sum(op.seconds for op in r) for r in rounds]
        simulate = [op.seconds for r in rounds for op in r if op.kind == "simulate"]
        # a run holds one or two sessions, so a single command type gives one
        # or two samples of a few seconds each; the mean command of each
        # session uses every command the run timed
        commands = [t / len(r) for t, r in zip(sessions, rounds)]
        return {
            "round_s": _p50(sessions),
            "op_p50_s": _p50(commands),
            "cli_command_mean_p50_s": _p50(commands),
            "cli_session_s": _p50(sessions),
            "cli_simulate_s": _p50(simulate),
            "samples": len(sessions),
        }


WORKLOADS = {w.name: w for w in (Simulate, Fit, Cli)}


def run_round(workload, i: int) -> list[Op]:
    """One round; an exception fails the round's remaining operations."""
    try:
        return workload.round(i)
    except Exception:  # noqa: BLE001 - the loop must keep measuring
        traceback.print_exc(file=sys.stderr)
        op = Op(RAISED, float("nan"))
        _fail(op, f"round {i} raised", wrong=False)
        return [op]


def complete(rounds: list[list[Op]]) -> list[list[Op]]:
    """Rounds in which every operation ran to the end."""
    return [r for r in rounds if all(op.kind != RAISED for op in r)]
