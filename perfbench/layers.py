"""Per-layer tracing from outside the package.

``Tracer.install`` wraps public functions of the package at every module
binding that refers to them (``spheredpp.sampler.plm_sup_sq`` as well as
``spheredpp.harmonics.plm_sup_sq``), so calls made by the package itself
are seen.  Each wrapper times the call and records work counts from its
arguments and result.  Nothing inside the package changes.

Calls are recorded only while ``tracer.timed`` is true (the measured
region), except the sup-table build and the import, which are set-up
costs by nature and are recorded in every phase.  A target that no
longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import tracemalloc
from collections import defaultdict

MB = 1024.0 * 1024.0
SIGMA = {1: 2.0 * math.pi, 2: 4.0 * math.pi}

CLI_COMMANDS = ("coeffs", "simulate", "mle", "validate")


def harmonic_number(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Recorders: (tracer, seconds, result, args, kwargs) -> None.  Keys in
# ``tracer.sums`` accumulate, keys in ``tracer.maxes`` keep the largest value.


def _rec_geodesic(t, dt, result, args, kwargs):
    t.add("geodesic.calls", 1)
    t.add("geodesic.s", dt)


def _rec_plm_sup(t, dt, result, args, kwargs):
    t.add("plm_sup.s_all_phases", dt)
    t.peak("plm_sup.lmax", _arg(args, kwargs, 0, "l_max"))


def _rec_norm_plm(t, dt, result, args, kwargs):
    x = _arg(args, kwargs, 1, "x")
    t.add("norm_plm.s", dt)
    t.add("norm_plm.points", getattr(x, "size", 1))


def _rec_basis(t, dt, basis, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    t.add("basis.calls", 1)
    t.add("basis.s", dt)
    t.add("basis.size", len(basis))
    t.peak("basis.max_level", basis.max_level)
    t.peak("basis.spectrum_levels", len(spec.values))


def _rec_projection(t, dt, result, args, kwargs):
    basis = _arg(args, kwargs, 0, "basis")
    n = len(basis)
    m_sigma = basis.envelope * SIGMA[basis.dim]
    t.add("projection.calls", 1)
    t.add("projection.s", dt)
    t.add("projection.points", len(result.pattern))
    t.add("projection.used", result.n_proposals)
    t.add("projection.envelope_sigma", m_sigma)
    t.add("projection.expected", m_sigma * harmonic_number(n))


def _rec_eval_matrix(t, dt, result, args, kwargs):
    t.add("eval_matrix.rows", _arg(args, kwargs, 1, "angles").shape[0])


def _rec_resolve(t, dt, model, args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    t.add("resolve.calls", 1)
    t.add("resolve.s", dt)
    t.add("resolve.levels", len(model.kernel.values))
    t.peak("resolve.conversion_weight_calls", t.window.get("conversion_weight", 0))
    requested = _requested_eta(spec)
    if requested:
        t.peak("resolve.eta_shortfall", 1.0 - model.kernel.eta / requested)


def _requested_eta(spec):
    if spec.family == "most_repulsive":
        return spec.params["eta"]
    if spec.mode == "kernel" and spec.rho is not None:
        return spec.rho * SIGMA[spec.dim]
    return None


def _rec_radial(t, dt, result, args, kwargs):
    coeffs = _arg(args, kwargs, 0, "coeffs")
    s = _arg(args, kwargs, 2, "s")
    t.add("radial.calls", 1)
    t.add("radial.s", dt)
    # computed, not measured: the (L+1) x N float64 table the evaluator builds
    t.peak("radial.table_mb", len(coeffs) * max(getattr(s, "size", 1), 1) * 8 / MB)


def _rec_log_density(t, dt, result, args, kwargs):
    t.add("log_density.calls", 1)
    t.add("log_density.s", dt)


def _rec_mle(t, dt, fit, args, kwargs):
    t.add("mle.calls", 1)
    t.add("mle.s", dt)
    t.add("mle.iterations", fit.iterations)


def _rec_validate(t, dt, report, args, kwargs):
    t.add("validate.calls", 1)
    t.add("validate.s", dt)
    t.add("validate.reps", _arg(args, kwargs, 1, "n_reps"))


# (module, attribute path, recorder, per-layer metrics that depend on it)
TARGETS = [
    ("spheredpp.sphere", "pairwise_geodesic", _rec_geodesic, ["sphere.pairwise_geodesic_s"]),
    ("spheredpp.harmonics", "plm_sup_sq", _rec_plm_sup,
     ["harmonics.plm_sup_sq_s", "harmonics.plm_sup_sq_lmax"]),
    ("spheredpp.harmonics", "norm_plm_table", _rec_norm_plm,
     ["harmonics.norm_plm_table_s", "harmonics.norm_plm_points"]),
    ("spheredpp.sampler", "draw_bernoulli_basis", _rec_basis,
     ["sampler.basis_s", "sampler.basis_size", "sampler.max_selected_level",
      "sampler.spectrum_levels"]),
    ("spheredpp.sampler", "sample_projection", _rec_projection,
     ["sampler.projection_s", "sampler.envelope_sigma", "sampler.proposals_expected",
      "sampler.proposals_used", "sampler.useful_ratio", "sampler.acceptance",
      "harmonics.norm_plm_table_s", "harmonics.norm_plm_points",
      "sampler.proposals_evaluated"]),
    ("spheredpp.sampler", "ProjectionBasis.eval_matrix", _rec_eval_matrix,
     ["sampler.proposals_evaluated", "sampler.useful_ratio"]),
    ("spheredpp.models", "resolve", _rec_resolve,
     ["models.resolve_s", "models.levels", "models.eta_shortfall",
      "spectra.conversion_weight_calls"]),
    ("spheredpp.spectra", "conversion_weight", None, ["spectra.conversion_weight_calls"]),
    ("spheredpp.spectra", "eval_radial_series", _rec_radial,
     ["spectra.radial_eval_s", "spectra.radial_table_mb"]),
    ("spheredpp.likelihood", "log_density", _rec_log_density,
     ["likelihood.log_density_s", "likelihood.alloc_peak_mb"]),
    ("spheredpp.likelihood", "newton_mle", _rec_mle,
     ["likelihood.newton_mle_s", "likelihood.mle_iterations"]),
    ("spheredpp.diagnostics", "montecarlo_validate", _rec_validate,
     ["diagnostics.validate_s", "diagnostics.validate_reps"]),
]
ALL_PHASES = {"plm_sup_sq"}
TRACK_ALLOC = {"log_density"}


class Tracer:
    """Aggregates of the wrapped calls of one process (or several, merged)."""

    def __init__(self):
        self.timed = False
        self.sums = defaultdict(float)
        self.maxes = defaultdict(float)
        self.missing: set[str] = set()
        # running call counts of the count-only targets, and their change
        # over the call being recorded
        self.counts = defaultdict(int)
        self.window = {}

    def add(self, key, value):
        self.sums[key] += value

    def peak(self, key, value):
        self.maxes[key] = max(self.maxes[key], float(value))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each binding in the loaded package modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spheredpp" or name.startswith("spheredpp."))]
        for module_name, path, recorder, metrics in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.update(metrics)
                continue
            wrapper = self._wrap(attr, original, recorder)
            if owner_path:  # a method: rebinding the class attribute is enough
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, name, fn, recorder):
        tracer = self
        if recorder is None:  # count-only: too hot to time each call

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        all_phases = name in ALL_PHASES
        track_alloc = name in TRACK_ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (tracer.timed or all_phases):
                return fn(*args, **kwargs)
            if track_alloc:
                tracemalloc.start()
            before = dict(tracer.counts)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if track_alloc:
                    tracer.peak("log_density.alloc_peak_mb", tracemalloc.get_traced_memory()[1] / MB)
                    tracemalloc.stop()
            tracer.window = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            recorder(tracer, dt, result, args, kwargs)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def record_process(self, import_s: float) -> None:
        """Per-process set-up costs: the package import and, if built, the sup table."""
        self.add("processes", 1)
        self.add("import.s", import_s)
        if self.sums.get("plm_sup.s_all_phases"):
            self.add("plm_sup.procs", 1)

    def record_command(self, command: str, seconds: float) -> None:
        self.add(f"cmd.{command}.calls", 1)
        self.add(f"cmd.{command}.s", seconds)

    def export(self) -> dict:
        return {"sums": dict(self.sums), "maxes": dict(self.maxes), "missing": sorted(self.missing)}

    def merge(self, data: dict) -> None:
        for key, value in data["sums"].items():
            self.sums[key] += value
        for key, value in data["maxes"].items():
            self.peak(key, value)
        self.missing.update(data["missing"])

    def metrics(self, units: dict) -> dict:
        """The per-layer metrics named in ``units`` (name -> unit)."""
        s, m = self.sums, self.maxes

        def per(key, calls):
            return s[key] / s[calls] if s[calls] else 0.0

        values = {
            "sphere.pairwise_geodesic_s": per("geodesic.s", "geodesic.calls"),
            "harmonics.plm_sup_sq_s": per("plm_sup.s_all_phases", "plm_sup.procs"),
            "harmonics.plm_sup_sq_lmax": m["plm_sup.lmax"],
            "harmonics.norm_plm_table_s": per("norm_plm.s", "projection.calls"),
            "harmonics.norm_plm_points": per("norm_plm.points", "projection.calls"),
            "sampler.basis_s": per("basis.s", "basis.calls"),
            "sampler.projection_s": per("projection.s", "projection.calls"),
            "sampler.basis_size": per("basis.size", "basis.calls"),
            "sampler.max_selected_level": m["basis.max_level"],
            "sampler.spectrum_levels": m["basis.spectrum_levels"],
            "sampler.envelope_sigma": per("projection.envelope_sigma", "projection.calls"),
            "sampler.proposals_expected": per("projection.expected", "projection.calls"),
            "sampler.proposals_used": per("projection.used", "projection.calls"),
            "sampler.proposals_evaluated": per("eval_matrix.rows", "projection.calls"),
            "sampler.useful_ratio": per("projection.used", "eval_matrix.rows"),
            "sampler.acceptance": per("projection.points", "projection.used"),
            "models.resolve_s": per("resolve.s", "resolve.calls"),
            "models.levels": per("resolve.levels", "resolve.calls"),
            "models.eta_shortfall": m["resolve.eta_shortfall"],
            "spectra.conversion_weight_calls": m["resolve.conversion_weight_calls"],
            "spectra.radial_eval_s": per("radial.s", "radial.calls"),
            "spectra.radial_table_mb": m["radial.table_mb"],
            "likelihood.log_density_s": per("log_density.s", "log_density.calls"),
            "likelihood.newton_mle_s": per("mle.s", "mle.calls"),
            "likelihood.mle_iterations": per("mle.iterations", "mle.calls"),
            "likelihood.alloc_peak_mb": m["log_density.alloc_peak_mb"],
            "diagnostics.validate_s": per("validate.s", "validate.calls"),
            "diagnostics.validate_reps": per("validate.reps", "validate.calls"),
            "cli.import_s": per("import.s", "processes"),
        }
        for command in CLI_COMMANDS:
            values[f"cli.{command}_s"] = per(f"cmd.{command}.s", f"cmd.{command}.calls")
        out = {}
        for name, unit in units.items():
            if name in self.missing or name not in values:
                out[name] = {"value": None, "unit": unit, "missing": True}
            else:
                out[name] = {"value": values[name], "unit": unit}
        return out


def import_package(tracer: Tracer | None):
    """Import the package (timed) and install the tracer; returns (module, seconds).

    Call it before anything loads numpy (this module does not), so that the
    time includes numpy's and scipy's imports, as a user's ``import`` does.
    """
    t0 = time.perf_counter()
    import spheredpp
    import spheredpp.cli  # noqa: F401 - the CLI module is part of the import floor

    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
    return spheredpp, import_s

